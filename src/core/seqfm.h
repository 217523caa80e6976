#ifndef SEQFM_CORE_SEQFM_H_
#define SEQFM_CORE_SEQFM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "core/model_interface.h"
#include "data/feature_space.h"
#include "nn/layers.h"
#include "nn/masks.h"
#include "nn/module.h"
#include "util/rng.h"

namespace seqfm {
namespace core {

/// \brief Hyperparameters of SeqFM (Sec. IV-D) plus the Table V ablation
/// switches.
struct SeqFmConfig {
  /// Latent dimension d (paper default 64).
  size_t embedding_dim = 64;
  /// Depth l of the shared residual feed-forward network (paper default 1).
  size_t ffn_layers = 1;
  /// Maximum dynamic sequence length n. (paper default 20). Must equal the
  /// BatchBuilder's max_seq_len.
  size_t max_seq_len = 20;
  /// Dropout ratio rho interpreted as the KEEP probability (paper default
  /// 0.6; Sec. VI-B observes that smaller rho blocks more neurons, i.e. rho
  /// is the kept fraction — see README.md, "Departures from the paper").
  float keep_prob = 0.6f;

  /// Table V ablations: "Remove SV/DV/CV/RC/LN".
  bool use_static_view = true;
  bool use_dynamic_view = true;
  bool use_cross_view = true;
  bool use_residual = true;
  bool use_layer_norm = true;

  /// Optional extension (not in the paper): also mask attention *to*
  /// padding positions in the dynamic and cross views.
  bool mask_padding_keys = false;

  uint64_t seed = 42;
};

/// \brief Candidate-invariant state of one serving request: everything the
/// (user, history) context determines, computed once per request by the
/// compiled prologue (ir::Engine::MakeContext) and re-used for every
/// candidate chunk of the body.
///
/// This is the serving analogue of an LLM server's KV cache: serve::Predictor
/// computes it once per request and serve::ContextCache memoizes it across
/// requests keyed on (user, history hash). Works for ANY compilable model.
/// The struct is immutable after construction and safe to share across
/// scoring threads.
struct SharedContext {
  int32_t user_index = 0;
  std::vector<int32_t> dynamic_ids;  // builder layout, length max_seq_len
  /// The prologue's candidate-invariant output tensors, in slot order, plus
  /// the uid of the engine whose body programs may consume them.
  std::vector<tensor::Tensor> slots;
  uint64_t engine_uid = 0;

  /// Resident bytes of the context's tensors + id buffer — the unit of
  /// serve::ContextCache's byte budget.
  size_t ApproxBytes() const;
};

/// \brief Sequence-Aware Factorization Machine (the paper's model, Eq. 19):
///
///   y(x) = w0 + [ (G_s w_s)^T ; (G_d w_d)^T ] 1 + <p, h_agg>
///
/// where h_agg concatenates the static-, dynamic- and cross-view
/// representations produced by multi-view self-attention (Eqs. 6-13),
/// intra-view mean pooling (Eq. 14) and a shared residual feed-forward
/// network (Eq. 15). The raw score is returned for all tasks; task heads
/// (BPR / sigmoid+logloss / squared error) are applied by the Trainer.
class SeqFm : public nn::Module, public Model {
 public:
  SeqFm(const data::FeatureSpace& space, const SeqFmConfig& config);

  autograd::Variable Score(const data::Batch& batch, bool training) override;

  std::vector<autograd::Variable> TrainableParameters() override {
    return Parameters();
  }

  std::string name() const override { return "SeqFM"; }

  const SeqFmConfig& config() const { return config_; }

  /// Number of views enabled by the configuration (1..3).
  size_t num_views() const;

 private:
  /// Intra-view pooling + shared FFN for one view's attention output.
  autograd::Variable PoolAndRefine(const autograd::Variable& h, float divisor,
                                   bool training);

  SeqFmConfig config_;
  data::FeatureSpace space_;
  Rng rng_;

  std::unique_ptr<nn::Embedding> static_embedding_;
  std::unique_ptr<nn::Embedding> dynamic_embedding_;
  std::unique_ptr<nn::SelfAttention> static_attention_;
  std::unique_ptr<nn::SelfAttention> dynamic_attention_;
  std::unique_ptr<nn::SelfAttention> cross_attention_;
  std::unique_ptr<nn::ResidualFeedForward> ffn_;

  autograd::Variable w0_;        // [1] global bias
  autograd::Variable w_static_;  // [m_static, 1] first-order weights
  autograd::Variable w_dynamic_; // [m_dynamic, 1]
  autograd::Variable p_;         // [num_views * d, 1] output projection

  autograd::Variable causal_mask_;  // [n., n.] (Eq. 10)
  autograd::Variable cross_mask_;   // [(n_s+n.), (n_s+n.)] (Eq. 13)
};

}  // namespace core
}  // namespace seqfm

#endif  // SEQFM_CORE_SEQFM_H_
