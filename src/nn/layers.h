#ifndef SEQFM_NN_LAYERS_H_
#define SEQFM_NN_LAYERS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "nn/module.h"
#include "util/rng.h"

namespace seqfm {
namespace nn {

using autograd::Variable;

/// \brief Affine map y = xW + b. Accepts rank-2 [B,in] or rank-3 [B,n,in]
/// input (the weight is shared over axis 1 for rank-3).
class Linear : public Module {
 public:
  Linear(size_t in_dim, size_t out_dim, Rng* rng, bool use_bias = true);

  Variable Forward(const Variable& x) const;

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }
  const Variable& weight() const { return weight_; }

 private:
  size_t in_dim_, out_dim_;
  bool use_bias_;
  Variable weight_;  // [in, out]
  Variable bias_;    // [out]
};

/// \brief Dense embedding table; negative indices embed to the zero vector
/// and receive no gradient (used for top-padded dynamic sequences).
class Embedding : public Module {
 public:
  Embedding(size_t vocab, size_t dim, Rng* rng, float stddev = 0.05f);

  /// Gathers rows: indices laid out row-major [batch, n] -> [batch, n, dim].
  Variable Forward(const std::vector<int32_t>& indices, size_t batch,
                   size_t n) const;
  /// Pointer form: \p indices need not outlive the call (scratch arenas).
  Variable Forward(const int32_t* indices, size_t batch, size_t n) const;

  const Variable& table() const { return table_; }
  size_t vocab() const { return vocab_; }
  size_t dim() const { return dim_; }

 private:
  size_t vocab_, dim_;
  Variable table_;  // [vocab, dim]
};

/// \brief Layer normalization over the last dimension with learnable
/// gain/bias (Eq. 16).
class LayerNorm : public Module {
 public:
  explicit LayerNorm(size_t dim);

  Variable Forward(const Variable& x) const;

  size_t dim() const { return dim_; }

 private:
  size_t dim_;
  Variable gamma_;  // [dim], init 1
  Variable beta_;   // [dim], init 0
};

/// \brief Single-head scaled dot-product self-attention (Eqs. 6-13):
/// H = softmax(E Wq (E Wk)^T / sqrt(d) + M) E Wv.
///
/// The mask M is passed per call (static view: none; dynamic view: causal;
/// cross view: cross-block mask) so one class serves all three views.
class SelfAttention : public Module {
 public:
  SelfAttention(size_t dim, Rng* rng);

  /// \p e is [B, n, d]; \p mask is a constant [n, n] additive mask or an
  /// empty Variable for the unmasked static view.
  Variable Forward(const Variable& e, const Variable& mask) const;

  size_t dim() const { return dim_; }

 private:
  size_t dim_;
  Variable wq_, wk_, wv_;  // [d, d] each
};

/// \brief The paper's shared residual feed-forward network (Eq. 15):
/// h_t = h_{t-1} + Dropout(ReLU(LN(h_{t-1}) W_t + b_t)).
///
/// One instance is shared by the three views; residual connections and layer
/// normalization can be disabled for the Table V ablations.
class ResidualFeedForward : public Module {
 public:
  ResidualFeedForward(size_t dim, size_t num_layers, Rng* rng,
                      bool use_residual = true, bool use_layer_norm = true);

  /// \p h is [B, d]. Dropout is active only when \p training.
  Variable Forward(const Variable& h, float keep_prob, bool training,
                   Rng* rng) const;

  size_t num_layers() const { return layers_.size(); }

 private:
  struct Layer {
    Variable weight;  // [d, d]
    Variable bias;    // [d]
    Variable gamma;   // [d]
    Variable beta;    // [d]
  };
  size_t dim_;
  bool use_residual_, use_layer_norm_;
  std::vector<Layer> layers_;
};

/// \brief Plain multi-layer perceptron used by the DNN-based baselines
/// (Wide&Deep, NFM, DeepCross towers, DIN, xDeepFM).
class Mlp : public Module {
 public:
  /// \p dims = {in, hidden..., out}. ReLU between layers; the final layer is
  /// linear (no activation).
  Mlp(const std::vector<size_t>& dims, Rng* rng);

  Variable Forward(const Variable& x, float keep_prob, bool training,
                   Rng* rng) const;

 private:
  std::vector<Linear*> layer_ptrs_;
  std::vector<std::unique_ptr<Linear>> layers_;
};

/// \brief Minimal GRU used by the RRN baseline. Processes a [B, n, d]
/// sequence and returns the final hidden state [B, hidden].
class Gru : public Module {
 public:
  Gru(size_t input_dim, size_t hidden_dim, Rng* rng);

  Variable Forward(const Variable& seq) const;

  size_t hidden_dim() const { return hidden_dim_; }

 private:
  Variable Step(const Variable& x, const Variable& h) const;

  size_t input_dim_, hidden_dim_;
  Variable wz_, uz_, bz_;
  Variable wr_, ur_, br_;
  Variable wh_, uh_, bh_;
};

}  // namespace nn
}  // namespace seqfm

#endif  // SEQFM_NN_LAYERS_H_
