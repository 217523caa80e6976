#ifndef SEQFM_BASELINES_RRN_H_
#define SEQFM_BASELINES_RRN_H_

#include "baselines/common.h"

namespace seqfm {
namespace baselines {

/// \brief Recurrent Recommender Network (Wu et al. 2017, [1]), adapted to
/// the shared pipeline: a GRU consumes the embedded rating history to
/// produce the user's dynamic state, which is combined with stationary user
/// and item embeddings in a small MLP head (the paper's stationary +
/// dynamic factor decomposition; we use one GRU over the user sequence
/// rather than dual user/item LSTMs — see README.md, "Departures from the
/// paper").
class Rrn : public nn::Module, public core::Model {
 public:
  Rrn(const data::FeatureSpace& space, const BaselineConfig& config);

  autograd::Variable Score(const data::Batch& batch, bool training) override;
  std::vector<autograd::Variable> TrainableParameters() override {
    return Parameters();
  }
  std::string name() const override { return "RRN"; }

 private:
  BaselineConfig config_;
  data::FeatureSpace space_;
  Rng rng_;
  std::unique_ptr<nn::Embedding> item_embedding_;
  std::unique_ptr<nn::Embedding> user_embedding_;
  std::unique_ptr<nn::Gru> gru_;
  std::unique_ptr<nn::Mlp> head_;  // [3d -> hidden -> 1]
  autograd::Variable bias_;
};

}  // namespace baselines
}  // namespace seqfm

#endif  // SEQFM_BASELINES_RRN_H_
