#ifndef SEQFM_EVAL_EVALUATOR_H_
#define SEQFM_EVAL_EVALUATOR_H_

#include <functional>
#include <map>
#include <vector>

#include "core/model_interface.h"
#include "data/dataset.h"
#include "util/rng.h"

namespace seqfm {

namespace serve {
class Predictor;
}  // namespace serve

namespace eval {

/// \brief Next-object ranking evaluation (Sec. V-C): each test positive is
/// mixed with J objects the user never interacted with; HR@K and NDCG@K are
/// computed from the ground truth's rank (Eq. 27).
///
/// The candidate negatives are drawn once at construction with a fixed seed
/// so every model is ranked against identical candidate sets.
class RankingEvaluator {
 public:
  /// Evaluates on the test split by default; pass use_validation=true to
  /// score the held-out second-last records instead (used for epoch
  /// selection during training, Sec. V-C).
  RankingEvaluator(const data::TemporalDataset* dataset,
                   const data::BatchBuilder* builder, size_t num_negatives,
                   uint64_t seed, bool use_validation = false);

  /// Returns {K -> (HR@K, NDCG@K)} over the test split.
  struct Metrics {
    std::map<size_t, double> hr;
    std::map<size_t, double> ndcg;
  };
  Metrics Evaluate(core::Model* model, const std::vector<size_t>& ks) const;

  /// Same metrics computed through the serving path: candidate sets are
  /// scored by the Predictor (the compiled op program, or tape-free eager
  /// micro-batches). Scores are bit-for-bit identical to the
  /// Model::Score path, so both overloads report identical metrics.
  Metrics Evaluate(const serve::Predictor& predictor,
                   const std::vector<size_t>& ks) const;

 private:
  const std::vector<data::SequenceExample>& Examples() const;

  /// Shared metric loop; the overloads only differ in how a candidate set is
  /// scored.
  Metrics EvaluateWith(
      const std::function<std::vector<float>(
          const data::SequenceExample&, const std::vector<int32_t>&)>&
          score_fn,
      const std::vector<size_t>& ks) const;

  const data::TemporalDataset* dataset_;
  const data::BatchBuilder* builder_;
  bool use_validation_;
  /// candidates_[i] = {ground truth, negatives...} for example i.
  std::vector<std::vector<int32_t>> candidates_;
};

/// \brief CTR-style classification evaluation (Sec. V-C): each test positive
/// is paired with one never-clicked negative; AUC and RMSE over the sigmoid
/// probabilities are reported (Table III).
class ClassificationEvaluator {
 public:
  ClassificationEvaluator(const data::TemporalDataset* dataset,
                          const data::BatchBuilder* builder, uint64_t seed,
                          bool use_validation = false);

  struct Metrics {
    double auc = 0.0;
    double rmse = 0.0;
    double logloss = 0.0;
  };
  Metrics Evaluate(core::Model* model) const;

 private:
  const std::vector<data::SequenceExample>& Examples() const;

  const data::TemporalDataset* dataset_;
  const data::BatchBuilder* builder_;
  bool use_validation_;
  std::vector<int32_t> negatives_;  // one per example
};

/// \brief Rating-prediction evaluation (Table IV): MAE and RRSE of the raw
/// model outputs against the held-out ratings (Eq. 28).
class RegressionEvaluator {
 public:
  RegressionEvaluator(const data::TemporalDataset* dataset,
                      const data::BatchBuilder* builder,
                      bool use_validation = false);

  struct Metrics {
    double mae = 0.0;
    double rrse = 0.0;
    double rmse = 0.0;
  };
  Metrics Evaluate(core::Model* model) const;

 private:
  const data::TemporalDataset* dataset_;
  const data::BatchBuilder* builder_;
  bool use_validation_;
};

/// Scores an arbitrary example list in mini-batches and returns the flat
/// score vector (shared helper; also useful in examples).
std::vector<float> ScoreExamples(
    core::Model* model, const data::BatchBuilder& builder,
    const std::vector<const data::SequenceExample*>& examples,
    const std::vector<int32_t>* target_override = nullptr,
    size_t batch_size = 256);

}  // namespace eval
}  // namespace seqfm

#endif  // SEQFM_EVAL_EVALUATOR_H_
