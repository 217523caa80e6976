#ifndef SEQFM_TESTS_SCORE_TIE_H_
#define SEQFM_TESTS_SCORE_TIE_H_

// Shared test helper for the serving suites that rank duplicate scores:
// the sharded, coordinator, distributed and chaos tests all need items
// whose scores tie bit-for-bit on every serving path.

#include <cstdint>
#include <cstring>

#include "autograd/variable.h"
#include "core/seqfm.h"
#include "data/feature_space.h"

namespace seqfm {
namespace testing_util {

/// Makes items \p a and \p b score bit-identically for every request by
/// copying a's static-embedding row and w_static row onto b's. The model's
/// only candidate-dependent inputs are those two rows, so the forced tie
/// survives every serving path (and a checkpoint saved afterwards carries
/// it into replica processes) — the duplicate-score workload whose merges
/// only agree because RankBefore is a total order.
inline void ForceScoreTie(core::SeqFm* model, const data::FeatureSpace& space,
                          int32_t a, int32_t b) {
  const core::SeqFm::ServingView view = model->serving_view();
  const size_t dim = model->config().embedding_dim;
  autograd::Variable table = view.static_embedding->table();  // shares node
  float* rows = table.mutable_value().data();
  const size_t ra = static_cast<size_t>(space.CandidateIndex(a));
  const size_t rb = static_cast<size_t>(space.CandidateIndex(b));
  std::memcpy(rows + rb * dim, rows + ra * dim, dim * sizeof(float));
  autograd::Variable w_static = view.w_static;
  w_static.mutable_value().data()[rb] = w_static.value().data()[ra];
}

}  // namespace testing_util
}  // namespace seqfm

#endif  // SEQFM_TESTS_SCORE_TIE_H_
