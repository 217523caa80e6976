#ifndef SEQFM_TESTS_SCORE_TIE_H_
#define SEQFM_TESTS_SCORE_TIE_H_

// Shared test helpers for suites that edit a SeqFM's parameters in place:
// the shard, coordinator, distributed and chaos tests all need items whose
// scores tie bit-for-bit on every serving path, and the IR suite poisons
// embedding rows.

#include <cstdint>
#include <cstring>
#include <string>

#include "autograd/variable.h"
#include "core/seqfm.h"
#include "data/feature_space.h"
#include "nn/module.h"
#include "util/logging.h"

namespace seqfm {
namespace testing_util {

/// The live parameter registered under \p name (its checkpoint name, e.g.
/// "static_embedding.table"). The Variable shares the model's tensor, so
/// writes through it edit the model in place. Check-fails on an unknown name.
inline autograd::Variable NamedParameter(const nn::Module& module,
                                         const std::string& name) {
  for (const auto& [param_name, param] : module.NamedParameters()) {
    if (param_name == name) return param;
  }
  SEQFM_CHECK(false) << "no parameter named '" << name << "'";
  return {};
}

/// Makes items \p a and \p b score bit-identically for every request by
/// copying a's static-embedding row and w_static row onto b's. The model's
/// only candidate-dependent inputs are those two rows, so the forced tie
/// survives every serving path (and a checkpoint saved afterwards carries
/// it into replica processes) — the duplicate-score workload whose merges
/// only agree because RankBefore is a total order.
inline void ForceScoreTie(core::SeqFm* model, const data::FeatureSpace& space,
                          int32_t a, int32_t b) {
  autograd::Variable table = NamedParameter(*model, "static_embedding.table");
  autograd::Variable w_static = NamedParameter(*model, "w_static");
  const size_t dim = model->config().embedding_dim;
  float* rows = table.mutable_value().data();
  const size_t ra = static_cast<size_t>(space.CandidateIndex(a));
  const size_t rb = static_cast<size_t>(space.CandidateIndex(b));
  std::memcpy(rows + rb * dim, rows + ra * dim, dim * sizeof(float));
  w_static.mutable_value().data()[rb] = w_static.value().data()[ra];
}

}  // namespace testing_util
}  // namespace seqfm

#endif  // SEQFM_TESTS_SCORE_TIE_H_
