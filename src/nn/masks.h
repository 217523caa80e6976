#ifndef SEQFM_NN_MASKS_H_
#define SEQFM_NN_MASKS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "autograd/variable.h"

namespace seqfm {
namespace nn {

/// Additive attention masks (entries are 0 or -infinity) wrapped as constant
/// Variables so they can be fed to autograd::MaskedSoftmax. A [n, n] mask is
/// broadcast over the batch; a [batch*n, n] mask is applied per sample.

/// Causal mask for the dynamic view (Eq. 10): entry (i, j) is 0 when i >= j
/// (feature i may attend to earlier-or-equal positions) and -inf otherwise.
autograd::Variable MakeCausalMask(size_t n);

/// Cross-view mask (Eq. 13) over n_static + n_dynamic stacked features:
/// entry (i, j) is 0 exactly when one of i, j indexes a static feature and
/// the other a dynamic feature; same-category interactions are blocked.
autograd::Variable MakeCrossMask(size_t n_static, size_t n_dynamic);

/// All-zero mask of size [n, n] (no-op; useful in tests).
autograd::Variable MakeZeroMask(size_t n);

/// Per-sample mask of shape [batch*n, n] that combines the causal structure
/// (when \p causal) with blocking attention *to* padding key positions
/// (indices[b*n + j] < 0). A row whose every entry would be blocked keeps its
/// diagonal entry open so softmax stays well defined. This powers the
/// optional `mask_padding_keys` extension (see README.md, "Departures from
/// the paper").
autograd::Variable MakeBatchPaddingMask(const std::vector<int32_t>& indices,
                                        size_t batch, size_t n, bool causal);

/// Per-sample history mask of shape [batch, n]: entry (b, i) is -inf when the
/// history slot is padding (indices[b*n + i] < 0). A sample with an entirely
/// empty history keeps its last slot open so softmax stays well defined
/// (DIN's attention pooling).
autograd::Variable MakeHistoryPaddingMask(const std::vector<int32_t>& indices,
                                          size_t batch, size_t n);

}  // namespace nn
}  // namespace seqfm

#endif  // SEQFM_NN_MASKS_H_
