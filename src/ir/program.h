#ifndef SEQFM_IR_PROGRAM_H_
#define SEQFM_IR_PROGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "tensor/tensor.h"

namespace seqfm {
namespace ir {

/// \brief The serving compiler's flat op program.
///
/// A Program is a straight-line SSA-ish instruction list recorded by tracing
/// one tape-free model forward (trace.h), then rewritten by the optimization
/// passes (passes.h) and executed allocation-free by the VM (exec.h). Every
/// instruction reads and writes Value ids. Shapes are static but for the
/// candidate axis: a body or catalog runs at any count up to Program::count,
/// scaling axis 0 of its per-candidate values (Value::per_candidate).

/// Instruction opcode. The first block mirrors the autograd op vocabulary
/// one-to-one (the executor replicates each eager forward bit-for-bit); the
/// second block exists only in compiled programs.
enum class OpKind : uint8_t {
  kAdd,
  kSub,
  kMul,
  kScale,
  kAddScalar,
  kAddBias,
  kAddBroadcastBatch,
  kRelu,
  kSigmoid,
  kTanh,
  kMatMul,
  kBmmShared,
  kBmm,
  kBmmLeftShared,
  kRowDot,
  kMaskedSoftmax,
  kLayerNorm,
  kConcatLast,
  kConcatAxis1,
  kReduceAxis1,  // mean_axis1 / sum_axis1; alpha carries the scale
  kSliceRow,
  kSumLast,
  kReshape,
  kExpandRows,
  kPairwiseUpper,
  kPairwiseCross,
  kEmbeddingGather,
  kEmbeddingSumGather,
  // --- compiler-synthesized (no eager counterpart) ----------------------
  kPaddingMask,       // nn::MakeBatchPaddingMask(dynamic_ids, B, n, causal)
  kHistoryMask,       // nn::MakeHistoryPaddingMask(dynamic_ids, B, n)
  kCrossPaddingMask,  // SeqFM's padding-aware cross mask (ns in Instr::row)
  kZeros,             // zero tensor (GRU initial state)
  kTileRows,          // repeat the whole input buffer out.size/in.size times
  kMaskedAttention,   // fused bmm(Q,K^T) -> scale -> masked_softmax -> bmm(.,V)
                      // [-> reduce_axis1]
};

/// Name of an op kind ("scale", "tile_rows", ...) for logs and tests.
const char* OpKindName(OpKind kind);

/// Whether \p kind reads rows of an embedding table by index.
inline bool IsGather(OpKind kind) {
  return kind == OpKind::kEmbeddingGather ||
         kind == OpKind::kEmbeddingSumGather;
}

/// How a Value resolves to a tensor at execution time.
enum class ValueKind : uint8_t {
  kLocal,     // planned offset in the execution frame's arena block
  kParam,     // live parameter Node (survives checkpoint reloads)
  kConstant,  // captured by value into Program::constants
  kSlot,      // candidate-invariant prologue output, SharedContext::slots
  kItem,      // column of the engine's item table, ItemTable::columns
};

/// Which request index array an embedding gather reads.
enum class IndexSource : uint8_t { kNone, kStatic, kDynamic, kUnified };

/// Affine per-column binding of a gather's index matrix to one request index
/// array: idx[b, j] == src[b, cols[j]] + deltas[j], except negative source
/// entries (padding) stay negative untouched. Fitted at trace time against a
/// real Batch and re-verified on every trace; the executor synthesizes the
/// source arrays per chunk, so gathers need no per-request index vectors.
struct IndexBinding {
  IndexSource source = IndexSource::kNone;
  std::vector<uint32_t> cols;
  std::vector<int32_t> deltas;

  /// Whether column \p j reads a candidate id: candidates live in column 1
  /// of the static and unified arrays ([UserIndex, CandidateIndex, ...]);
  /// the dynamic array is pure history.
  bool ColumnIsCandidate(size_t j) const {
    return (source == IndexSource::kStatic ||
            source == IndexSource::kUnified) &&
           cols[j] == 1;
  }
  /// Whether any column reads a candidate id.
  bool ReadsCandidate() const {
    for (size_t j = 0; j < cols.size(); ++j) {
      if (ColumnIsCandidate(j)) return true;
    }
    return false;
  }

  bool operator==(const IndexBinding& o) const {
    return source == o.source && cols == o.cols && deltas == o.deltas;
  }
  bool operator!=(const IndexBinding& o) const { return !(*this == o); }
};

constexpr uint32_t kNoValue = 0xffffffffu;

struct Instr {
  OpKind kind = OpKind::kAdd;
  std::vector<uint32_t> in;  // input value ids, positional
  uint32_t out = 0;
  // Scalar attributes (only the fields the kind needs are meaningful).
  float alpha = 0.0f;    // scale / add_scalar / reduce_axis1
  float eps = 0.0f;      // layer_norm
  uint32_t row = 0;      // slice_row; cross-padding mask's n_static
  bool trans_a = false;  // bmm
  bool trans_b = false;
  bool causal = false;  // padding mask
  IndexBinding binding;  // embedding gathers
  /// kMaskedAttention only: in[] holds the axis-1 row blocks of Q, then of
  /// K, then of V (parts[0], parts[1], parts[2] of them), then the constant
  /// mask if there is one; alpha is the score scale. ranges holds each query
  /// row's open key columns as (begin, end) pairs, derived from the mask
  /// (all (0, nk) without one). A pooled attention (output [batch, dv]
  /// instead of [batch, nq, dv]) has absorbed its reduce_axis1 reader, whose
  /// scale pool_scale carries.
  std::array<uint32_t, 3> parts = {0, 0, 0};
  std::vector<uint32_t> ranges;
  float pool_scale = 0.0f;
  /// Gathers only: the index matrix observed at trace time, kept so passes
  /// can re-verify the binding against other traces. Not used at execution.
  std::vector<int32_t> traced_indices;
};

struct Value {
  ValueKind kind = ValueKind::kLocal;
  std::vector<size_t> shape;
  /// kParam: the live node (raw; Program::param_nodes keeps it alive).
  autograd::Node* param = nullptr;
  /// kConstant / kSlot / kItem: index into Program::constants /
  /// SharedContext::slots / ItemTable::columns.
  uint32_t index = 0;
  /// kLocal: planned float offset into the frame block (passes::PlanArena);
  /// kNoOffset until planned or for dead values.
  size_t offset = 0;
  /// Fusion: when != kNoValue this local shares its buffer with that value
  /// (in-place elementwise chains, copy-elided reshapes).
  uint32_t alias_of = kNoValue;
  /// kLocal only: axis 0 scales with the run's candidate count; shape and
  /// size() describe one candidate, offset counts floats per candidate.
  /// This flag, not shape[0] == 1, tells a one-candidate block from a
  /// broadcast (count-free) one.
  bool per_candidate = false;

  size_t size() const {
    size_t n = 1;
    for (size_t d : shape) n *= d;
    return n;
  }
};

constexpr size_t kNoOffset = static_cast<size_t>(-1);

/// Alignment, in floats, of a local's frame offset: 64-byte lanes, but a
/// per-candidate value under one lane packs unaligned (padding it would
/// cost the padding once per candidate).
inline size_t FrameAlign(const Value& v) {
  return v.per_candidate && v.size() < 16 ? 1 : 16;
}
/// Floats PlanArena reserves for a local: its size, aligned.
inline size_t FrameExtent(const Value& v) {
  const size_t a = FrameAlign(v);
  return (v.size() + a - 1) / a * a;
}

struct Program {
  std::vector<Value> values;
  std::vector<Instr> instrs;
  std::vector<tensor::Tensor> constants;
  /// Keepalives for the raw Node* in Value::param. Checkpoint reloads move
  /// new storage into the same nodes, so params are read live per execution.
  std::vector<autograd::NodePtr> param_nodes;
  /// Value id of the score tensor (bodies) — unused by prologues.
  uint32_t output = kNoValue;
  /// Value ids written into SharedContext::slots, in slot order (prologues),
  /// or into the item table, in column order (catalog programs).
  std::vector<uint32_t> slot_outputs;

  /// Largest candidate count one run may take (the trace's count for a
  /// trace, 1 for a prologue): the frame is planned for it. Also the Batch
  /// index geometry the executor synthesizes per chunk.
  size_t count = 0;
  size_t n_static = 0;
  size_t n_seq = 0;
  size_t n_unified = 0;

  /// Planned frame (passes::PlanArena): frame_floats for count-free locals,
  /// then cand_floats per candidate, so a run at count c touches only the
  /// first FrameFloats(c) floats.
  size_t frame_floats = 0;
  size_t cand_floats = 0;

  size_t FrameFloats(size_t c) const { return frame_floats + cand_floats * c; }
  /// Float offset of local \p v in the frame of a run at \p c candidates.
  size_t FrameOffset(const Value& v, size_t c) const {
    return v.per_candidate ? frame_floats + v.offset * c : v.offset;
  }
  /// Key for the per-thread execution frame cache.
  uint64_t uid = 0;
  /// Shared by every copy of this program. Execution frames hold it weakly,
  /// so a thread drops the frames of programs that no longer exist.
  std::shared_ptr<const int> liveness;
};

/// \brief Per-candidate values computed once for the whole catalog.
///
/// An item value is a body value whose row b depends on candidate b and the
/// parameters only (passes::Factor). A catalog program computes the ones the
/// rest of the body reads for every object at once; column k of the table
/// holds catalog output k, [num_objects, width], one column block after
/// another in one tensor. Every body of an engine reads the same table
/// through kItem values, each the table operand of a gather bound to the
/// candidate column. Move-only, so it is never duplicated; a copy would also
/// turn each column view into a separate copy of its own.
struct ItemTable {
  tensor::Tensor data;
  /// [num_objects, width] views into data, one per column.
  std::vector<tensor::Tensor> columns;
  size_t num_objects = 0;

  ItemTable() = default;
  ItemTable(ItemTable&&) = default;
  ItemTable& operator=(ItemTable&&) = default;
  ItemTable(const ItemTable&) = delete;
  ItemTable& operator=(const ItemTable&) = delete;

  size_t bytes() const { return data.size() * sizeof(float); }
};

/// Process-unique program id for frame caching.
uint64_t NextProgramUid();

/// Gives \p program a fresh uid and liveness token, so a program derived
/// from another never shares its execution frames.
void RenewIdentity(Program* program);

/// Open key columns of each row of an [nq, nk] additive attention mask:
/// fills \p ranges with one (begin, end) pair per row covering the entries
/// that are not -inf, (0, 0) for a fully masked row, and (0, nk) for every
/// row when \p mask is null. Returns false when some row's open columns are
/// not one contiguous run. The single definition kMaskedAttention's ranges
/// are derived from (passes) and checked against (verify).
bool OpenKeyRanges(const tensor::Tensor* mask, size_t nq, size_t nk,
                   std::vector<uint32_t>* ranges);

/// Materializes a compiler-synthesized mask/zeros instruction into \p dst
/// (size \p batch * rows_per_sample * cols as implied by the kind) from the
/// request history. Shared by the executor and the trace-time verification
/// so the re-materialization rule is pinned in one place.
///   kPaddingMask:      [batch*n, n], causal per Instr::causal
///   kHistoryMask:      [batch, n]
///   kCrossPaddingMask: [batch*(ns+n), ns+n], ns = Instr::row
///   kZeros:            all zero
/// \p dynamic_ids is one history row of length \p n (every sample of a
/// serving chunk shares it).
void MaterializeMask(OpKind kind, bool causal, size_t ns,
                     const int32_t* dynamic_ids, size_t batch, size_t n,
                     size_t total, float* dst);

}  // namespace ir
}  // namespace seqfm

#endif  // SEQFM_IR_PROGRAM_H_
