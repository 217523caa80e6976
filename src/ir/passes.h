#ifndef SEQFM_IR_PASSES_H_
#define SEQFM_IR_PASSES_H_

#include <cstddef>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ir/trace.h"

namespace seqfm {
namespace ir {

/// \brief Optimization passes over traced programs.
///
/// The pass pipeline turns aligned traces of one model (candidate counts 1
/// and C) into three programs:
///   prologue  — the candidate-invariant sub-program at count 1, executed
///               once per (user, history) and cached in the ContextCache;
///   catalog   — the item sub-program: per-candidate values that read no
///               user, history or mask, run up to kCatalogChunk objects at
///               a time over the whole catalog once per engine into the
///               item table (ItemTable);
///   body      — the rest of the per-candidate sub-program, reading the
///               prologue's outputs through kSlot values (a ConcatAxis1
///               broadcasts a batch-1 slot; other readers get it tiled to
///               the run's count) and the item table through gathers of
///               kItem values bound to the candidate column.
/// Catalog and body run at any candidate count (Value::per_candidate).
/// The prologue and body then go through FoldConstants → DeadCodeElim →
/// FuseMaskedAttention (each constant-masked attention chain, and the mean
/// pooling that reads it, becomes one op computing only the open pairs, and
/// the rows and score entries every candidate shares once per call) →
/// FuseElementwise → PlanArena before execution; Factor plans the catalog
/// itself, since it runs it to check its claims.

/// Objects per catalog program run: building the item table touches one
/// chunk-sized frame, not a catalog-sized one.
constexpr size_t kCatalogChunk = 32;

/// What Factor needs besides the two traces: the catalog geometry the item
/// split runs under and the cross-probe witness. Every field is required.
struct FactorOptions {
  /// Catalog size: the item table's rows.
  size_t num_objects = 0;
  /// Index geometry the catalog runs under: FeatureSpace::CandidateIndex(0)
  /// (the table gathers' candidate delta is its negation) and the unified id
  /// of dynamic object 0.
  int32_t cand_base = 0;
  int32_t unified_dyn_base = 0;
  /// A second trace at count C for a different user, history and candidates
  /// (aligned with traceC). Item claims must hold on its rows too.
  const TraceResult* probe = nullptr;
  const data::Batch* probe_batch = nullptr;
};

struct FactorResult {
  Program prologue;
  Program body;
  /// Planned catalog program (no instructions when there are no item
  /// values); slot_outputs lists the table columns in order.
  Program catalog;
  /// The table the catalog built, which the item claims were checked
  /// against.
  ItemTable table;
  /// Count-1 reference tensor of each slot, parallel to
  /// prologue.slot_outputs: the traced tensor, or for a split row block the
  /// row slice of the traced tensor it came from. The compile self-check
  /// demands the prologue reproduce these bit-for-bit.
  std::vector<tensor::Tensor> slot_refs;
  std::string error;

  bool ok() const { return error.empty(); }
};

/// Factors aligned traces of the same model. \p trace1 ran at candidate
/// count 1 and \p traceC at count >= 2 (two distinct candidates are what
/// disambiguate the candidate column in gather bindings); \p batch1 /
/// \p batchC are the batches they were traced against.
///
/// Hoisting works on row blocks, not only whole values. After the gather
/// bindings are reconciled, both traces are rewritten in lockstep:
///   - an EmbeddingGather whose binding mixes the candidate column with
///     user or history columns becomes one gather per run of same-class
///     columns, joined by ConcatAxis1;
///   - a row-local op (BmmShared against a shared weight, LayerNorm,
///     AddBias, unary elementwise) whose row operand is a ConcatAxis1 with a
///     candidate-invariant block is applied per block and the results
///     joined by ConcatAxis1, recursively.
/// Each joined value keeps its original id and traced tensor; each new
/// block's reference tensor is the row slice of the traced tensor it came
/// from. The rewrite is exact because those ops compute every row
/// independently, with the per-element accumulation order of
/// tensor/kernels.h. For SeqFM this moves the history- and user-row
/// projections of the cross view (and the user row of the static view)
/// into the prologue, leaving only the candidate row's projections (which
/// the item split below moves into the item table) and the attention itself
/// per candidate.
///
/// Factor then gives every value (whole or block) a binding time, what it
/// varies with, in two bits joined by OR: kConst (neither: parameters and
/// constants), kItem (the candidate alone), kRequest (the request alone:
/// user and history columns, synthesized masks) and kCandidate (both). Item
/// and request are incomparable and join to kCandidate: a value that reads
/// an item row and a request row can be computed neither once per catalog
/// nor once per request. One transfer function, which the row-block rewrite
/// above uses too, joins an instruction's input times, adding kItem per
/// candidate column and kRequest per other column of a gather; a
/// synthesized mask is kRequest, and so is every output without the
/// candidate bit, even one reading only parameters, since the prologue
/// computes it once per request. So an item value reads only item values,
/// parameters and constants: its row b depends on candidate b alone.
///
/// The programs are read off that one vector. Request-time values form the
/// prologue; those a per-candidate instruction reads are its slots. Item
/// values a kCandidate instruction or the score reads are the item table's
/// columns: the catalog program computes them for every object, and the
/// body gathers their rows by candidate instead (a column that is itself a
/// gather of a parameter stays in the body: hoisting it saves nothing). The
/// other per-candidate values are the body.
///
/// One fixpoint checks the claims bit-for-bit: a request-time value's
/// count-C reference tensor must be its count-1 one block-tiled C times,
/// and every traced row of a column (counts 1 and C and the probe) must
/// equal its candidate's table row. A refuted value is raised to kCandidate
/// and the times recomputed until no claim fails, so a surprising numeric
/// dependence is never hoisted. The splits are exact because the ops
/// compute each row independently, with the per-element accumulation order
/// of tensor/kernels.h, at any row count.
///
/// The same independence makes the body count-polymorphic: every
/// per-candidate value's count-C shape must be its count-1 shape scaled
/// along axis 0, and the body records the count-1 shape.
///
/// Fails (with .error set) when the traces do not align
/// instruction-for-instruction, when a gather binding cannot be reconciled
/// across counts, when the final score itself is candidate-invariant, when
/// a per-candidate value does not scale with the count, or when options
/// lacks the catalog or the probe.
FactorResult Factor(const TraceResult& trace1, const TraceResult& traceC,
                    const data::Batch& batch1, const data::Batch& batchC,
                    const FactorOptions& options);

/// Evaluates instructions whose inputs are all captured constants and
/// re-kinds their outputs as constants. Synthesized masks, gathers, and
/// no-input instructions are never folded (their values depend on the
/// request). Returns the number of instructions folded away.
size_t FoldConstants(Program* program);

/// Removes instructions whose outputs are unreachable from Program::output
/// and Program::slot_outputs. Returns the number removed.
size_t DeadCodeElim(Program* program);

/// Rewrites each attention chain bmm(Q, K^T) → scale(alpha) →
/// masked_softmax(·, M) → bmm(·, V) into one kMaskedAttention that computes
/// only the (query, key) pairs M leaves open (tensor::MaskedAttention,
/// bit-identical for finite V). Fires when the scores, scaled scores and
/// probabilities each have a single reader and M is absent or a captured
/// constant [nq, nk] whose open (non -inf) columns form one contiguous range
/// per row; request-synthesized masks (padding, history, cross padding) are
/// declined. A Q/K/V operand built by ConcatAxis1 chains nothing else reads
/// is read through its row blocks, so the stacked copy is never made. When
/// the attention output's sole reader is a reduce_axis1 (SeqFM's Eq. 14
/// mean pooling), the fused op absorbs it: it writes the pooled [batch, dv]
/// row (Instr::pool_scale carries the reduce's scale) and the
/// [batch, nq, dv] rows never reach the frame; \p pooled, when non-null, is
/// incremented per absorbed reduce. Returns the number of chains fused;
/// leaves no dead instructions behind.
size_t FuseMaskedAttention(Program* program, size_t* pooled = nullptr);

/// Aliases the output of single-consumer elementwise chain links (relu,
/// sigmoid, tanh, scale, add_scalar, reshape) onto their input buffer so the
/// executor runs them in place (reshape becomes free). Returns the number of
/// values aliased.
size_t FuseElementwise(Program* program);

/// Assigns every live kLocal value a fixed offset in the execution frame via
/// lifetime analysis (first-fit over a merged free list, offsets aligned by
/// FrameAlign), count-free values and per-candidate values each in their own
/// region, and sets Program::frame_floats and Program::cand_floats to the
/// two high waters. A per-candidate offset and size count floats per
/// candidate, so the plan holds at every count. Aliased values share their
/// root's buffer and extend its lifetime. Must run after the other passes.
void PlanArena(Program* program);

}  // namespace ir
}  // namespace seqfm

#endif  // SEQFM_IR_PASSES_H_
