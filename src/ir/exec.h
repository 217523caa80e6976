#ifndef SEQFM_IR_EXEC_H_
#define SEQFM_IR_EXEC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/model_interface.h"
#include "core/seqfm.h"
#include "data/dataset.h"
#include "ir/program.h"
#include "util/status.h"

namespace seqfm {
namespace ir {

/// \brief The serving VM: executes arena-planned programs allocation-free.
///
/// An Engine owns the factored (prologue, body) program pair compiled from
/// traces of one model, and the item table the body reads. serve::Predictor
/// drives it: MakeContext runs the prologue once per (user, history) and
/// parks the candidate-invariant slot tensors in the SharedContext (cached by
/// serve::ContextCache); ScoreRange runs the per-candidate body over a
/// catalog chunk of any size, reading each candidate's item values (for
/// SeqFM, the candidate row's six Q/K/V projections) from the table Compile
/// built once by running the catalog program over every object. The body is
/// count-polymorphic: one program, traced and checked once, serves every
/// chunk size. Execution state lives in thread-local frames sized by
/// PlanArena, so steady-state scoring performs zero heap allocations and is
/// trivially thread-safe.

/// Evaluates one pure instruction (no request-dependent inputs) by
/// replicating the corresponding eager forward exactly — same kernels, same
/// ParallelFor grains, same reduction order — so compiled results are
/// bit-identical to the taped forward at every thread count and SIMD level.
/// Returns false for kinds that are not pure functions of their tensor
/// inputs (gathers, synthesized masks, tile_rows), which the executor and
/// the constant folder handle themselves.
bool EvalPure(const Instr& instr, const std::vector<const tensor::Tensor*>& in,
              tensor::Tensor* out);

/// Compile-time facts about an engine, surfaced in bench_serving --json.
struct EngineStats {
  size_t prologue_instrs = 0;
  size_t body_instrs = 0;
  size_t slots = 0;             // candidate-invariant values hoisted
  size_t prologue_frame_floats = 0;
  size_t body_frame_floats = 0;  // at the planned largest count
  size_t folded = 0;             // constant-folded instructions (both halves)
  size_t dce_removed = 0;        // dead instructions removed (both halves)
  size_t fused = 0;              // elementwise links aliased in place
  size_t attention_fused = 0;    // attention chains fused (both halves)
  size_t attention_pooled = 0;   // of those, the ones that absorbed a pool
  size_t compiled_counts = 1;    // bodies compiled: one serves every count
  /// GEMM-kind multiply-accumulates (matmul, bmm, bmm_shared,
  /// bmm_left_shared, and the unmasked pairs of masked_attention) one run
  /// of the body at two candidates spends, from shapes, divided by two.
  /// Attention rows and scores shared by every candidate count once.
  size_t body_macs_per_candidate = 0;
  /// Item table columns the bodies gather instead of computing, and the
  /// table's size: num_objects x (sum of column widths) x 4 bytes.
  size_t item_values = 0;
  size_t item_table_bytes = 0;
};

/// Multiply-accumulates instruction \p ins of \p prog spends in one run at
/// \p count candidates, from shapes: output size times contraction length
/// for the GEMM kinds (matmul, bmm, bmm_shared, bmm_left_shared); for a
/// fused attention its unmasked (query, key) pairs times (d + dv) per
/// candidate, except the rows and score entries tensor::MaskedAttention
/// computes once. 0 for every other kind.
size_t InstrMacs(const Program& prog, const Instr& ins, size_t count);

/// Runs \p catalog (a planned catalog program, passes::Factor) over objects
/// 0..num_objects-1, up to catalog.count at a time, and returns its outputs
/// as an item table. The catalog reads only the candidate column, which it
/// synthesizes from \p cand_base (FeatureSpace::CandidateIndex(0));
/// \p unified_dyn_base is the unified id of dynamic object 0. Runs on a
/// frame of its own that it frees on return.
ItemTable BuildItemTable(const Program& catalog, size_t num_objects,
                         int32_t cand_base, int32_t unified_dyn_base);

/// Number of execution frames the calling thread holds. Frames of destroyed
/// programs are dropped the next time the thread needs a new frame.
size_t ThreadFrameCount();

/// A compiled serving program for one model. Immutable after Compile (but
/// for the CorruptAbiForTest hook), so MakeContext and ScoreRange may run
/// concurrently from any thread.
class Engine {
 public:
  /// Traces \p model at candidate counts 1 and 2 (and a cross-probe request
  /// at 2), factors it into a candidate-invariant prologue, a
  /// count-polymorphic body and a catalog program, builds the item table
  /// over all \p num_objects objects, runs the pass pipeline with the body's
  /// frame planned for \p max_count candidates (at least 3), and
  /// self-checks bit-for-bit: prologue and body against the traces, and the
  /// body at count 3, which no trace ran, against the tape-free eager
  /// Model::Score. Returns null (with \p error set) when the model is not
  /// compilable — unknown op, unannotated constant, unbindable gather, a
  /// value that does not scale with the count — and the caller keeps the
  /// eager path. Needs two catalog objects (two distinct probe candidates
  /// disambiguate the candidate column in gather bindings).
  static std::unique_ptr<Engine> Compile(core::Model* model,
                                         const data::BatchBuilder* builder,
                                         size_t num_objects, size_t max_count,
                                         std::string* error);

  /// Runs the prologue for one (user, history) request and fills
  /// \p ctx with the slot tensors (deep copies — the context outlives the
  /// execution frame), ids, and this engine's uid. \p dynamic_ids is the
  /// BatchBuilder-layout history row (length max_seq_len, -1 padding).
  void MakeContext(int32_t user_index, const std::vector<int32_t>& dynamic_ids,
                   core::SharedContext* ctx) const;

  /// Scores candidates[begin..end) against \p ctx into out[0..end-begin)
  /// in one run of the body; end - begin may not exceed body().count (the
  /// max_count Compile planned for). Never compiles; returns false (with
  /// \p error set) only for a context another engine built. A non-null
  /// \p instr_ns (body().instrs.size() entries) profiles the run: each
  /// body instruction's wall time in nanoseconds is added to its entry.
  bool ScoreRange(const core::SharedContext& ctx,
                  const std::vector<int32_t>& candidates, size_t begin,
                  size_t end, float* out, std::string* error,
                  uint64_t* instr_ns = nullptr) const;

  /// Number of slot tensors a context carries.
  size_t num_slots() const { return prologue_.slot_outputs.size(); }

  /// The item table the body reads (empty when the model has no item
  /// values).
  const ItemTable& item_table() const { return items_; }

  /// The one count-polymorphic body.
  const Program& body() const { return body_; }

  /// Re-checks the slot ABI between the prologue and the body: each kSlot
  /// value must name a slot the prologue produces, in the shape it parks in
  /// the context, and each kItem value a column of the item table, in its
  /// [num_objects, width]. Compile establishes this by construction;
  /// Predictor::ReloadCheckpoint re-verifies it, because a body reading a
  /// miswired slot or column serves garbage rankings without crashing.
  /// Returns Internal naming the first mismatch.
  Status ReverifySlotAbi() const;

  /// How CorruptAbiForTest miswires the body.
  enum class AbiCorruption {
    kSlotIndex,  // first kSlot value: slot index pushed out of range
    kSlotShape,  // first kSlot value: shape distorted
    kItemWidth,  // first kItem value: column width off by one
  };

  /// Test hook: miswires the first kSlot or kItem value of the body. Exists
  /// so reload tests can prove ReverifySlotAbi catches each failure class;
  /// never called outside tests.
  void CorruptAbiForTest(AbiCorruption how);

  uint64_t uid() const { return uid_; }

  const EngineStats& stats() const { return stats_; }

 private:
  Engine() = default;

  // Index synthesis geometry (see RunProgram in exec.cc).
  int32_t cand_base_ = 0;         // FeatureSpace::CandidateIndex(0)
  int32_t unified_dyn_base_ = 0;  // static_dim: unified id of dynamic 0
  size_t n_seq_ = 0;
  uint64_t uid_ = 0;

  Program prologue_;
  Program body_;
  // One table per engine, read by the body (never copied into
  // Program::constants).
  ItemTable items_;
  EngineStats stats_;
};

}  // namespace ir
}  // namespace seqfm

#endif  // SEQFM_IR_EXEC_H_
