#ifndef SEQFM_IR_EXEC_H_
#define SEQFM_IR_EXEC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/model_interface.h"
#include "core/seqfm.h"
#include "data/dataset.h"
#include "ir/program.h"
#include "util/ordered_mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace seqfm {
namespace ir {

/// \brief The serving VM: executes arena-planned programs allocation-free.
///
/// An Engine owns the factored (prologue, body) program pair compiled from
/// traces of one model, and the item table its bodies read. serve::Predictor
/// drives it: MakeContext runs the prologue once per (user, history) and
/// parks the candidate-invariant slot tensors in the SharedContext (cached by
/// serve::ContextCache); ScoreRange replays the per-candidate body over a
/// catalog chunk, reading each candidate's item values (for SeqFM, the
/// candidate row's six Q/K/V projections) from the table Compile built once
/// by running the catalog program over every object. Execution state lives
/// in thread-local frames sized by PlanArena, so steady-state scoring
/// performs zero heap allocations and is trivially thread-safe.

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
  size_t body_instrs = 0;       // for the initial count-2 body
  size_t slots = 0;             // candidate-invariant values hoisted
  size_t prologue_frame_floats = 0;
  size_t body_frame_floats = 0;  // for the initial count-2 body
  size_t folded = 0;             // constant-folded instructions (both halves)
  size_t dce_removed = 0;        // dead instructions removed (both halves)
  size_t fused = 0;              // elementwise links aliased in place
  size_t attention_fused = 0;    // attention chains fused (both halves)
  size_t attention_pooled = 0;   // of those, the ones that absorbed a pool
  size_t compiled_counts = 0;    // distinct candidate counts compiled so far
  /// GEMM-kind multiply-accumulates (matmul, bmm, bmm_shared,
  /// bmm_left_shared, and the unmasked pairs of masked_attention) one run
  /// of the initial body spends, from shapes, divided by its candidate
  /// count. Attention rows and scores shared by every candidate count once.
  size_t body_macs_per_candidate = 0;
  /// Item table columns the bodies gather instead of computing, and the
  /// table's size: num_objects x (sum of column widths) x 4 bytes.
  size_t item_values = 0;
  size_t item_table_bytes = 0;
};

/// Runs \p catalog (a planned catalog program, passes::Factor) over objects
/// 0..num_objects-1, catalog.count at a time, and returns its outputs as an
/// item table. The catalog reads only the candidate column, which it
/// synthesizes from \p cand_base (FeatureSpace::CandidateIndex(0));
/// \p unified_dyn_base is the unified id of dynamic object 0. Runs on a
/// frame of its own that it frees on return. Leaves
/// ItemTable::item_values to the caller, which knows the item-value set.
ItemTable BuildItemTable(const Program& catalog, size_t num_objects,
                         int32_t cand_base, int32_t unified_dyn_base);

/// Number of execution frames the calling thread holds. Frames of destroyed
/// programs are dropped the next time the thread needs a new frame.
size_t ThreadFrameCount();

/// A compiled serving program for one model. Thread-safe after construction:
/// ScoreRange may be called concurrently from shard threads; per-count body
/// compilation is serialized internally.
class Engine {
 public:
  /// Traces \p model at candidate counts 1 and 2, factors the program into a
  /// candidate-invariant prologue, a per-candidate body and a catalog
  /// program, builds the item table by running the catalog over all
  /// \p num_objects objects, runs the pass pipeline, and self-checks both
  /// halves bit-for-bit against the traced tensors. Returns null (with
  /// \p error set) when the model is not compilable — unknown op,
  /// unannotated constant, unbindable gather — in which case the caller
  /// keeps the eager path. Requires at least two
  /// catalog objects (two distinct probe candidates are what disambiguate
  /// the candidate column in gather bindings).
  static std::unique_ptr<Engine> Compile(core::Model* model,
                                         const data::BatchBuilder* builder,
                                         size_t num_objects,
                                         std::string* error);

  /// Runs the prologue for one (user, history) request and fills
  /// \p ctx with the slot tensors (deep copies — the context outlives the
  /// execution frame), ids, and this engine's uid. \p dynamic_ids is the
  /// BatchBuilder-layout history row (length max_seq_len, -1 padding).
  void MakeContext(int32_t user_index, const std::vector<int32_t>& dynamic_ids,
                   core::SharedContext* ctx) const;

  /// Scores candidates[begin..end) against \p ctx into out[0..end-begin).
  /// Lazily compiles (and self-checks) a body for this chunk's candidate
  /// count on first use. Returns false with \p error set if that compile
  /// fails — the caller falls back to the eager path for the chunk.
  bool ScoreRange(const core::SharedContext& ctx,
                  const std::vector<int32_t>& candidates, size_t begin,
                  size_t end, float* out, std::string* error) const;

  /// Number of slot tensors a context carries.
  size_t num_slots() const { return prologue_.slot_outputs.size(); }

  /// The item table every body of this engine reads (empty when the model
  /// has no item values).
  const ItemTable& item_table() const { return items_; }

  /// The body compiled for \p count candidates, or null before the first
  /// chunk of that count. Bodies live as long as the engine.
  const Program* body(size_t count) const SEQFM_EXCLUDES(mu_);

  /// Re-checks the slot ABI between the prologue and every compiled body:
  /// each body value of kind kSlot must name a slot the prologue actually
  /// produces, with the exact shape the prologue parks in the context, and
  /// each kItem value must name a column of the item table with that
  /// column's exact [num_objects, width]. The initial Compile establishes
  /// this by construction; serving re-verifies it at every checkpoint reload
  /// (Predictor::ReloadCheckpoint) because a body scoring through a stale or
  /// miswired slot or column reads the wrong floats — garbage rankings, no
  /// crash. Returns Internal naming the first mismatched (body count,
  /// value, slot or column).
  Status ReverifySlotAbi() const SEQFM_EXCLUDES(mu_);

  /// How CorruptAbiForTest miswires a body.
  enum class AbiCorruption {
    kSlotIndex,  // first kSlot value: slot index pushed out of range
    kSlotShape,  // first kSlot value: shape distorted
    kItemWidth,  // first kItem value: column width off by one
  };

  /// Test hook: miswires the first kSlot or kItem value of some compiled
  /// body. Exists so reload tests can prove ReverifySlotAbi catches each
  /// failure class; never called outside tests.
  void CorruptAbiForTest(AbiCorruption how) SEQFM_EXCLUDES(mu_);

  uint64_t uid() const { return uid_; }

  EngineStats stats() const;

 private:
  Engine() = default;

  /// Traces fresh at counts 1 and \p count (and a cross-probe request at
  /// \p count), factors, optimizes, verifies, and self-checks. The initial
  /// compile (\p adopt_prologue) also builds the item table; later ones
  /// must reproduce its layout and check their item claims against it.
  /// Fresh traces (not stored ones) keep the verification honest after
  /// checkpoint reloads swap parameter storage. Runs WITHOUT
  /// mu_ held — tracing dispatches ParallelFor work, and holding the engine
  /// lock across a pool region inverts against wave chunk tasks that call
  /// ScoreRange from inside pool work (see util::lock_rank). On success the
  /// body is published into bodies_[count] under a short mu_ critical
  /// section; concurrent compiles of the same count are tolerated
  /// (first insert wins, both results are bit-identical).
  bool CompileCount(size_t count, bool adopt_prologue,
                    std::string* error) const SEQFM_EXCLUDES(mu_);

  core::Model* model_ = nullptr;
  const data::BatchBuilder* builder_ = nullptr;
  size_t num_objects_ = 0;
  // Probe request used for (re)tracing: user 0, history {0}.
  std::vector<int32_t> probe_history_;
  // Index synthesis geometry (see RunProgram in exec.cc).
  int32_t cand_base_ = 0;         // FeatureSpace::CandidateIndex(0)
  int32_t unified_dyn_base_ = 0;  // static_dim: unified id of dynamic 0
  size_t n_seq_ = 0;
  uint64_t uid_ = 0;

  // mutable: written once by Compile's initial CompileCount call, via the
  // same const path ScoreRange uses for lazy per-count bodies. Immutable
  // after Compile returns (the engine is not published until Compile
  // completes, and checkpoint reloads build a new Engine), so readers need
  // no lock; not GUARDED_BY for that reason.
  mutable Program prologue_;
  // Written with prologue_, and as immutable after Compile. One table per
  // engine, shared by every body (never copied into Program::constants).
  mutable ItemTable items_;

  /// Innermost rank: acquired for bodies_/stats_ publication and lookup
  /// only, never held across a compile or a pool region.
  mutable util::OrderedMutex mu_{"ir::Engine::mu_",
                                 util::lock_rank::kIrEngine};
  mutable std::unordered_map<size_t, std::unique_ptr<Program>> bodies_
      SEQFM_GUARDED_BY(mu_);
  mutable EngineStats stats_ SEQFM_GUARDED_BY(mu_);
};

}  // namespace ir
}  // namespace seqfm

#endif  // SEQFM_IR_EXEC_H_
