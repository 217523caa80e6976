#ifndef SEQFM_IR_VERIFY_H_
#define SEQFM_IR_VERIFY_H_

#include <cstddef>

#include "ir/program.h"
#include "util/status.h"

namespace seqfm {
namespace ir {

/// \brief Structural verifier for compiled op programs.
///
/// The serving compiler's end-to-end defense is the bit-parity self-check in
/// Engine::Compile (replay vs. traced forward, cross-probe, and an untraced
/// count vs. the eager forward). Verify is
/// the complementary *structural* defense: it proves, per program, that the
/// instruction list is well-formed independent of any particular request, so
/// a pass bug surfaces as a precise diagnostic at the pass that introduced it
/// instead of as a downstream bit mismatch (or, worse, a clean-looking read
/// of clobbered memory that happens to match). Engine::Compile runs it
/// after every pass; any failure aborts the compile and the Predictor falls
/// back to the eager path — never wrong bits.
///
/// Checked invariants:
///   - instruction/value table integrity: every referenced value id is in
///     range, instruction outputs are kLocal, each id is defined at most
///     once (SSA), every read of a local happens after its definition;
///   - per-op agreement with the executor's shape contracts (arity, ranks,
///     inner-dimension matches, elementwise size equality — the same
///     relations EvalPure / RunProgram index by); a fused masked_attention's
///     key ranges must equal the open columns re-derived from its constant
///     mask (all columns without one);
///   - value-kind soundness: params are live non-null nodes, constant
///     indices address Program::constants with matching element counts,
///     kSlot reads appear only where the caller allows them and stay inside
///     the prologue's slot count, and a kItem value names a column of the
///     caller's item table with that column's exact [num_objects, width]
///     and is read only as the table of an embedding_gather bound to the
///     candidate column alone (static or unified column 1);
///   - the candidate axis: only ranked locals are per-candidate; an op
///     reads each per-candidate operand row-locally (never as a shared
///     operand, such as a matmul weight, that would contract over the
///     candidates) and writes a per-candidate value (no reshape moves the
///     count off axis 0), so shapes checked at one candidate hold at every
///     count;
///   - IndexBinding soundness: gathers carry a binding with a real source,
///     cols/deltas agree in length, and every column addresses inside the
///     synthesized index row (n_static / n_seq / n_unified);
///   - fusion-aliasing legality: alias chains are acyclic and land on a
///     defined kLocal root of equal element count, an aliased value is
///     defined by a pointwise op reading its alias target as in[0], and no
///     value is read after its buffer was overwritten in place;
///   - arena-plan soundness (check_arena): lifetimes are recomputed from
///     uses, and every planned root gets a 64-byte-aligned range inside its
///     region (count-free, or per-candidate) that overlaps no
///     simultaneously-live root of that region; aliases share their root's
///     offset and per-candidate flag, and dead locals carry kNoOffset.
struct VerifyOptions {
  /// Verify PlanArena's output (offsets, frame_floats). Off for programs
  /// that have not been planned yet — Value::offset defaults to 0, so an
  /// unplanned program is indistinguishable from one planned at offset 0.
  bool check_arena = false;
  /// Number of slots the paired prologue writes. Body programs read
  /// prologue outputs as kSlot values, whose indices must stay below this;
  /// with 0 (every non-body program) any kSlot value is a compiler bug.
  size_t num_slots = 0;
  /// Body programs read the engine's item table as kItem values; null
  /// everywhere else (a kItem value is then a compiler bug). Only its
  /// column shapes are consulted.
  const ItemTable* item_table = nullptr;
};

/// Returns OK iff \p program satisfies every invariant above. The error
/// message pinpoints the instruction / value id and the violated rule.
Status Verify(const Program& program, const VerifyOptions& options = {});

}  // namespace ir
}  // namespace seqfm

#endif  // SEQFM_IR_VERIFY_H_
