#ifndef SEQFM_SERVE_BACKEND_H_
#define SEQFM_SERVE_BACKEND_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "serve/predictor.h"
#include "serve/rpc_server.h"
#include "serve/shard.h"
#include "util/ordered_mutex.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace seqfm {
namespace serve {

/// \brief One "score a candidate range, keep a bounded top-K" unit of work.
///
/// The range is candidates[begin, end); positions in the produced RankEntry
/// run are GLOBAL positions into \p candidates, so runs from different jobs
/// of the same request merge under the one serving-wide total order
/// (serve::RankBefore) exactly as if the request had been scored whole.
///
/// \p candidates may be null: the job then scores the IDENTITY catalog —
/// positions [begin, end) are the item ids themselves. This is the form
/// serve::Coordinator emits (a replica owns its slice; the slate is never
/// shipped). RemoteReplicaBackend only accepts this form;
/// LocalShardBackend accepts both and materializes the identity slice.
struct ScoreJob {
  const data::SequenceExample* ex = nullptr;
  const std::vector<int32_t>* candidates = nullptr;
  size_t begin = 0;
  size_t end = 0;
  /// Entries to retain; the produced run holds min(k, end - begin) entries.
  size_t k = 0;
};

/// Recovery counters exposed by ScoringBackend::RecoveryStats (today only
/// RemoteReplicaBackend reports non-zero values).
struct BackendRecoveryStats {
  uint64_t reconnects = 0;          // successful automatic reconnections
  uint64_t reconnect_failures = 0;  // failed reconnect attempts
};

/// \brief The transport-agnostic scoring seam of the serving stack.
///
/// "Score a candidate range and return a bounded top-K" is the one operation
/// every serving layer needs: BatchServer waves and the distributed
/// Coordinator both reduce to batches of ScoreJobs. A backend executes a
/// batch and returns, per job, the top-min(k, range) entries sorted
/// best-first under RankBefore, carrying RAW float scores
/// (bit-exact — merges downstream must reproduce the single-process ranking
/// bit for bit, so no backend may round, rescale, or re-derive scores).
///
/// Implementations:
///  - LocalShardBackend: in-process, over Predictor::ScoreContextRange +
///    TopKHeap — the engine room of BatchServer and of replica processes.
///  - RemoteReplicaBackend: one replica process over the RPC wire protocol
///    (serve/protocol.h kShardRequestFrame), used by serve::Coordinator.
///
/// Batch form is deliberate: handing a backend ALL jobs of a wave at once
/// lets the local implementation fuse every (job, chunk) task into a single
/// ParallelFor and dedupe (user, history) contexts across jobs — the two
/// properties that made BatchServer waves fast — while a remote backend can
/// pipeline the batch onto its connection.
class ScoringBackend {
 public:
  virtual ~ScoringBackend() = default;

  /// Scores every job; on OK, results->at(j) is job j's run: its top
  /// min(k, end - begin) entries, sorted best-first under RankBefore, with
  /// global positions and raw scores. A non-OK status means the batch
  /// produced no usable results (results contents unspecified) — remote
  /// transports surface timeouts and version mismatches here; the local
  /// backend never fails.
  ///
  /// Thread-safety is per-implementation: LocalShardBackend is safe for
  /// concurrent calls (same contract as Predictor); RemoteReplicaBackend
  /// serializes calls on its one connection internally.
  virtual Status ScoreTopK(const std::vector<ScoreJob>& jobs,
                           std::vector<std::vector<RankEntry>>* results) = 0;

  /// Recovery counters (reconnects etc.); all-zero for backends that have
  /// no connection to lose. The Coordinator aggregates these into its own
  /// stats so bench_loadgen can report fleet-wide recovery cost.
  virtual BackendRecoveryStats RecoveryStats() const { return {}; }
};

/// \brief In-process ScoringBackend over a serve::Predictor.
///
/// Runs a job batch (one BatchServer wave, one job per request) in three
/// phases:
///   1. resolve each unique (user, history) SharedContext once per batch —
///      deduped across jobs before the ContextCache is even consulted, so a
///      cold cache never computes the same context twice in one batch;
///   2. one fused ParallelFor over every (job, chunk) task, chunks never
///      crossing a job boundary, reduced into one bounded TopKHeap per job
///      (chunk-locally first, then <= k survivors under the job's mutex);
///   3. per-job SortedEntries as the result runs.
/// The retained set of a TopKHeap is push-order independent and RankBefore
/// is a strict total order, so results are bit-identical for any pool
/// schedule, thread count, chunk size, and job partition of the same range.
///
/// Thread-safe for concurrent ScoreTopK calls after construction. The
/// Predictor is borrowed and must outlive this object.
class LocalShardBackend : public ScoringBackend {
 public:
  explicit LocalShardBackend(const Predictor* predictor);

  Status ScoreTopK(const std::vector<ScoreJob>& jobs,
                   std::vector<std::vector<RankEntry>>* results) override;

 private:
  const Predictor* predictor_;
};

/// \brief Identity of one replica (or local stand-in) in a distributed
/// serving fleet: which contiguous slice of which catalog it owns, and which
/// model version it serves. Remote replicas report this in the protocol
/// handshake (serve::RpcHelloAck); serve::Coordinator validates that a
/// fleet's infos agree before it will merge across them.
struct ReplicaInfo {
  uint32_t shard_index = 0;
  uint32_t num_shards = 1;
  /// Owned slice [shard_begin, shard_end) of the identity catalog — always
  /// equal to ShardBounds(catalog_size, num_shards) at shard_index, so
  /// replicas configured alike agree on every boundary.
  uint64_t shard_begin = 0;
  uint64_t shard_end = 0;
  uint64_t catalog_size = 0;
  /// serve::ParameterVersion of the served parameters. Coordinators refuse
  /// to merge runs produced under different model versions.
  uint64_t model_version = 0;
};

/// Replica channel timeouts. Reconnection backoff has no knob: after a
/// failed reconnect attempt the backend refuses further attempts (failing
/// calls fast) for an exponentially growing delay, doubling from 10 ms up
/// to 1 s, each drawn uniformly from [d/2, d) off a stream every backend
/// seeds from std::random_device; the fast-fail keeps the request path
/// from ever sleeping.
struct RemoteReplicaBackendOptions {
  /// Bound on Connect (TCP + protocol handshake).
  int64_t connect_timeout_ms = 1000;
  /// Per-syscall bound on the scoring round-trips. The Coordinator sets
  /// this to its per-replica budget, which is what makes its join-all
  /// fan-out hang-free: a dead replica's worker always terminates.
  int64_t io_timeout_ms = 2000;
};

/// \brief ScoringBackend over one remote replica process (the RPC wire
/// protocol's shard-scoped frames, serve/protocol.h).
///
/// Connect() handshakes and requires the server to advertise
/// kRpcCapShardScoring; the replica's self-description (owned slice, model
/// version) is kept in info(). ScoreTopK pipelines the whole batch onto the
/// one connection and matches responses by id, converting wire entries back
/// to RankEntry runs with their raw score bits — the coordinator-side merge
/// must reproduce single-process rankings exactly, and does, because
/// nothing on this path touches a score.
///
/// Every response's model version is checked against the handshake's; a
/// replica that hot-swapped its checkpoint mid-flight yields
/// FailedPrecondition instead of entries that must not be merged.
///
/// Self-healing: when the connection is lost (a failed send/read closes the
/// RpcClient — a part-written or part-read frame has no resync point), the
/// next ScoreTopK reconnects automatically, re-handshakes, and verifies the
/// replica still announces the SAME identity (model version + owned slice)
/// as the original Connect — a replica restarted under a different
/// checkpoint is refused, because its scores must not be merged with the
/// fleet's. Failed attempts back off exponentially with jitter (see
/// RemoteReplicaBackendOptions); during the backoff window calls fail fast
/// so a dead replica costs its callers microseconds, not timeouts.
///
/// Thread-safe: concurrent ScoreTopK calls serialize on the channel mutex
/// (lock_rank::kReplicaChannel).
class RemoteReplicaBackend : public ScoringBackend {
 public:
  explicit RemoteReplicaBackend(RemoteReplicaBackendOptions options = {});

  /// Connects + handshakes and fills info(). FailedPrecondition when the
  /// server is not a replica (no shard-scoring capability); a timed-out or
  /// unreachable server surfaces the RpcClient's precise IoError.
  Status Connect(const std::string& host, uint16_t port) SEQFM_EXCLUDES(mu_);

  /// Jobs must be identity-catalog form (null candidates): the replica
  /// scores positions [begin, end) of its own slice. Any transport failure,
  /// non-OK replica answer, or model-version drift fails the whole batch —
  /// the caller (Coordinator) treats the replica as failed for this
  /// request, it never merges a partial batch. A lost connection is
  /// re-established first (see class comment).
  Status ScoreTopK(const std::vector<ScoreJob>& jobs,
                   std::vector<std::vector<RankEntry>>* results) override
      SEQFM_EXCLUDES(mu_);

  BackendRecoveryStats RecoveryStats() const override SEQFM_EXCLUDES(mu_);

  const ReplicaInfo& info() const { return info_; }
  const RemoteReplicaBackendOptions& options() const { return options_; }

 private:
  /// One connect + handshake + capability check. With \p reconnect set the
  /// announced identity must equal info_ exactly; otherwise info_ is filled.
  Status ConnectLocked(bool reconnect) SEQFM_REQUIRES(mu_);
  /// Fast path no-op while connected; otherwise one backoff-gated
  /// ConnectLocked attempt.
  Status EnsureConnectedLocked() SEQFM_REQUIRES(mu_);

  RemoteReplicaBackendOptions options_;
  /// Written once by Connect before the backend is shared; read-only after.
  ReplicaInfo info_;
  /// Serializes batches on the one connection (and orders below nothing:
  /// coordinator fan-out workers take it with no coordinator lock held).
  mutable util::OrderedMutex mu_{"RemoteReplicaBackend::mu_",
                                 util::lock_rank::kReplicaChannel};
  RpcClient client_ SEQFM_GUARDED_BY(mu_);
  uint64_t next_id_ SEQFM_GUARDED_BY(mu_) = 1;
  std::string host_ SEQFM_GUARDED_BY(mu_);
  uint16_t port_ SEQFM_GUARDED_BY(mu_) = 0;
  bool ever_connected_ SEQFM_GUARDED_BY(mu_) = false;
  /// Backoff state: current delay (0 = healthy, next attempt immediate) and
  /// the earliest steady-clock time another attempt may run.
  int64_t backoff_ms_ SEQFM_GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point next_attempt_ SEQFM_GUARDED_BY(mu_){};
  Rng jitter_rng_ SEQFM_GUARDED_BY(mu_);
  BackendRecoveryStats recovery_ SEQFM_GUARDED_BY(mu_);
};

}  // namespace serve
}  // namespace seqfm

#endif  // SEQFM_SERVE_BACKEND_H_
