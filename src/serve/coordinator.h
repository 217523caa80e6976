#ifndef SEQFM_SERVE_COORDINATOR_H_
#define SEQFM_SERVE_COORDINATOR_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "serve/backend.h"
#include "serve/predictor.h"
#include "serve/shard.h"
#include "util/ordered_mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace seqfm {
namespace serve {

struct CoordinatorOptions {
  /// Per-replica budget for one request's scoring round-trip. Applied as the
  /// io timeout of replicas added via AddReplica; backends added via
  /// AddBackend bound their own calls. A replica that blows the budget is
  /// treated as failed for that request (PARTIAL merge), never waited on
  /// past its socket timeout — the fan-out join cannot hang.
  int64_t replica_timeout_ms = 2000;
  /// Bound on AddReplica's TCP connect + protocol handshake.
  int64_t connect_timeout_ms = 1000;
  /// Circuit breaker: a member failing this many CONSECUTIVE attempts has
  /// its circuit opened — it is ejected from affinity routing until a
  /// half-open probe readmits it. Successes reset the streak.
  uint32_t max_consecutive_failures = 3;
  /// How long an opened circuit stays closed to traffic before the breaker
  /// goes HALF_OPEN and routes one live request through the member as a
  /// trial: success closes the circuit (full readmission), failure re-opens
  /// it for another window.
  int64_t circuit_open_ms = 500;
  /// Retry budget: failover attempts (attempt #2+ of a request on a shard)
  /// are allowed only while
  ///   retries_spent < retry_budget_ratio * first_attempts + burst.
  /// Under a healthy fleet the budget is never touched; under a mass outage
  /// retries are capped at ~ratio of real traffic instead of multiplying
  /// every request by the group size — retry storms cannot amplify an
  /// overload into a bigger one. The burst term keeps small fleets and cold
  /// starts from being starved of their first few failovers.
  double retry_budget_ratio = 0.1;
  uint32_t retry_budget_burst = 10;
};

/// Fleet-health and recovery counters (see Coordinator::stats). Monotonic
/// over the coordinator's lifetime; bench_loadgen reports them in --json so
/// the perf trajectory captures recovery cost, and the fault-free smoke leg
/// gates on retries == 0.
struct CoordinatorStats {
  uint64_t shard_attempts = 0;      // first attempts (one per shard request)
  uint64_t retries = 0;             // failover attempts actually made
  uint64_t retries_denied = 0;      // failovers blocked by the retry budget
  uint64_t circuit_opens = 0;       // CLOSED -> OPEN transitions
  uint64_t circuit_reopens = 0;     // HALF_OPEN probe failed -> OPEN again
  uint64_t circuit_closes = 0;      // probe succeeded -> CLOSED (readmitted)
  uint64_t half_open_probes = 0;    // trial requests routed to OPEN members
  uint64_t reconnects = 0;          // backend reconnections (aggregated)
  uint64_t reconnect_failures = 0;  // failed backend reconnect attempts
};

/// Outcome of one coordinated request.
struct CoordinatorResult {
  /// kOk when every shard contributed; kPartial when at least one replica
  /// failed (timeout, transport error, version drift) and the merge degraded
  /// to the shards that answered. A result with zero merged shards is still
  /// kPartial — an empty degraded ranking, not an error; transport-level
  /// failures that prevent even trying (not Ready) surface as Status from
  /// TopKAll instead.
  RpcStatus status = RpcStatus::kOk;
  std::vector<ScoredItem> items;
  /// Shards in the catalog partition / shards whose runs were merged.
  uint32_t shards_total = 0;
  uint32_t shards_merged = 0;
};

/// \brief Coordinator of a multi-replica serving fleet: fans a request out
/// over one replica per catalog shard, k-way merges the per-shard top-K runs
/// under serve::RankBefore, and degrades gracefully when replicas fail.
///
/// The fleet is a set of ScoringBackends, each owning one contiguous slice
/// of the identity catalog (ReplicaInfo). Multiple replicas may own the
/// same shard (replication for availability); Ready() groups them by shard
/// index and validates the fleet:
///   - every backend serves the same model_version, num_shards and
///     catalog_size (a coordinator never merges across model versions);
///   - every shard of the partition is covered by at least one replica;
///   - every replica's owned slice equals ShardBounds at its index, so the
///     union of slices tiles the catalog exactly.
///
/// TopKAll scores all shards concurrently (one worker thread per shard) and
/// merges their runs with MergeSortedRuns under RankBefore — so for an
/// all-shards-healthy fleet the coordinator's ranking is bit-identical to
/// single-process Predictor::TopKAll over the same catalog. Within a shard's
/// replica group the first attempt is picked by user affinity (FNV hash of
/// the user id), keeping a given user's context cached on one replica; on
/// failure the worker fails over to the group's other replicas before
/// giving the shard up.
///
/// Thread-safe: concurrent TopKAll calls snapshot the fleet under mu_
/// (lock_rank::kCoordinator) and fan out lock-free; backends serialize
/// internally per their own contract.
class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions options = {});
  ~Coordinator() = default;
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Adds a backend with an externally supplied identity — the in-process
  /// form (LocalShardBackend over a slice-owning Predictor) and the test
  /// seam. The info must be internally consistent (slice within catalog).
  Status AddBackend(std::unique_ptr<ScoringBackend> backend,
                    const ReplicaInfo& info) SEQFM_EXCLUDES(mu_);

  /// Connects a RemoteReplicaBackend to a replica process and adds it under
  /// the identity the replica announced in its handshake.
  Status AddReplica(const std::string& host, uint16_t port)
      SEQFM_EXCLUDES(mu_);

  /// Validates the fleet and freezes the shard grouping. Must be called
  /// after the last Add* and before the first TopKAll; returns
  /// FailedPrecondition naming the first inconsistency otherwise.
  Status Ready() SEQFM_EXCLUDES(mu_);

  /// Scores \p ex against the whole catalog and fills \p out with the
  /// merged global top-k. Returns non-OK only for usage errors (not Ready);
  /// replica failures degrade to out->status == kPartial instead.
  Status TopKAll(const data::SequenceExample& ex, size_t k,
                 CoordinatorResult* out) SEQFM_EXCLUDES(mu_);

  /// Fleet-wide identity agreed on by Ready().
  uint64_t model_version() const SEQFM_EXCLUDES(mu_);
  uint64_t catalog_size() const SEQFM_EXCLUDES(mu_);
  uint32_t num_shards() const SEQFM_EXCLUDES(mu_);

  /// Health/recovery counters, including per-backend reconnects aggregated
  /// across the fleet. Safe to call concurrently with TopKAll.
  CoordinatorStats stats() const SEQFM_EXCLUDES(mu_);

  const CoordinatorOptions& options() const { return options_; }

 private:
  struct Member {
    std::unique_ptr<ScoringBackend> backend;
    ReplicaInfo info;
  };

  /// Per-member circuit-breaker state (indexed like members_).
  enum class Circuit : uint8_t { kClosed, kOpen, kHalfOpen };
  struct MemberHealth {
    Circuit circuit = Circuit::kClosed;
    uint32_t consecutive_failures = 0;
    /// When an OPEN circuit becomes probe-eligible (HALF_OPEN).
    std::chrono::steady_clock::time_point open_until{};
    /// At most one in-flight trial per HALF_OPEN member: concurrent
    /// requests route around it until the probe reports back.
    bool probe_in_flight = false;
  };

  /// Records one attempt's outcome against the member's breaker.
  void ReportOutcome(size_t member, bool ok) SEQFM_EXCLUDES(health_mu_);
  /// Consumes one retry token if the budget allows another failover.
  bool TrySpendRetryToken() SEQFM_EXCLUDES(health_mu_);

  CoordinatorOptions options_;
  mutable util::OrderedMutex mu_{"Coordinator::mu_",
                                 util::lock_rank::kCoordinator};
  std::vector<Member> members_ SEQFM_GUARDED_BY(mu_);
  /// shard_groups_[s] = indices into members_ serving shard s, in Add
  /// order. Frozen by Ready(); empty before.
  std::vector<std::vector<size_t>> shard_groups_ SEQFM_GUARDED_BY(mu_);
  bool ready_ SEQFM_GUARDED_BY(mu_) = false;
  uint64_t model_version_ SEQFM_GUARDED_BY(mu_) = 0;
  uint64_t catalog_size_ SEQFM_GUARDED_BY(mu_) = 0;
  uint32_t num_shards_ SEQFM_GUARDED_BY(mu_) = 0;

  /// Health state sits under its own lock (rank kCoordinatorHealth, between
  /// mu_ and the replica channels): plan building consults it nested inside
  /// mu_, fan-out workers report outcomes into it with NO other lock held —
  /// and never across a backend call, so a replica stuck in its socket
  /// timeout cannot delay health bookkeeping for the rest of the fleet.
  mutable util::OrderedMutex health_mu_{"Coordinator::health_mu_",
                                        util::lock_rank::kCoordinatorHealth};
  std::vector<MemberHealth> health_ SEQFM_GUARDED_BY(health_mu_);
  CoordinatorStats stats_ SEQFM_GUARDED_BY(health_mu_);
};

}  // namespace serve
}  // namespace seqfm

#endif  // SEQFM_SERVE_COORDINATOR_H_
