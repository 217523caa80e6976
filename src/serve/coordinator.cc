#include "serve/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "util/hash.h"
#include "util/logging.h"

namespace seqfm {
namespace serve {

Coordinator::Coordinator(CoordinatorOptions options) : options_(options) {}

Status Coordinator::AddBackend(std::unique_ptr<ScoringBackend> backend,
                               const ReplicaInfo& info) {
  SEQFM_CHECK(backend != nullptr) << "Coordinator: null backend";
  if (info.num_shards == 0) {
    return Status::InvalidArgument("coordinator: replica reports 0 shards");
  }
  if (info.shard_index >= info.num_shards) {
    return Status::InvalidArgument(
        "coordinator: replica shard index " +
        std::to_string(info.shard_index) + " out of range for " +
        std::to_string(info.num_shards) + " shards");
  }
  if (info.shard_begin > info.shard_end ||
      info.shard_end > info.catalog_size) {
    return Status::InvalidArgument(
        "coordinator: replica slice [" + std::to_string(info.shard_begin) +
        ", " + std::to_string(info.shard_end) +
        ") does not fit catalog of size " +
        std::to_string(info.catalog_size));
  }
  util::OrderedMutexLock lock(mu_);
  if (ready_) {
    return Status::FailedPrecondition(
        "coordinator: fleet is frozen — add replicas before Ready()");
  }
  members_.push_back(Member{std::move(backend), info});
  return Status::OK();
}

Status Coordinator::AddReplica(const std::string& host, uint16_t port) {
  RemoteReplicaBackendOptions opts;
  opts.connect_timeout_ms = options_.connect_timeout_ms;
  opts.io_timeout_ms = options_.replica_timeout_ms;
  auto backend = std::make_unique<RemoteReplicaBackend>(opts);
  Status st = backend->Connect(host, port);
  if (!st.ok()) return st;
  const ReplicaInfo info = backend->info();
  return AddBackend(std::move(backend), info);
}

Status Coordinator::Ready() {
  util::OrderedMutexLock lock(mu_);
  if (ready_) return Status::OK();
  if (members_.empty()) {
    return Status::FailedPrecondition("coordinator: empty fleet");
  }

  // The fleet's identity is whatever the first member claims; every other
  // member must agree. A coordinator never merges across model versions —
  // scores from different parameters are not comparable, and a ranking
  // stitched from both would be silently wrong in the worst possible way.
  const ReplicaInfo& first = members_.front().info;
  for (size_t m = 1; m < members_.size(); ++m) {
    const ReplicaInfo& info = members_[m].info;
    if (info.model_version != first.model_version) {
      return Status::FailedPrecondition(
          "coordinator: model version mismatch — replica 0 serves " +
          std::to_string(first.model_version) + ", replica " +
          std::to_string(m) + " serves " +
          std::to_string(info.model_version) +
          "; refusing to merge rankings across model versions");
    }
    if (info.num_shards != first.num_shards ||
        info.catalog_size != first.catalog_size) {
      return Status::FailedPrecondition(
          "coordinator: partition mismatch — replica 0 is shard " +
          std::to_string(first.shard_index) + "/" +
          std::to_string(first.num_shards) + " of catalog " +
          std::to_string(first.catalog_size) + ", replica " +
          std::to_string(m) + " is shard " +
          std::to_string(info.shard_index) + "/" +
          std::to_string(info.num_shards) + " of catalog " +
          std::to_string(info.catalog_size));
    }
  }

  // Every shard needs at least one member, so a fleet announcing more
  // shards than it has members cannot cover the catalog. Checked before the
  // partition is materialized: num_shards comes off the wire, and a replica
  // announcing 2^32 - 1 shards would otherwise make the coordinator
  // allocate tens of GiB of bounds and groups just to refuse the fleet.
  if (first.num_shards > members_.size()) {
    return Status::FailedPrecondition(
        "coordinator: fleet announces " + std::to_string(first.num_shards) +
        " shards but has only " + std::to_string(members_.size()) +
        " replicas — the catalog is not fully covered");
  }

  // Every slice must equal the canonical partition at its index: replicas
  // and the coordinator then agree on every boundary without negotiation,
  // and the union of groups tiles the catalog exactly.
  const std::vector<size_t> bounds =
      ShardBounds(first.catalog_size, first.num_shards);
  std::vector<std::vector<size_t>> groups(first.num_shards);
  for (size_t m = 0; m < members_.size(); ++m) {
    const ReplicaInfo& info = members_[m].info;
    if (info.shard_begin != bounds[info.shard_index] ||
        info.shard_end != bounds[info.shard_index + 1]) {
      return Status::FailedPrecondition(
          "coordinator: replica " + std::to_string(m) + " owns [" +
          std::to_string(info.shard_begin) + ", " +
          std::to_string(info.shard_end) +
          ") but the canonical slice of shard " +
          std::to_string(info.shard_index) + " is [" +
          std::to_string(bounds[info.shard_index]) + ", " +
          std::to_string(bounds[info.shard_index + 1]) + ")");
    }
    groups[info.shard_index].push_back(m);
  }
  for (uint32_t s = 0; s < first.num_shards; ++s) {
    if (groups[s].empty()) {
      return Status::FailedPrecondition(
          "coordinator: shard " + std::to_string(s) + "/" +
          std::to_string(first.num_shards) +
          " has no replica — the catalog is not fully covered");
    }
  }

  shard_groups_ = std::move(groups);
  model_version_ = first.model_version;
  catalog_size_ = first.catalog_size;
  num_shards_ = first.num_shards;
  ready_ = true;
  {
    util::OrderedMutexLock health_lock(health_mu_);
    health_.assign(members_.size(), MemberHealth{});
  }
  return Status::OK();
}

void Coordinator::ReportOutcome(size_t member, bool ok) {
  util::OrderedMutexLock lock(health_mu_);
  MemberHealth& h = health_[member];
  if (ok) {
    h.consecutive_failures = 0;
    if (h.circuit != Circuit::kClosed) {
      // A successful call through an OPEN/HALF_OPEN member closes its
      // circuit — full readmission into affinity routing.
      h.circuit = Circuit::kClosed;
      h.probe_in_flight = false;
      ++stats_.circuit_closes;
      SEQFM_LOG(Info) << "coordinator: member " << member
                      << " readmitted (circuit closed)";
    }
    return;
  }
  ++h.consecutive_failures;
  if (h.circuit == Circuit::kHalfOpen) {
    // The trial failed: back to OPEN for another full window.
    h.circuit = Circuit::kOpen;
    h.probe_in_flight = false;
    h.open_until = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(options_.circuit_open_ms);
    ++stats_.circuit_reopens;
  } else if (h.circuit == Circuit::kClosed &&
             h.consecutive_failures >= options_.max_consecutive_failures) {
    h.circuit = Circuit::kOpen;
    h.open_until = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(options_.circuit_open_ms);
    ++stats_.circuit_opens;
    SEQFM_LOG(Warning) << "coordinator: member " << member << " ejected after "
                       << h.consecutive_failures
                       << " consecutive failures (circuit open)";
  }
}

bool Coordinator::TrySpendRetryToken() {
  util::OrderedMutexLock lock(health_mu_);
  // Token-bucket-by-ratio: every FIRST attempt earns ratio tokens, every
  // failover spends one, and the burst floor keeps cold starts and small
  // fleets from being starved. No refill thread, no clock — the budget is a
  // pure function of traffic, so it is deterministic under test.
  const double budget =
      options_.retry_budget_ratio * static_cast<double>(stats_.shard_attempts) +
      static_cast<double>(options_.retry_budget_burst);
  if (static_cast<double>(stats_.retries) >= budget) {
    ++stats_.retries_denied;
    return false;
  }
  ++stats_.retries;
  return true;
}

Status Coordinator::TopKAll(const data::SequenceExample& ex, size_t k,
                            CoordinatorResult* out) {
  SEQFM_CHECK(out != nullptr);
  out->status = RpcStatus::kOk;
  out->items.clear();

  // Snapshot the fleet under mu_, then fan out with NO coordinator lock
  // held: workers only touch their own result slot, their backend's
  // internal channel lock, and health_mu_ between calls (never across one).
  struct Attempt {
    ScoringBackend* backend = nullptr;
    size_t member = 0;
  };
  struct ShardPlan {
    /// Probe (at most one, when a member is half-open-eligible) first, then
    /// the CLOSED members affinity-ordered — the failover order.
    std::vector<Attempt> attempts;
    size_t begin = 0;
    size_t end = 0;
  };
  std::vector<ShardPlan> plans;
  {
    util::OrderedMutexLock lock(mu_);
    if (!ready_) {
      return Status::FailedPrecondition(
          "coordinator: TopKAll before Ready()");
    }
    out->shards_total = num_shards_;
    const std::vector<size_t> bounds = ShardBounds(catalog_size_, num_shards_);
    const uint64_t affinity =
        util::Fnv1a64(&ex.user, sizeof(ex.user));
    const auto now = std::chrono::steady_clock::now();
    plans.resize(num_shards_);
    util::OrderedMutexLock health_lock(health_mu_);
    for (uint32_t s = 0; s < num_shards_; ++s) {
      const std::vector<size_t>& group = shard_groups_[s];
      // Rotate the group so a given user keeps hitting the same replica
      // first (its SharedContext stays hot in that replica's cache); the
      // rest of the group is the failover order.
      const size_t pick = static_cast<size_t>(affinity % group.size());
      ShardPlan& plan = plans[s];
      plan.begin = bounds[s];
      plan.end = bounds[s + 1];
      plan.attempts.reserve(group.size());
      // Circuit-breaker routing: CLOSED members take traffic in affinity
      // order; an OPEN member whose window expired gets readmission tested
      // by ONE live trial request (HALF_OPEN, at most one probe in flight
      // and at most one probe per plan — a recovering fleet never stacks
      // timeout-prone attempts onto a single request).
      bool probe_added = false;
      for (size_t i = 0; i < group.size(); ++i) {
        const size_t m = group[(pick + i) % group.size()];
        MemberHealth& h = health_[m];
        if (h.circuit == Circuit::kClosed) {
          plan.attempts.push_back({members_[m].backend.get(), m});
        } else if (h.circuit == Circuit::kOpen && !probe_added &&
                   now >= h.open_until && !h.probe_in_flight) {
          h.circuit = Circuit::kHalfOpen;
          h.probe_in_flight = true;
          probe_added = true;
          ++stats_.half_open_probes;
          // The probe rides FIRST: readmission must be tested by live
          // traffic, and this request has the whole failover order behind
          // it if the trial fails.
          plan.attempts.insert(plan.attempts.begin(),
                               {members_[m].backend.get(), m});
        }
        // OPEN inside its window, or HALF_OPEN with a probe already out:
        // route around it entirely.
      }
      if (plan.attempts.empty()) {
        // Every member open and none probe-eligible. Attempt the whole
        // group anyway rather than silently dropping the shard: these
        // calls fail fast (the backends' reconnect backoff answers in
        // microseconds while the replica is truly down), and the shard
        // must not be lost for a full window when recovery is a race away.
        for (size_t i = 0; i < group.size(); ++i) {
          const size_t m = group[(pick + i) % group.size()];
          plan.attempts.push_back({members_[m].backend.get(), m});
        }
      }
    }
  }

  // One worker thread per shard, each writing a distinct slot. Plain
  // std::thread rather than the shared pool on purpose: in-process replicas
  // score on that pool, so a coordinator occupying pool threads while
  // waiting on them could starve itself into deadlock. Join-all is safe
  // because every remote call is bounded by its socket timeout.
  const uint32_t shards = out->shards_total;
  std::vector<std::vector<RankEntry>> runs(shards);
  std::vector<uint8_t> merged(shards, 0);
  std::vector<std::thread> workers;
  workers.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    workers.emplace_back([&, s]() {
      const ShardPlan& plan = plans[s];
      ScoreJob job;
      job.ex = &ex;
      job.candidates = nullptr;  // identity catalog: the replica's slice
      job.begin = plan.begin;
      job.end = plan.end;
      job.k = std::min(k, plan.end - plan.begin);
      bool first = true;
      for (const Attempt& attempt : plan.attempts) {
        if (first) {
          util::OrderedMutexLock lock(health_mu_);
          ++stats_.shard_attempts;
        } else if (!TrySpendRetryToken()) {
          // Budget exhausted: declaring the shard lost is the SAFE failure
          // (an explicit PARTIAL) — burning group-size attempts per request
          // during a mass outage would amplify the overload that caused it.
          SEQFM_LOG(Warning)
              << "coordinator: shard " << s
              << " failover suppressed by the retry budget";
          break;
        }
        first = false;
        std::vector<std::vector<RankEntry>> result;
        Status st = attempt.backend->ScoreTopK({job}, &result);
        ReportOutcome(attempt.member, st.ok());
        if (st.ok()) {
          runs[s] = std::move(result.front());
          merged[s] = 1;
          break;
        }
        SEQFM_LOG(Warning) << "coordinator: shard " << s
                           << " attempt failed: " << st.ToString();
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Merge whatever answered. Failed shards contribute an empty run, which
  // MergeSortedRuns permits; with every shard healthy the merge of the
  // slices' top-k runs is bit-identical to single-process
  // Predictor::TopKAll (RankBefore is a strict total order).
  uint32_t ok_shards = 0;
  for (uint32_t s = 0; s < shards; ++s) ok_shards += merged[s];
  out->shards_merged = ok_shards;
  out->items = MergeSortedRuns(runs, k);
  out->status =
      (ok_shards == shards) ? RpcStatus::kOk : RpcStatus::kPartial;
  return Status::OK();
}

uint64_t Coordinator::model_version() const {
  util::OrderedMutexLock lock(mu_);
  return model_version_;
}

uint64_t Coordinator::catalog_size() const {
  util::OrderedMutexLock lock(mu_);
  return catalog_size_;
}

uint32_t Coordinator::num_shards() const {
  util::OrderedMutexLock lock(mu_);
  return num_shards_;
}

CoordinatorStats Coordinator::stats() const {
  util::OrderedMutexLock lock(mu_);
  CoordinatorStats out;
  {
    util::OrderedMutexLock health_lock(health_mu_);
    out = stats_;
  }
  // Aggregate per-backend recovery counters under mu_ alone: each
  // RecoveryStats() nests into that backend's channel lock (rank above
  // both coordinator locks), same order the fan-out legalizes.
  for (const Member& member : members_) {
    const BackendRecoveryStats r = member.backend->RecoveryStats();
    out.reconnects += r.reconnects;
    out.reconnect_failures += r.reconnect_failures;
  }
  return out;
}

}  // namespace serve
}  // namespace seqfm
