#include "serve/backend.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace serve {

LocalShardBackend::LocalShardBackend(const Predictor* predictor)
    : predictor_(predictor) {
  SEQFM_CHECK(predictor_ != nullptr) << "LocalShardBackend: null predictor";
}

Status LocalShardBackend::ScoreTopK(
    const std::vector<ScoreJob>& in_jobs,
    std::vector<std::vector<RankEntry>>* results) {
  const size_t num_jobs = in_jobs.size();
  results->assign(num_jobs, {});

  // A job with no candidates vector scores the identity catalog: positions
  // [begin, end) ARE the item ids — the form a Coordinator hands its
  // backends, since a replica's slate is never shipped. Materialize the
  // slice locally and remap the job onto it; the relative positions the
  // heap sees are restored to global ones in phase 3. The remap cannot
  // change the retained set or its order: identity ids are distinct, so
  // RankBefore never reaches its position tie-break within one job.
  std::vector<ScoreJob> jobs(in_jobs);
  std::vector<std::unique_ptr<std::vector<int32_t>>> identity;  // stable ptrs
  std::vector<size_t> pos_offset(num_jobs, 0);
  for (size_t j = 0; j < num_jobs; ++j) {
    if (jobs[j].candidates != nullptr) continue;
    SEQFM_CHECK_LE(jobs[j].begin, jobs[j].end);
    auto ids = std::make_unique<std::vector<int32_t>>();
    ids->reserve(jobs[j].end - jobs[j].begin);
    for (size_t p = jobs[j].begin; p < jobs[j].end; ++p) {
      ids->push_back(static_cast<int32_t>(p));
    }
    pos_offset[j] = jobs[j].begin;
    jobs[j].candidates = ids.get();
    jobs[j].begin = 0;
    jobs[j].end = ids->size();
    identity.push_back(std::move(ids));
  }

  for (const ScoreJob& job : jobs) {
    SEQFM_CHECK(job.ex != nullptr) << "LocalShardBackend: job without example";
    SEQFM_CHECK_LE(job.begin, job.end);
    SEQFM_CHECK_LE(job.end, job.candidates->size());
  }

  // Phase 1 (compiled path only): resolve each unique (user, history)
  // SharedContext once per batch. The map dedupes duplicate users across
  // jobs before they even reach the ContextCache, so a cold cache never
  // computes the same context twice in one batch; groups resolve
  // concurrently on the pool. A context stays null when the engine latched
  // off after the check; its chunks then score eagerly.
  std::vector<Predictor::ContextPtr> contexts(num_jobs);
  if (predictor_->compiled_active()) {
    std::map<std::pair<int32_t, std::vector<int32_t>>, std::vector<size_t>>
        groups;
    for (size_t j = 0; j < num_jobs; ++j) {
      if (jobs[j].begin >= jobs[j].end || jobs[j].k == 0) continue;
      groups[{jobs[j].ex->user, jobs[j].ex->history}].push_back(j);
    }
    std::vector<const std::vector<size_t>*> group_list;
    group_list.reserve(groups.size());
    for (const auto& [key, members] : groups) group_list.push_back(&members);
    util::ParallelFor(group_list.size(), 1, [&](size_t g0, size_t g1) {
      for (size_t g = g0; g < g1; ++g) {
        const std::vector<size_t>& members = *group_list[g];
        const Predictor::ContextPtr ctx =
            predictor_->AcquireContext(*jobs[members.front()].ex);
        for (size_t j : members) contexts[j] = ctx;
      }
    });
  }

  // Phase 2: one fused ParallelFor over every (job, chunk) task of the
  // batch — the multi-user scoring wave that keeps all pool threads busy
  // regardless of per-job range size. Chunks never cross a job boundary,
  // and each job reduces into one bounded top-K heap, so the batch holds
  // sum_j min(k_j, range_j) retained entries plus one chunk-local score
  // buffer per pool thread — never a full score vector.
  const size_t chunk_size = predictor_->options().micro_batch;
  struct JobChunk {
    size_t job;
    size_t begin;
    size_t end;
  };
  std::vector<JobChunk> tasks;
  std::vector<TopKHeap> heaps;
  heaps.reserve(num_jobs);
  for (size_t j = 0; j < num_jobs; ++j) {
    const size_t range = jobs[j].end - jobs[j].begin;
    // Capacity min(k, range): a heap never retains more entries than were
    // pushed, so this keeps the exact retained set of a capacity-k heap
    // while bounding per-job memory by the job's own range.
    heaps.emplace_back(std::min(jobs[j].k, range));
    if (range == 0 || jobs[j].k == 0) continue;
    for (size_t begin = jobs[j].begin; begin < jobs[j].end;
         begin += chunk_size) {
      tasks.push_back({j, begin, std::min(jobs[j].end, begin + chunk_size)});
    }
  }
  // Chunk tasks of the same job may run concurrently; its heap is fed under
  // a mutex, and the retained set is push-order independent (RankBefore is
  // a strict total order), so results are deterministic for any schedule.
  std::vector<std::mutex> heap_mu(num_jobs);
  util::ParallelFor(tasks.size(), 1, [&](size_t t0, size_t t1) {
    std::vector<float> chunk_scores;
    for (size_t t = t0; t < t1; ++t) {
      const JobChunk& task = tasks[t];
      const ScoreJob& job = jobs[task.job];
      const std::vector<int32_t>& candidates = *job.candidates;
      chunk_scores.resize(task.end - task.begin);
      if (contexts[task.job] != nullptr) {
        predictor_->ScoreContextRange(*contexts[task.job], *job.ex, candidates,
                                      task.begin, task.end,
                                      chunk_scores.data());
      } else {
        predictor_->ScoreGenericRange(*job.ex, candidates, task.begin,
                                      task.end, chunk_scores.data());
      }
      // Reduce lock-free into a chunk-local heap first, then merge only its
      // <= k survivors under the job's mutex: the retained set is push-order
      // independent, so the bits are identical while the critical section
      // shrinks from O(chunk log k) to O(k log k) — concurrent chunks of a
      // large job would otherwise convoy on the mutex.
      TopKHeap local(heaps[task.job].capacity());
      for (size_t i = 0; i < chunk_scores.size(); ++i) {
        local.Push({chunk_scores[i], candidates[task.begin + i],
                    task.begin + i});
      }
      std::lock_guard<std::mutex> lock(heap_mu[task.job]);
      for (const RankEntry& entry : local.entries()) {
        heaps[task.job].Push(entry);
      }
    }
  });

  // Phase 3: each job's run, best first, with identity-job positions
  // restored to global catalog positions.
  for (size_t j = 0; j < num_jobs; ++j) {
    (*results)[j] = heaps[j].SortedEntries();
    if (pos_offset[j] != 0) {
      for (RankEntry& e : (*results)[j]) e.pos += pos_offset[j];
    }
  }
  return Status::OK();
}

namespace {

// Reconnection backoff: the first delay, and the cap the doubling stops at.
constexpr int64_t kReconnectBackoffInitialMs = 10;
constexpr int64_t kReconnectBackoffMaxMs = 1000;

// A fresh 64-bit seed per backend. A shared constant would make every
// backend that loses the same replica redial it in lockstep.
uint64_t JitterSeed() {
  std::random_device rd;
  return (static_cast<uint64_t>(rd()) << 32) ^ rd();
}

}  // namespace

RemoteReplicaBackend::RemoteReplicaBackend(RemoteReplicaBackendOptions options)
    : options_(options), jitter_rng_(JitterSeed()) {}

Status RemoteReplicaBackend::Connect(const std::string& host, uint16_t port) {
  util::OrderedMutexLock lock(mu_);
  host_ = host;
  port_ = port;
  Status st = ConnectLocked(/*reconnect=*/false);
  if (st.ok()) ever_connected_ = true;
  return st;
}

Status RemoteReplicaBackend::ConnectLocked(bool reconnect) {
  RpcClientOptions copts;
  copts.connect_timeout_ms = options_.connect_timeout_ms;
  copts.io_timeout_ms = options_.io_timeout_ms;
  Status st = client_.Connect(host_, port_, copts);
  if (!st.ok()) return st;
  const RpcHelloAck& ack = client_.server_info();
  if (!(ack.capabilities & kRpcCapShardScoring)) {
    client_.Close();
    return Status::FailedPrecondition(
        "remote backend: server at " + host_ + ":" + std::to_string(port_) +
        " is not a replica (no shard-scoring capability) — it serves whole "
        "slates, not catalog slices");
  }
  if (reconnect) {
    // The fleet was validated against the ORIGINAL identity. A replica that
    // came back under another checkpoint (or re-partitioned) must be
    // refused here: its scores are not mergeable with the rest of the
    // fleet, and only the Coordinator's Ready() — long past — could have
    // re-validated it.
    if (ack.model_version != info_.model_version ||
        ack.shard_index != info_.shard_index ||
        ack.num_shards != info_.num_shards ||
        ack.shard_begin != info_.shard_begin ||
        ack.shard_end != info_.shard_end ||
        ack.catalog_size != info_.catalog_size) {
      client_.Close();
      return Status::FailedPrecondition(
          "remote backend: replica at " + host_ + ":" +
          std::to_string(port_) + " came back with a different identity "
          "(model version " + std::to_string(ack.model_version) + " vs " +
          std::to_string(info_.model_version) + ", shard " +
          std::to_string(ack.shard_index) + "/" +
          std::to_string(ack.num_shards) + " vs " +
          std::to_string(info_.shard_index) + "/" +
          std::to_string(info_.num_shards) +
          "); refusing to merge across identities");
    }
    return Status::OK();
  }
  info_.shard_index = ack.shard_index;
  info_.num_shards = ack.num_shards;
  info_.shard_begin = ack.shard_begin;
  info_.shard_end = ack.shard_end;
  info_.catalog_size = ack.catalog_size;
  info_.model_version = ack.model_version;
  return Status::OK();
}

Status RemoteReplicaBackend::EnsureConnectedLocked() {
  if (client_.connected()) return Status::OK();
  if (!ever_connected_) {
    return Status::FailedPrecondition(
        "remote backend: ScoreTopK before Connect");
  }
  const auto now = std::chrono::steady_clock::now();
  if (now < next_attempt_) {
    // Fail fast inside the backoff window: the caller (a coordinator
    // fan-out worker) should spend its time on surviving replicas, not on
    // redialing a dead one — the next window edge retries automatically.
    const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
                          next_attempt_ - now)
                          .count();
    return Status::FailedPrecondition(
        "remote backend: replica at " + host_ + ":" + std::to_string(port_) +
        " is down; backing off another " + std::to_string(wait) + "ms");
  }
  Status st = ConnectLocked(/*reconnect=*/true);
  if (!st.ok()) {
    ++recovery_.reconnect_failures;
    // Exponential growth capped at the max, then jittered into [d/2, d)
    // off this backend's randomly seeded stream, so backends that lost the
    // same replica (in one coordinator or several) redial it at different
    // times.
    backoff_ms_ = backoff_ms_ == 0
                      ? kReconnectBackoffInitialMs
                      : std::min(backoff_ms_ * 2, kReconnectBackoffMaxMs);
    const int64_t jittered =
        backoff_ms_ <= 1
            ? backoff_ms_
            : backoff_ms_ / 2 +
                  static_cast<int64_t>(jitter_rng_.UniformInt(
                      static_cast<uint64_t>(backoff_ms_ - backoff_ms_ / 2)));
    next_attempt_ = now + std::chrono::milliseconds(jittered);
    return st;
  }
  ++recovery_.reconnects;
  backoff_ms_ = 0;
  next_attempt_ = std::chrono::steady_clock::time_point{};
  SEQFM_LOG(Info) << "remote backend: reconnected to replica at " << host_
                  << ":" << port_;
  return Status::OK();
}

BackendRecoveryStats RemoteReplicaBackend::RecoveryStats() const {
  util::OrderedMutexLock lock(mu_);
  return recovery_;
}

Status RemoteReplicaBackend::ScoreTopK(
    const std::vector<ScoreJob>& jobs,
    std::vector<std::vector<RankEntry>>* results) {
  const size_t num_jobs = jobs.size();
  results->assign(num_jobs, {});
  if (num_jobs == 0) return Status::OK();

  util::OrderedMutexLock lock(mu_);
  SEQFM_RETURN_NOT_OK(EnsureConnectedLocked());

  // Pipeline: send every request before reading any response. The replica's
  // BatchServer answers asynchronously as waves complete, so responses may
  // arrive in any order — match them to jobs by request id.
  std::unordered_map<uint64_t, size_t> pending;
  pending.reserve(num_jobs);
  for (size_t j = 0; j < num_jobs; ++j) {
    const ScoreJob& job = jobs[j];
    SEQFM_CHECK(job.candidates == nullptr)
        << "RemoteReplicaBackend: jobs must be identity-catalog form "
           "(null candidates) — a replica owns its slice, slates are never "
           "shipped";
    SEQFM_CHECK(job.ex != nullptr) << "RemoteReplicaBackend: job without "
                                      "example";
    RpcShardRequest req;
    req.id = next_id_++;
    req.user = job.ex->user;
    req.k = static_cast<uint32_t>(job.k);
    req.begin = job.begin;
    req.end = job.end;
    req.history = job.ex->history;
    Status st = client_.SendShard(req);
    if (!st.ok()) return st;
    pending.emplace(req.id, j);
  }

  while (!pending.empty()) {
    RpcShardResponse resp;
    Status st = client_.ReadShardResponse(&resp);
    if (!st.ok()) return st;
    auto it = pending.find(resp.id);
    if (it == pending.end()) {
      return Status::IoError("remote backend: replica answered unknown "
                             "request id " + std::to_string(resp.id));
    }
    const size_t j = it->second;
    pending.erase(it);
    if (resp.status != RpcStatus::kOk) {
      return Status::IoError(std::string("remote backend: replica answered ") +
                             RpcStatusToString(resp.status));
    }
    if (resp.model_version != info_.model_version) {
      return Status::FailedPrecondition(
          "remote backend: model version drift — handshake announced " +
          std::to_string(info_.model_version) + " but response carries " +
          std::to_string(resp.model_version) +
          "; rankings across versions must not be merged");
    }
    std::vector<RankEntry>& run = (*results)[j];
    run.reserve(resp.entries.size());
    for (const RpcShardEntry& e : resp.entries) {
      run.push_back(RankEntry{e.score, e.item, static_cast<size_t>(e.pos)});
    }
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace seqfm
