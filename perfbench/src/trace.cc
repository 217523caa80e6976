// The traced run: replays one workload's light-rate requests, at the same
// schedule, through successively lower public entry points and records a
// span around every call into a layer. A layer's self time is its time
// minus the next layer down on the same requests.
//
//   RpcClient -> BatchServer::TrySubmit -> Predictor (AcquireContext,
//   ScoreContextRange chunks, SelectTopK) -> ir::Engine (MakeContext,
//   ScoreRange), plus Coordinator::TopKAll over two loopback replicas whose
//   RemoteReplicaBackends are wrapped in a timing decorator (shard calls
//   are child spans of their TopKAll span).
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "serve/backend.h"
#include "serve/coordinator.h"
#include "serve/protocol.h"
#include "serve/shard.h"
#include "serving.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace serve = seqfm::serve;
using seqfm::data::SequenceExample;

namespace {

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

Clock::time_point At(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

/// Maps a request's (uniquely addressed) example to its TopKAll span, so a
/// backend called on a coordinator worker thread can name its parent.
class ParentMap {
 public:
  void Set(const SequenceExample* ex, uint64_t span, uint64_t req) {
    std::lock_guard<std::mutex> lock(mu_);
    map_[ex] = {span, req};
  }
  void Erase(const SequenceExample* ex) {
    std::lock_guard<std::mutex> lock(mu_);
    map_.erase(ex);
  }
  std::pair<uint64_t, uint64_t> Get(const SequenceExample* ex) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(ex);
    return it == map_.end() ? std::pair<uint64_t, uint64_t>{0, 0} : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<const SequenceExample*, std::pair<uint64_t, uint64_t>> map_;
};

/// ScoringBackend decorator: one "backend.score" child span per call.
class TimingBackend : public serve::ScoringBackend {
 public:
  TimingBackend(std::unique_ptr<serve::ScoringBackend> inner, SpanLog* spans,
                const ParentMap* parents)
      : inner_(std::move(inner)), spans_(spans), parents_(parents) {}

  seqfm::Status ScoreTopK(const std::vector<serve::ScoreJob>& jobs,
                          std::vector<std::vector<serve::RankEntry>>* results) override {
    const Clock::time_point t0 = Clock::now();
    seqfm::Status st = inner_->ScoreTopK(jobs, results);
    const Clock::time_point t1 = Clock::now();
    const auto parent = parents_->Get(jobs.empty() ? nullptr : jobs[0].ex);
    spans_->Add("backend.score", parent.first, parent.second, t0, t1);
    return st;
  }
  serve::BackendRecoveryStats RecoveryStats() const override {
    return inner_->RecoveryStats();
  }

 private:
  std::unique_ptr<serve::ScoringBackend> inner_;
  SpanLog* spans_;
  const ParentMap* parents_;
};

/// The unit of work the lower layers replay: one example and candidate
/// list with its reference answer.
struct Unit {
  const SequenceExample* ex = nullptr;
  const std::vector<int32_t>* cands = nullptr;
  const std::vector<serve::ScoredItem>* ref = nullptr;
};

/// Calls \p fn(i) for every request at its due time on one generator
/// thread; returns the per-request lag in ms.
template <typename Fn>
std::vector<double> Replay(const std::vector<double>& sched, Fn fn) {
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<double> lag(sched.size());
  for (size_t i = 0; i < sched.size(); ++i) {
    const Clock::time_point due = At(start, sched[i]);
    std::this_thread::sleep_until(due);
    lag[i] = Us(due, Clock::now()) / 1e3;
    fn(i);
  }
  return lag;
}

struct CoordTrace {
  double p50_ms = 0, self_us = 0, score_us = 0, straggler_us = 0;
  uint64_t wrong = 0;
};

/// TopKAll of every unit's example at the schedule, with the decorated
/// backends reporting child spans.
CoordTrace ReplayCoordinator(serve::Coordinator* coord, ParentMap* parents,
                             SpanLog* spans, const std::vector<Unit>& units,
                             const std::vector<double>& sched, size_t k) {
  CoordTrace out;
  std::vector<uint64_t> roots(sched.size());
  Replay(sched, [&](size_t i) {
    SequenceExample ex = *units[i].ex;  // unique address per call
    const uint64_t id = spans->NewId();
    parents->Set(&ex, id, i);
    serve::CoordinatorResult res;
    const Clock::time_point t0 = Clock::now();
    const seqfm::Status st = coord->TopKAll(ex, k, &res);
    const Clock::time_point t1 = Clock::now();
    parents->Erase(&ex);
    spans->Add("coord.topkall", id, 0, i, t0, t1);
    roots[i] = id;
    if (!st.ok() || res.status != serve::RpcStatus::kOk ||
        !SameAnswer(res.items, *units[i].ref)) {
      ++out.wrong;
    }
  });
  std::map<uint64_t, std::vector<double>> children;
  std::map<uint64_t, double> root_us;
  for (const SpanLog::Span& s : spans->Snapshot()) {
    if (std::string(s.name) == "backend.score" && s.parent != 0) {
      children[s.parent].push_back(Us(s.start, s.end));
    } else if (std::string(s.name) == "coord.topkall") {
      root_us[s.id] = Us(s.start, s.end);
    }
  }
  std::vector<double> total, self, score, straggler;
  for (uint64_t id : roots) {
    const auto& kids = children[id];
    SEQFM_CHECK(!kids.empty()) << "a TopKAll span has no shard child spans";
    const double mx = *std::max_element(kids.begin(), kids.end());
    const double mn = *std::min_element(kids.begin(), kids.end());
    total.push_back(root_us[id]);
    self.push_back(root_us[id] - mx);
    straggler.push_back(mx - mn);
    score.insert(score.end(), kids.begin(), kids.end());
  }
  out.p50_ms = Median(total) / 1e3;
  out.self_us = Median(self);
  out.score_us = Median(score);
  out.straggler_us = Median(straggler);
  return out;
}

/// A Coordinator over replica-mode servers at \p ports, each reached
/// through a RemoteReplicaBackend wrapped in a TimingBackend.
std::unique_ptr<serve::Coordinator> TracedCoordinator(const std::vector<uint16_t>& ports,
                                                      SpanLog* spans,
                                                      const ParentMap* parents) {
  auto coord = std::make_unique<serve::Coordinator>();
  for (uint16_t port : ports) {
    serve::RemoteReplicaBackendOptions ropts;
    ropts.io_timeout_ms = coord->options().replica_timeout_ms;
    auto remote = std::make_unique<serve::RemoteReplicaBackend>(ropts);
    SEQFM_CHECK(remote->Connect("127.0.0.1", port).ok());
    const serve::ReplicaInfo info = remote->info();
    SEQFM_CHECK(coord->AddBackend(std::make_unique<TimingBackend>(std::move(remote), spans,
                                                                  parents),
                                  info)
                    .ok());
  }
  SEQFM_CHECK(coord->Ready().ok());
  return coord;
}

/// Rate of the whole-catalog coordinator replay.
constexpr double kWholeCatalogQps = 20.0;

/// One Predictor-level request: AcquireContext, the chunks through
/// ScoreContextRange in parallel, then SelectTopK. With \p spans it
/// records a span per call; \p times gets the request's acquire, topk and
/// select durations (us).
struct PredictorTimes {
  double acquire_us = 0, select_us = 0, topk_us = 0;
};
std::vector<serve::ScoredItem> PredictorTopK(const serve::Predictor& pred, const Unit& u,
                                             uint64_t req, SpanLog* spans,
                                             PredictorTimes* times,
                                             std::vector<float>* scores) {
  const size_t chunk = pred.options().micro_batch;
  const uint64_t root = spans != nullptr ? spans->NewId() : 0;
  const Clock::time_point t0 = Clock::now();
  const serve::Predictor::ContextPtr ctx = pred.AcquireContext(*u.ex);
  const Clock::time_point t1 = Clock::now();
  const size_t total = u.cands->size();
  scores->assign(total, 0.0f);
  seqfm::util::ParallelFor((total + chunk - 1) / chunk, 1, [&](size_t a, size_t b) {
    for (size_t c = a; c < b; ++c) {
      const size_t begin = c * chunk, end = std::min(total, begin + chunk);
      const Clock::time_point s0 = Clock::now();
      pred.ScoreContextRange(*ctx, *u.ex, *u.cands, begin, end, scores->data() + begin);
      if (spans != nullptr) spans->Add("predictor.chunk", root, req, s0, Clock::now());
    }
  });
  const Clock::time_point t2 = Clock::now();
  std::vector<serve::ScoredItem> top = serve::SelectTopK(*u.cands, *scores, kTopK);
  const Clock::time_point t3 = Clock::now();
  if (spans != nullptr) {
    spans->Add("cache.acquire", root, req, t0, t1);
    spans->Add("shard.select", root, req, t2, t3);
    spans->Add("predictor.topk", root, 0, req, t0, t3);
  }
  *times = {Us(t0, t1), Us(t2, t3), Us(t0, t3)};
  return top;
}

}  // namespace

std::vector<std::pair<std::string, double>> RunTrace(
    const Spec& spec, const Plan& plan, Stack* stack,
    const serve::Predictor& ref, uint64_t seed, double seconds,
    const std::string& spans_path) {
  std::vector<std::pair<std::string, double>> m;
  auto put = [&m](const std::string& name, double v) { m.emplace_back(name, v); };
  SpanLog spans;
  const double level_s = seconds / 7.0;
  const std::vector<double> sched =
      PoissonSchedule(spec.light_qps, level_s, seed * 31 + 100);
  const std::vector<Request> reqs = plan.Draw(sched.size(), 100);
  uint64_t wrong = 0;

  // Units for the layers below the top: the request's slate; and the whole
  // catalog for the coordinator.
  std::map<uint32_t, std::vector<serve::ScoredItem>> full_refs;
  std::vector<Unit> units(reqs.size()), full_units(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    const SequenceExample* ex = &plan.Example(r);
    if (!full_refs.count(r.example)) {
      full_refs[r.example] = r.slate < 0 ? plan.Reference(r) : ref.TopKAll(*ex, kTopK);
    }
    full_units[i] = {ex, nullptr, &full_refs[r.example]};
    units[i] = {ex, &plan.Slate(r), &plan.Reference(r)};
  }

  // --- RpcClient -> RpcServer. ------------------------------------------
  serve::BatchServer* served = stack->batch.get();
  const uint64_t shed0 = served->stats().requests_rejected;
  const uint64_t pauses0 = stack->server->stats().backpressure_pauses;
  const PhaseRecord traced = RunRpcPhase(spec, plan, stack->server->port(), reqs, sched,
                                         "trace-rpc", spec.light_qps, &spans);
  wrong += traced.Count(Fate::kWrong) + traced.Count(Fate::kError);
  put("gen.lag_p99_ms", Quantile(traced.lag_ms, 0.99));
  const double rpc_call_ms = Median(spans.DurationsUs("rpc.call")) / 1e3;
  const uint64_t pauses = stack->server->stats().backpressure_pauses - pauses0;

  // --- BatchServer::TrySubmit -> done callback, on a fresh BatchServer
  // over the serving Predictor so its stats cover this replay only. ------
  serve::Predictor* pred = stack->predictor.get();
  serve::BatchServerOptions bopts;
  bopts.max_queue_requests = spec.max_queue;
  serve::BatchServer batch(pred, bopts);
  {
    std::mutex mu;
    std::condition_variable cv;
    size_t pending = 0;
    std::atomic<uint64_t> batch_wrong{0};
    Replay(sched, [&](size_t i) {
      std::vector<int32_t> cands = *units[i].cands;
      {
        std::lock_guard<std::mutex> lock(mu);
        ++pending;
      }
      const Clock::time_point t0 = Clock::now();
      const auto admit = batch.TrySubmit(
          *units[i].ex, std::move(cands), kTopK,
          [&, i, t0](std::vector<serve::ScoredItem> items) {
            spans.Add("batch.submit", 0, i, t0, Clock::now());
            if (!SameAnswer(items, *units[i].ref)) ++batch_wrong;
            std::lock_guard<std::mutex> lock(mu);
            --pending;
            cv.notify_all();
          });
      if (admit != serve::BatchServer::AdmitResult::kAdmitted) {
        ++batch_wrong;
        std::lock_guard<std::mutex> lock(mu);
        --pending;
      }
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
    wrong += batch_wrong.load();
  }
  const serve::BatchServerStats bs = batch.stats();
  const uint64_t shed = bs.requests_rejected + served->stats().requests_rejected - shed0;
  const double batch_p50_ms = Median(spans.DurationsUs("batch.submit")) / 1e3;

  // --- Predictor, untraced then traced at the same schedule: the gap
  // between the two is the tracing overhead at the densest span level. ---
  std::vector<float> scores;
  std::vector<double> untraced_us, traced_us, leaf_us(units.size());
  Replay(sched, [&](size_t i) {
    PredictorTimes t;
    if (!SameAnswer(PredictorTopK(*pred, units[i], i, nullptr, &t, &scores), *units[i].ref)) {
      ++wrong;
    }
    untraced_us.push_back(t.topk_us);
  });
  const auto c0 = pred->context_cache()->stats();
  Replay(sched, [&](size_t i) {
    const Unit& u = units[i];
    PredictorTimes t;
    if (!SameAnswer(PredictorTopK(*pred, u, i, &spans, &t, &scores), *u.ref)) ++wrong;
    traced_us.push_back(t.topk_us);
    leaf_us[i] = t.acquire_us + t.select_us;
    // Cross-shard merge of the two halves' sorted runs (not part of TopK).
    const size_t total = u.cands->size();
    std::vector<std::vector<serve::RankEntry>> runs(2);
    for (size_t h = 0; h < 2; ++h) {
      const size_t lo = h * total / 2, hi = (h + 1) * total / 2;
      std::vector<serve::RankEntry>& run = runs[h];
      for (size_t p = lo; p < hi; ++p) run.push_back({scores[p], (*u.cands)[p], p});
      std::sort(run.begin(), run.end(), serve::RankBefore);
      run.resize(std::min(run.size(), kTopK));
    }
    const Clock::time_point m0 = Clock::now();
    const std::vector<serve::ScoredItem> merged = serve::MergeSortedRuns(runs, kTopK);
    spans.Add("shard.merge", 0, i, m0, Clock::now());
    if (!SameAnswer(merged, *u.ref)) ++wrong;
  });
  const auto c1 = pred->context_cache()->stats();
  const double topk_ms = Median(spans.DurationsUs("predictor.topk")) / 1e3;

  // Cache hit and miss cost on a fresh Predictor (cold cache): the first
  // AcquireContext of a request misses, an immediate second one hits.
  {
    serve::Predictor probe(stack->model.get(), stack->prep.builder.get(), pred->options());
    std::map<const SequenceExample*, bool> seen;
    for (size_t i = 0; i < units.size() && seen.size() < 48; ++i) {
      if (seen[units[i].ex]) continue;
      seen[units[i].ex] = true;
      const Clock::time_point t0 = Clock::now();
      probe.AcquireContext(*units[i].ex);
      const Clock::time_point t1 = Clock::now();
      probe.AcquireContext(*units[i].ex);
      const Clock::time_point t2 = Clock::now();
      spans.Add("cache.miss", 0, i, t0, t1);
      spans.Add("cache.hit", 0, i, t1, t2);
    }
    const auto ps = probe.context_cache()->stats();
    SEQFM_CHECK(ps.hits == seen.size() && ps.misses == seen.size())
        << "cache probe did not see one miss and one hit per request";
  }

  // --- ir::Engine: MakeContext -> ScoreRange chunks. ---------------------
  // The slowest chunk of each request is timed independently of the
  // Predictor replay; together with that replay's acquire and select it
  // should account for predictor.topk (see trace.unexplained_frac).
  const seqfm::ir::Engine* engine = pred->engine();
  SEQFM_CHECK(engine != nullptr);
  const size_t chunk = pred->options().micro_batch;
  std::vector<double> per_cand_us;
  std::vector<double> gap_us(units.size());
  std::mutex per_cand_mu;
  Replay(sched, [&](size_t i) {
    const Unit& u = units[i];
    const std::vector<const SequenceExample*> one = {u.ex};
    const seqfm::data::Batch base = stack->prep.builder->Build(one);
    const std::vector<int32_t> dyn(base.dynamic_ids.begin(),
                                   base.dynamic_ids.begin() +
                                       static_cast<ptrdiff_t>(stack->prep.builder->max_seq_len()));
    seqfm::core::SharedContext ctx;
    const Clock::time_point t0 = Clock::now();
    engine->MakeContext(base.static_ids[0], dyn, &ctx);
    spans.Add("ir.prologue", 0, i, t0, Clock::now());
    const size_t total = u.cands->size();
    std::vector<float> body_scores(total);
    std::vector<double> chunk_us((total + chunk - 1) / chunk);
    seqfm::util::ParallelFor(chunk_us.size(), 1, [&](size_t a, size_t b) {
      for (size_t c = a; c < b; ++c) {
        const size_t begin = c * chunk, end = std::min(total, begin + chunk);
        std::string error;
        const Clock::time_point s0 = Clock::now();
        SEQFM_CHECK(engine->ScoreRange(ctx, *u.cands, begin, end, body_scores.data() + begin,
                                       &error))
            << error;
        const Clock::time_point s1 = Clock::now();
        spans.Add("ir.body", 0, i, s0, s1);
        chunk_us[c] = Us(s0, s1);
        std::lock_guard<std::mutex> lock(per_cand_mu);
        per_cand_us.push_back(Us(s0, s1) / static_cast<double>(end - begin));
      }
    });
    gap_us[i] = traced_us[i] - leaf_us[i] - *std::max_element(chunk_us.begin(), chunk_us.end());
    if (!SameAnswer(serve::SelectTopK(*u.cands, body_scores, kTopK), *u.ref)) ++wrong;
  });

  // --- Coordinator over two loopback replicas. --------------------------
  // The replicas are replica-mode RpcServers with their own BatchServers
  // over the serving Predictor. Each call ranks the whole catalog, so it
  // replays at no more than the whole-catalog light rate.
  ParentMap parents;
  std::vector<std::unique_ptr<serve::BatchServer>> replica_batches;
  std::vector<std::unique_ptr<serve::RpcServer>> replica_servers;
  std::vector<uint16_t> ports;
  for (uint32_t s = 0; s < kShards; ++s) {
    replica_batches.push_back(std::make_unique<serve::BatchServer>(pred));
    serve::RpcServerOptions ropts;
    ropts.catalog_size = stack->num_objects();
    ropts.shard_index = s;
    ropts.num_shards = static_cast<uint32_t>(kShards);
    ropts.model_version = stack->model_version;
    replica_servers.push_back(
        std::make_unique<serve::RpcServer>(replica_batches.back().get(), ropts));
    SEQFM_CHECK(replica_servers.back()->Start().ok());
    ports.push_back(replica_servers.back()->port());
  }
  std::unique_ptr<serve::Coordinator> coordinator = TracedCoordinator(ports, &spans, &parents);
  serve::CoordinatorResult warm;  // compiles the shard-slice chunk counts
  SEQFM_CHECK(coordinator->TopKAll(*full_units[0].ex, kTopK, &warm).ok());
  std::vector<double> coord_sched =
      PoissonSchedule(std::min(spec.light_qps, kWholeCatalogQps), level_s, seed * 31 + 101);
  coord_sched.resize(std::min(coord_sched.size(), full_units.size()));
  const CoordTrace coord =
      ReplayCoordinator(coordinator.get(), &parents, &spans, full_units, coord_sched, kTopK);
  wrong += coord.wrong;
  const serve::CoordinatorStats cs = coordinator->stats();
  coordinator.reset();
  for (auto& server : replica_servers) server->Shutdown();

  // --- Frames of this workload: encode/decode cost and sizes. -----------
  double encode_us = 0, decode_us = 0, req_bytes = 0, resp_bytes = 0;
  {
    const size_t reps = 20;
    std::vector<std::string> req_wire(units.size()), resp_wire(units.size());
    Clock::duration enc{}, dec{};
    for (size_t rep = 0; rep < reps; ++rep) {
      for (size_t i = 0; i < units.size(); ++i) {
        const Unit& u = units[i];
        req_wire[i].clear();
        resp_wire[i].clear();
        const Clock::time_point t0 = Clock::now();
        serve::RpcRequest q{i, u.ex->user, static_cast<uint32_t>(kTopK), u.ex->history,
                            *u.cands};
        serve::AppendRequestFrame(q, &req_wire[i]);
        serve::RpcResponse r{i, serve::RpcStatus::kOk, *u.ref};
        serve::AppendResponseFrame(r, &resp_wire[i]);
        const Clock::time_point t1 = Clock::now();
        const std::string qp = req_wire[i].substr(serve::kRpcFrameHeaderBytes);
        const std::string rp = resp_wire[i].substr(serve::kRpcFrameHeaderBytes);
        const Clock::time_point t2 = Clock::now();
        serve::RpcRequest dq;
        serve::RpcResponse dr;
        SEQFM_CHECK(serve::DecodeRequest(qp, &dq).ok() && serve::DecodeResponse(rp, &dr).ok());
        const Clock::time_point t3 = Clock::now();
        enc += t1 - t0;
        dec += t3 - t2;
        if (rep == 0) {
          req_bytes += static_cast<double>(req_wire[i].size());
          resp_bytes += static_cast<double>(resp_wire[i].size());
        }
      }
    }
    const double n = static_cast<double>(units.size() * reps);
    encode_us = std::chrono::duration<double, std::micro>(enc).count() / n;
    decode_us = std::chrono::duration<double, std::micro>(dec).count() / n;
    req_bytes /= static_cast<double>(units.size());
    resp_bytes /= static_cast<double>(units.size());
  }

  SEQFM_CHECK(wrong == 0) << wrong << " traced answers differ from the reference";
  SEQFM_CHECK(cs.retries + cs.circuit_opens == 0)
      << "a fault-free coordinator used its recovery machinery";

  const uint64_t hits = c1.hits - c0.hits, misses = c1.misses - c0.misses;
  const double rpc_self_ms = rpc_call_ms - batch_p50_ms;
  const double batch_wait_ms = batch_p50_ms - topk_ms;

  put("ir.prologue_us", Median(spans.DurationsUs("ir.prologue")));
  put("ir.body_us_per_cand", Median(per_cand_us));
  put("ir.compiled_counts", static_cast<double>(engine->stats().compiled_counts));
  put("cache.hit_ratio", hits + misses == 0 ? 0.0
                                            : static_cast<double>(hits) /
                                                  static_cast<double>(hits + misses));
  put("cache.hit_us", Median(spans.DurationsUs("cache.hit")));
  put("cache.miss_us", Median(spans.DurationsUs("cache.miss")));
  put("predictor.topk_ms", topk_ms);
  // Mean, not median: a slate's chunks differ in size (e.g. 256 + 25).
  const std::vector<double> chunks_us = spans.DurationsUs("predictor.chunk");
  put("predictor.chunk_us",
      std::accumulate(chunks_us.begin(), chunks_us.end(), 0.0) /
          static_cast<double>(std::max<size_t>(chunks_us.size(), 1)));
  put("shard.select_us", Median(spans.DurationsUs("shard.select")));
  put("shard.merge_us", Median(spans.DurationsUs("shard.merge")));
  put("batch.p50_ms", batch_p50_ms);
  put("batch.wait_ms", batch_wait_ms);
  put("batch.avg_wave", bs.avg_wave_size());
  put("batch.largest_wave", static_cast<double>(bs.largest_wave));
  put("batch.shed", static_cast<double>(shed));
  put("rpc.self_ms", rpc_self_ms);
  put("rpc.encode_us", encode_us);
  put("rpc.decode_us", decode_us);
  put("rpc.req_bytes", req_bytes);
  put("rpc.resp_bytes", resp_bytes);
  put("rpc.backpressure_pauses", static_cast<double>(pauses));
  put("coord.p50_ms", coord.p50_ms);
  put("coord.self_us", coord.self_us);
  put("backend.score_us", coord.score_us);
  put("backend.straggler_us", coord.straggler_us);
  put("coord.shard_attempts", static_cast<double>(cs.shard_attempts));
  put("coord.retries", static_cast<double>(cs.retries));
  put("coord.circuit_opens", static_cast<double>(cs.circuit_opens));
  // rpc.call = rpc.self + batch.wait + predictor.topk by definition; what
  // no layer accounts for is the part of predictor.topk that its cache
  // acquire, its select and the slowest chunk of the independently timed
  // ir replay leave over (per request, median), as a share of rpc.call.
  put("trace.unexplained_frac", std::abs(Median(gap_us)) / 1e3 / rpc_call_ms);
  put("trace.overhead_frac", (Median(traced_us) - Median(untraced_us)) / Median(untraced_us));

  if (!spans_path.empty() && !spans.WriteTsv(spans_path)) {
    std::fprintf(stderr, "could not write spans to %s\n", spans_path.c_str());
  }
  std::printf("trace: %zu requests per layer at %.0f req/s, %zu spans -> %s\n",
              sched.size(), spec.light_qps, spans.Snapshot().size(), spans_path.c_str());
  return m;
}

}  // namespace perfbench
