// The serving stack under test, the requests offered to it, and the
// open-loop generators that drive it.
#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core.h"
#include "serve/predictor.h"
#include "serve/rpc_server.h"
#include "serve/server.h"

namespace perfbench {

/// In-memory span store of the traced run (Dapper-style: name, start, end,
/// parent span, request id). Thread-safe; written out once at the end.
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;  // 0 = root
    uint64_t req;
    Clock::time_point start;
    Clock::time_point end;
  };

  /// Reserves an id so children can name their parent before it ends.
  uint64_t NewId() { return next_id_.fetch_add(1); }
  void Add(const char* name, uint64_t id, uint64_t parent, uint64_t req,
           Clock::time_point start, Clock::time_point end);
  uint64_t Add(const char* name, uint64_t parent, uint64_t req,
               Clock::time_point start, Clock::time_point end) {
    const uint64_t id = NewId();
    Add(name, id, parent, req, start, end);
    return id;
  }
  /// Durations in microseconds of every span named \p name.
  std::vector<double> DurationsUs(const std::string& name) const;
  std::vector<Span> Snapshot() const;
  /// One tab-separated line per span, times in microseconds since the
  /// first span started.
  bool WriteTsv(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The model and serving shape every workload shares: SeqFM on the gowalla
/// preset at half scale (281 items, 120 test users) with the paper's d=64
/// and n=20, top-10, untrained seeded weights.
constexpr double kScale = 0.5;
constexpr size_t kDim = 64;
constexpr size_t kSeqLen = 20;
constexpr size_t kTopK = 10;
/// Slates per pool user on small-slate workloads.
constexpr size_t kSlatesPerUser = 4;
/// Generator connections of an RPC phase.
constexpr size_t kConns = 2;
/// Shards of the coordinator the traced run times.
constexpr size_t kShards = 2;

/// What sets one workload apart, passed in by run.py from workloads.json.
struct Spec {
  std::string name;
  size_t pool_users = 0;       // 0 = every test user; else a seeded pool
  size_t slate_min = 0;        // 0 = the whole catalog
  size_t slate_max = 0;
  size_t cache_bytes = 0;      // ContextCache budget
  size_t max_queue = 0;        // BatchServerOptions::max_queue_requests
  size_t server_threads = 0;   // scoring pool size (capped at nproc - 1)
  double light_qps = 0.0;
  std::vector<double> ladder;
  double sat_qps = 0.0;
  double limit_ms = 0.0;
  double max_lag_ms = 0.0;
};

/// One request: a test example (user + history) and a slate.
struct Request {
  uint32_t example = 0;  // index into the test split
  int32_t slate = -1;    // index into Plan::slates; -1 = whole catalog
  uint32_t key = 0;      // index of the distinct (example, slate) pair
};

/// The seeded request population of a run: which users, which slates, and
/// the reference answer of every distinct request.
class Plan {
 public:
  /// \p data (the workload's dataset) must outlive the plan.
  Plan(const Spec& spec, const seqfm::bench::PreparedDataset& data, uint64_t seed);

  /// \p count requests drawn from the population with stream \p stream.
  std::vector<Request> Draw(size_t count, uint64_t stream) const;

  /// Computes every distinct request's answer in a forked child process
  /// with its own model instance (same seeded weights) behind a cache-less
  /// Predictor, before any timing. The child keeps the oracle's memory out
  /// of this process's peak RSS. Must be called before this process starts
  /// any thread.
  void ComputeReferences();

  const std::vector<int32_t>& Slate(const Request& r) const {
    return r.slate < 0 ? full_ : slates_[static_cast<size_t>(r.slate)];
  }
  const std::vector<seqfm::serve::ScoredItem>& Reference(const Request& r) const {
    return refs_[r.key];
  }
  const seqfm::data::SequenceExample& Example(const Request& r) const {
    return data_->dataset.test()[r.example];
  }
  size_t distinct() const { return keys_.size(); }
  /// The request of distinct pair \p key.
  Request ForKey(uint32_t key) const {
    return {keys_[key].first, keys_[key].second, key};
  }

 private:
  const seqfm::bench::PreparedDataset* data_;
  uint64_t seed_;
  std::vector<int32_t> full_;
  std::vector<std::vector<int32_t>> slates_;
  /// Per pool user: its example index and its slates (or -1).
  std::vector<std::pair<uint32_t, std::vector<int32_t>>> pool_;
  std::vector<std::pair<uint32_t, int32_t>> keys_;  // key -> (example, slate)
  std::vector<std::vector<uint32_t>> key_of_;       // [pool user][slate pos]
  std::vector<std::vector<seqfm::serve::ScoredItem>> refs_;
};

/// The dataset and model options shared by every workload.
seqfm::bench::BenchOptions ModelOptions();

/// Runs \p fn in a forked child process and returns the bytes it returned.
/// Must be called while this process runs no other thread.
std::string RunInChild(const std::function<std::string()>& fn);

/// Dataset, model, predictor, batch server and RPC server.
struct Stack {
  seqfm::bench::PreparedDataset prep;
  std::unique_ptr<seqfm::core::Model> model;
  uint64_t model_version = 0;
  std::unique_ptr<seqfm::serve::Predictor> predictor;
  std::unique_ptr<seqfm::serve::BatchServer> batch;
  std::unique_ptr<seqfm::serve::RpcServer> server;

  ~Stack();
  const std::vector<seqfm::data::SequenceExample>& tests() const {
    return prep.dataset.test();
  }
  size_t num_objects() const { return prep.space.num_objects(); }
};

/// Builds and starts the whole stack for \p spec.
std::unique_ptr<Stack> BuildStack(const Spec& spec);

/// Warms \p stack with \p plan's requests, checking every answer: all lazy
/// per-count body compiles run and, for repeat-user workloads, every
/// context is cached.
void WarmStack(const Spec& spec, const Plan& plan, Stack* stack);

/// Cost of bringing up a ready, warmed stack (BuildStack then WarmStack) in
/// a fresh process: a forked child that starts its own scoring pool of
/// \p server_threads. Must be called while this process runs no other
/// thread.
struct SetupCost {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // user + system, all of the child's threads
};
SetupCost ColdSetup(const Spec& spec, const Plan& plan, size_t server_threads);

/// Process CPU seconds (user + system).
double ProcessCpuSeconds();
/// Peak resident set size of the process in MiB.
double PeakRssMb();

/// Open-loop phase over RPC: kConns connections, one sender thread
/// following \p sched and one receiver thread checking every answer.
PhaseRecord RunRpcPhase(const Spec& spec, const Plan& plan, uint16_t port,
                        const std::vector<Request>& reqs,
                        const std::vector<double>& sched,
                        const std::string& name, double qps,
                        SpanLog* spans = nullptr);

/// Runs the traced replay of \p spec's light-rate requests through every
/// layer and returns the per-layer metrics by name. Spans go to
/// \p spans_path.
std::vector<std::pair<std::string, double>> RunTrace(
    const Spec& spec, const Plan& plan, Stack* stack,
    const seqfm::serve::Predictor& ref, uint64_t seed, double seconds,
    const std::string& spans_path);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
