#include "serving.h"

#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <thread>

#include "nn/module.h"
#include "serve/checkpoint.h"
#include "serve/protocol.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace serve = seqfm::serve;
using seqfm::Rng;

seqfm::bench::BenchOptions ModelOptions() {
  seqfm::bench::BenchOptions opts;
  opts.scale = kScale;
  opts.dim = kDim;
  opts.max_seq_len = kSeqLen;
  return opts;
}

std::string RunInChild(const std::function<std::string()>& fn) {
  int fds[2];
  SEQFM_CHECK(::pipe(fds) == 0);
  std::fflush(stdout);
  const pid_t child = ::fork();
  SEQFM_CHECK(child >= 0);
  if (child == 0) {
    ::close(fds[0]);
    const std::string wire = fn();
    bool ok = true;
    for (size_t off = 0; ok && off < wire.size();) {
      const ssize_t w = ::write(fds[1], wire.data() + off, wire.size() - off);
      ok = w > 0 || (w < 0 && errno == EINTR);
      if (w > 0) off += static_cast<size_t>(w);
    }
    ::_exit(ok ? 0 : 1);  // no destructors: they belong to the parent
  }
  ::close(fds[1]);
  std::string wire;
  char buf[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fds[0], buf, sizeof(buf));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    wire.append(buf, static_cast<size_t>(got));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(child, &status, 0) < 0 && errno == EINTR) {
  }
  SEQFM_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "a child process failed";
  return wire;
}

Plan::Plan(const Spec& spec, const seqfm::bench::PreparedDataset& data, uint64_t seed)
    : data_(&data), seed_(seed), full_(data.space.num_objects()) {
  const auto& tests = data.dataset.test();
  const size_t num_objects = full_.size();
  std::iota(full_.begin(), full_.end(), 0);
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<uint32_t> users(tests.size());
  std::iota(users.begin(), users.end(), 0u);
  if (spec.pool_users > 0 && spec.pool_users < users.size()) {
    for (size_t i = 0; i < spec.pool_users; ++i) {
      std::swap(users[i], users[i + rng.UniformInt(users.size() - i)]);
    }
    users.resize(spec.pool_users);
  }
  std::vector<int32_t> items = full_;
  for (uint32_t u : users) {
    std::vector<int32_t> slate_ids;
    if (spec.slate_min == 0) {
      slate_ids.push_back(-1);
    } else {
      for (size_t s = 0; s < kSlatesPerUser; ++s) {
        const size_t len = std::min(
            num_objects, static_cast<size_t>(rng.UniformInt(
                             static_cast<int64_t>(spec.slate_min),
                             static_cast<int64_t>(spec.slate_max))));
        for (size_t i = 0; i < len; ++i) {
          std::swap(items[i], items[i + rng.UniformInt(items.size() - i)]);
        }
        slate_ids.push_back(static_cast<int32_t>(slates_.size()));
        slates_.emplace_back(items.begin(), items.begin() + static_cast<ptrdiff_t>(len));
      }
    }
    std::vector<uint32_t> keys;
    for (int32_t s : slate_ids) {
      keys.push_back(static_cast<uint32_t>(keys_.size()));
      keys_.emplace_back(u, s);
    }
    key_of_.push_back(std::move(keys));
    pool_.emplace_back(u, std::move(slate_ids));
  }
}

std::vector<Request> Plan::Draw(size_t count, uint64_t stream) const {
  Rng rng(seed_ * 0x9E3779B97F4A7C15ull + 1000 + stream);
  std::vector<Request> out(count);
  for (Request& r : out) {
    const size_t u = rng.UniformInt(pool_.size());
    const size_t s = rng.UniformInt(pool_[u].second.size());
    r.example = pool_[u].first;
    r.slate = pool_[u].second[s];
    r.key = key_of_[u][s];
  }
  return out;
}

void Plan::ComputeReferences() {
  const std::string wire = RunInChild([this]() {
    auto model = seqfm::bench::MakeModel("SeqFM", data_->space, ModelOptions());
    serve::PredictorOptions popts;
    popts.context_cache_bytes = 0;
    const serve::Predictor ref(model.get(), data_->builder.get(), popts);
    std::vector<std::vector<serve::ScoredItem>> refs(keys_.size());
    // Predictor::TopK's own ParallelFor runs inline inside pool work.
    seqfm::util::ParallelFor(keys_.size(), 1, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        const Request r = ForKey(static_cast<uint32_t>(i));
        refs[i] = ref.TopK(Example(r), Slate(r), kTopK);
      }
    });
    std::string out;
    for (const auto& items : refs) {
      const uint32_t n = static_cast<uint32_t>(items.size());
      out.append(reinterpret_cast<const char*>(&n), sizeof(n));
      out.append(reinterpret_cast<const char*>(items.data()), n * sizeof(serve::ScoredItem));
    }
    return out;
  });
  refs_.assign(keys_.size(), {});
  size_t off = 0;
  for (auto& items : refs_) {
    uint32_t n = 0;
    SEQFM_CHECK(off + sizeof(n) <= wire.size());
    std::memcpy(&n, wire.data() + off, sizeof(n));
    off += sizeof(n);
    SEQFM_CHECK(n <= kTopK && off + n * sizeof(serve::ScoredItem) <= wire.size());
    items.resize(n);
    std::memcpy(items.data(), wire.data() + off, n * sizeof(serve::ScoredItem));
    off += n * sizeof(serve::ScoredItem);
  }
  SEQFM_CHECK(off == wire.size()) << "malformed reference stream";
}

Stack::~Stack() {
  if (server) server->Shutdown();
  server.reset();
  batch.reset();
  predictor.reset();
  model.reset();
}

void SpanLog::Add(const char* name, uint64_t id, uint64_t parent,
                  uint64_t req, Clock::time_point start,
                  Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, id, parent, req, start, end});
}

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(std::chrono::duration<double, std::micro>(s.end - s.start).count());
    }
  }
  return out;
}

std::vector<SpanLog::Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteTsv(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Clock::time_point t0 = spans.empty() ? Clock::now() : spans[0].start;
  for (const Span& s : spans) t0 = std::min(t0, s.start);
  std::fprintf(f, "name\tspan\tparent\treq\tstart_us\tend_us\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%llu\t%llu\t%llu\t%.3f\t%.3f\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req),
                 std::chrono::duration<double, std::micro>(s.start - t0).count(),
                 std::chrono::duration<double, std::micro>(s.end - t0).count());
  }
  return std::fclose(f) == 0;
}

std::unique_ptr<Stack> BuildStack(const Spec& spec) {
  auto stack = std::make_unique<Stack>();
  const seqfm::bench::BenchOptions opts = ModelOptions();
  stack->prep = seqfm::bench::PrepareDataset("gowalla", opts);
  stack->model = seqfm::bench::MakeModel("SeqFM", stack->prep.space, opts);
  auto* module = dynamic_cast<seqfm::nn::Module*>(stack->model.get());
  SEQFM_CHECK(module != nullptr);
  stack->model_version = serve::ParameterVersion(*module);

  serve::PredictorOptions popts;
  popts.context_cache_bytes = spec.cache_bytes;
  stack->predictor = std::make_unique<serve::Predictor>(stack->model.get(),
                                                        stack->prep.builder.get(), popts);
  SEQFM_CHECK(stack->predictor->compiled_active()) << "the serving program did not compile";
  serve::BatchServerOptions bopts;
  bopts.max_queue_requests = spec.max_queue;
  stack->batch = std::make_unique<serve::BatchServer>(stack->predictor.get(), bopts);
  stack->server = std::make_unique<serve::RpcServer>(stack->batch.get());
  const seqfm::Status st = stack->server->Start();
  SEQFM_CHECK(st.ok()) << st.ToString();
  return stack;
}

void WarmStack(const Spec& spec, const Plan& plan, Stack* stack) {
  // Small-slate workloads warm every distinct request (every slate length
  // compiles its body, every pool user lands in the cache); whole-catalog
  // workloads need only a few requests to compile their chunk counts. The
  // first request of every slate length goes alone, so each chunk count
  // compiles once instead of on every thread that meets it in one wave
  // (each compile traces the model: set-up time and peak RSS would depend
  // on how many raced); then all of them are pipelined, twice, so waves
  // also hold several requests.
  const size_t warm = std::min(plan.distinct(), spec.slate_min > 0 ? plan.distinct() : 8);
  serve::RpcClient client;
  SEQFM_CHECK(client.Connect("127.0.0.1", stack->server->port()).ok());
  // Sends keys [first, last) back to back, then checks every answer.
  auto pipeline = [&](uint32_t first, uint32_t last) {
    for (uint32_t key = first; key < last; ++key) {
      const Request r = plan.ForKey(key);
      serve::RpcRequest q;
      q.id = key;
      q.user = plan.Example(r).user;
      q.k = static_cast<uint32_t>(kTopK);
      q.history = plan.Example(r).history;
      q.slate = plan.Slate(r);
      SEQFM_CHECK(client.Send(q).ok());
    }
    for (uint32_t n = first; n < last; ++n) {
      serve::RpcResponse resp;
      SEQFM_CHECK(client.ReadResponse(&resp).ok() && resp.id >= first && resp.id < last);
      SEQFM_CHECK(resp.status == serve::RpcStatus::kOk &&
                  SameAnswer(resp.items,
                             plan.Reference(plan.ForKey(static_cast<uint32_t>(resp.id)))))
          << "warm-up answer differs from the reference";
    }
  };
  std::vector<bool> seen_length(stack->num_objects() + 1, false);
  for (uint32_t key = 0; key < warm; ++key) {
    const size_t length = plan.Slate(plan.ForKey(key)).size();
    if (seen_length[length]) continue;
    seen_length[length] = true;
    pipeline(key, key + 1);
  }
  pipeline(0, static_cast<uint32_t>(warm));
  pipeline(0, static_cast<uint32_t>(warm));
}

SetupCost ColdSetup(const Spec& spec, const Plan& plan, size_t server_threads) {
  const std::string wire = RunInChild([&]() {
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    seqfm::util::SetGlobalThreads(server_threads);
    std::unique_ptr<Stack> stack = BuildStack(spec);
    WarmStack(spec, plan, stack.get());
    const SetupCost cost{SecondsSince(t0, Clock::now()), ProcessCpuSeconds() - cpu0};
    return std::string(reinterpret_cast<const char*>(&cost), sizeof(cost));
  });
  SEQFM_CHECK(wire.size() == sizeof(SetupCost)) << "malformed set-up cost";
  SetupCost cost;
  std::memcpy(&cost, wire.data(), sizeof(cost));
  return cost;
}

double ProcessCpuSeconds() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

bool SendAll(int fd, const std::string& wire) {
  size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

PhaseRecord NewRecord(const std::string& name, double qps, size_t n) {
  PhaseRecord rec;
  rec.name = name;
  rec.offered_qps = qps;
  rec.fate.assign(n, Fate::kError);
  rec.latency_ms.assign(n, 0.0);
  rec.lag_ms.assign(n, 0.0);
  return rec;
}

}  // namespace

PhaseRecord RunRpcPhase(const Spec& spec, const Plan& plan, uint16_t port,
                        const std::vector<Request>& reqs,
                        const std::vector<double>& sched,
                        const std::string& name, double qps,
                        SpanLog* spans) {
  const size_t n = sched.size();
  SEQFM_CHECK(reqs.size() >= n);
  PhaseRecord rec = NewRecord(name, qps, n);
  std::vector<std::string> frames(n);
  for (size_t i = 0; i < n; ++i) {
    serve::RpcRequest q;
    q.id = i;
    q.user = plan.Example(reqs[i]).user;
    q.k = static_cast<uint32_t>(kTopK);
    q.history = plan.Example(reqs[i]).history;
    q.slate = plan.Slate(reqs[i]);
    serve::AppendRequestFrame(q, &frames[i]);
  }
  std::vector<std::unique_ptr<serve::RpcClient>> conns;
  const int ep = epoll_create1(EPOLL_CLOEXEC);
  SEQFM_CHECK(ep >= 0);
  for (size_t c = 0; c < kConns; ++c) {
    conns.push_back(std::make_unique<serve::RpcClient>());
    SEQFM_CHECK(conns.back()->Connect("127.0.0.1", port).ok());
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<uint32_t>(c);
    SEQFM_CHECK(epoll_ctl(ep, EPOLL_CTL_ADD, conns.back()->fd(), &ev) == 0);
  }

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<Clock::time_point> due(n);
  for (size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(sched[i]));
  }
  std::atomic<bool> sender_done{false};
  std::atomic<int64_t> deadline_ns{0};
  Clock::time_point last_answer = start;
  const double cpu0 = ProcessCpuSeconds();

  std::thread receiver([&]() {
    std::vector<seqfm::serve::FrameReader> readers(kConns);
    std::vector<bool> open(kConns, true);
    std::vector<char> buf(1 << 16);
    size_t answered = 0;
    epoll_event evs[8];
    while (answered < n) {
      if (sender_done.load() &&
          Clock::now().time_since_epoch().count() > deadline_ns.load()) {
        break;
      }
      const int ready = epoll_wait(ep, evs, 8, 20);
      for (int e = 0; e < ready; ++e) {
        const uint32_t c = evs[e].data.u32;
        if (!open[c]) continue;
        for (;;) {
          const ssize_t got = ::recv(conns[c]->fd(), buf.data(), buf.size(), MSG_DONTWAIT);
          if (got > 0) {
            readers[c].Feed(buf.data(), static_cast<size_t>(got));
            continue;
          }
          if (got < 0 && errno == EINTR) continue;
          if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
            open[c] = false;
            epoll_ctl(ep, EPOLL_CTL_DEL, conns[c]->fd(), nullptr);
          }
          break;
        }
        const Clock::time_point now = Clock::now();
        std::string payload;
        bool have = false;
        while (readers[c].Next(&payload, &have).ok() && have) {
          serve::RpcResponse resp;
          if (!serve::DecodeResponse(payload, &resp).ok() || resp.id >= n) continue;
          const size_t id = resp.id;
          rec.latency_ms[id] = Ms(now - due[id]);
          if (resp.status == serve::RpcStatus::kOk) {
            rec.fate[id] = SameAnswer(resp.items, plan.Reference(reqs[id]))
                               ? Fate::kOk
                               : Fate::kWrong;
          } else if (resp.status == serve::RpcStatus::kOverloaded) {
            rec.fate[id] = Fate::kShed;
          }
          if (spans != nullptr) {
            const Clock::time_point sent =
                due[id] + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(rec.lag_ms[id]));
            spans->Add("rpc.call", 0, id, sent, now);
          }
          last_answer = now;
          ++answered;
        }
      }
    }
  });

  for (size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(due[i]);
    rec.lag_ms[i] = Ms(Clock::now() - due[i]);
    if (!SendAll(conns[i % kConns]->fd(), frames[i])) break;
  }
  const double drain_s = std::max(5.0, 20.0 * spec.limit_ms / 1e3);
  deadline_ns.store((Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(drain_s)))
                        .time_since_epoch()
                        .count());
  sender_done.store(true);
  receiver.join();
  rec.cpu_s = ProcessCpuSeconds() - cpu0;
  rec.wall_s = SecondsSince(start, last_answer);
  ::close(ep);
  return rec;
}

}  // namespace perfbench
