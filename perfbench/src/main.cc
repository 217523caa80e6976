// Serving benchmark binary. run.py builds it and passes each
// workload's shape from perfbench/workloads.json as flags:
//
//   perfbench_serving --workload=NAME --seed=N --seconds=S --trace=0|1
//                     [--spans-out=PATH] <workload flags>
//   perfbench_serving --self-test
//
// --trace=0 measures the end-to-end metrics open loop; --trace=1 runs the
// traced per-layer replay instead. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core.h"
#include "serving.h"
#include "tensor/kernels.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

/// Timed rounds per run and cold stack builds per run (both reported as
/// medians), and how often a phase whose generator fell behind is re-run.
constexpr size_t kRounds = 6;
constexpr size_t kSetupReps = 21;
constexpr size_t kAttempts = 3;

std::vector<double> ParseList(const std::string& csv) {
  std::vector<double> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    const size_t comma = csv.find(',', pos);
    const std::string tok = csv.substr(pos, comma == std::string::npos ? std::string::npos
                                                                      : comma - pos);
    if (!tok.empty()) out.push_back(std::stod(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

Spec SpecFromFlags(const seqfm::FlagParser& f) {
  Spec s;
  s.name = f.GetString("workload", "");
  s.pool_users = static_cast<size_t>(f.GetInt("pool-users", 0));
  s.slate_min = static_cast<size_t>(f.GetInt("slate-min", 0));
  s.slate_max = static_cast<size_t>(f.GetInt("slate-max", 0));
  s.cache_bytes = static_cast<size_t>(f.GetInt("cache-bytes", 64 << 20));
  s.max_queue = static_cast<size_t>(f.GetInt("max-queue", 0));
  s.server_threads = static_cast<size_t>(f.GetInt("server-threads", 0));
  s.light_qps = f.GetDouble("light-qps", 0.0);
  s.ladder = ParseList(f.GetString("ladder", ""));
  s.sat_qps = f.GetDouble("sat-qps", 0.0);
  s.limit_ms = f.GetDouble("limit-ms", 0.0);
  s.max_lag_ms = f.GetDouble("max-lag-ms", 0.0);
  SEQFM_CHECK(!s.name.empty() && s.light_qps > 0 && !s.ladder.empty() && s.sat_qps > 0 &&
              s.limit_ms > 0 && s.max_lag_ms > 0 && s.server_threads > 0 &&
              s.slate_min <= s.slate_max)
      << "incomplete or invalid workload flags";
  return s;
}

void PrintPhase(const PhaseRecord& p, const RungVerdict* v) {
  std::printf("  %-12s offered %7.1f/s sent %6llu ok %6llu shed %5llu wrong %llu "
              "err %llu unsent %llu | p50 %8.3f ms p99 %8.3f ms | lag p99 %6.3f ms",
              p.name.c_str(), p.offered_qps, static_cast<unsigned long long>(p.sent()),
              static_cast<unsigned long long>(p.Count(Fate::kOk)),
              static_cast<unsigned long long>(p.Count(Fate::kShed)),
              static_cast<unsigned long long>(p.Count(Fate::kWrong)),
              static_cast<unsigned long long>(p.Count(Fate::kError)),
              static_cast<unsigned long long>(p.Count(Fate::kUnsent)),
              Quantile(p.OkLatencies(), 0.5), Quantile(p.OkLatencies(), 0.99),
              Quantile(p.lag_ms, 0.99));
  if (v != nullptr) {
    std::printf(" | good %.4f %s%s%s", v->good_frac, v->valid ? "" : "INVALID ",
                v->backlog ? "BACKLOG " : "", v->pass ? "PASS" : "FAIL");
  }
  std::printf("\n");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool gated = true;  // false: printed, but not in the result line
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-24s %14.6f %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.gated ? "" : "  (not gated)");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const Metric& m : metrics) {
    if (!m.gated) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Unit of each per-layer metric, by name suffix.
std::string LayerUnit(const std::string& name) {
  auto ends = [&](const char* s) {
    const std::string suf(s);
    return name.size() >= suf.size() && name.compare(name.size() - suf.size(), suf.size(), suf) == 0;
  };
  if (ends("_ms")) return "ms";
  if (ends("_us") || ends("_us_per_cand")) return "us";
  if (ends("_frac") || ends("_ratio")) return "fraction";
  if (ends("_bytes")) return "bytes";
  if (ends("avg_wave") || ends("largest_wave")) return "requests";
  return "count";
}

int Run(int argc, char** argv) {
  seqfm::FlagParser flags;
  const seqfm::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  if (flags.GetBool("self-test", false)) return RunSelfTests() ? 0 : 1;

  const Spec spec = SpecFromFlags(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetInt("trace", 0) != 0;

  // The request population and its reference answers, computed in a child
  // process before this one starts any thread or timer.
  const seqfm::bench::PreparedDataset data =
      seqfm::bench::PrepareDataset("gowalla", ModelOptions());
  Plan plan(spec, data, seed);
  plan.ComputeReferences();

  // The generator shares the process (and the host's cores) with the
  // server, so the scoring pool gets at most nproc - 1 threads.
  const size_t nproc = std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t server_threads =
      std::min(spec.server_threads, nproc > 1 ? nproc - 1 : size_t{1});
  std::printf("host: nproc=%zu kernels=%s compiler=%s server_threads=%zu\n", nproc,
              seqfm::tensor::kernels::Active().name, PERFBENCH_COMPILER, server_threads);

  // Set-up: dataset, model, compile with self-check, server start, warm-up,
  // each time in a fresh child process (no pool, no engine frames, no
  // warm caches of an earlier build), before this process starts a thread.
  // setup_s is the CPU time of a set-up, not its wall time: on the shared
  // host the wall time of one set-up doubles whenever the child's threads
  // get no second vCPU (wall equals CPU then), which splits it into two
  // modes, while the work it does stays put.
  std::vector<double> setup_cpu, setup_wall;
  if (!trace) {
    for (size_t i = 0; i < kSetupReps; ++i) {
      const SetupCost cost = ColdSetup(spec, plan, server_threads);
      setup_cpu.push_back(cost.cpu_s);
      setup_wall.push_back(cost.wall_s);
    }
  }
  seqfm::util::SetGlobalThreads(server_threads);
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Stack> stack = BuildStack(spec);
  WarmStack(spec, plan, stack.get());
  const double served_setup_s = SecondsSince(t0, Clock::now());
  SEQFM_CHECK(stack->num_objects() == data.space.num_objects() &&
              stack->tests().size() == data.dataset.test().size());
  std::printf("workload %s: catalog %zu items, %zu test users, %zu distinct requests, "
              "setup %.4f s\n",
              spec.name.c_str(), stack->num_objects(), stack->tests().size(), plan.distinct(),
              served_setup_s);

  if (trace) {
    // The traced run's extra references (whole-catalog answers) come from
    // an in-process oracle; its memory is not measured.
    const auto ref_model = seqfm::bench::MakeModel("SeqFM", data.space, ModelOptions());
    seqfm::serve::PredictorOptions ref_opts;
    ref_opts.context_cache_bytes = 0;
    const seqfm::serve::Predictor ref(ref_model.get(), data.builder.get(), ref_opts);
    const std::string spans_path = flags.GetString("spans-out", "");
    const auto layer = RunTrace(spec, plan, stack.get(), ref, seed, seconds, spans_path);
    std::vector<Metric> metrics;
    for (const auto& kv : layer) metrics.push_back({kv.first, kv.second, LayerUnit(kv.first)});
    PrintResult(true, 1, 0, metrics);
    return 0;
  }

  // Timed phases, repeated in rounds: light rate, the rate ladder, then
  // saturation. The light-rate figures pool every valid light phase of the
  // run (the whole-catalog workload sends too few requests per round for a
  // per-round p50); sat_qps is the median over rounds, so a round disturbed
  // by a noisy neighbour cannot move it.
  const double round_s = seconds / static_cast<double>(kRounds);
  const double light_s = 0.5 * round_s;
  const double rung_s = 0.3 * round_s / static_cast<double>(spec.ladder.size());
  const double sat_s = 0.2 * round_s;
  std::vector<PhaseRecord> phases;
  // Runs one open-loop phase and judges it against the latency limit.
  auto run_phase = [&](const std::string& name, double qps, double dur, uint64_t stream,
                       bool judged) {
    const std::vector<double> sched = PoissonSchedule(qps, dur, seed * 1009 + stream);
    phases.push_back(RunRpcPhase(spec, plan, stack->server->port(),
                                 plan.Draw(sched.size(), stream), sched, name, qps));
    const RungVerdict v = JudgeRung(phases.back(), spec.limit_ms, spec.max_lag_ms);
    PrintPhase(phases.back(), judged ? &v : nullptr);
    return v;
  };
  // A judged phase whose generator fell behind its schedule (a stalled
  // host) is reported invalid and not scored; it is re-run, each time on a
  // fresh stream, up to kAttempts times in all.
  size_t invalid_phases = 0, unscored_rungs = 0;
  auto run_judged = [&](const std::string& name, double qps, double dur, uint64_t stream,
                        RungVerdict* verdict) {
    for (size_t attempt = 0; attempt < kAttempts; ++attempt) {
      *verdict = run_phase(name, qps, dur, stream + 1000 * attempt, true);
      if (verdict->valid) return true;
      ++invalid_phases;
    }
    return false;
  };
  std::vector<double> light_ok, light_lag, sat_qps, slo_qps;
  double light_cpu_s = 0.0;
  size_t light_scored = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    std::vector<RungVerdict> rungs;  // the light rate is the ladder's lowest rung
    const uint64_t base = 100 * round;
    RungVerdict v;
    if (run_judged("light", spec.light_qps, light_s, base + 1, &v)) {
      rungs.push_back(v);
      const PhaseRecord& light = phases.back();
      const std::vector<double> ok = light.OkLatencies();
      light_ok.insert(light_ok.end(), ok.begin(), ok.end());
      light_lag.insert(light_lag.end(), light.lag_ms.begin(), light.lag_ms.end());
      light_cpu_s += light.cpu_s;
      ++light_scored;
    }
    for (size_t r = 0; r < spec.ladder.size(); ++r) {
      if (run_judged("rung-" + std::to_string(static_cast<int>(spec.ladder[r])),
                     spec.ladder[r], rung_s, base + 2 + r, &v)) {
        rungs.push_back(v);
      } else {
        ++unscored_rungs;  // left out of max_qps_slo
      }
    }
    slo_qps.push_back(MaxQpsSlo(rungs));
    run_phase("saturation", spec.sat_qps, sat_s, base + 50, false);
    sat_qps.push_back(static_cast<double>(phases.back().Count(Fate::kOk)) /
                      phases.back().wall_s);
  }

  uint64_t sent = 0, wrong = 0, errors = 0, shed = 0;
  for (const PhaseRecord& p : phases) {
    sent += p.sent();
    wrong += p.Count(Fate::kWrong);
    errors += p.Count(Fate::kError);
    shed += p.Count(Fate::kShed);
  }
  std::printf("light phases: %zu of %zu rounds scored, %zu samples (so p99 has %zu beyond "
              "it), lag p99 %.3f ms\n",
              light_scored, kRounds, light_ok.size(), light_ok.size() / 100,
              Quantile(light_lag, 0.99));
  std::printf("generator: %zu phases invalid and re-run, %zu rungs left unscored\n",
              invalid_phases, unscored_rungs);
  std::printf("requests: %llu sent, %llu shed, %llu wrong, %llu errors\n",
              static_cast<unsigned long long>(sent), static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(wrong), static_cast<unsigned long long>(errors));

  const double peak_rss_mb = PeakRssMb();
  bool correct = wrong == 0 && errors == 0;
  if (light_scored == 0) {
    std::fprintf(stderr, "no valid light phase: the generator fell behind its schedule\n");
    correct = false;
  }
  std::printf("setup builds (wall/cpu s):");
  for (size_t i = 0; i < setup_cpu.size(); ++i) {
    std::printf(" %.4f/%.4f", setup_wall[i], setup_cpu[i]);
  }
  std::printf("\n");
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_cpu), "s"},
      {"sat_qps", Median(sat_qps), "1/s"},
      {"cpu_ms_per_req",
       1e3 * light_cpu_s / static_cast<double>(std::max<size_t>(light_ok.size(), 1)), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      // Printed but not gated: on a shared host these move with the
      // neighbours' load far more than any bound a change could be held to.
      // Latency counts the time the host takes a vCPU away (steal) and
      // every wake-up of an idle one, while CPU time does not; the highest
      // passing rung is a step function of a capacity that drifts by more
      // than one rung.
      {"p50_ms", Quantile(light_ok, 0.5), "ms", false},
      {"p99_ms", Quantile(light_ok, 0.99), "ms", false},
      {"max_qps_slo", Median(slo_qps), "1/s", false},
      {"setup_wall_s", Median(setup_wall), "s", false},
      {"fail_frac", sent == 0 ? 0.0 : static_cast<double>(shed + wrong + errors) /
                                          static_cast<double>(sent),
       "fraction", false},
  };
  PrintResult(correct, sent, wrong + errors, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
