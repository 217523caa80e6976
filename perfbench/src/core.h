// Pure measurement logic of the serving benchmark: arrival schedules,
// percentiles, the latency-limit ladder, and the bit-exact answer check.
// Kept free of serving code so the self-tests exercise it on synthetic data.
#ifndef PERFBENCH_CORE_H_
#define PERFBENCH_CORE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/predictor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Poisson arrival offsets (seconds from phase start) at \p qps over
/// [0, duration_s), drawn from a seqfm::Rng seeded with \p seed. The same
/// seed always yields the same schedule.
std::vector<double> PoissonSchedule(double qps, double duration_s,
                                    uint64_t seed);

/// Nearest-rank quantile of \p v (copied, not reordered); 0 when empty.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Items equal and every score equal bit for bit.
bool SameAnswer(const std::vector<seqfm::serve::ScoredItem>& got,
                const std::vector<seqfm::serve::ScoredItem>& want);

/// What happened to one request the generator was due to send.
enum class Fate : uint8_t {
  kUnsent,    // generator fell too far behind and never sent it
  kOk,        // OK and bit-identical to the reference
  kWrong,     // OK status but a different answer
  kShed,      // OVERLOADED
  kError,     // transport error, other status, or no answer
};

/// One open-loop phase: per request (in schedule order) its fate, latency
/// from its DUE time, and how late the generator sent it.
struct PhaseRecord {
  std::string name;
  double offered_qps = 0.0;
  double wall_s = 0.0;       // first due time to last answer
  double cpu_s = 0.0;        // process CPU over the phase
  std::vector<Fate> fate;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;

  uint64_t Count(Fate f) const;
  uint64_t sent() const { return fate.size() - Count(Fate::kUnsent); }
  /// Latencies of OK-and-correct requests only.
  std::vector<double> OkLatencies() const;
};

/// Verdict of one ladder rung against the workload's latency limit.
struct RungVerdict {
  double qps = 0.0;
  bool valid = false;      // generator kept to its schedule
  double good_frac = 0.0;  // OK, correct and within the limit / due
  bool backlog = false;    // latency grew across the phase
  bool pass = false;
};

/// A rung passes when the generator kept up (lag p99 within
/// \p max_lag_ms and nothing left unsent), at least 99% of the requests
/// due came back OK, correct and within \p limit_ms, and the median
/// latency of the last quarter of the phase is not more than limit/2 above
/// that of the first quarter (no growing backlog). A shed, failed or wrong
/// request counts as missing the limit.
RungVerdict JudgeRung(const PhaseRecord& phase, double limit_ms,
                      double max_lag_ms);

/// The highest passing rung's rate; 0 when none passes.
double MaxQpsSlo(const std::vector<RungVerdict>& rungs);

/// Runs the benchmark's own checks; prints each and returns false on any
/// failure.
bool RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_CORE_H_
