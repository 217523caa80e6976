#include "core.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "util/rng.h"

namespace perfbench {

std::vector<double> PoissonSchedule(double qps, double duration_s,
                                    uint64_t seed) {
  std::vector<double> sched;
  seqfm::Rng rng(seed);
  double t = -std::log(1.0 - rng.Uniform()) / qps;
  while (t < duration_s) {
    sched.push_back(t);
    t += -std::log(1.0 - rng.Uniform()) / qps;
  }
  return sched;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

bool SameAnswer(const std::vector<seqfm::serve::ScoredItem>& got,
                const std::vector<seqfm::serve::ScoredItem>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].item != want[i].item ||
        std::memcmp(&got[i].score, &want[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

uint64_t PhaseRecord::Count(Fate f) const {
  return static_cast<uint64_t>(std::count(fate.begin(), fate.end(), f));
}

std::vector<double> PhaseRecord::OkLatencies() const {
  std::vector<double> out;
  for (size_t i = 0; i < fate.size(); ++i) {
    if (fate[i] == Fate::kOk) out.push_back(latency_ms[i]);
  }
  return out;
}

RungVerdict JudgeRung(const PhaseRecord& phase, double limit_ms,
                      double max_lag_ms) {
  RungVerdict v;
  v.qps = phase.offered_qps;
  const size_t n = phase.fate.size();
  v.valid = n > 0 && phase.Count(Fate::kUnsent) == 0 &&
            Quantile(phase.lag_ms, 0.99) <= max_lag_ms;
  std::vector<double> effective(n);
  size_t good = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool ok = phase.fate[i] == Fate::kOk;
    effective[i] = ok ? phase.latency_ms[i]
                      : std::numeric_limits<double>::infinity();
    if (ok && phase.latency_ms[i] <= limit_ms) ++good;
  }
  v.good_frac = n == 0 ? 0.0 : static_cast<double>(good) / static_cast<double>(n);
  if (n >= 8) {
    const size_t q = n / 4;
    const std::vector<double> head(effective.begin(), effective.begin() + q);
    const std::vector<double> tail(effective.end() - q, effective.end());
    v.backlog = Median(tail) > Median(head) + limit_ms / 2.0;
  }
  v.pass = v.valid && v.good_frac >= 0.99 && !v.backlog;
  return v;
}

double MaxQpsSlo(const std::vector<RungVerdict>& rungs) {
  double best = 0.0;
  for (const RungVerdict& r : rungs) {
    if (r.pass) best = std::max(best, r.qps);
  }
  return best;
}

namespace {

bool Check(bool cond, const char* what) {
  std::printf("self-test %-58s %s\n", what, cond ? "ok" : "FAILED");
  return cond;
}

PhaseRecord SyntheticPhase(double qps, const std::vector<double>& lat_ms,
                           double lag_ms) {
  PhaseRecord p;
  p.offered_qps = qps;
  p.fate.assign(lat_ms.size(), Fate::kOk);
  p.latency_ms = lat_ms;
  p.lag_ms.assign(lat_ms.size(), lag_ms);
  return p;
}

}  // namespace

bool RunSelfTests() {
  bool ok = true;

  // Poisson schedule: a pure function of its seed.
  const auto a = PoissonSchedule(500.0, 2.0, 7);
  const auto b = PoissonSchedule(500.0, 2.0, 7);
  const auto c = PoissonSchedule(500.0, 2.0, 8);
  ok &= Check(a == b, "poisson schedule identical for one seed");
  ok &= Check(a != c, "poisson schedule differs for another seed");
  ok &= Check(a.size() > 900 && a.size() < 1100 &&
                  std::is_sorted(a.begin(), a.end()) && a.back() < 2.0,
              "poisson schedule has ~qps*duration sorted arrivals");

  // Ladder / max_qps_slo on synthetic latencies (limit 10 ms).
  const double limit = 10.0;
  std::vector<double> fast(400, 2.0);
  std::vector<double> one_pct_late = fast;
  for (size_t i = 0; i < 4; ++i) one_pct_late[i * 100 + 50] = 50.0;
  std::vector<double> two_pct_late = fast;
  for (size_t i = 0; i < 8; ++i) two_pct_late[i * 50 + 25] = 50.0;
  std::vector<double> growing(400);
  for (size_t i = 0; i < growing.size(); ++i) growing[i] = 1.0 + 0.02 * i;
  std::vector<RungVerdict> rungs = {
      JudgeRung(SyntheticPhase(100, fast, 0.1), limit, 5.0),
      JudgeRung(SyntheticPhase(200, one_pct_late, 0.1), limit, 5.0),
      JudgeRung(SyntheticPhase(300, two_pct_late, 0.1), limit, 5.0),
      JudgeRung(SyntheticPhase(400, growing, 0.1), limit, 5.0),
      JudgeRung(SyntheticPhase(500, fast, 9.0), limit, 5.0),
  };
  ok &= Check(rungs[0].pass && rungs[1].pass,
              "rung with <=1% over the limit passes");
  ok &= Check(!rungs[2].pass, "rung with 2% over the limit fails");
  ok &= Check(rungs[3].backlog && !rungs[3].pass,
              "rung with growing latency (backlog) fails");
  ok &= Check(!rungs[4].valid && !rungs[4].pass,
              "rung whose generator lagged is invalid");
  ok &= Check(MaxQpsSlo(rungs) == 200.0, "max_qps_slo is the highest passing rung");
  PhaseRecord shed = SyntheticPhase(100, fast, 0.1);
  for (size_t i = 0; i < 5; ++i) shed.fate[i * 80] = Fate::kShed;
  ok &= Check(!JudgeRung(shed, limit, 5.0).pass,
              "shed requests count as missing the limit");
  PhaseRecord wrong = SyntheticPhase(100, fast, 0.1);
  for (size_t i = 0; i < 5; ++i) wrong.fate[i * 80] = Fate::kWrong;
  ok &= Check(!JudgeRung(wrong, limit, 5.0).pass && wrong.OkLatencies().size() == 395,
              "wrong answers miss the limit and leave the goodput");
  ok &= Check(MaxQpsSlo({rungs[2], rungs[3]}) == 0.0,
              "max_qps_slo is 0 when no rung passes");

  // Answer checker: one flipped score bit is a wrong answer.
  std::vector<seqfm::serve::ScoredItem> want = {{3, 0.75f}, {9, -0.125f}};
  std::vector<seqfm::serve::ScoredItem> got = want;
  ok &= Check(SameAnswer(got, want), "checker accepts an identical answer");
  uint32_t bits;
  std::memcpy(&bits, &got[1].score, sizeof(bits));
  bits ^= 1u;
  std::memcpy(&got[1].score, &bits, sizeof(bits));
  ok &= Check(!SameAnswer(got, want), "checker flags one flipped score bit");
  got = want;
  got[0].item = 4;
  ok &= Check(!SameAnswer(got, want), "checker flags a different item");
  got = want;
  got.pop_back();
  ok &= Check(!SameAnswer(got, want), "checker flags a short answer");
  return ok;
}

}  // namespace perfbench
