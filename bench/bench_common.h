#ifndef SEQFM_BENCH_BENCH_COMMON_H_
#define SEQFM_BENCH_BENCH_COMMON_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "core/seqfm.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "util/flags.h"

namespace seqfm {
namespace bench {

/// Shared knobs for the table/figure reproduction binaries. Every bench
/// accepts:
///   --scale=F        dataset size multiplier (default varies per bench)
///   --epochs=N       training epochs
///   --dim=N          latent dimension d
///   --seq-len=N      maximum dynamic sequence length n.
///   --negatives=N    training negatives per positive (paper: 5)
///   --eval-negatives=N  ranking candidates J (paper: 1000)
///   --batch=N        mini-batch size
///   --lr=F           Adam learning rate
///   --seed=N         global seed
///   --threads=N      thread-pool size (0 = SEQFM_THREADS env / hardware)
///   --quick          shrink everything for a fast smoke run
/// Flags consumed by BenchOptions::FromFlags, accepted by every bench.
const std::vector<std::string>& CommonBenchFlags();

/// Parses argv and rejects unknown flags: on a flag outside
/// CommonBenchFlags() + \p extra_flags (or a malformed one) it prints the
/// accepted set to stderr and exits with status 2 instead of silently
/// ignoring the typo. Positional arguments are also rejected.
FlagParser ParseBenchFlagsOrDie(int argc, const char* const* argv,
                                const std::vector<std::string>& extra_flags);

struct BenchOptions {
  double scale = 1.0;
  size_t epochs = 5;
  size_t dim = 32;
  size_t max_seq_len = 20;
  size_t num_negatives = 2;
  size_t eval_negatives = 200;
  size_t batch_size = 128;
  float learning_rate = 1e-2f;
  /// Epoch-selection cadence on the validation split (0 = off).
  size_t validate_every = 5;
  uint64_t seed = 42;
  /// Global thread-pool size applied by FromFlags; 0 keeps the default
  /// (SEQFM_THREADS env or hardware concurrency).
  size_t threads = 0;
  bool quick = false;

  static BenchOptions FromFlags(const FlagParser& flags);
};

/// A generated dataset plus everything models need to train/evaluate on it.
struct PreparedDataset {
  std::string name;
  data::SyntheticConfig config;
  data::InteractionLog log{0, 0};
  data::TemporalDataset dataset;
  data::FeatureSpace space;
  std::unique_ptr<data::BatchBuilder> builder;
};

/// Generates a preset at the requested scale and applies the paper's >=10
/// interaction filtering (Sec. V-A).
PreparedDataset PrepareDataset(const std::string& preset,
                               const BenchOptions& opts);

/// Creates "SeqFM" or any baseline with hyperparameters from \p opts.
/// \p seqfm_overrides lets ablation/hyperparameter benches tweak the SeqFM
/// config after the defaults are applied.
std::unique_ptr<core::Model> MakeModel(
    const std::string& name, const data::FeatureSpace& space,
    const BenchOptions& opts,
    const std::function<void(core::SeqFmConfig*)>& seqfm_overrides = nullptr);

/// Trains \p model on \p prepared for the given task and returns stats.
core::TrainResult TrainModel(core::Model* model, const PreparedDataset& prep,
                             core::Task task, const BenchOptions& opts);

/// Pretty-printing helpers shared by the table benches.
void PrintBanner(const std::string& title, const std::string& paper_ref);
std::string FormatCell(double value, int width = 7, int precision = 3);

/// Nearest-rank percentile: sorts \p samples in place and returns the value
/// at rank ceil(q * n) (1-based), i.e. the smallest sample >= q of the
/// distribution. The previous per-bench copies indexed q * n, which returns
/// the MAXIMUM for p99 whenever n <= 100 — the common bench regime — and
/// overstates every tail quantile by up to one rank. Returns 0 on empty
/// input. \p q must be in (0, 1]; q=0.999 (p999) is meaningful only once
/// n >= 1000, below that it reports the max by construction.
double Percentile(std::vector<double>* samples, double q);

/// Percentile() scaled to milliseconds for second-denominated samples.
double PercentileMs(std::vector<double>* latencies, double q);

/// Splits "a,b,c" into {"a","b","c"} (used by --models / --datasets flags).
std::vector<std::string> SplitCsv(const std::string& csv);

/// Parses the CSV flag \p name (default \p default_csv) as a list of sizes
/// in [1, max_value]. A malformed, out-of-range, or empty list prints a
/// usage line and exits 2 — the shared validation behind --thread-sweep
/// style sweep flags.
std::vector<size_t> ParseSizeListOrDie(const FlagParser& flags,
                                       const std::string& name,
                                       const std::string& default_csv,
                                       size_t max_value);

/// \brief Machine-readable bench results: a flat JSON object of metrics.
///
/// Benches that accept --json=<path> collect their headline numbers
/// (scores/sec, p50/p99, speedups) here and write them on exit, e.g.
/// `bench_serving --json=BENCH_serving.json`, so the perf trajectory is
/// diffable across PRs instead of buried in stdout. Keys keep insertion
/// order; numbers are emitted with enough digits to round-trip.
class JsonResultWriter {
 public:
  void Add(const std::string& key, double value);
  void Add(const std::string& key, const std::string& value);

  bool empty() const { return entries_.empty(); }

  /// Serializes to {"key": value, ...}.
  std::string ToJson() const;

  /// Writes ToJson() to \p path; logs and returns false on IO failure.
  bool WriteTo(const std::string& path) const;

 private:
  /// key -> pre-serialized JSON value (number or quoted string).
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace bench
}  // namespace seqfm

#endif  // SEQFM_BENCH_BENCH_COMMON_H_
