#include "bench/bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace bench {

const std::vector<std::string>& CommonBenchFlags() {
  static const std::vector<std::string> kFlags = {
      "scale",          "epochs", "dim",   "seq-len", "negatives",
      "eval-negatives", "batch",  "lr",    "validate-every", "seed",
      "threads",        "quick",
  };
  return kFlags;
}

FlagParser ParseBenchFlagsOrDie(int argc, const char* const* argv,
                                const std::vector<std::string>& extra_flags) {
  auto usage = [&] {
    std::fprintf(stderr, "accepted flags:");
    for (const auto& f : CommonBenchFlags()) {
      std::fprintf(stderr, " --%s", f.c_str());
    }
    for (const auto& f : extra_flags) std::fprintf(stderr, " --%s", f.c_str());
    std::fprintf(stderr, "\n");
  };
  FlagParser flags;
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    usage();
    std::exit(2);
  }
  if (!flags.positional().empty()) {
    std::fprintf(stderr, "unexpected positional argument: %s\n",
                 flags.positional().front().c_str());
    usage();
    std::exit(2);
  }
  for (const std::string& name : flags.Keys()) {
    const bool known =
        std::find(CommonBenchFlags().begin(), CommonBenchFlags().end(),
                  name) != CommonBenchFlags().end() ||
        std::find(extra_flags.begin(), extra_flags.end(), name) !=
            extra_flags.end();
    if (!known) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      usage();
      std::exit(2);
    }
  }
  return flags;
}

BenchOptions BenchOptions::FromFlags(const FlagParser& flags) {
  BenchOptions opts;
  opts.scale = 0.5;
  opts.epochs = 30;
  opts.dim = 16;
  opts.quick = flags.GetBool("quick", false);
  if (opts.quick) {
    opts.scale = 0.2;
    opts.epochs = 4;
    opts.eval_negatives = 100;
    opts.validate_every = 2;
  }
  opts.scale = flags.GetDouble("scale", opts.scale);
  opts.epochs = static_cast<size_t>(flags.GetInt("epochs", opts.epochs));
  opts.dim = static_cast<size_t>(flags.GetInt("dim", opts.dim));
  opts.max_seq_len =
      static_cast<size_t>(flags.GetInt("seq-len", opts.max_seq_len));
  opts.num_negatives =
      static_cast<size_t>(flags.GetInt("negatives", opts.num_negatives));
  opts.eval_negatives = static_cast<size_t>(
      flags.GetInt("eval-negatives", opts.eval_negatives));
  opts.batch_size = static_cast<size_t>(flags.GetInt("batch", opts.batch_size));
  opts.learning_rate =
      static_cast<float>(flags.GetDouble("lr", opts.learning_rate));
  opts.validate_every = static_cast<size_t>(
      flags.GetInt("validate-every", opts.validate_every));
  opts.seed = static_cast<uint64_t>(flags.GetInt("seed", opts.seed));
  const int64_t threads = flags.GetInt("threads", 0);
  if (threads < 0) {
    SEQFM_LOG(Warning) << "ignoring invalid --threads=" << threads;
  } else {
    opts.threads = static_cast<size_t>(threads);
    if (opts.threads > 0) {
      util::SetGlobalThreads(opts.threads);
    }
  }
  return opts;
}

PreparedDataset PrepareDataset(const std::string& preset,
                               const BenchOptions& opts) {
  PreparedDataset out;
  out.name = preset;
  out.config =
      data::SyntheticDatasetGenerator::Preset(preset, opts.scale).ValueOrDie();
  data::SyntheticDatasetGenerator generator(out.config);
  data::InteractionLog raw = generator.Generate().ValueOrDie();
  // The paper filters users/objects with < 10 interactions (Sec. V-A); the
  // regression presets are used as provided.
  if (out.config.with_ratings) {
    out.log = std::move(raw);
  } else {
    auto filtered = raw.Filter(/*min_user_events=*/10, /*min_object_users=*/2);
    out.log = filtered.ok() ? std::move(filtered).ValueOrDie() : std::move(raw);
  }
  out.dataset = data::TemporalDataset::FromLog(out.log).ValueOrDie();
  out.space = data::FeatureSpace(out.log.num_users(), out.log.num_objects());
  out.builder =
      std::make_unique<data::BatchBuilder>(out.space, opts.max_seq_len);
  return out;
}

std::unique_ptr<core::Model> MakeModel(
    const std::string& name, const data::FeatureSpace& space,
    const BenchOptions& opts,
    const std::function<void(core::SeqFmConfig*)>& seqfm_overrides) {
  if (name == "SeqFM") {
    core::SeqFmConfig cfg;
    cfg.embedding_dim = opts.dim;
    cfg.max_seq_len = opts.max_seq_len;
    cfg.ffn_layers = 1;
    cfg.keep_prob = 0.9f;
    cfg.seed = opts.seed;
    if (seqfm_overrides) seqfm_overrides(&cfg);
    return std::make_unique<core::SeqFm>(space, cfg);
  }
  baselines::BaselineConfig cfg;
  cfg.embedding_dim = opts.dim;
  cfg.max_seq_len = opts.max_seq_len;
  cfg.mlp_hidden = opts.dim;
  cfg.keep_prob = 0.9f;
  cfg.seed = opts.seed;
  return baselines::CreateBaseline(name, space, cfg).ValueOrDie();
}

core::TrainResult TrainModel(core::Model* model, const PreparedDataset& prep,
                             core::Task task, const BenchOptions& opts) {
  core::TrainConfig cfg;
  cfg.task = task;
  cfg.epochs = opts.epochs;
  cfg.batch_size = opts.batch_size;
  cfg.learning_rate = opts.learning_rate;
  cfg.num_negatives = opts.num_negatives;
  cfg.seed = opts.seed;
  cfg.validate_every = opts.validate_every;
  core::Trainer trainer(model, prep.builder.get(), &prep.dataset, cfg);

  // Epoch selection on the held-out second-last records (Sec. V-C). The
  // scorer must stay alive for the duration of Train().
  std::unique_ptr<eval::RankingEvaluator> rank_val;
  std::unique_ptr<eval::ClassificationEvaluator> cls_val;
  std::unique_ptr<eval::RegressionEvaluator> reg_val;
  if (opts.validate_every > 0) {
    switch (task) {
      case core::Task::kRanking:
        rank_val = std::make_unique<eval::RankingEvaluator>(
            &prep.dataset, prep.builder.get(), /*num_negatives=*/50,
            opts.seed + 31, /*use_validation=*/true);
        trainer.SetValidationScorer([&rank_val, model]() {
          return rank_val->Evaluate(model, {10}).hr[10];
        });
        break;
      case core::Task::kClassification:
        cls_val = std::make_unique<eval::ClassificationEvaluator>(
            &prep.dataset, prep.builder.get(), opts.seed + 31,
            /*use_validation=*/true);
        trainer.SetValidationScorer(
            [&cls_val, model]() { return cls_val->Evaluate(model).auc; });
        break;
      case core::Task::kRegression:
        reg_val = std::make_unique<eval::RegressionEvaluator>(
            &prep.dataset, prep.builder.get(), /*use_validation=*/true);
        trainer.SetValidationScorer(
            [&reg_val, model]() { return -reg_val->Evaluate(model).mae; });
        break;
    }
  }
  return trainer.Train();
}

void PrintBanner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=============================================================="
              "==================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Synthetic substitution for the paper's datasets — compare the "
              "ORDERING of rows,\nnot absolute values (see README.md, "
              "\"Departures from the paper\").\n");
  std::printf("================================================================"
              "================\n");
}

std::string FormatCell(double value, int width, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%*.*f", width, precision, value);
  return buf;
}

double Percentile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const size_t n = samples->size();
  // Nearest-rank: 1-based rank ceil(q * n), clamped into [1, n]. The naive
  // index q * n is off by one rank in the tail: for n = 100, p99 indexes
  // element 99 (the max, i.e. p100) instead of rank 99 (index 98).
  const double rank = std::ceil(q * static_cast<double>(n));
  const size_t idx =
      std::min(n - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
  return (*samples)[idx];
}

double PercentileMs(std::vector<double>* latencies, double q) {
  return Percentile(latencies, q) * 1e3;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : csv) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

void JsonResultWriter::Add(const std::string& key, double value) {
  // JSON has no nan/inf tokens; a degenerate metric becomes null rather
  // than making the whole file unparseable.
  if (!std::isfinite(value)) {
    entries_.emplace_back(key, "null");
    return;
  }
  char buf[64];
  // %.17g round-trips every double.
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  entries_.emplace_back(key, buf);
}

namespace {
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}
}  // namespace

void JsonResultWriter::Add(const std::string& key, const std::string& value) {
  entries_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
}

std::string JsonResultWriter::ToJson() const {
  std::string out = "{\n";
  for (size_t i = 0; i < entries_.size(); ++i) {
    out += "  \"" + JsonEscape(entries_[i].first) + "\": " +
           entries_[i].second;
    if (i + 1 < entries_.size()) out += ",";
    out += "\n";
  }
  out += "}\n";
  return out;
}

bool JsonResultWriter::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    SEQFM_LOG(Warning) << "cannot write bench results to " << path;
    return false;
  }
  const std::string json = ToJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) SEQFM_LOG(Warning) << "short write of bench results to " << path;
  else std::printf("bench results written to %s\n", path.c_str());
  return ok;
}

std::vector<size_t> ParseSizeListOrDie(const FlagParser& flags,
                                       const std::string& name,
                                       const std::string& default_csv,
                                       size_t max_value) {
  std::vector<size_t> values;
  for (const std::string& tok :
       SplitCsv(flags.GetString(name, default_csv))) {
    char* end = nullptr;
    const unsigned long value = std::strtoul(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || value == 0 ||
        value > max_value) {
      std::fprintf(stderr, "invalid --%s entry '%s' (want 1..%zu)\n",
                   name.c_str(), tok.c_str(), max_value);
      std::exit(2);
    }
    values.push_back(static_cast<size_t>(value));
  }
  if (values.empty()) {
    std::fprintf(stderr, "--%s: empty list\n", name.c_str());
    std::exit(2);
  }
  return values;
}

}  // namespace bench
}  // namespace seqfm
