// Multi-replica distributed serving (the serve::Coordinator tier).
//
// Trains a small SeqFM, saves a checkpoint, and stands up a three-replica
// fleet IN THIS PROCESS — each replica is the full serving stack
// (Predictor -> BatchServer -> RpcServer in replica mode) owning one third
// of the catalog, exactly what tools/replica_main.cc runs as a separate
// process per shard. A serve::Coordinator connects to all three over
// loopback TCP, validates that their parameter fingerprints agree, and
// serves requests by fanning out and k-way-merging the per-shard top-K —
// bit-identical to single-process serving, which the demo verifies live.
// Finally one replica is shut down to show graceful degradation: the
// coordinator answers PARTIAL with the surviving shards' merge instead of
// failing or hanging.
//
// Build & run:  ./build/examples/distributed_serving [--scale=0.3]
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/seqfm.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "serve/checkpoint.h"
#include "serve/coordinator.h"
#include "serve/predictor.h"
#include "serve/rpc_server.h"
#include "serve/server.h"
#include "util/flags.h"

using namespace seqfm;

int main(int argc, char** argv) {
  FlagParser flags;
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const double scale = flags.GetDouble("scale", 0.3);
  const size_t epochs = static_cast<size_t>(flags.GetInt("epochs", 3));

  auto config = data::SyntheticDatasetGenerator::Preset("gowalla", scale);
  auto log = data::SyntheticDatasetGenerator(*config).Generate();
  auto dataset = data::TemporalDataset::FromLog(*log);
  data::FeatureSpace space(log->num_users(), log->num_objects());
  data::BatchBuilder builder(space, 20);
  std::printf("check-in log: %zu users, %zu POIs, %zu interactions\n",
              log->num_users(), log->num_objects(), log->num_interactions());

  core::SeqFmConfig model_config;
  model_config.embedding_dim = 16;
  model_config.max_seq_len = 20;
  core::SeqFm model(space, model_config);
  {
    core::TrainConfig cfg;
    cfg.task = core::Task::kRanking;
    cfg.epochs = epochs;
    cfg.batch_size = 128;
    cfg.learning_rate = 1e-2f;
    cfg.num_negatives = 2;
    core::Trainer trainer(&model, &builder, &*dataset, cfg);
    auto result = trainer.Train();
    std::printf("trained SeqFM: %.1fs, final loss %.4f\n",
                result.total_seconds, result.final_loss);
  }

  // Every replica of a real fleet loads the same checkpoint file and
  // derives the same parameter fingerprint — the model version the
  // coordinator refuses to merge across.
  const uint64_t version = serve::ParameterVersion(model);
  std::printf("parameter fingerprint (model version): %llu\n\n",
              static_cast<unsigned long long>(version));

  // The fleet: three replica-mode servers, each owning one contiguous
  // third of the catalog (serve::ShardBounds — replicas configured
  // alike agree on every boundary without talking to each other).
  constexpr uint32_t kShards = 3;
  serve::PredictorOptions pred_opts;
  pred_opts.context_cache_bytes = 16 << 20;
  serve::Predictor predictor(&model, &builder, pred_opts);
  std::vector<std::unique_ptr<serve::BatchServer>> batches;
  std::vector<std::unique_ptr<serve::RpcServer>> replicas;
  for (uint32_t s = 0; s < kShards; ++s) {
    batches.push_back(std::make_unique<serve::BatchServer>(&predictor));
    serve::RpcServerOptions opts;
    opts.port = 0;  // ephemeral
    opts.catalog_size = log->num_objects();
    opts.shard_index = s;
    opts.num_shards = kShards;
    opts.model_version = version;
    replicas.push_back(
        std::make_unique<serve::RpcServer>(batches.back().get(), opts));
    if (auto st = replicas.back()->Start(); !st.ok()) {
      std::fprintf(stderr, "replica %u: %s\n", s, st.ToString().c_str());
      return 1;
    }
    std::printf("replica %u/%u listening on 127.0.0.1:%u\n", s, kShards,
                replicas.back()->port());
  }

  // The coordinator handshakes with every replica (protocol version,
  // capabilities, model version, owned slice) and validates the fleet:
  // all fingerprints equal, every shard covered, every slice canonical.
  serve::Coordinator coord;
  for (auto& replica : replicas) {
    if (auto st = coord.AddReplica("127.0.0.1", replica->port()); !st.ok()) {
      std::fprintf(stderr, "add replica: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (auto st = coord.Ready(); !st.ok()) {
    std::fprintf(stderr, "fleet: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\nfleet ready: %u shards over %llu items, model %llu\n\n",
              coord.num_shards(),
              static_cast<unsigned long long>(coord.catalog_size()),
              static_cast<unsigned long long>(coord.model_version()));

  // Serve a few users through the fleet and verify, live, that the merged
  // ranking is bit-identical to single-process serving.
  const auto& test = dataset->test();
  const size_t show = test.size() < 3 ? test.size() : 3;
  bool all_match = true;
  for (size_t i = 0; i < show; ++i) {
    const auto& ex = test[i];
    serve::CoordinatorResult result;
    if (auto st = coord.TopKAll(ex, 5, &result); !st.ok()) {
      std::fprintf(stderr, "coordinator: %s\n", st.ToString().c_str());
      return 1;
    }
    const std::vector<serve::ScoredItem> local = predictor.TopKAll(ex, 5);
    bool match = local.size() == result.items.size();
    for (size_t r = 0; match && r < local.size(); ++r) {
      match = local[r].item == result.items[r].item &&
              std::memcmp(&local[r].score, &result.items[r].score,
                          sizeof(float)) == 0;
    }
    all_match = all_match && match;
    std::printf("  user %d -> %s (%u/%u shards), top-5:", ex.user,
                serve::RpcStatusToString(result.status),
                result.shards_merged, result.shards_total);
    for (const auto& item : result.items) {
      std::printf(" %d(%.2f)%s", item.item, item.score,
                  item.item == ex.target ? "*" : "");
    }
    std::printf("  [%s single-process]\n",
                match ? "bit-identical to" : "DIVERGES from");
  }
  if (!all_match) {
    std::fprintf(stderr, "FAIL: distributed ranking diverged\n");
    return 1;
  }

  // Degradation: take shard 1 down and serve again. The coordinator's
  // per-replica timeouts bound the fan-out, so the dead shard costs an
  // explicit PARTIAL answer — never a hang.
  std::printf("\nshutting down replica 1 (shard 1 goes dark)...\n");
  replicas[1]->Shutdown();
  serve::CoordinatorResult degraded;
  if (auto st = coord.TopKAll(test[0], 5, &degraded); !st.ok()) {
    std::fprintf(stderr, "coordinator: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("  user %d -> %s (%u/%u shards), top-5 of the survivors:",
              test[0].user, serve::RpcStatusToString(degraded.status),
              degraded.shards_merged, degraded.shards_total);
  for (const auto& item : degraded.items) {
    std::printf(" %d(%.2f)", item.item, item.score);
  }
  std::printf("\n\ndistributed serving demo complete.\n");

  for (auto& replica : replicas) replica->Shutdown();
  return 0;
}
