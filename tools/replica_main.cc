// Shard replica process for distributed serving (serve::Coordinator tier).
//
// Stands up one replica of a serving fleet: loads a SeqFM checkpoint,
// computes its parameter fingerprint (serve::ParameterVersion — the
// model_version replicas announce in the RPC handshake), and serves its
// slice of the identity catalog through Predictor -> BatchServer ->
// RpcServer in replica mode. The owned slice is derived from
// serve::ShardBounds(items, num_shards) at shard_index, so every
// replica configured with the same (items, num_shards) agrees on every
// boundary without coordination.
//
// The process prints "PORT <p>\n" once listening (a parent that launched it
// with --port=0 reads the ephemeral port from here), then blocks reading
// stdin; EOF — the parent closing the pipe or exiting — triggers a drain
// Shutdown. Multi-process parity tests (tests/serve_dist_test.cc) and the
// bench_loadgen coordinator smoke leg drive it exactly this way.
//
//   seqfm_replica --checkpoint=ckpt.bin --shard-index=1 --num-shards=3
//                 --users=50 --items=120 --dim=16 --max-seq-len=20 --port=0
#include <cstdio>
#include <string>

#include "core/seqfm.h"
#include "data/dataset.h"
#include "serve/checkpoint.h"
#include "serve/predictor.h"
#include "serve/rpc_server.h"
#include "serve/server.h"
#include "util/failpoint.h"
#include "util/flags.h"

using namespace seqfm;

int main(int argc, char** argv) {
  // Server-side fault injection: the chaos harness launches replicas with
  // SEQFM_FAILPOINTS in the environment to arm schedules on this process's
  // I/O sites (rpc.server.read, rpc.server.shard.drop, ...).
  util::FailPoint::ArmFromEnv();
  FlagParser flags;
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const std::string checkpoint = flags.GetString("checkpoint", "");
  const auto shard_index = static_cast<uint32_t>(flags.GetInt("shard-index", 0));
  const auto num_shards = static_cast<uint32_t>(flags.GetInt("num-shards", 1));
  const auto port = static_cast<uint16_t>(flags.GetInt("port", 0));
  const auto users = static_cast<size_t>(flags.GetInt("users", 0));
  const auto items = static_cast<size_t>(flags.GetInt("items", 0));
  const auto dim = static_cast<size_t>(flags.GetInt("dim", 16));
  const auto max_seq_len = static_cast<size_t>(flags.GetInt("max-seq-len", 20));
  if (checkpoint.empty() || users == 0 || items == 0) {
    std::fprintf(stderr,
                 "usage: seqfm_replica --checkpoint=PATH --users=N --items=N "
                 "[--shard-index=I --num-shards=S --dim=D --max-seq-len=L "
                 "--port=P]\n");
    return 1;
  }

  // The architecture comes from the flags, the parameters from the
  // checkpoint; every replica of a fleet is launched with identical
  // geometry, so their parameter fingerprints agree iff their checkpoint
  // bytes do.
  data::FeatureSpace space(users, items);
  data::BatchBuilder builder(space, max_seq_len);
  core::SeqFmConfig config;
  config.embedding_dim = dim;
  config.max_seq_len = max_seq_len;
  core::SeqFm model(space, config);
  if (auto st = serve::Checkpoint::Load(&model, checkpoint); !st.ok()) {
    std::fprintf(stderr, "replica: %s\n", st.ToString().c_str());
    return 1;
  }

  serve::PredictorOptions pred_opts;
  pred_opts.context_cache_bytes = 8 << 20;
  serve::Predictor predictor(&model, &builder, pred_opts);
  serve::BatchServer batch(&predictor);
  serve::RpcServerOptions rpc_opts;
  rpc_opts.port = port;
  rpc_opts.catalog_size = items;  // replica mode: serve one catalog slice
  rpc_opts.shard_index = shard_index;
  rpc_opts.num_shards = num_shards;
  rpc_opts.model_version = serve::ParameterVersion(model);
  serve::RpcServer rpc(&batch, rpc_opts);
  if (auto st = rpc.Start(); !st.ok()) {
    std::fprintf(stderr, "replica: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("PORT %u\n", rpc.port());
  std::fflush(stdout);
  std::fprintf(stderr, "replica: shard %u/%u of %zu items, model %llu\n",
               shard_index, num_shards, items,
               static_cast<unsigned long long>(rpc_opts.model_version));

  // Lifetime is the stdin pipe: parent closes it (or dies), we drain out.
  int c;
  while ((c = std::getchar()) != EOF) {
  }
  rpc.Shutdown();
  return 0;
}
