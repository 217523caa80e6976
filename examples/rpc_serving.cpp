// Network serving over TCP (the serve::RpcServer tier).
//
// Trains a small SeqFM on a Gowalla-like check-in log, stands up the full
// serving stack — Predictor (compiled program + context cache) behind a
// BatchServer wave dispatcher behind an epoll RpcServer on a loopback
// port — and then queries it like a remote client would: length-prefixed
// binary frames over a real socket, responses matched by request id.
// Finally it overloads a deliberately tiny admission queue to show explicit
// load shedding (OVERLOADED responses) instead of unbounded queueing.
//
// Build & run:  ./build/examples/rpc_serving [--scale=0.3] [--port=0]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/seqfm.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "serve/predictor.h"
#include "serve/protocol.h"
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
  const size_t epochs = static_cast<size_t>(flags.GetInt("epochs", 5));
  const uint16_t port = static_cast<uint16_t>(flags.GetInt("port", 0));

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
  model_config.keep_prob = 0.9f;
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

  // The serving stack, bottom-up. The RpcServer owns no scoring: the epoll
  // loop only moves bytes, the BatchServer's dispatcher fuses concurrent
  // requests into multi-user waves on the thread pool.
  serve::PredictorOptions pred_opts;
  pred_opts.context_cache_bytes = 16 << 20;
  serve::Predictor predictor(&model, &builder, pred_opts);
  serve::BatchServerOptions batch_opts;
  batch_opts.max_queue_requests = 1024;  // bounded admission from day one
  serve::BatchServer batch(&predictor, batch_opts);
  serve::RpcServerOptions rpc_opts;
  rpc_opts.port = port;  // 0 = ephemeral: read it back from rpc.port()
  serve::RpcServer rpc(&batch, rpc_opts);
  if (auto st = rpc.Start(); !st.ok()) {
    std::fprintf(stderr, "rpc server: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\nrpc server listening on 127.0.0.1:%u\n", rpc.port());

  // A remote client: real TCP connection, binary frames, ids echo back.
  serve::RpcClient client;
  if (auto st = client.Connect("127.0.0.1", rpc.port()); !st.ok()) {
    std::fprintf(stderr, "connect: %s\n", st.ToString().c_str());
    return 1;
  }
  std::vector<int32_t> catalog(log->num_objects());
  for (size_t o = 0; o < catalog.size(); ++o) {
    catalog[o] = static_cast<int32_t>(o);
  }
  // Each served ranking is checked, live, against in-process scoring: the
  // same items with bit-identical scores, in the same order.
  bool all_match = true;
  const size_t show_users = std::min<size_t>(3, dataset->test().size());
  for (size_t i = 0; i < show_users; ++i) {
    const auto& ex = dataset->test()[i];
    serve::RpcRequest req;
    req.id = i + 1;
    req.user = ex.user;
    req.k = 5;
    req.history = ex.history;
    req.slate = catalog;
    serve::RpcResponse resp;
    if (auto st = client.Call(req, &resp); !st.ok()) {
      std::fprintf(stderr, "call: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("  user %d -> %s, top-5:", ex.user,
                serve::RpcStatusToString(resp.status));
    for (const auto& item : resp.items) {
      std::printf(" %d(%.2f)%s", item.item, item.score,
                  item.item == ex.target ? "*" : "");
    }
    const std::vector<serve::ScoredItem> local =
        predictor.TopK(ex, catalog, req.k);
    bool match = resp.status == serve::RpcStatus::kOk &&
                 local.size() == resp.items.size();
    for (size_t r = 0; match && r < local.size(); ++r) {
      match = local[r].item == resp.items[r].item &&
              std::memcmp(&local[r].score, &resp.items[r].score,
                          sizeof(float)) == 0;
    }
    all_match = all_match && match;
    std::printf("   (* = actual next POI) [%s in-process]\n",
                match ? "bit-identical to" : "DIVERGES from");
  }
  if (!all_match) {
    std::fprintf(stderr, "served rankings diverge from in-process TopK\n");
    return 1;
  }

  // Overload demonstration: a depth-1 queue with single-request waves sheds
  // a pipelined burst — clients get an immediate OVERLOADED answer they can
  // back off on, and server memory stays bounded.
  serve::BatchServerOptions tiny_opts;
  tiny_opts.max_wave_requests = 1;
  tiny_opts.max_queue_requests = 1;
  serve::BatchServer tiny_batch(&predictor, tiny_opts);
  serve::RpcServer tiny_rpc(&tiny_batch);
  if (auto st = tiny_rpc.Start(); !st.ok()) {
    std::fprintf(stderr, "rpc server: %s\n", st.ToString().c_str());
    return 1;
  }
  serve::RpcClient burst_client;
  if (auto st = burst_client.Connect("127.0.0.1", tiny_rpc.port()); !st.ok()) {
    std::fprintf(stderr, "connect: %s\n", st.ToString().c_str());
    return 1;
  }
  const size_t burst = 32;
  for (size_t i = 0; i < burst; ++i) {
    serve::RpcRequest req;
    req.id = i;
    req.user = dataset->test()[0].user;
    req.k = 3;
    req.history = dataset->test()[0].history;
    req.slate = catalog;
    if (auto st = burst_client.Send(req); !st.ok()) {
      std::fprintf(stderr, "send: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  size_t ok = 0, shed = 0;
  for (size_t i = 0; i < burst; ++i) {
    serve::RpcResponse resp;
    if (auto st = burst_client.ReadResponse(&resp); !st.ok()) {
      std::fprintf(stderr, "read: %s\n", st.ToString().c_str());
      return 1;
    }
    (resp.status == serve::RpcStatus::kOk ? ok : shed) += 1;
  }
  std::printf("\nburst of %zu against a depth-1 queue: %zu served, %zu shed "
              "(every request answered — served + shed == submitted)\n",
              burst, ok, shed);

  const auto stats = rpc.stats();
  std::printf("main server stats: %llu frames, %llu ok, %llu shed, "
              "%llu connections\n",
              static_cast<unsigned long long>(stats.frames_received),
              static_cast<unsigned long long>(stats.requests_ok),
              static_cast<unsigned long long>(stats.requests_shed),
              static_cast<unsigned long long>(stats.connections_accepted));
  // Graceful drain: admitted requests finish, buffered responses flush.
  tiny_rpc.Shutdown();
  rpc.Shutdown();
  return 0;
}
