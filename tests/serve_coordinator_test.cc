// Lockdown suite for the distributed serving coordinator
// (src/serve/coordinator.{h,cc}) and the ScoringBackend seam it merges over,
// all in one process so the suite runs clean under TSan:
//   - fleet validation in Ready(): empty fleet, model-version mismatch,
//     partition mismatch, non-canonical slice bounds, uncovered shard, more
//     announced shards than replicas — each refused with a
//     FailedPrecondition naming the inconsistency;
//   - coordinator top-K over LocalShardBackends bit-identical to
//     single-process Predictor::TopKAll for
//     shard counts {1, 2, 3}, tie-forced catalogs, and k <, ==, > catalog
//     (including k greater than every shard's slice);
//   - degradation: a failing replica yields PARTIAL with the healthy
//     shards' exact merge; a replicated shard fails over and stays OK; a
//     fully failed fleet yields the empty PARTIAL result, never a hang;
//   - user-affinity routing: a given user sticks to one replica of a
//     replicated shard group across requests;
//   - end-to-end over TCP: coordinator over in-process replica-mode
//     RpcServers (RemoteReplicaBackend transport) matches the local fleet.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/seqfm.h"
#include "data/dataset.h"
#include "serve/backend.h"
#include "serve/checkpoint.h"
#include "serve/coordinator.h"
#include "serve/predictor.h"
#include "serve/rpc_server.h"
#include "serve/server.h"
#include "serve/shard.h"
#include "tests/score_tie.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace seqfm {
namespace {

using testing_util::ForceScoreTie;

constexpr size_t kSeqLen = 6;

data::FeatureSpace SmallSpace() { return data::FeatureSpace(5, 9); }

core::SeqFmConfig SmallSeqFmConfig(uint64_t seed = 321) {
  core::SeqFmConfig cfg;
  cfg.embedding_dim = 8;
  cfg.max_seq_len = kSeqLen;
  cfg.ffn_layers = 2;
  cfg.keep_prob = 1.0f;
  cfg.seed = seed;
  return cfg;
}

std::vector<data::SequenceExample> TestExamples() {
  std::vector<data::SequenceExample> examples(4);
  examples[0] = {/*user=*/0, /*target=*/4, /*rating=*/1.0f,
                 {1, 2, 3, 0, 5, 6, 7, 8}};  // longer than kSeqLen
  examples[1] = {2, 6, 0.5f, {5}};           // single-item history
  examples[2] = {3, 0, 2.0f, {}};            // cold start
  examples[3] = {4, 8, 4.0f, {8, 7, 6}};
  return examples;
}

void ExpectSameRanking(const std::vector<serve::ScoredItem>& got,
                       const std::vector<serve::ScoredItem>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << context << " rank " << i;
    EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score, sizeof(float)), 0)
        << context << " rank " << i;
  }
}

serve::ReplicaInfo InfoForShard(uint32_t shard, uint32_t num_shards,
                                size_t catalog, uint64_t version) {
  const std::vector<size_t> bounds = serve::ShardBounds(catalog, num_shards);
  serve::ReplicaInfo info;
  info.shard_index = shard;
  info.num_shards = num_shards;
  info.shard_begin = bounds[shard];
  info.shard_end = bounds[shard + 1];
  info.catalog_size = catalog;
  info.model_version = version;
  return info;
}

/// Backend that fails every batch — a dead replica as the coordinator's
/// fan-out workers see one.
class FailingBackend : public serve::ScoringBackend {
 public:
  Status ScoreTopK(const std::vector<serve::ScoreJob>&,
                   std::vector<std::vector<serve::RankEntry>>*) override {
    return Status::IoError("injected replica failure");
  }
};

/// Delegating backend that counts how many batches it served — the probe
/// for affinity routing.
class CountingBackend : public serve::ScoringBackend {
 public:
  CountingBackend(serve::ScoringBackend* inner, int* calls)
      : inner_(inner), calls_(calls) {}
  Status ScoreTopK(
      const std::vector<serve::ScoreJob>& jobs,
      std::vector<std::vector<serve::RankEntry>>* results) override {
    ++*calls_;
    return inner_->ScoreTopK(jobs, results);
  }

 private:
  serve::ScoringBackend* inner_;
  int* calls_;
};

/// A fixture owning one trained-ish model + predictor with a forced score
/// tie, shared by the parity and degradation tests.
class CoordinatorFleetTest : public ::testing::Test {
 protected:
  CoordinatorFleetTest()
      : space_(SmallSpace()),
        builder_(space_, kSeqLen),
        model_(space_, SmallSeqFmConfig()) {
    ForceScoreTie(&model_, space_, 2, 7);
    ForceScoreTie(&model_, space_, 2, 4);  // three-way tie across shards
    predictor_ = std::make_unique<serve::Predictor>(&model_, &builder_);
  }

  /// Coordinator over num_shards LocalShardBackends (one per shard, all on
  /// the one predictor — each backend only ever sees its shard's jobs).
  std::unique_ptr<serve::Coordinator> LocalFleet(uint32_t num_shards,
                                                 uint64_t version = 7) {
    auto coord = std::make_unique<serve::Coordinator>();
    for (uint32_t s = 0; s < num_shards; ++s) {
      EXPECT_TRUE(
          coord
              ->AddBackend(
                  std::make_unique<serve::LocalShardBackend>(predictor_.get()),
                  InfoForShard(s, num_shards, space_.num_objects(), version))
              .ok());
    }
    EXPECT_TRUE(coord->Ready().ok());
    return coord;
  }

  data::FeatureSpace space_;
  data::BatchBuilder builder_;
  core::SeqFm model_;
  std::unique_ptr<serve::Predictor> predictor_;
};

// ---------------------------------------------------------------------------
// Ready(): fleet validation
// ---------------------------------------------------------------------------

TEST_F(CoordinatorFleetTest, EmptyFleetIsRefused) {
  serve::Coordinator coord;
  const Status st = coord.Ready();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("empty fleet"), std::string::npos);
}

TEST_F(CoordinatorFleetTest, ModelVersionMismatchIsRefused) {
  serve::Coordinator coord;
  ASSERT_TRUE(coord
                  .AddBackend(std::make_unique<serve::LocalShardBackend>(
                                  predictor_.get()),
                              InfoForShard(0, 2, space_.num_objects(), 7))
                  .ok());
  ASSERT_TRUE(coord
                  .AddBackend(std::make_unique<serve::LocalShardBackend>(
                                  predictor_.get()),
                              InfoForShard(1, 2, space_.num_objects(), 8))
                  .ok());
  const Status st = coord.Ready();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("model version mismatch"), std::string::npos);
}

TEST_F(CoordinatorFleetTest, UncoveredShardIsRefused) {
  // Three replicas for three shards, but shard 0 is replicated and shard 1
  // has nobody.
  serve::Coordinator coord;
  for (int replica = 0; replica < 2; ++replica) {
    ASSERT_TRUE(coord
                    .AddBackend(std::make_unique<serve::LocalShardBackend>(
                                    predictor_.get()),
                                InfoForShard(0, 3, space_.num_objects(), 7))
                    .ok());
  }
  ASSERT_TRUE(coord
                  .AddBackend(std::make_unique<serve::LocalShardBackend>(
                                  predictor_.get()),
                              InfoForShard(2, 3, space_.num_objects(), 7))
                  .ok());
  const Status st = coord.Ready();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("shard 1"), std::string::npos);
  EXPECT_NE(st.ToString().find("no replica"), std::string::npos);
}

TEST_F(CoordinatorFleetTest, NonCanonicalSliceIsRefused) {
  serve::Coordinator coord;
  serve::ReplicaInfo info = InfoForShard(0, 2, space_.num_objects(), 7);
  info.shard_end -= 1;  // claims less than the canonical slice
  ASSERT_TRUE(coord
                  .AddBackend(std::make_unique<serve::LocalShardBackend>(
                                  predictor_.get()),
                              info)
                  .ok());
  ASSERT_TRUE(coord
                  .AddBackend(std::make_unique<serve::LocalShardBackend>(
                                  predictor_.get()),
                              InfoForShard(1, 2, space_.num_objects(), 7))
                  .ok());
  const Status st = coord.Ready();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("canonical slice"), std::string::npos);
}

TEST_F(CoordinatorFleetTest, PartitionMismatchIsRefused) {
  serve::Coordinator coord;
  ASSERT_TRUE(coord
                  .AddBackend(std::make_unique<serve::LocalShardBackend>(
                                  predictor_.get()),
                              InfoForShard(0, 2, space_.num_objects(), 7))
                  .ok());
  ASSERT_TRUE(coord
                  .AddBackend(std::make_unique<serve::LocalShardBackend>(
                                  predictor_.get()),
                              InfoForShard(1, 3, space_.num_objects(), 7))
                  .ok());
  const Status st = coord.Ready();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("partition mismatch"), std::string::npos);
}

TEST_F(CoordinatorFleetTest, MoreShardsThanReplicasIsRefused) {
  // num_shards arrives off the wire (HELLO_ACK) and AddBackend only checks
  // it is nonzero. A replica announcing 2^32 - 1 shards must be refused
  // before Ready() materializes a partition of that many shards.
  serve::ReplicaInfo info;
  info.shard_index = 0;
  info.num_shards = UINT32_MAX;
  info.shard_begin = 0;
  info.shard_end = 0;
  info.catalog_size = space_.num_objects();
  info.model_version = 7;
  serve::Coordinator coord;
  ASSERT_TRUE(
      coord.AddBackend(std::make_unique<FailingBackend>(), info).ok());
  const Status st = coord.Ready();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_NE(st.ToString().find("not fully covered"), std::string::npos);
}

TEST_F(CoordinatorFleetTest, UsageErrorsAreFailedPrecondition) {
  serve::Coordinator coord;
  serve::CoordinatorResult result;
  EXPECT_FALSE(coord.TopKAll(TestExamples()[0], 3, &result).ok());

  auto fleet = LocalFleet(2);
  EXPECT_FALSE(fleet
                   ->AddBackend(std::make_unique<serve::LocalShardBackend>(
                                    predictor_.get()),
                                InfoForShard(0, 2, space_.num_objects(), 7))
                   .ok())
      << "the fleet is frozen after Ready()";
}

// ---------------------------------------------------------------------------
// Parity: coordinator merge == single-process serving, bit for bit
// ---------------------------------------------------------------------------

TEST_F(CoordinatorFleetTest, TopKAllMatchesSingleProcessForAllShardCounts) {
  for (uint32_t shards : {1u, 2u, 3u}) {
    auto coord = LocalFleet(shards);
    EXPECT_EQ(coord->num_shards(), shards);
    EXPECT_EQ(coord->catalog_size(), space_.num_objects());
    for (const auto& ex : TestExamples()) {
      // k below, at, and beyond the catalog; 5 > every 3-shard slice (3).
      for (size_t k : {1ul, 5ul, space_.num_objects(),
                       space_.num_objects() + 4}) {
        const std::vector<serve::ScoredItem> want =
            predictor_->TopKAll(ex, k);
        serve::CoordinatorResult result;
        ASSERT_TRUE(coord->TopKAll(ex, k, &result).ok());
        EXPECT_EQ(result.status, serve::RpcStatus::kOk);
        EXPECT_EQ(result.shards_total, shards);
        EXPECT_EQ(result.shards_merged, shards);
        ExpectSameRanking(result.items, want,
                          "shards=" + std::to_string(shards) +
                              " user=" + std::to_string(ex.user) +
                              " k=" + std::to_string(k));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Degradation: replica failure yields PARTIAL, failover keeps OK
// ---------------------------------------------------------------------------

TEST_F(CoordinatorFleetTest, FailedShardDegradesToPartialMergeOfTheRest) {
  const uint32_t shards = 3;
  serve::Coordinator coord;
  for (uint32_t s = 0; s < shards; ++s) {
    std::unique_ptr<serve::ScoringBackend> backend;
    if (s == 1) {
      backend = std::make_unique<FailingBackend>();
    } else {
      backend = std::make_unique<serve::LocalShardBackend>(predictor_.get());
    }
    ASSERT_TRUE(coord
                    .AddBackend(std::move(backend),
                                InfoForShard(s, shards, space_.num_objects(),
                                             7))
                    .ok());
  }
  ASSERT_TRUE(coord.Ready().ok());

  const data::SequenceExample ex = TestExamples()[0];
  const size_t k = 4;
  serve::CoordinatorResult result;
  ASSERT_TRUE(coord.TopKAll(ex, k, &result).ok());
  EXPECT_EQ(result.status, serve::RpcStatus::kPartial);
  EXPECT_EQ(result.shards_total, shards);
  EXPECT_EQ(result.shards_merged, shards - 1);

  // The degraded answer is the EXACT merge of the healthy shards — shard 1
  // contributes an empty run, nothing else moves.
  const std::vector<size_t> bounds =
      serve::ShardBounds(space_.num_objects(), shards);
  serve::LocalShardBackend local(predictor_.get());
  std::vector<serve::ScoreJob> jobs;
  for (uint32_t s = 0; s < shards; ++s) {
    if (s == 1) continue;
    serve::ScoreJob job;
    job.ex = &ex;
    job.begin = bounds[s];
    job.end = bounds[s + 1];
    job.k = std::min(k, job.end - job.begin);
    jobs.push_back(job);
  }
  std::vector<std::vector<serve::RankEntry>> runs;
  ASSERT_TRUE(local.ScoreTopK(jobs, &runs).ok());
  const std::vector<serve::ScoredItem> want =
      serve::MergeSortedRuns(runs, k);
  ExpectSameRanking(result.items, want, "healthy-shard merge");
}

TEST_F(CoordinatorFleetTest, ReplicatedShardFailsOverAndStaysOk) {
  serve::Coordinator coord;
  // Shard 0 has two replicas — one dead, one healthy — in BOTH group
  // orders, so whichever the affinity pick tries first, the worker ends on
  // the healthy one.
  ASSERT_TRUE(coord
                  .AddBackend(std::make_unique<FailingBackend>(),
                              InfoForShard(0, 2, space_.num_objects(), 7))
                  .ok());
  ASSERT_TRUE(coord
                  .AddBackend(std::make_unique<serve::LocalShardBackend>(
                                  predictor_.get()),
                              InfoForShard(0, 2, space_.num_objects(), 7))
                  .ok());
  ASSERT_TRUE(coord
                  .AddBackend(std::make_unique<serve::LocalShardBackend>(
                                  predictor_.get()),
                              InfoForShard(1, 2, space_.num_objects(), 7))
                  .ok());
  ASSERT_TRUE(coord.Ready().ok());

  for (const auto& ex : TestExamples()) {
    serve::CoordinatorResult result;
    ASSERT_TRUE(coord.TopKAll(ex, 4, &result).ok());
    EXPECT_EQ(result.status, serve::RpcStatus::kOk)
        << "failover must keep the request whole";
    EXPECT_EQ(result.shards_merged, 2u);
    ExpectSameRanking(result.items, predictor_->TopKAll(ex, 4),
                      "failover parity user=" + std::to_string(ex.user));
  }
}

TEST_F(CoordinatorFleetTest, FullyFailedFleetYieldsEmptyPartialNotAHang) {
  serve::Coordinator coord;
  for (uint32_t s = 0; s < 2; ++s) {
    ASSERT_TRUE(coord
                    .AddBackend(std::make_unique<FailingBackend>(),
                                InfoForShard(s, 2, space_.num_objects(), 7))
                    .ok());
  }
  ASSERT_TRUE(coord.Ready().ok());
  serve::CoordinatorResult result;
  ASSERT_TRUE(coord.TopKAll(TestExamples()[0], 3, &result).ok());
  EXPECT_EQ(result.status, serve::RpcStatus::kPartial);
  EXPECT_EQ(result.shards_merged, 0u);
  EXPECT_TRUE(result.items.empty());
}

TEST_F(CoordinatorFleetTest, SameUserSticksToOneReplicaOfAGroup) {
  serve::LocalShardBackend inner(predictor_.get());
  int calls_a = 0;
  int calls_b = 0;
  serve::Coordinator coord;
  ASSERT_TRUE(coord
                  .AddBackend(std::make_unique<CountingBackend>(&inner,
                                                                &calls_a),
                              InfoForShard(0, 1, space_.num_objects(), 7))
                  .ok());
  ASSERT_TRUE(coord
                  .AddBackend(std::make_unique<CountingBackend>(&inner,
                                                                &calls_b),
                              InfoForShard(0, 1, space_.num_objects(), 7))
                  .ok());
  ASSERT_TRUE(coord.Ready().ok());

  const data::SequenceExample ex = TestExamples()[0];
  for (int i = 0; i < 5; ++i) {
    serve::CoordinatorResult result;
    ASSERT_TRUE(coord.TopKAll(ex, 3, &result).ok());
    EXPECT_EQ(result.status, serve::RpcStatus::kOk);
  }
  // All five requests landed on the same replica (its context cache stays
  // hot for this user); which of the two is the pick is the hash's choice.
  EXPECT_EQ(calls_a == 0 ? calls_b : calls_a, 5);
  EXPECT_EQ(calls_a == 0 ? calls_a : calls_b, 0);
}

// ---------------------------------------------------------------------------
// End-to-end over TCP: RemoteReplicaBackend against replica-mode RpcServers
// ---------------------------------------------------------------------------

TEST_F(CoordinatorFleetTest, CoordinatorOverTcpReplicasMatchesLocalServing) {
  const uint32_t shards = 2;
  const uint64_t version = serve::ParameterVersion(model_);

  std::vector<std::unique_ptr<serve::BatchServer>> batches;
  std::vector<std::unique_ptr<serve::RpcServer>> servers;
  for (uint32_t s = 0; s < shards; ++s) {
    batches.push_back(std::make_unique<serve::BatchServer>(predictor_.get()));
    serve::RpcServerOptions opts;
    opts.port = 0;
    opts.catalog_size = space_.num_objects();
    opts.shard_index = s;
    opts.num_shards = shards;
    opts.model_version = version;
    servers.push_back(
        std::make_unique<serve::RpcServer>(batches.back().get(), opts));
    ASSERT_TRUE(servers.back()->Start().ok());
  }

  serve::CoordinatorOptions copts;
  copts.replica_timeout_ms = 5000;
  copts.connect_timeout_ms = 5000;
  serve::Coordinator coord(copts);
  for (auto& server : servers) {
    ASSERT_TRUE(coord.AddReplica("127.0.0.1", server->port()).ok());
  }
  ASSERT_TRUE(coord.Ready().ok());
  EXPECT_EQ(coord.model_version(), version);

  for (const auto& ex : TestExamples()) {
    for (size_t k : {1ul, 4ul, space_.num_objects()}) {
      const std::vector<serve::ScoredItem> want = predictor_->TopKAll(ex, k);
      serve::CoordinatorResult result;
      ASSERT_TRUE(coord.TopKAll(ex, k, &result).ok());
      EXPECT_EQ(result.status, serve::RpcStatus::kOk);
      ExpectSameRanking(result.items, want,
                        "tcp user=" + std::to_string(ex.user) +
                            " k=" + std::to_string(k));
    }
  }

  for (auto& server : servers) server->Shutdown();
}

// ---------------------------------------------------------------------------
// Self-healing: circuit breaker, retry budget, slow-replica ejection
// ---------------------------------------------------------------------------

/// Backend whose health is a switch: fails while *dead_ is set, otherwise
/// delegates — a replica that dies and later recovers.
class SwitchableBackend : public serve::ScoringBackend {
 public:
  SwitchableBackend(serve::ScoringBackend* inner, bool* dead)
      : inner_(inner), dead_(dead) {}
  Status ScoreTopK(
      const std::vector<serve::ScoreJob>& jobs,
      std::vector<std::vector<serve::RankEntry>>* results) override {
    if (*dead_) return Status::IoError("injected: replica down");
    return inner_->ScoreTopK(jobs, results);
  }

 private:
  serve::ScoringBackend* inner_;
  bool* dead_;
};

TEST_F(CoordinatorFleetTest, CircuitBreakerEjectsProbesAndReadmits) {
  // One shard, one switchable member: the breaker's full lifecycle in
  // isolation — CLOSED -> OPEN after two consecutive failures, a failed
  // half-open probe re-opens, a successful one readmits.
  bool dead = true;
  serve::CoordinatorOptions opts;
  opts.max_consecutive_failures = 2;
  opts.circuit_open_ms = 50;
  serve::Coordinator coord(opts);
  serve::LocalShardBackend local(predictor_.get());
  ASSERT_TRUE(coord
                  .AddBackend(std::make_unique<SwitchableBackend>(&local,
                                                                  &dead),
                              InfoForShard(0, 1, space_.num_objects(), 7))
                  .ok());
  ASSERT_TRUE(coord.Ready().ok());
  const data::SequenceExample ex = TestExamples()[0];

  for (int i = 0; i < 2; ++i) {
    serve::CoordinatorResult result;
    ASSERT_TRUE(coord.TopKAll(ex, 4, &result).ok());
    EXPECT_EQ(result.status, serve::RpcStatus::kPartial);
  }
  {
    const serve::CoordinatorStats cs = coord.stats();
    EXPECT_EQ(cs.circuit_opens, 1u);
    EXPECT_EQ(cs.half_open_probes, 0u);
  }

  // Window expired, member still dead: the next request is the half-open
  // trial, and its failure re-opens the circuit for another window.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  {
    serve::CoordinatorResult result;
    ASSERT_TRUE(coord.TopKAll(ex, 4, &result).ok());
    EXPECT_EQ(result.status, serve::RpcStatus::kPartial);
    const serve::CoordinatorStats cs = coord.stats();
    EXPECT_EQ(cs.half_open_probes, 1u);
    EXPECT_EQ(cs.circuit_reopens, 1u);
    EXPECT_EQ(cs.circuit_closes, 0u);
  }

  // Member recovers: the next probe succeeds, closes the circuit, and the
  // request it rode is answered OK bit-identical to the reference.
  dead = false;
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  {
    serve::CoordinatorResult result;
    ASSERT_TRUE(coord.TopKAll(ex, 4, &result).ok());
    EXPECT_EQ(result.status, serve::RpcStatus::kOk);
    ExpectSameRanking(result.items, predictor_->TopKAll(ex, 4),
                      "probe readmission");
    const serve::CoordinatorStats cs = coord.stats();
    EXPECT_EQ(cs.half_open_probes, 2u);
    EXPECT_EQ(cs.circuit_closes, 1u);
  }

  // Readmitted for real: ordinary traffic flows again.
  serve::CoordinatorResult result;
  ASSERT_TRUE(coord.TopKAll(ex, 4, &result).ok());
  EXPECT_EQ(result.status, serve::RpcStatus::kOk);
}

TEST_F(CoordinatorFleetTest, RetryBudgetCapsFailoverAmplification) {
  // A shard group of two permanently failing members: every request wants a
  // failover, but only `burst` of them may get one — a mass outage must not
  // multiply traffic by the group size.
  serve::CoordinatorOptions opts;
  opts.retry_budget_ratio = 0.0;  // isolate the burst term
  opts.retry_budget_burst = 2;
  opts.max_consecutive_failures = 100;  // keep the breaker out of the way
  serve::Coordinator coord(opts);
  FailingBackend fail_a, fail_b;
  int calls_a = 0, calls_b = 0;
  const serve::ReplicaInfo info =
      InfoForShard(0, 1, space_.num_objects(), 7);
  ASSERT_TRUE(
      coord.AddBackend(std::make_unique<CountingBackend>(&fail_a, &calls_a),
                       info)
          .ok());
  ASSERT_TRUE(
      coord.AddBackend(std::make_unique<CountingBackend>(&fail_b, &calls_b),
                       info)
          .ok());
  ASSERT_TRUE(coord.Ready().ok());

  const data::SequenceExample ex = TestExamples()[0];
  for (int i = 0; i < 5; ++i) {
    serve::CoordinatorResult result;
    ASSERT_TRUE(coord.TopKAll(ex, 4, &result).ok());
    EXPECT_EQ(result.status, serve::RpcStatus::kPartial);
  }
  // 5 first attempts (free) + exactly `burst` failovers; the other 3
  // failovers are denied, so the shard is declared lost early instead of
  // doubling the traffic of every request.
  EXPECT_EQ(calls_a + calls_b, 7);
  const serve::CoordinatorStats cs = coord.stats();
  EXPECT_EQ(cs.shard_attempts, 5u);
  EXPECT_EQ(cs.retries, 2u);
  EXPECT_EQ(cs.retries_denied, 3u);
}

TEST_F(CoordinatorFleetTest, SlowReplicaTimesOutIsEjectedAndFailsOver) {
  // One shard served by TWO in-process TCP replicas. The first shard
  // request in the process is blackholed (rpc.server.shard.drop: accepted,
  // never answered) — the affinity replica "hangs", only the io timeout can
  // surface it, and the worker must fail over to the twin within the
  // per-replica budget instead of hanging.
  const uint64_t version = serve::ParameterVersion(model_);
  std::vector<std::unique_ptr<serve::BatchServer>> batches;
  std::vector<std::unique_ptr<serve::RpcServer>> servers;
  for (int r = 0; r < 2; ++r) {
    batches.push_back(std::make_unique<serve::BatchServer>(predictor_.get()));
    serve::RpcServerOptions sopts;
    sopts.port = 0;
    sopts.catalog_size = space_.num_objects();
    sopts.shard_index = 0;
    sopts.num_shards = 1;
    sopts.model_version = version;
    servers.push_back(
        std::make_unique<serve::RpcServer>(batches.back().get(), sopts));
    ASSERT_TRUE(servers.back()->Start().ok());
  }

  serve::CoordinatorOptions copts;
  copts.replica_timeout_ms = 300;  // the bound a blackholed request costs
  copts.connect_timeout_ms = 5000;
  copts.max_consecutive_failures = 1;  // a single timeout ejects
  copts.circuit_open_ms = 10000;       // and it stays ejected for this test
  serve::Coordinator coord(copts);
  for (auto& server : servers) {
    ASSERT_TRUE(coord.AddReplica("127.0.0.1", server->port()).ok());
  }
  ASSERT_TRUE(coord.Ready().ok());

  util::ScopedFailPoint drop("rpc.server.shard.drop", [] {
    util::FailPoint::Spec spec;
    spec.mode = util::FailPoint::Mode::kNth;
    spec.n = 1;
    return spec;
  }());

  const data::SequenceExample ex = TestExamples()[0];
  const auto t0 = std::chrono::steady_clock::now();
  serve::CoordinatorResult result;
  ASSERT_TRUE(coord.TopKAll(ex, 4, &result).ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  // The failover saved the request: OK, bit-identical, and bounded — one io
  // timeout plus the healthy twin's work, nowhere near a hang.
  EXPECT_EQ(result.status, serve::RpcStatus::kOk);
  ExpectSameRanking(result.items, predictor_->TopKAll(ex, 4),
                    "slow-replica failover");
  EXPECT_LT(elapsed.count(), 5000);
  EXPECT_EQ(util::FailPoint::Stats("rpc.server.shard.drop").failures, 1u);
  {
    const serve::CoordinatorStats cs = coord.stats();
    EXPECT_EQ(cs.retries, 1u);
    EXPECT_EQ(cs.circuit_opens, 1u);  // the slow member is ejected...
  }

  // ...so the next request routes straight to the healthy twin: no new
  // timeout, no new retry, still OK.
  serve::CoordinatorResult next;
  ASSERT_TRUE(coord.TopKAll(ex, 4, &next).ok());
  EXPECT_EQ(next.status, serve::RpcStatus::kOk);
  ExpectSameRanking(next.items, predictor_->TopKAll(ex, 4), "post-ejection");
  {
    const serve::CoordinatorStats cs = coord.stats();
    EXPECT_EQ(cs.retries, 1u);
    EXPECT_EQ(cs.circuit_opens, 1u);
  }

  for (auto& server : servers) server->Shutdown();
}

}  // namespace
}  // namespace seqfm
