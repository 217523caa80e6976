// Multi-process parity suite for distributed serving: real replica
// PROCESSES (tools/replica_main.cc, fork/exec'd per test), a real
// serve::Coordinator fanning out over TCP, and bit-identity against the
// single-process reference:
//   - for 1, 2 and 3 replica processes over the same checkpoint, the
//     coordinator's merged top-K equals Predictor::TopKAll bit for bit —
//     tie-heavy catalog included, raw
//     score bits crossing process boundaries untouched;
//   - k larger than every shard's slice still merges exactly;
//   - SIGKILLing one replica degrades that fleet to PARTIAL with the
//     healthy shards' exact merge — bounded by the replica timeout, the
//     coordinator never hangs on a dead process;
//   - replicas that loaded DIFFERENT checkpoints disagree on the model
//     version fingerprint and Ready() refuses to merge across them.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/seqfm.h"
#include "data/dataset.h"
#include "serve/checkpoint.h"
#include "serve/coordinator.h"
#include "serve/predictor.h"
#include "serve/shard.h"
#include "tests/replica_process.h"
#include "tests/score_tie.h"
#include "util/logging.h"

namespace seqfm {
namespace {

using testing_util::ForceScoreTie;

using testing_util::ReplicaProcess;
using testing_util::ReplicaProcessConfig;

constexpr size_t kSeqLen = 6;
constexpr size_t kUsers = 5;
constexpr size_t kItems = 9;
constexpr size_t kDim = 8;

data::FeatureSpace SmallSpace() { return data::FeatureSpace(kUsers, kItems); }

// The replica tool builds its model from exactly these two fields (all
// other SeqFmConfig fields at their defaults); the reference model here
// must match or the parameter fingerprints — and the scores — diverge.
core::SeqFmConfig ReplicaConfig(uint64_t seed = 321) {
  core::SeqFmConfig cfg;
  cfg.embedding_dim = kDim;
  cfg.max_seq_len = kSeqLen;
  cfg.seed = seed;
  return cfg;
}

std::vector<data::SequenceExample> TestExamples() {
  std::vector<data::SequenceExample> examples(4);
  examples[0] = {/*user=*/0, /*target=*/4, /*rating=*/1.0f,
                 {1, 2, 3, 0, 5, 6, 7, 8}};
  examples[1] = {2, 6, 0.5f, {5}};
  examples[2] = {3, 0, 2.0f, {}};
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

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

/// Launch config for one replica of this suite's small fleet (the shared
/// harness in tests/replica_process.h does the fork/exec).
ReplicaProcessConfig DistReplica(const std::string& checkpoint,
                                 uint32_t shard_index, uint32_t num_shards) {
  ReplicaProcessConfig config;
  config.checkpoint = checkpoint;
  config.shard_index = shard_index;
  config.num_shards = num_shards;
  config.users = kUsers;
  config.items = kItems;
  config.dim = kDim;
  config.max_seq_len = kSeqLen;
  return config;
}

/// Writes the shared tie-heavy checkpoint once per process; returns its
/// path. Every test's replicas and reference predictor load/build from the
/// same parameters.
const std::string& SharedCheckpoint() {
  static const std::string path = [] {
    const std::string p = TempPath("serve_dist_model.bin");
    data::FeatureSpace space = SmallSpace();
    core::SeqFm model(space, ReplicaConfig());
    ForceScoreTie(&model, space, 2, 7);
    ForceScoreTie(&model, space, 2, 4);
    SEQFM_CHECK(serve::Checkpoint::Save(model, p).ok());
    return p;
  }();
  return path;
}

serve::Coordinator MakeCoordinator() {
  serve::CoordinatorOptions opts;
  opts.replica_timeout_ms = 10000;  // generous: parity, not latency, is
  opts.connect_timeout_ms = 10000;  // under test here
  return serve::Coordinator(opts);
}

class DistServingTest : public ::testing::Test {
 protected:
  DistServingTest()
      : space_(SmallSpace()), builder_(space_, kSeqLen),
        model_(space_, ReplicaConfig()) {
    SEQFM_CHECK(
        serve::Checkpoint::Load(&model_, SharedCheckpoint()).ok());
    predictor_ = std::make_unique<serve::Predictor>(&model_, &builder_);
  }

  data::FeatureSpace space_;
  data::BatchBuilder builder_;
  core::SeqFm model_;
  std::unique_ptr<serve::Predictor> predictor_;
};

TEST_F(DistServingTest, CoordinatorMatchesSingleProcessForAllFleetSizes) {
  for (uint32_t shards : {1u, 2u, 3u}) {
    std::vector<std::unique_ptr<ReplicaProcess>> fleet;
    serve::Coordinator coord = MakeCoordinator();
    for (uint32_t s = 0; s < shards; ++s) {
      fleet.push_back(std::make_unique<ReplicaProcess>());
      ASSERT_TRUE(fleet.back()->Launch(DistReplica(SharedCheckpoint(), s,
                                                   shards)))
          << "replica " << s << "/" << shards << " failed to launch";
      ASSERT_TRUE(
          coord.AddReplica("127.0.0.1", fleet.back()->port()).ok());
    }
    ASSERT_TRUE(coord.Ready().ok());
    EXPECT_EQ(coord.model_version(), serve::ParameterVersion(model_));

    for (const auto& ex : TestExamples()) {
      // k = 5 exceeds every 3-shard slice (size 3); k = kItems + 3 exceeds
      // the whole catalog.
      for (size_t k : {1ul, 5ul, kItems, kItems + 3}) {
        serve::CoordinatorResult result;
        ASSERT_TRUE(coord.TopKAll(ex, k, &result).ok());
        EXPECT_EQ(result.status, serve::RpcStatus::kOk);
        EXPECT_EQ(result.shards_merged, shards);
        const std::string ctx = "shards=" + std::to_string(shards) +
                                " user=" + std::to_string(ex.user) +
                                " k=" + std::to_string(k);
        ExpectSameRanking(result.items, predictor_->TopKAll(ex, k),
                          ctx + " vs Predictor");
      }
    }
  }
}

TEST_F(DistServingTest, KilledReplicaDegradesToPartialMergeOfSurvivors) {
  const uint32_t shards = 3;
  std::vector<std::unique_ptr<ReplicaProcess>> fleet;
  serve::Coordinator coord = MakeCoordinator();
  for (uint32_t s = 0; s < shards; ++s) {
    fleet.push_back(std::make_unique<ReplicaProcess>());
    ASSERT_TRUE(fleet.back()->Launch(DistReplica(SharedCheckpoint(), s,
                                                 shards)));
    ASSERT_TRUE(coord.AddReplica("127.0.0.1", fleet.back()->port()).ok());
  }
  ASSERT_TRUE(coord.Ready().ok());

  // Healthy first — proves the fleet works before the failure is injected.
  const data::SequenceExample ex = TestExamples()[0];
  const size_t k = 4;
  serve::CoordinatorResult healthy;
  ASSERT_TRUE(coord.TopKAll(ex, k, &healthy).ok());
  ASSERT_EQ(healthy.status, serve::RpcStatus::kOk);

  fleet[1]->Kill();  // no drain, no goodbye: shard 1 is simply gone

  serve::CoordinatorResult degraded;
  ASSERT_TRUE(coord.TopKAll(ex, k, &degraded).ok());
  EXPECT_EQ(degraded.status, serve::RpcStatus::kPartial);
  EXPECT_EQ(degraded.shards_total, shards);
  EXPECT_EQ(degraded.shards_merged, shards - 1);

  // The survivors' merge, computed in-process from the same parameters.
  const std::vector<size_t> bounds = serve::ShardBounds(kItems, shards);
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
  ExpectSameRanking(degraded.items, serve::MergeSortedRuns(runs, k),
                    "survivor merge");
}

TEST_F(DistServingTest, ReplicasOnDifferentCheckpointsAreRefused) {
  // A second checkpoint with different parameters — a fleet mid-rollout.
  const std::string other = TempPath("serve_dist_model_v2.bin");
  {
    core::SeqFm model(space_, ReplicaConfig(/*seed=*/999));
    ASSERT_TRUE(serve::Checkpoint::Save(model, other).ok());
  }

  ReplicaProcess a;
  ReplicaProcess b;
  ASSERT_TRUE(a.Launch(DistReplica(SharedCheckpoint(), 0, 2)));
  ASSERT_TRUE(b.Launch(DistReplica(other, 1, 2)));

  serve::Coordinator coord = MakeCoordinator();
  ASSERT_TRUE(coord.AddReplica("127.0.0.1", a.port()).ok());
  ASSERT_TRUE(coord.AddReplica("127.0.0.1", b.port()).ok());
  const Status st = coord.Ready();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("model version mismatch"), std::string::npos)
      << st.ToString();
  std::remove(other.c_str());
}

}  // namespace
}  // namespace seqfm
