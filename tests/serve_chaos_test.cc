// Chaos suite for the self-healing serving fleet: real replica processes,
// a real serve::Coordinator, and SEEDED randomized fault schedules injected
// through util::FailPoint at the transport and checkpoint I/O boundaries.
// Every run asserts the three chaos invariants:
//   1. never wrong bits — every answer the coordinator reports as OK is
//      bit-identical to the fault-free single-process reference
//      (Predictor::TopKAll over the same checkpoint);
//   2. never a hang — every request completes within its timeouts (the
//      suite's ctest TIMEOUT is the backstop; blackholed requests are
//      bounded by the replica io timeout);
//   3. exact accounting — ok + partial + failed == submitted, with zero
//      `failed` (transport faults must degrade to PARTIAL, never to a
//      Status error after Ready()).
// Plus full recovery: once schedules disarm, the fleet must return to OK
// bit-identical answers; and a SIGKILLed replica restarted on the SAME port
// must be readmitted by the circuit breaker's half-open probe.
//
// Seeds come from SEQFM_CHAOS_SEEDS (comma-separated; default "7") so CI
// can sweep; every run appends its schedule + outcome to SEQFM_CHAOS_LOG
// (default $TMPDIR/serve_chaos_schedule.log) for artifact upload on failure.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/seqfm.h"
#include "data/dataset.h"
#include "serve/checkpoint.h"
#include "serve/coordinator.h"
#include "serve/predictor.h"
#include "tests/replica_process.h"
#include "tests/score_tie.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace seqfm {
namespace {

using testing_util::ForceScoreTie;

using testing_util::ReplicaProcess;
using testing_util::ReplicaProcessConfig;
using util::FailPoint;

constexpr size_t kSeqLen = 6;
constexpr size_t kUsers = 5;
constexpr size_t kItems = 9;
constexpr size_t kDim = 8;

data::FeatureSpace SmallSpace() { return data::FeatureSpace(kUsers, kItems); }

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

const std::string& SharedCheckpoint() {
  static const std::string path = [] {
    const std::string p = TempPath("serve_chaos_model.bin");
    data::FeatureSpace space = SmallSpace();
    core::SeqFm model(space, ReplicaConfig());
    ForceScoreTie(&model, space, 2, 7);
    ForceScoreTie(&model, space, 2, 4);
    SEQFM_CHECK(serve::Checkpoint::Save(model, p).ok());
    return p;
  }();
  return path;
}

/// Seeds to sweep, from SEQFM_CHAOS_SEEDS ("1,2,3"); default one seed so the
/// suite stays fast locally while CI can widen the sweep.
std::vector<uint64_t> ChaosSeeds() {
  std::vector<uint64_t> seeds;
  const char* env = std::getenv("SEQFM_CHAOS_SEEDS");
  const std::string text(env != nullptr && env[0] != '\0' ? env : "7");
  for (size_t begin = 0; begin <= text.size();) {
    const size_t comma = text.find(',', begin);
    const size_t end = comma == std::string::npos ? text.size() : comma;
    const std::string one = text.substr(begin, end - begin);
    if (!one.empty()) {
      char* endp = nullptr;
      const unsigned long long v = std::strtoull(one.c_str(), &endp, 10);
      if (endp == one.c_str() + one.size()) {
        seeds.push_back(static_cast<uint64_t>(v));
      }
    }
    begin = end + 1;
    if (comma == std::string::npos) break;
  }
  if (seeds.empty()) seeds.push_back(7);
  return seeds;
}

/// Appends one line to the chaos log — the artifact CI uploads when a seeded
/// run fails, so the exact schedule that broke an invariant is recoverable.
void LogSchedule(const std::string& line) {
  const char* env = std::getenv("SEQFM_CHAOS_LOG");
  const std::string path =
      (env != nullptr && env[0] != '\0') ? env
                                         : TempPath("serve_chaos_schedule.log");
  std::ofstream out(path, std::ios::app);
  out << line << "\n";
}

constexpr int kNumSchedules = 3;

const char* ScheduleName(int schedule) {
  switch (schedule) {
    case 0: return "conn-drops";
    case 1: return "torn-frames";
    default: return "mixed";
  }
}

/// Client-side fault schedule: the sites armed in THIS process, hitting the
/// coordinator's RpcClients. All probability-mode, so every fail/pass
/// decision is a pure function of (derived seed, hit index).
std::vector<std::pair<std::string, FailPoint::Spec>> ScheduleSites(
    int schedule, uint64_t seed) {
  auto prob = [&](double p, uint64_t salt) {
    FailPoint::Spec spec;
    spec.mode = FailPoint::Mode::kProb;
    spec.p = p;
    spec.seed = seed * 1315423911ull + salt;
    return spec;
  };
  switch (schedule) {
    case 0:  // connection drops: sends and reads fail, sockets close
      return {{"rpc.client.send", prob(0.08, 1)},
              {"rpc.client.read", prob(0.08, 2)}};
    case 1:  // torn frames poison the stream; reconnect handshakes flake
      return {{"rpc.frame.torn", prob(0.05, 3)},
              {"rpc.client.hello", prob(0.25, 4)}};
    default:  // everything at once, including reconnect failures
      return {{"rpc.client.send", prob(0.05, 5)},
              {"rpc.client.read", prob(0.05, 6)},
              {"rpc.frame.torn", prob(0.03, 7)},
              {"rpc.client.connect", prob(0.30, 8)}};
  }
}

/// Server-side fault schedule, shipped to replica processes via their
/// SEQFM_FAILPOINTS environment: the "mixed" schedule blackholes a bounded
/// number of shard requests (the replica accepts and never answers), so the
/// io-timeout path runs under chaos too. limit=1 keeps the wall-clock cost
/// at one timeout per replica.
std::string ScheduleReplicaFailpoints(int schedule, uint64_t seed) {
  if (schedule != 2) return "";
  return "rpc.server.shard.drop=prob:0.15:seed=" +
         std::to_string(seed * 2654435761ull + 99) + ":limit=1";
}

ReplicaProcessConfig ChaosReplica(const std::string& checkpoint,
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

serve::Coordinator MakeChaosCoordinator() {
  serve::CoordinatorOptions opts;
  opts.replica_timeout_ms = 800;  // bounds a blackholed request
  opts.connect_timeout_ms = 5000;
  opts.max_consecutive_failures = 2;  // eject fast under injected faults
  opts.circuit_open_ms = 100;         // and probe for readmission fast
  opts.retry_budget_burst = 16;
  return serve::Coordinator(opts);
}

class ChaosServingTest : public ::testing::Test {
 protected:
  ChaosServingTest()
      : space_(SmallSpace()), builder_(space_, kSeqLen),
        model_(space_, ReplicaConfig()) {
    SEQFM_CHECK(serve::Checkpoint::Load(&model_, SharedCheckpoint()).ok());
    predictor_ = std::make_unique<serve::Predictor>(&model_, &builder_);
  }
  ~ChaosServingTest() override { FailPoint::DisarmAll(); }

  data::FeatureSpace space_;
  data::BatchBuilder builder_;
  core::SeqFm model_;
  std::unique_ptr<serve::Predictor> predictor_;
};

TEST_F(ChaosServingTest, FleetInvariantsHoldUnderSeededFaultSchedules) {
  // Fleet shapes: unreplicated 1- and 3-shard fleets (a shard failure is a
  // PARTIAL), plus a 2-shards-x-2-replicas fleet where failover inside the
  // group can still save the request (and spends the retry budget).
  const std::vector<std::pair<uint32_t, uint32_t>> shapes = {
      {1, 1}, {3, 1}, {2, 2}};
  const std::vector<data::SequenceExample> examples = TestExamples();

  for (const uint64_t seed : ChaosSeeds()) {
    for (const auto& [shards, replicas_per_shard] : shapes) {
      for (int schedule = 0; schedule < kNumSchedules; ++schedule) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " shards=" +
                     std::to_string(shards) + "x" +
                     std::to_string(replicas_per_shard) + " schedule=" +
                     ScheduleName(schedule));
        const std::string replica_faults =
            ScheduleReplicaFailpoints(schedule, seed);
        std::vector<std::unique_ptr<ReplicaProcess>> fleet;
        serve::Coordinator coord = MakeChaosCoordinator();
        for (uint32_t s = 0; s < shards; ++s) {
          for (uint32_t r = 0; r < replicas_per_shard; ++r) {
            ReplicaProcessConfig config =
                ChaosReplica(SharedCheckpoint(), s, shards);
            config.failpoints = replica_faults;
            fleet.push_back(std::make_unique<ReplicaProcess>());
            ASSERT_TRUE(fleet.back()->Launch(config));
            ASSERT_TRUE(
                coord.AddReplica("127.0.0.1", fleet.back()->port()).ok());
          }
        }
        ASSERT_TRUE(coord.Ready().ok());

        // Baseline first: the fleet must serve an OK bit-identical answer
        // before client-side chaos is armed. Server-side schedules (the
        // "mixed" replica blackhole) are already live from replica startup
        // but limit-bounded, so retrying converges to OK.
        const data::SequenceExample& ex0 = examples[0];
        const auto base_deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        bool base_ok = false;
        while (std::chrono::steady_clock::now() < base_deadline) {
          serve::CoordinatorResult base;
          ASSERT_TRUE(coord.TopKAll(ex0, 4, &base).ok());
          if (base.status == serve::RpcStatus::kOk) {
            ExpectSameRanking(base.items, predictor_->TopKAll(ex0, 4),
                              "baseline");
            base_ok = true;
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        ASSERT_TRUE(base_ok) << "fleet never served an OK baseline";

        const auto sites = ScheduleSites(schedule, seed);
        for (const auto& [site, spec] : sites) FailPoint::Arm(site, spec);

        uint64_t submitted = 0, ok = 0, partial = 0, failed = 0;
        for (int round = 0; round < 2; ++round) {
          for (const auto& ex : examples) {
            for (size_t k : {size_t{1}, size_t{4}, kItems}) {
              ++submitted;
              serve::CoordinatorResult result;
              const Status st = coord.TopKAll(ex, k, &result);
              if (!st.ok()) {
                ++failed;
                continue;
              }
              if (result.status == serve::RpcStatus::kOk) {
                ++ok;
                // Invariant 1: an answer reported OK is bit-identical to
                // the fault-free reference, chaos or no chaos.
                ExpectSameRanking(result.items, predictor_->TopKAll(ex, k),
                                  "user=" + std::to_string(ex.user) +
                                      " k=" + std::to_string(k));
              } else {
                ++partial;
              }
            }
          }
        }
        // Invariant 3: exact accounting — and after Ready() transport
        // faults must degrade (PARTIAL), never surface as Status errors.
        EXPECT_EQ(ok + partial + failed, submitted);
        EXPECT_EQ(failed, 0u);

        std::string armed;
        for (const auto& [site, spec] : sites) {
          const FailPoint::SiteStats st = FailPoint::Stats(site);
          armed += " " + site + "(hits=" + std::to_string(st.hits) +
                   ",failures=" + std::to_string(st.failures) + ")";
        }
        const serve::CoordinatorStats cs = coord.stats();
        LogSchedule("seed=" + std::to_string(seed) + " fleet=" +
                    std::to_string(shards) + "x" +
                    std::to_string(replicas_per_shard) + " schedule=" +
                    ScheduleName(schedule) + " replica_faults='" +
                    replica_faults + "' submitted=" +
                    std::to_string(submitted) + " ok=" + std::to_string(ok) +
                    " partial=" + std::to_string(partial) + " retries=" +
                    std::to_string(cs.retries) + " circuit_opens=" +
                    std::to_string(cs.circuit_opens) + " reconnects=" +
                    std::to_string(cs.reconnects) + " sites:" + armed);
        FailPoint::DisarmAll();

        // Full recovery: schedules disarmed (replica-side bursts are
        // limit-bounded), the fleet must converge back to OK bit-identical
        // answers — reconnects and half-open probes do the healing.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        bool recovered = false;
        while (std::chrono::steady_clock::now() < deadline) {
          serve::CoordinatorResult result;
          ASSERT_TRUE(coord.TopKAll(ex0, 4, &result).ok());
          if (result.status == serve::RpcStatus::kOk) {
            ExpectSameRanking(result.items, predictor_->TopKAll(ex0, 4),
                              "post-chaos recovery");
            recovered = true;
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        EXPECT_TRUE(recovered)
            << "fleet did not return to OK after schedules disarmed";
      }
    }
  }
}

TEST_F(ChaosServingTest, KilledReplicaIsReadmittedByHalfOpenProbe) {
  // Two shards, one replica each. SIGKILL shard 1's replica, let the
  // breaker eject it, restart the SAME binary on the SAME port, and require
  // the half-open probe to readmit it — serving bit-identical answers.
  const uint32_t shards = 2;
  std::vector<std::unique_ptr<ReplicaProcess>> fleet;
  serve::Coordinator coord = MakeChaosCoordinator();
  for (uint32_t s = 0; s < shards; ++s) {
    fleet.push_back(std::make_unique<ReplicaProcess>());
    ASSERT_TRUE(fleet.back()->Launch(ChaosReplica(SharedCheckpoint(), s,
                                                  shards)));
    ASSERT_TRUE(coord.AddReplica("127.0.0.1", fleet.back()->port()).ok());
  }
  ASSERT_TRUE(coord.Ready().ok());

  const data::SequenceExample ex = TestExamples()[0];
  const std::vector<serve::ScoredItem> want = predictor_->TopKAll(ex, 4);
  serve::CoordinatorResult healthy;
  ASSERT_TRUE(coord.TopKAll(ex, 4, &healthy).ok());
  ASSERT_EQ(healthy.status, serve::RpcStatus::kOk);
  ExpectSameRanking(healthy.items, want, "healthy baseline");

  const uint16_t port1 = fleet[1]->port();
  fleet[1]->Kill();  // no drain, no goodbye

  // Drive requests into the dead shard until the breaker has ejected it AND
  // a half-open probe has run against the corpse (and re-opened the
  // circuit) — so the probe machinery is demonstrably what stands between
  // the dead member and traffic. Every request degrades to PARTIAL.
  const auto eject_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < eject_deadline) {
    serve::CoordinatorResult result;
    ASSERT_TRUE(coord.TopKAll(ex, 4, &result).ok());
    EXPECT_EQ(result.status, serve::RpcStatus::kPartial);
    const serve::CoordinatorStats cs = coord.stats();
    if (cs.circuit_opens >= 1 && cs.half_open_probes >= 1 &&
        cs.circuit_reopens >= 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  {
    const serve::CoordinatorStats cs = coord.stats();
    ASSERT_GE(cs.circuit_opens, 1u);
    ASSERT_GE(cs.half_open_probes, 1u) << "no probe ran against the corpse";
    ASSERT_GE(cs.circuit_reopens, 1u) << "failed probe must re-open";
  }

  // Resurrect the replica at the address the coordinator already holds.
  ReplicaProcessConfig config = ChaosReplica(SharedCheckpoint(), 1, shards);
  config.port = port1;
  fleet[1] = std::make_unique<ReplicaProcess>();
  ASSERT_TRUE(fleet[1]->Launch(config));
  ASSERT_EQ(fleet[1]->port(), port1);

  // The breaker must readmit it via a half-open probe (no operator action),
  // after which answers are OK and bit-identical again. Polling slower than
  // the circuit window keeps each attempt on the probe path.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool readmitted = false;
  while (std::chrono::steady_clock::now() < deadline) {
    serve::CoordinatorResult result;
    ASSERT_TRUE(coord.TopKAll(ex, 4, &result).ok());
    if (result.status == serve::RpcStatus::kOk) {
      ExpectSameRanking(result.items, want, "after readmission");
      readmitted = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
  }
  ASSERT_TRUE(readmitted) << "restarted replica was never readmitted";

  const serve::CoordinatorStats cs = coord.stats();
  EXPECT_GE(cs.circuit_closes, 1u);
  EXPECT_GE(cs.reconnects, 1u);
  LogSchedule("kill-restart port=" + std::to_string(port1) +
              " probes=" + std::to_string(cs.half_open_probes) +
              " closes=" + std::to_string(cs.circuit_closes) +
              " reconnects=" + std::to_string(cs.reconnects));
}

TEST(CheckpointChaosTest, FaultScheduleNeverCorruptsLastGoodCheckpoint) {
  // Randomized checkpoint I/O faults: whatever fails (open, write, fsync,
  // or the crash-before-rename), the file at the final path must always be
  // the LAST SUCCESSFUL save, bit for bit — atomicity under chaos.
  for (const uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string path =
        TempPath("serve_chaos_ckpt_" + std::to_string(seed) + ".bin");
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());

    data::FeatureSpace space = SmallSpace();
    core::SeqFm a(space, ReplicaConfig(/*seed=*/111));
    core::SeqFm b(space, ReplicaConfig(/*seed=*/222));
    ASSERT_TRUE(serve::Checkpoint::Save(a, path).ok());
    uint64_t expected = serve::ParameterVersion(a);

    const char* kSites[] = {"ckpt.open", "ckpt.write", "ckpt.fsync",
                            "ckpt.rename"};
    for (size_t i = 0; i < 4; ++i) {
      FailPoint::Spec spec;
      spec.mode = FailPoint::Mode::kProb;
      spec.p = 0.25;
      spec.seed = seed * 0x9e3779b97f4a7c15ull + i;
      FailPoint::Arm(kSites[i], spec);
    }

    uint64_t injected = 0;
    for (int iter = 0; iter < 40; ++iter) {
      core::SeqFm& model = (iter % 2 == 0) ? b : a;
      const Status st = serve::Checkpoint::Save(model, path);
      if (st.ok()) {
        expected = serve::ParameterVersion(model);
      } else {
        ++injected;
      }
      // The invariant: a reader always sees the last good checkpoint, even
      // right after a failed save (including a simulated crash that left a
      // .tmp orphan — Load's janitor sweeps it and reads the real file).
      core::SeqFm probe(space, ReplicaConfig(/*seed=*/333));
      ASSERT_TRUE(serve::Checkpoint::Load(&probe, path).ok())
          << "iter " << iter;
      EXPECT_EQ(serve::ParameterVersion(probe), expected) << "iter " << iter;
    }
    FailPoint::DisarmAll();
    EXPECT_GT(injected, 0u) << "schedule never fired — chaos did not run";
    LogSchedule("ckpt-chaos seed=" + std::to_string(seed) +
                " injected=" + std::to_string(injected));

    // Disarmed, saves work and leave no debris behind.
    ASSERT_TRUE(serve::Checkpoint::Save(a, path).ok());
    EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace seqfm
