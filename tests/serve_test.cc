// Lockdown suite for the forward-only serving subsystem (src/serve/):
//   - tape-free Score parity: bit-for-bit equal to the taped eval forward
//     for SeqFM and every registry baseline, at 1/2/8 threads;
//   - serve::Predictor parity (the compiled op program every registry model
//     serves through by default) against the taped batched forward;
//   - checkpoint round-trips (save -> load -> score bit-exact) plus Status
//     error paths for corrupted, truncated, and mismatched files;
//   - death tests for programmer errors (null modules/models).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "baselines/registry.h"
#include "core/seqfm.h"
#include "data/dataset.h"
#include "eval/evaluator.h"
#include "nn/module.h"
#include "serve/checkpoint.h"
#include "serve/predictor.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace {

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

const std::vector<std::string>& AllBaselines() {
  static const std::vector<std::string> kNames = {
      "FM",  "HOFM",    "NFM", "AFM", "Wide&Deep", "DeepCross",
      "xDeepFM", "DIN", "SASRec",  "TFM", "RRN"};
  return kNames;
}

constexpr size_t kSeqLen = 6;

data::FeatureSpace SmallSpace() { return data::FeatureSpace(5, 9); }

baselines::BaselineConfig SmallBaselineConfig() {
  baselines::BaselineConfig cfg;
  cfg.embedding_dim = 8;
  cfg.max_seq_len = kSeqLen;
  cfg.mlp_hidden = 8;
  cfg.keep_prob = 1.0f;
  cfg.num_blocks = 2;
  cfg.seed = 123;
  return cfg;
}

core::SeqFmConfig SmallSeqFmConfig() {
  core::SeqFmConfig cfg;
  cfg.embedding_dim = 8;
  cfg.max_seq_len = kSeqLen;
  cfg.ffn_layers = 2;
  cfg.keep_prob = 1.0f;
  cfg.seed = 321;
  return cfg;
}

std::unique_ptr<core::Model> MakeModelByName(const std::string& name,
                                             const data::FeatureSpace& space,
                                             uint64_t seed = 0) {
  if (name == "SeqFM") {
    core::SeqFmConfig cfg = SmallSeqFmConfig();
    if (seed != 0) cfg.seed = seed;
    return std::make_unique<core::SeqFm>(space, cfg);
  }
  baselines::BaselineConfig cfg = SmallBaselineConfig();
  if (seed != 0) cfg.seed = seed;
  return baselines::CreateBaseline(name, space, cfg).ValueOrDie();
}

std::vector<std::string> AllModels() {
  std::vector<std::string> names = AllBaselines();
  names.insert(names.begin(), "SeqFM");
  return names;
}

/// A deterministic batch covering empty, short, and overflowing histories.
std::vector<data::SequenceExample> TestExamples() {
  std::vector<data::SequenceExample> examples(4);
  examples[0] = {/*user=*/0, /*target=*/4, /*rating=*/1.0f,
                 {1, 2, 3, 0, 5, 6, 7, 8}};  // longer than kSeqLen
  examples[1] = {2, 6, 0.5f, {5}};
  examples[2] = {3, 0, 2.0f, {}};  // cold start
  examples[3] = {4, 8, 4.0f, {8, 7, 6}};
  return examples;
}

data::Batch BuildBatch(const data::BatchBuilder& builder,
                       const std::vector<data::SequenceExample>& examples) {
  std::vector<const data::SequenceExample*> ptrs;
  for (const auto& ex : examples) ptrs.push_back(&ex);
  return builder.Build(ptrs);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectBitEqual(const tensor::Tensor& a, const tensor::Tensor& b,
                    const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << context;
}

// ---------------------------------------------------------------------------
// NoGradGuard semantics
// ---------------------------------------------------------------------------

TEST(NoGradGuardTest, DisablesAndRestoresThreadGradMode) {
  EXPECT_TRUE(autograd::GradMode());
  {
    autograd::NoGradGuard guard;
    EXPECT_FALSE(autograd::GradMode());
    {
      autograd::NoGradGuard nested;
      EXPECT_FALSE(autograd::GradMode());
    }
    EXPECT_FALSE(autograd::GradMode());  // nesting must not re-enable
  }
  EXPECT_TRUE(autograd::GradMode());
}

TEST(NoGradGuardTest, DetachedNodesHaveNoGraph) {
  auto a = autograd::Variable::Leaf(tensor::Tensor::Ones({2, 3}),
                                    /*requires_grad=*/true);
  auto b = autograd::Variable::Leaf(tensor::Tensor::Ones({2, 3}),
                                    /*requires_grad=*/true);
  autograd::Variable taped = autograd::Add(a, b);
  EXPECT_EQ(autograd::GraphSize(taped), 3u);
  EXPECT_TRUE(taped.requires_grad());

  autograd::NoGradGuard guard;
  autograd::Variable detached = autograd::Add(a, b);
  EXPECT_EQ(autograd::GraphSize(detached), 1u);  // no parents retained
  EXPECT_FALSE(detached.requires_grad());
  ExpectBitEqual(taped.value(), detached.value(), "add parity");
}

// ---------------------------------------------------------------------------
// Parity battery: tape-free forward == taped forward, all models, 1/2/8
// threads
// ---------------------------------------------------------------------------

class ServeParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeParityTest, TapeFreeForwardMatchesTapedBitForBit) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName(GetParam(), space);
  const auto examples = TestExamples();
  const data::Batch batch = BuildBatch(builder, examples);

  for (size_t threads : {1u, 2u, 8u}) {
    util::SetGlobalThreads(threads);
    autograd::Variable taped = model->Score(batch, /*training=*/false);
    ASSERT_GT(autograd::GraphSize(taped), 1u);

    autograd::NoGradGuard guard;
    autograd::Variable tape_free = model->Score(batch, /*training=*/false);
    EXPECT_EQ(autograd::GraphSize(tape_free), 1u);
    ExpectBitEqual(taped.value(), tape_free.value(),
                   GetParam() + " @threads=" + std::to_string(threads));
  }
  util::SetGlobalThreads(1);
}

TEST_P(ServeParityTest, PredictorMatchesTapedBatchedScoring) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName(GetParam(), space);
  const auto examples = TestExamples();

  std::vector<int32_t> catalog;
  for (size_t i = 0; i < space.num_objects(); ++i) {
    catalog.push_back(static_cast<int32_t>(i));
  }

  serve::PredictorOptions opts;
  opts.micro_batch = 4;  // force several micro-batches per request
  serve::Predictor predictor(model.get(), &builder, opts);
  EXPECT_TRUE(predictor.compiled_active());

  for (size_t threads : {1u, 2u, 8u}) {
    util::SetGlobalThreads(threads);
    for (const auto& ex : examples) {
      // Taped reference, built through the same batching.
      std::vector<float> ref;
      for (size_t start = 0; start < catalog.size(); start += 4) {
        const size_t end = std::min(catalog.size(), start + 4);
        std::vector<const data::SequenceExample*> repeated(end - start, &ex);
        std::vector<int32_t> chunk(catalog.begin() + start,
                                   catalog.begin() + end);
        data::Batch batch = builder.Build(repeated, &chunk);
        autograd::Variable out = model->Score(batch, /*training=*/false);
        for (size_t i = 0; i < end - start; ++i) {
          ref.push_back(out.value().data()[i]);
        }
      }
      const std::vector<float> got = predictor.ScoreCandidates(ex, catalog);
      ASSERT_EQ(got.size(), ref.size());
      EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                            ref.size() * sizeof(float)),
                0)
          << GetParam() << " @threads=" << threads;
    }
  }
  util::SetGlobalThreads(1);
}

TEST_P(ServeParityTest, CheckpointRoundTripScoresBitExact) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto original = MakeModelByName(GetParam(), space);
  // Different seed => different random init, so a pass proves the load.
  auto restored = MakeModelByName(GetParam(), space, /*seed=*/999);

  const data::Batch batch = BuildBatch(builder, TestExamples());
  autograd::Variable before = original->Score(batch, /*training=*/false);

  const std::string path = TempPath("ckpt_" + std::to_string(
      std::hash<std::string>{}(GetParam())) + ".bin");
  auto* original_module = dynamic_cast<nn::Module*>(original.get());
  auto* restored_module = dynamic_cast<nn::Module*>(restored.get());
  ASSERT_NE(original_module, nullptr);
  ASSERT_NE(restored_module, nullptr);

  ASSERT_TRUE(serve::Checkpoint::Save(*original_module, path).ok());
  ASSERT_TRUE(serve::Checkpoint::Load(restored_module, path).ok());

  autograd::Variable after = restored->Score(batch, /*training=*/false);
  ExpectBitEqual(before.value(), after.value(), GetParam() + " round trip");
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllModels, ServeParityTest,
                         ::testing::ValuesIn(AllModels()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '&') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Predictor behaviour beyond parity
// ---------------------------------------------------------------------------

TEST(PredictorTest, TopKIsSortedDeterministicAndClamped) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName("SeqFM", space);
  serve::Predictor predictor(model.get(), &builder, {});
  const auto ex = TestExamples()[0];

  const auto top3 = predictor.TopKAll(ex, 3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_GE(top3[0].score, top3[1].score);
  EXPECT_GE(top3[1].score, top3[2].score);

  // k larger than the catalog is clamped.
  const auto all = predictor.TopKAll(ex, 10000);
  EXPECT_EQ(all.size(), space.num_objects());

  // The top item agrees with an argmax over the raw scores.
  std::vector<int32_t> catalog;
  for (size_t i = 0; i < space.num_objects(); ++i) {
    catalog.push_back(static_cast<int32_t>(i));
  }
  const auto scores = predictor.ScoreCandidates(ex, catalog);
  size_t argmax = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[argmax]) argmax = i;
  }
  EXPECT_EQ(top3[0].item, catalog[argmax]);
}

TEST(PredictorTest, FromCheckpointRestoresAndScores) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto trained = MakeModelByName("SeqFM", space);
  const std::string path = TempPath("predictor_ckpt.bin");
  ASSERT_TRUE(dynamic_cast<nn::Module*>(trained.get())
                  ->SaveParameters(path)
                  .ok());

  auto fresh = MakeModelByName("SeqFM", space, /*seed=*/777);
  auto predictor =
      serve::Predictor::FromCheckpoint(fresh.get(), &builder, path);
  ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();

  serve::Predictor reference(trained.get(), &builder, {});
  const auto ex = TestExamples()[1];
  std::vector<int32_t> catalog = {0, 3, 5, 8};
  const auto got = (*predictor)->ScoreCandidates(ex, catalog);
  const auto want = reference.ScoreCandidates(ex, catalog);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0);

  const auto missing = serve::Predictor::FromCheckpoint(
      fresh.get(), &builder, TempPath("does_not_exist.bin"));
  EXPECT_FALSE(missing.ok());
  std::remove(path.c_str());
}

TEST(PredictorTest, RankingEvaluatorFastPathMatchesModelPath) {
  // Build a small temporal dataset so the evaluator has test examples.
  data::InteractionLog log(6, 8);
  int64_t t = 0;
  for (int32_t u = 0; u < 6; ++u) {
    for (int32_t o = 0; o < 5; ++o) {
      log.Add({u, (u + o) % 8, ++t, 1.0f});
    }
  }
  log.Finalize();
  auto dataset = data::TemporalDataset::FromLog(log).ValueOrDie();
  data::FeatureSpace space(log.num_users(), log.num_objects());
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName("SeqFM", space);

  eval::RankingEvaluator evaluator(&dataset, &builder, /*num_negatives=*/5,
                                   /*seed=*/99);
  serve::Predictor predictor(model.get(), &builder, {});

  const auto via_model = evaluator.Evaluate(model.get(), {1, 5});
  const auto via_predictor = evaluator.Evaluate(predictor, {1, 5});
  for (size_t k : {1u, 5u}) {
    EXPECT_DOUBLE_EQ(via_model.hr.at(k), via_predictor.hr.at(k));
    EXPECT_DOUBLE_EQ(via_model.ndcg.at(k), via_predictor.ndcg.at(k));
  }
}

// ---------------------------------------------------------------------------
// Checkpoint error paths: every bad file must produce a Status, not an abort
// ---------------------------------------------------------------------------

class CheckpointErrorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    space_ = SmallSpace();
    model_ = MakeModelByName("SeqFM", space_);
    module_ = dynamic_cast<nn::Module*>(model_.get());
    path_ = TempPath("checkpoint_error_test.bin");
    ASSERT_TRUE(serve::Checkpoint::Save(*module_, path_).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<char> ReadAll() {
    std::ifstream in(path_, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  }
  void WriteAll(const std::vector<char>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  data::FeatureSpace space_;
  std::unique_ptr<core::Model> model_;
  nn::Module* module_ = nullptr;
  std::string path_;
};

TEST_F(CheckpointErrorTest, MissingFileIsNotFound) {
  const Status st =
      serve::Checkpoint::Load(module_, TempPath("no_such_file.bin"));
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST_F(CheckpointErrorTest, SaveIsAtomicAndDurable) {
  // The durability contract: Save writes path.tmp, fsyncs it, renames it
  // over path, then fsyncs the parent directory. A successful Save must
  // leave a loadable file and no stray temp; a failed Save (unwritable
  // destination) must return IoError and leave the previous checkpoint
  // bit-for-bit untouched.
  const std::vector<char> before = ReadAll();
  ASSERT_TRUE(serve::Checkpoint::Save(*module_, path_).ok());
  EXPECT_TRUE(ReadAll() == before);  // deterministic serialization
  {
    std::ifstream tmp(path_ + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good()) << "temp file must not survive a Save";
  }
  ASSERT_TRUE(serve::Checkpoint::Load(module_, path_).ok());

  const std::string bad =
      TempPath("no_such_dir_for_ckpt") + "/nested/checkpoint.bin";
  const Status st = serve::Checkpoint::Save(*module_, bad);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_TRUE(ReadAll() == before) << "failed Save must not disturb path_";
}

TEST_F(CheckpointErrorTest, CrashBeforeRenameLeavesOrphanSweptByNextSave) {
  // Crash simulation: the ckpt.rename failpoint makes Save die AFTER the
  // temp file is written and fsynced but BEFORE the rename — exactly what a
  // process crash at that instant leaves behind. The orphaned .tmp must not
  // disturb the real checkpoint, and the janitor in the NEXT Save must
  // sweep it.
  const std::vector<char> before = ReadAll();
  {
    util::FailPoint::Spec crash;
    crash.mode = util::FailPoint::Mode::kNth;
    crash.n = 1;
    util::ScopedFailPoint fp("ckpt.rename", crash);
    const Status st = serve::Checkpoint::Save(*module_, path_);
    EXPECT_EQ(st.code(), StatusCode::kIoError);
  }
  {
    std::ifstream tmp(path_ + ".tmp", std::ios::binary);
    EXPECT_TRUE(tmp.good()) << "the simulated crash must leave the orphan";
  }
  EXPECT_TRUE(ReadAll() == before) << "the real checkpoint must be intact";

  // The next Save sweeps the orphan and completes normally.
  ASSERT_TRUE(serve::Checkpoint::Save(*module_, path_).ok());
  {
    std::ifstream tmp(path_ + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good()) << "janitor must remove the stale temp";
  }
  ASSERT_TRUE(serve::Checkpoint::Load(module_, path_).ok());
}

TEST_F(CheckpointErrorTest, CrashBeforeRenameOrphanIsSweptByLoadToo) {
  // A reader must also clean up: restart-after-crash commonly goes straight
  // to Load, and the orphan would otherwise sit there forever.
  {
    util::FailPoint::Spec crash;
    crash.mode = util::FailPoint::Mode::kNth;
    crash.n = 1;
    util::ScopedFailPoint fp("ckpt.rename", crash);
    EXPECT_FALSE(serve::Checkpoint::Save(*module_, path_).ok());
  }
  {
    std::ifstream tmp(path_ + ".tmp", std::ios::binary);
    ASSERT_TRUE(tmp.good());
  }
  ASSERT_TRUE(serve::Checkpoint::Load(module_, path_).ok());
  {
    std::ifstream tmp(path_ + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good()) << "Load's janitor must remove the stale temp";
  }
}

TEST_F(CheckpointErrorTest, InjectedWriteAndFsyncFailuresLeaveNoDebris) {
  // Unlike the rename crash, ordinary I/O failures (write, fsync) are
  // ERRORS the process survives — Save must clean its own temp up and
  // leave the previous checkpoint untouched.
  const std::vector<char> before = ReadAll();
  for (const char* site : {"ckpt.open", "ckpt.write", "ckpt.fsync"}) {
    util::FailPoint::Spec first;
    first.mode = util::FailPoint::Mode::kNth;
    first.n = 1;
    util::ScopedFailPoint fp(site, first);
    const Status st = serve::Checkpoint::Save(*module_, path_);
    EXPECT_EQ(st.code(), StatusCode::kIoError) << site;
    std::ifstream tmp(path_ + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good()) << site << " must not leave a temp file";
    EXPECT_TRUE(ReadAll() == before) << site;
  }
  ASSERT_TRUE(serve::Checkpoint::Load(module_, path_).ok());
}

TEST_F(CheckpointErrorTest, CorruptedMagicIsInvalidArgument) {
  auto bytes = ReadAll();
  bytes[0] = 'X';
  WriteAll(bytes);
  const Status st = serve::Checkpoint::Load(module_, path_);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("magic"), std::string::npos);
}

TEST_F(CheckpointErrorTest, UnsupportedVersionIsInvalidArgument) {
  auto bytes = ReadAll();
  bytes[4] = 77;  // version field follows the 4-byte magic
  WriteAll(bytes);
  const Status st = serve::Checkpoint::Load(module_, path_);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("version"), std::string::npos);
}

TEST_F(CheckpointErrorTest, TruncatedPayloadIsIoError) {
  auto bytes = ReadAll();
  bytes.resize(bytes.size() / 2);
  WriteAll(bytes);
  const Status st = serve::Checkpoint::Load(module_, path_);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST_F(CheckpointErrorTest, TruncatedHeaderIsIoError) {
  auto bytes = ReadAll();
  bytes.resize(6);
  WriteAll(bytes);
  const Status st = serve::Checkpoint::Load(module_, path_);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST_F(CheckpointErrorTest, OverdeclaredTensorCountFailsFastOnInspect) {
  // A count that passes the kMaxTensors sanity cap but cannot possibly fit
  // in the file must be rejected up front — before entries.reserve(count)
  // or any per-entry loop acts on the lie.
  auto bytes = ReadAll();
  const uint64_t huge = 500000;  // < the 2^20 cap, >> what the file holds
  std::memcpy(bytes.data() + 8, &huge, sizeof(huge));  // count follows header
  WriteAll(bytes);
  const auto manifest = serve::Checkpoint::Inspect(path_);
  ASSERT_FALSE(manifest.ok());
  EXPECT_EQ(manifest.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(manifest.status().message().find("bytes remain"),
            std::string::npos);
}

TEST_F(CheckpointErrorTest, DeclaredCountExceedingFileSizeFailsFastOnLoad) {
  // Keep the header and the (correct) tensor count but drop the manifest:
  // Load must reject on the declared-count-vs-file-size check, not by
  // looping through truncated entry reads.
  auto bytes = ReadAll();
  bytes.resize(20);  // magic + version + count + 4 stray bytes
  WriteAll(bytes);
  const Status st = serve::Checkpoint::Load(module_, path_);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("bytes remain"), std::string::npos);
}

TEST_F(CheckpointErrorTest, FlippedPayloadByteFailsChecksum) {
  auto bytes = ReadAll();
  // Flip one byte near the end of the payload region (before the 8-byte
  // footer) — manifest fields stay intact, so only the checksum can catch it.
  bytes[bytes.size() - 12] ^= 0x40;
  WriteAll(bytes);
  const Status st = serve::Checkpoint::Load(module_, path_);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("corrupted"), std::string::npos);
}

TEST_F(CheckpointErrorTest, ShapeMismatchIsInvalidArgument) {
  core::SeqFmConfig cfg = SmallSeqFmConfig();
  cfg.embedding_dim = 4;  // differs from the saved model's 8
  core::SeqFm narrow(space_, cfg);
  const Status st = serve::Checkpoint::Load(&narrow, path_);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointErrorTest, ParameterCountMismatchIsInvalidArgument) {
  auto fm = MakeModelByName("FM", space_);
  const Status st =
      serve::Checkpoint::Load(dynamic_cast<nn::Module*>(fm.get()), path_);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointErrorTest, FailedLoadLeavesModelUntouched) {
  const data::BatchBuilder builder(space_, kSeqLen);
  const data::Batch batch = BuildBatch(builder, TestExamples());
  autograd::Variable before = model_->Score(batch, /*training=*/false);

  auto bytes = ReadAll();
  bytes[bytes.size() - 12] ^= 0x40;  // checksum failure after full staging
  WriteAll(bytes);
  ASSERT_FALSE(serve::Checkpoint::Load(module_, path_).ok());

  autograd::Variable after = model_->Score(batch, /*training=*/false);
  ExpectBitEqual(before.value(), after.value(), "model untouched");
}

TEST_F(CheckpointErrorTest, CraftedHugeTensorCountIsRejectedNotAborted) {
  auto bytes = ReadAll();
  // The uint64 tensor count sits at bytes [8, 16); set it to 2^64 - 1. A
  // reserve() on that value must not be reached (it would throw/abort).
  for (size_t i = 8; i < 16; ++i) bytes[i] = static_cast<char>(0xff);
  WriteAll(bytes);
  EXPECT_EQ(serve::Checkpoint::Load(module_, path_).code(),
            StatusCode::kInvalidArgument);
  const auto inspected = serve::Checkpoint::Inspect(path_);
  ASSERT_FALSE(inspected.ok());
  EXPECT_EQ(inspected.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointErrorTest, InspectReportsManifest) {
  auto manifest = serve::Checkpoint::Inspect(path_);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->version, serve::Checkpoint::kVersion);
  EXPECT_EQ(manifest->entries.size(), module_->NamedParameters().size());
  EXPECT_EQ(manifest->total_parameters(), module_->NumParameters());
  EXPECT_FALSE(manifest->entries.front().name.empty());

  auto missing = serve::Checkpoint::Inspect(TempPath("nope.bin"));
  EXPECT_FALSE(missing.ok());
}

// ---------------------------------------------------------------------------
// Death tests: null arguments are programmer errors
// ---------------------------------------------------------------------------

using ServeDeathTest = CheckpointErrorTest;

TEST_F(ServeDeathTest, NullModuleLoadDies) {
  EXPECT_DEATH(
      { (void)serve::Checkpoint::Load(nullptr, path_); }, "null module");
}

TEST_F(ServeDeathTest, PredictorNullArgumentsDie) {
  data::BatchBuilder builder(space_, kSeqLen);
  EXPECT_DEATH({ serve::Predictor p(nullptr, &builder, {}); }, "null model");
  EXPECT_DEATH({ serve::Predictor p(model_.get(), nullptr, {}); },
               "null batch builder");
}

}  // namespace
}  // namespace seqfm
