// Lockdown suite for the serving-wide ranking order and the partitioned
// top-K machinery (src/serve/shard.{h,cc}) at the seam every local ranking
// goes through, serve::LocalShardBackend (src/serve/backend.{h,cc}):
//   - RankBefore: score desc, NaN last, ties by candidate id then position;
//   - SelectTopK regression: duplicate scores order by candidate id, not by
//     position in the candidates vector (the bug that would have made
//     partitioned and whole rankings disagree);
//   - ShardBounds partition math: uneven boundaries, shards > items;
//   - TopKHeap bounded retention and MergeSortedRuns merging;
//   - LocalShardBackend partition parity: one request split into
//     {1, 2, 3, 8} ScoreJobs over ShardBounds and merged with
//     MergeSortedRuns is bit-identical to Predictor::TopK / TopKAll — forced
//     duplicate scores, more jobs than candidates, k below / at / above the
//     range and k = 0, chunks that straddle job bounds, compiled and
//     eager-only models, identity-form jobs (global positions restored), 1
//     and 2 pool threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "core/seqfm.h"
#include "data/dataset.h"
#include "serve/backend.h"
#include "serve/predictor.h"
#include "serve/shard.h"
#include "tests/score_tie.h"
#include "util/thread_pool.h"

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

// ---------------------------------------------------------------------------
// RankBefore: the serving-wide total order
// ---------------------------------------------------------------------------

TEST(RankBeforeTest, OrdersByScoreThenIdThenPosition) {
  // Higher score first.
  EXPECT_TRUE(serve::RankBefore({2.0f, 9, 5}, {1.0f, 0, 0}));
  EXPECT_FALSE(serve::RankBefore({1.0f, 0, 0}, {2.0f, 9, 5}));
  // Score tie: lower candidate id first, regardless of position.
  EXPECT_TRUE(serve::RankBefore({1.0f, 3, 7}, {1.0f, 8, 0}));
  EXPECT_FALSE(serve::RankBefore({1.0f, 8, 0}, {1.0f, 3, 7}));
  // Score and id tie (duplicate candidate): earlier position first.
  EXPECT_TRUE(serve::RankBefore({1.0f, 3, 1}, {1.0f, 3, 4}));
  EXPECT_FALSE(serve::RankBefore({1.0f, 3, 4}, {1.0f, 3, 1}));
  // Identical entries are equivalent, not before each other.
  EXPECT_FALSE(serve::RankBefore({1.0f, 3, 4}, {1.0f, 3, 4}));
}

TEST(RankBeforeTest, NanScoresSortLastAmongThemselvesById) {
  const float nan = std::nanf("");
  EXPECT_TRUE(serve::RankBefore({-100.0f, 9, 9}, {nan, 0, 0}));
  EXPECT_FALSE(serve::RankBefore({nan, 0, 0}, {-100.0f, 9, 9}));
  // Two NaNs: id tie-break keeps the order strict and deterministic.
  EXPECT_TRUE(serve::RankBefore({nan, 1, 5}, {nan, 2, 0}));
  EXPECT_FALSE(serve::RankBefore({nan, 2, 0}, {nan, 1, 5}));
}

// ---------------------------------------------------------------------------
// SelectTopK tie-break regression (the partitioned-ranking determinism fix)
// ---------------------------------------------------------------------------

TEST(SelectTopKTest, DuplicateScoresOrderByCandidateIdNotPosition) {
  // All scores equal; the old position tie-break would return {7, 3, 5, 1}.
  const std::vector<int32_t> candidates = {7, 3, 5, 1};
  const std::vector<float> scores(4, 0.25f);
  const auto top = serve::SelectTopK(candidates, scores, 4);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].item, 1);
  EXPECT_EQ(top[1].item, 3);
  EXPECT_EQ(top[2].item, 5);
  EXPECT_EQ(top[3].item, 7);
}

TEST(SelectTopKTest, PartialTiesBreakByIdWithinEqualScores) {
  const std::vector<int32_t> candidates = {4, 2, 8, 6};
  const std::vector<float> scores = {1.0f, 2.0f, 1.0f, 2.0f};
  const auto top = serve::SelectTopK(candidates, scores, 4);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].item, 2);  // 2.0 tie: id 2 before id 6
  EXPECT_EQ(top[1].item, 6);
  EXPECT_EQ(top[2].item, 4);  // 1.0 tie: id 4 before id 8
  EXPECT_EQ(top[3].item, 8);
}

TEST(SelectTopKTest, NanStillSortsLastAndDuplicateIdsKeepSlots) {
  const std::vector<int32_t> candidates = {10, 11, 10};
  const std::vector<float> scores = {std::nanf(""), 2.0f, 2.0f};
  const auto top = serve::SelectTopK(candidates, scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].item, 10);  // 2.0 tie: id 10 before id 11
  EXPECT_EQ(top[1].item, 11);
  EXPECT_EQ(top[2].item, 10);  // NaN last, slot preserved
  EXPECT_TRUE(std::isnan(top[2].score));
}

// ---------------------------------------------------------------------------
// ShardBounds partition math
// ---------------------------------------------------------------------------

TEST(ShardBoundsTest, CoverContiguouslyWithNearEqualShards) {
  for (size_t total : {0u, 1u, 7u, 9u, 64u}) {
    for (size_t shards : {1u, 2u, 3u, 5u, 8u}) {
      const auto bounds = serve::ShardBounds(total, shards);
      ASSERT_EQ(bounds.size(), shards + 1);
      EXPECT_EQ(bounds.front(), 0u);
      EXPECT_EQ(bounds.back(), total);
      size_t min_size = total, max_size = 0;
      for (size_t s = 0; s < shards; ++s) {
        ASSERT_LE(bounds[s], bounds[s + 1]);  // contiguous, monotone
        const size_t size = bounds[s + 1] - bounds[s];
        min_size = std::min(min_size, size);
        max_size = std::max(max_size, size);
      }
      EXPECT_LE(max_size - min_size, 1u)
          << total << " over " << shards << " shards";
    }
  }
}

TEST(ShardBoundsTest, MoreShardsThanItemsLeavesEmptyShards) {
  const auto bounds = serve::ShardBounds(3, 8);
  ASSERT_EQ(bounds.size(), 9u);
  size_t covered = 0, empty = 0;
  for (size_t s = 0; s < 8; ++s) {
    covered += bounds[s + 1] - bounds[s];
    empty += (bounds[s + 1] == bounds[s]);
  }
  EXPECT_EQ(covered, 3u);
  EXPECT_EQ(empty, 5u);
}

TEST(ShardBoundsDeathTest, ZeroShardsDies) {
  EXPECT_DEATH(serve::ShardBounds(2, 0), "at least one shard");
}

// ---------------------------------------------------------------------------
// TopKHeap and MergeSortedRuns
// ---------------------------------------------------------------------------

TEST(TopKHeapTest, RetainsBestKIndependentOfPushOrder) {
  const std::vector<serve::RankEntry> entries = {
      {1.0f, 4, 0}, {5.0f, 1, 1}, {3.0f, 2, 2}, {5.0f, 0, 3}, {2.0f, 3, 4}};
  // Push in two different orders; retained sets and output order must match.
  serve::TopKHeap forward(3), backward(3);
  for (const auto& e : entries) forward.Push(e);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    backward.Push(*it);
  }
  const auto a = forward.SortedEntries();
  const auto b = backward.SortedEntries();
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a[i].item, b[i].item);
    EXPECT_EQ(a[i].pos, b[i].pos);
  }
  // 5.0 tie: id 0 before id 1; then 3.0.
  EXPECT_EQ(a[0].item, 0);
  EXPECT_EQ(a[1].item, 1);
  EXPECT_EQ(a[2].item, 2);
}

TEST(TopKHeapTest, ZeroCapacityRetainsNothing) {
  serve::TopKHeap heap(0);
  heap.Push({1.0f, 0, 0});
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_TRUE(heap.SortedEntries().empty());
}

TEST(MergeSortedRunsTest, MergesDuplicateScoresAcrossRunsById) {
  // Run 0 holds ids {1, 5}, run 1 holds {7, 3}, all score 1.0 except a 2.0
  // leader in run 1. Global order: 7 (2.0), then 1, 3, 5 by id.
  const std::vector<std::vector<serve::RankEntry>> runs = {
      {{1.0f, 1, 1}, {1.0f, 5, 0}}, {{2.0f, 7, 3}, {1.0f, 3, 2}}};
  const auto merged = serve::MergeSortedRuns(runs, 3);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].item, 7);
  EXPECT_EQ(merged[1].item, 1);
  EXPECT_EQ(merged[2].item, 3);
}

TEST(MergeSortedRunsTest, KLargerThanRetainedReturnsEverythingRanked) {
  const std::vector<std::vector<serve::RankEntry>> runs = {
      {{3.0f, 0, 0}}, {}, {{4.0f, 1, 1}}};
  const auto merged = serve::MergeSortedRuns(runs, 100);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].item, 1);
  EXPECT_EQ(merged[1].item, 0);
}

// ---------------------------------------------------------------------------
// LocalShardBackend: one request partitioned into ScoreJobs
// ---------------------------------------------------------------------------

/// Ranks one request as \p num_jobs ScoreJobs over ShardBounds(total,
/// num_jobs) in ONE LocalShardBackend batch and merges the runs. With null
/// \p candidates the jobs take the identity form over [0, total). Checks
/// every run's contract on the way: min(k, range) entries, best first, each
/// entry's global position inside its job and pointing at its own id.
std::vector<serve::ScoredItem> PartitionedTopK(
    const serve::Predictor& predictor, const data::SequenceExample& ex,
    const std::vector<int32_t>* candidates, size_t total, size_t num_jobs,
    size_t k) {
  const std::vector<size_t> bounds = serve::ShardBounds(total, num_jobs);
  std::vector<serve::ScoreJob> jobs;
  for (size_t j = 0; j < num_jobs; ++j) {
    jobs.push_back({&ex, candidates, bounds[j], bounds[j + 1], k});
  }
  serve::LocalShardBackend backend(&predictor);
  std::vector<std::vector<serve::RankEntry>> runs;
  EXPECT_TRUE(backend.ScoreTopK(jobs, &runs).ok());
  EXPECT_EQ(runs.size(), num_jobs);
  for (size_t j = 0; j < runs.size(); ++j) {
    const std::vector<serve::RankEntry>& run = runs[j];
    EXPECT_EQ(run.size(), std::min(k, bounds[j + 1] - bounds[j]))
        << "job " << j;
    for (size_t i = 0; i < run.size(); ++i) {
      const serve::RankEntry& e = run[i];
      EXPECT_GE(e.pos, bounds[j]) << "job " << j;
      EXPECT_LT(e.pos, bounds[j + 1]) << "job " << j;
      const int32_t id = candidates == nullptr
                             ? static_cast<int32_t>(e.pos)
                             : (*candidates)[std::min(e.pos, total - 1)];
      EXPECT_EQ(e.item, id) << "job " << j << " pos " << e.pos;
      if (i > 0) {
        EXPECT_TRUE(serve::RankBefore(run[i - 1], e));
      }
    }
  }
  return serve::MergeSortedRuns(runs, k);
}

std::string Where(size_t jobs, size_t k, const data::SequenceExample& ex) {
  return "jobs=" + std::to_string(jobs) + " k=" + std::to_string(k) +
         " user=" + std::to_string(ex.user) +
         " threads=" + std::to_string(util::GlobalThreads());
}

TEST(LocalShardBackendPartitionTest, IdentityJobsMatchTopKAllWithTies) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  // Duplicate scores across job boundaries: items (2, 7) land in different
  // jobs for every job count > 1, items (3, 4) are adjacent.
  ForceScoreTie(&model, space, 2, 7);
  ForceScoreTie(&model, space, 3, 4);

  serve::PredictorOptions opts;
  opts.micro_batch = 2;  // several chunks per job even on 9 items
  serve::Predictor predictor(&model, &builder, opts);
  ASSERT_TRUE(predictor.compiled_active());

  const size_t total = space.num_objects();
  for (size_t threads : {1u, 2u}) {
    util::SetGlobalThreads(threads);
    for (const auto& ex : TestExamples()) {
      // k: zero, below the catalog, the whole catalog, and past it.
      for (size_t k : {0u, 1u, 3u, 9u, 20u}) {
        const auto want = predictor.TopKAll(ex, k);
        for (size_t jobs : {1u, 2u, 3u, 8u}) {
          ExpectSameRanking(
              PartitionedTopK(predictor, ex, nullptr, total, jobs, k), want,
              "identity " + Where(jobs, k, ex));
        }
      }
    }
  }
  util::SetGlobalThreads(1);
}

TEST(LocalShardBackendPartitionTest, SlateWithTiesAndDuplicateIdsMatchesTopK) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  ForceScoreTie(&model, space, 1, 6);
  serve::Predictor predictor(&model, &builder, {});
  ASSERT_TRUE(predictor.compiled_active());

  // Ids deliberately out of order and duplicated: the tied pair (1, 6) must
  // come out id-ascending whichever positions (and jobs) they occupy.
  const std::vector<int32_t> candidates = {6, 8, 1, 0, 6, 2};
  for (size_t threads : {1u, 2u}) {
    util::SetGlobalThreads(threads);
    for (const auto& ex : TestExamples()) {
      for (size_t k : {0u, 2u, 4u, 6u, 10u}) {
        const auto want = predictor.TopK(ex, candidates, k);
        for (size_t jobs : {1u, 2u, 3u, 8u}) {
          ExpectSameRanking(PartitionedTopK(predictor, ex, &candidates,
                                            candidates.size(), jobs, k),
                            want, "slate " + Where(jobs, k, ex));
        }
      }
    }
  }
  util::SetGlobalThreads(1);
}

TEST(LocalShardBackendPartitionTest, MoreJobsThanCandidatesAndTinySlates) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  serve::Predictor predictor(&model, &builder, {});
  const auto ex = TestExamples()[0];

  // 1-, 2- and 3-item slates over 8 jobs: most jobs are empty.
  const std::vector<std::vector<int32_t>> slates = {{5}, {4, 2}, {4, 2, 7}};
  for (const std::vector<int32_t>& slate : slates) {
    for (size_t k : {0u, 1u, 2u, 4u}) {
      for (size_t jobs : {1u, 2u, 3u, 8u}) {
        ExpectSameRanking(
            PartitionedTopK(predictor, ex, &slate, slate.size(), jobs, k),
            predictor.TopK(ex, slate, k),
            std::to_string(slate.size()) + "-item slate " +
                Where(jobs, k, ex));
      }
    }
  }
  // An empty request: every job is empty and so is the merge.
  const std::vector<int32_t> none;
  EXPECT_TRUE(PartitionedTopK(predictor, ex, &none, 0, 8, 5).empty());
}

TEST(LocalShardBackendPartitionTest, ChunksThatStraddleJobBoundsKeepBits) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  ForceScoreTie(&model, space, 2, 7);
  serve::Predictor reference(&model, &builder, {});

  // micro_batch = 4 against jobs of 9 / 4-5 / 3 / 1-2 items: chunk edges
  // never line up with job edges, and no bit of the ranking may move.
  serve::PredictorOptions opts;
  opts.micro_batch = 4;
  serve::Predictor chunked(&model, &builder, opts);
  ASSERT_TRUE(chunked.compiled_active());
  const std::vector<int32_t> slate = {8, 7, 6, 5, 4, 3, 2, 1, 0};
  const size_t total = space.num_objects();
  for (const auto& ex : TestExamples()) {
    for (size_t k : {3u, 9u}) {
      for (size_t jobs : {1u, 2u, 3u, 8u}) {
        ExpectSameRanking(
            PartitionedTopK(chunked, ex, nullptr, total, jobs, k),
            reference.TopKAll(ex, k), "identity " + Where(jobs, k, ex));
        ExpectSameRanking(
            PartitionedTopK(chunked, ex, &slate, slate.size(), jobs, k),
            reference.TopK(ex, slate, k), "slate " + Where(jobs, k, ex));
      }
    }
  }
}

TEST(LocalShardBackendPartitionTest, EagerOnlyRegistryModelPartitionsToo) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  baselines::BaselineConfig cfg;
  cfg.embedding_dim = 8;
  cfg.max_seq_len = kSeqLen;
  cfg.mlp_hidden = 8;
  cfg.keep_prob = 1.0f;
  cfg.seed = 123;
  auto fm = baselines::CreateBaseline("FM", space, cfg).ValueOrDie();
  serve::PredictorOptions opts;
  opts.use_compiled_program = false;  // every chunk scores eagerly
  opts.micro_batch = 4;
  serve::Predictor predictor(fm.get(), &builder, opts);
  ASSERT_FALSE(predictor.compiled_active());

  const std::vector<int32_t> slate = {3, 0, 8, 3, 5};
  const size_t total = space.num_objects();
  for (size_t threads : {1u, 2u}) {
    util::SetGlobalThreads(threads);
    for (const auto& ex : TestExamples()) {
      for (size_t k : {0u, 2u, 5u, 12u}) {
        for (size_t jobs : {1u, 2u, 3u, 8u}) {
          ExpectSameRanking(
              PartitionedTopK(predictor, ex, nullptr, total, jobs, k),
              predictor.TopKAll(ex, k), "eager identity " + Where(jobs, k, ex));
          ExpectSameRanking(
              PartitionedTopK(predictor, ex, &slate, slate.size(), jobs, k),
              predictor.TopK(ex, slate, k),
              "eager slate " + Where(jobs, k, ex));
        }
      }
    }
  }
  util::SetGlobalThreads(1);
}

}  // namespace
}  // namespace seqfm
