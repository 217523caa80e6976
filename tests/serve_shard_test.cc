// Lockdown suite for sharded catalog serving (src/serve/shard.{h,cc}) and
// the serving-determinism total order it introduced:
//   - RankBefore: score desc, NaN last, ties by candidate id then position;
//   - SelectTopK regression: duplicate scores order by candidate id, not by
//     position in the candidates vector (the bug that would have made
//     sharded and unsharded rankings disagree);
//   - ShardedCatalog partition math: uneven boundaries, shards > catalog;
//   - TopKHeap bounded retention and MergeTopK cross-shard merging;
//   - ShardedPredictor parity: bit-identical to Predictor::TopKAll for
//     shard counts {1, 2, 3, 8}, on catalogs with forced duplicate scores,
//     for k <=, ==, and > catalog, fast and generic paths, 1 and 2 threads;
//   - BatchServer with num_shards > 1: wave results equal Predictor::TopK.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <future>
#include <vector>

#include "baselines/registry.h"
#include "core/seqfm.h"
#include "data/dataset.h"
#include "serve/predictor.h"
#include "serve/server.h"
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
// SelectTopK tie-break regression (the sharding determinism bugfix)
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
// ShardedCatalog partition math
// ---------------------------------------------------------------------------

TEST(ShardedCatalogTest, BoundsCoverContiguouslyWithNearEqualShards) {
  for (size_t total : {0u, 1u, 7u, 9u, 64u}) {
    for (size_t shards : {1u, 2u, 3u, 5u, 8u}) {
      const auto bounds = serve::ShardedCatalog::Bounds(total, shards);
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

TEST(ShardedCatalogTest, MoreShardsThanCandidatesLeavesEmptyShards) {
  serve::ShardedCatalog catalog({3, 1, 4}, 8);
  EXPECT_EQ(catalog.num_shards(), 8u);
  EXPECT_EQ(catalog.size(), 3u);
  size_t covered = 0, empty = 0;
  for (size_t s = 0; s < catalog.num_shards(); ++s) {
    covered += catalog.shard_size(s);
    empty += (catalog.shard_size(s) == 0);
  }
  EXPECT_EQ(covered, 3u);
  EXPECT_EQ(empty, 5u);
}

TEST(ShardedCatalogDeathTest, ZeroShardsDies) {
  EXPECT_DEATH(serve::ShardedCatalog({1, 2}, 0), "at least one shard");
}

// ---------------------------------------------------------------------------
// TopKHeap and MergeTopK
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

TEST(MergeTopKTest, MergesDuplicateScoresAcrossShardsById) {
  // Shard 0 holds ids {5, 1}, shard 1 holds {3, 7}, all score 1.0 except a
  // 2.0 leader in shard 1. Global order: 7(2.0), then 1, 3, 5 by id.
  serve::TopKHeap s0(4), s1(4);
  s0.Push({1.0f, 5, 0});
  s0.Push({1.0f, 1, 1});
  s1.Push({1.0f, 3, 2});
  s1.Push({2.0f, 7, 3});
  const auto merged = serve::MergeTopK({s0, s1}, 3);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].item, 7);
  EXPECT_EQ(merged[1].item, 1);
  EXPECT_EQ(merged[2].item, 3);
}

TEST(MergeTopKTest, KLargerThanRetainedReturnsEverythingRanked) {
  serve::TopKHeap s0(8), s1(8);
  s0.Push({3.0f, 0, 0});
  s1.Push({4.0f, 1, 1});
  const auto merged = serve::MergeTopK({s0, s1}, 100);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].item, 1);
  EXPECT_EQ(merged[1].item, 0);
}

// ---------------------------------------------------------------------------
// ShardedPredictor parity with the unsharded Predictor
// ---------------------------------------------------------------------------

TEST(ShardedPredictorTest, ShardCountInvariantAndBitIdenticalToTopKAll) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  // Duplicate scores across shard boundaries: items (2, 7) land in
  // different shards for every shard count > 1, items (3, 4) are adjacent.
  ForceScoreTie(&model, space, 2, 7);
  ForceScoreTie(&model, space, 3, 4);

  serve::PredictorOptions opts;
  opts.micro_batch = 2;  // several chunks per shard even on 9 items
  serve::Predictor predictor(&model, &builder, opts);
  ASSERT_TRUE(predictor.compiled_active());

  for (size_t threads : {1u, 2u}) {
    util::SetGlobalThreads(threads);
    for (const auto& ex : TestExamples()) {
      // k spans: partial, whole catalog, and k > catalog (clamped).
      for (size_t k : {1u, 3u, 9u, 20u}) {
        const auto want = predictor.TopKAll(ex, k);
        for (size_t shards : {1u, 2u, 3u, 8u}) {
          serve::ShardedPredictor sharded(&predictor, {shards});
          ExpectSameRanking(sharded.TopKAll(ex, k), want,
                            "shards=" + std::to_string(shards) +
                                " k=" + std::to_string(k) +
                                " threads=" + std::to_string(threads));
        }
      }
    }
  }
  util::SetGlobalThreads(1);
}

TEST(ShardedPredictorTest, CustomCatalogWithDuplicateScoresMatchesTopK) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  ForceScoreTie(&model, space, 1, 6);
  serve::Predictor predictor(&model, &builder, {});
  const auto ex = TestExamples()[3];

  // Ids deliberately out of order and duplicated: the tied pair (1, 6) must
  // come out id-ascending whichever positions (and shards) they occupy.
  const std::vector<int32_t> candidates = {6, 8, 1, 0, 6, 2};
  for (size_t shards : {1u, 2u, 3u, 8u}) {
    serve::ShardedPredictor sharded(&predictor, {shards});
    for (size_t k : {2u, 4u, 6u, 10u}) {
      ExpectSameRanking(sharded.TopK(ex, candidates, k),
                        predictor.TopK(ex, candidates, k),
                        "custom catalog shards=" + std::to_string(shards) +
                            " k=" + std::to_string(k));
    }
  }
}

TEST(ShardedPredictorTest, MoreShardsThanCatalogAndTinyCatalogs) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  serve::Predictor predictor(&model, &builder, {});
  const auto ex = TestExamples()[0];

  serve::ShardedPredictor sharded(&predictor, {8});
  // 3-item catalog over 8 shards: most shards are empty.
  ExpectSameRanking(sharded.TopK(ex, {4, 2, 7}, 3),
                    predictor.TopK(ex, {4, 2, 7}, 3), "3 items, 8 shards");
  // Single item, and k clamped past it.
  ExpectSameRanking(sharded.TopK(ex, {5}, 4), predictor.TopK(ex, {5}, 4),
                    "1 item, 8 shards");
  // Degenerate requests.
  EXPECT_TRUE(sharded.TopK(ex, std::vector<int32_t>{}, 5).empty());
  EXPECT_TRUE(sharded.TopK(ex, {1, 2}, 0).empty());
  EXPECT_TRUE(sharded.TopKAll(ex, 0).empty());
}

TEST(ShardedPredictorTest, UnevenMicroBatchBoundariesStayBitIdentical) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  serve::Predictor predictor(&model, &builder, {});
  const auto ex = TestExamples()[1];
  const auto want = predictor.TopKAll(ex, 9);

  // Chunk sizes that divide shards unevenly (shards of size 3 with chunks
  // of 2, 4, 7) must not change a single bit of the ranking.
  for (size_t micro_batch : {1u, 2u, 4u, 7u}) {
    serve::PredictorOptions opts;
    opts.micro_batch = micro_batch;
    serve::Predictor chunked(&model, &builder, opts);
    ASSERT_TRUE(chunked.compiled_active());
    serve::ShardedPredictor sharded(&chunked, {3});
    ExpectSameRanking(sharded.TopKAll(ex, 9), want,
                      "micro_batch=" + std::to_string(micro_batch));
  }
}

TEST(ShardedPredictorTest, GenericPathModelsShardToo) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  baselines::BaselineConfig cfg;
  cfg.embedding_dim = 8;
  cfg.max_seq_len = kSeqLen;
  cfg.mlp_hidden = 8;
  cfg.keep_prob = 1.0f;
  cfg.seed = 123;
  auto fm = baselines::CreateBaseline("FM", space, cfg).ValueOrDie();
  serve::Predictor predictor(fm.get(), &builder, {});
  ASSERT_TRUE(predictor.compiled_active());

  const auto ex = TestExamples()[2];
  const auto want = predictor.TopKAll(ex, 5);
  for (size_t shards : {2u, 3u, 8u}) {
    serve::ShardedPredictor sharded(&predictor, {shards});
    ExpectSameRanking(sharded.TopKAll(ex, 5), want,
                      "generic shards=" + std::to_string(shards));
  }
}

TEST(ShardedPredictorDeathTest, NullPredictorAndZeroShardsDie) {
  EXPECT_DEATH(serve::ShardedPredictor(nullptr, {}), "null predictor");
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  serve::Predictor predictor(&model, &builder, {});
  EXPECT_DEATH(serve::ShardedPredictor(&predictor, {0}),
               "at least one shard");
}

// ---------------------------------------------------------------------------
// BatchServer wave fan-out across shards
// ---------------------------------------------------------------------------

TEST(ShardedBatchServerTest, ShardedWavesMatchPredictorTopK) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  ForceScoreTie(&model, space, 2, 7);
  const auto examples = TestExamples();
  std::vector<int32_t> catalog(space.num_objects());
  for (size_t i = 0; i < catalog.size(); ++i) {
    catalog[i] = static_cast<int32_t>(i);
  }

  serve::PredictorOptions opts;
  opts.micro_batch = 2;
  opts.context_cache_bytes = 1 << 20;
  serve::Predictor predictor(&model, &builder, opts);
  serve::Predictor reference(&model, &builder, {});

  for (size_t threads : {1u, 2u}) {
    util::SetGlobalThreads(threads);
    for (size_t shards : {1u, 3u, 8u}) {
      serve::BatchServerOptions server_opts;
      server_opts.num_shards = shards;
      serve::BatchServer server(&predictor, server_opts);
      std::vector<std::future<std::vector<serve::ScoredItem>>> futures;
      std::vector<size_t> ks;
      for (size_t round = 0; round < 2; ++round) {
        for (const auto& ex : examples) {
          const size_t k = 1 + (round + futures.size()) % 6;
          ks.push_back(k);
          futures.push_back(server.Submit(ex, catalog, k));
        }
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        ExpectSameRanking(
            futures[i].get(),
            reference.TopK(examples[i % examples.size()], catalog, ks[i]),
            "shards=" + std::to_string(shards) + " request " +
                std::to_string(i));
      }
    }
  }
  util::SetGlobalThreads(1);
}

TEST(ShardedBatchServerTest, ShardedEdgeCaseRequests) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  serve::Predictor predictor(&model, &builder, {});
  serve::BatchServerOptions server_opts;
  server_opts.num_shards = 8;
  serve::BatchServer server(&predictor, server_opts);
  const auto examples = TestExamples();

  auto empty = server.Submit(examples[0], {}, 5);
  auto zero_k = server.Submit(examples[1], {0, 1, 2}, 0);
  auto clamped = server.Submit(examples[2], {0, 1}, 100);
  auto dupes = server.Submit(examples[3], {5, 5, 3}, 3);
  EXPECT_TRUE(empty.get().empty());
  EXPECT_TRUE(zero_k.get().empty());
  EXPECT_EQ(clamped.get().size(), 2u);
  ExpectSameRanking(dupes.get(), predictor.TopK(examples[3], {5, 5, 3}, 3),
                    "duplicate ids through sharded waves");
}

}  // namespace
}  // namespace seqfm
