// Lockdown suite for request-batched serving (PR 3 additions to src/serve/):
//   - serve::ContextCache LRU semantics: hit/miss/eviction/invalidation
//     counters, byte budget, key discrimination, oversize entries;
//   - cached compiled scoring: bit-for-bit identical to the taped batched
//     forward, stale-context invalidation after checkpoint reloads;
//   - serve::BatchServer: fused multi-user waves equal to Predictor::TopK,
//     concurrent submission, generic-model fallback, quiesced reloads;
//   - serving edge cases shared by all paths: empty candidate list, k == 0,
//     k > catalog, duplicate candidates, empty/single-item histories.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "autograd/variable.h"
#include "baselines/registry.h"
#include "core/seqfm.h"
#include "data/dataset.h"
#include "nn/module.h"
#include "serve/checkpoint.h"
#include "serve/context_cache.h"
#include "serve/predictor.h"
#include "serve/server.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace {

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

/// Examples covering empty, single-item, short, and overflowing histories,
/// plus a duplicate (user, history) pair for cache-hit coverage.
std::vector<data::SequenceExample> TestExamples() {
  std::vector<data::SequenceExample> examples(6);
  examples[0] = {/*user=*/0, /*target=*/4, /*rating=*/1.0f,
                 {1, 2, 3, 0, 5, 6, 7, 8}};  // longer than kSeqLen
  examples[1] = {2, 6, 0.5f, {5}};           // single-item history
  examples[2] = {3, 0, 2.0f, {}};            // cold start
  examples[3] = {4, 8, 4.0f, {8, 7, 6}};
  examples[4] = {0, 2, 1.0f, {1, 2, 3, 0, 5, 6, 7, 8}};  // same ctx as [0]
  examples[5] = {2, 1, 0.5f, {5, 5}};        // same user as [1], new history
  return examples;
}

/// Taped reference: Model::Score over the same micro-batching the serving
/// paths use — the bit-for-bit ground truth.
std::vector<float> TapedScores(core::Model* model,
                               const data::BatchBuilder& builder,
                               const data::SequenceExample& ex,
                               const std::vector<int32_t>& candidates,
                               size_t batch_size = 4) {
  std::vector<float> scores;
  for (size_t start = 0; start < candidates.size(); start += batch_size) {
    const size_t end = std::min(candidates.size(), start + batch_size);
    std::vector<const data::SequenceExample*> repeated(end - start, &ex);
    std::vector<int32_t> chunk(candidates.begin() + start,
                               candidates.begin() + end);
    data::Batch batch = builder.Build(repeated, &chunk);
    autograd::Variable out = model->Score(batch, /*training=*/false);
    for (size_t i = 0; i < end - start; ++i) {
      scores.push_back(out.value().data()[i]);
    }
  }
  return scores;
}

std::vector<int32_t> FullCatalog(const data::FeatureSpace& space) {
  std::vector<int32_t> catalog;
  for (size_t i = 0; i < space.num_objects(); ++i) {
    catalog.push_back(static_cast<int32_t>(i));
  }
  return catalog;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectBitEqual(const std::vector<float>& a, const std::vector<float>& b,
                    const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << context;
  }
}

/// A synthetic context whose ApproxBytes is dominated by one slot tensor of
/// \p floats elements — lets cache tests control entry cost exactly.
serve::ContextCache::ContextPtr MakeContext(size_t floats) {
  auto ctx = std::make_shared<core::SharedContext>();
  ctx->slots.push_back(tensor::Tensor::Zeros({1, floats}));
  return ctx;
}

// ---------------------------------------------------------------------------
// ContextCache unit tests
// ---------------------------------------------------------------------------

TEST(ContextCacheTest, HitMissCountersAndMemoization) {
  serve::ContextCache cache(1 << 20);
  std::atomic<int> computes{0};
  auto compute = [&]() {
    ++computes;
    return MakeContext(16);
  };
  const std::vector<int32_t> ids = {1, 2, 3, -1, -1, -1};
  auto first = cache.GetOrCompute(7, ids, compute);
  auto second = cache.GetOrCompute(7, ids, compute);
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(first.get(), second.get());  // memoized, not recomputed
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ContextCacheTest, KeyDistinguishesUserAndHistory) {
  serve::ContextCache cache(1 << 20);
  std::atomic<int> computes{0};
  auto compute = [&]() {
    ++computes;
    return MakeContext(16);
  };
  const std::vector<int32_t> ids_a = {1, 2, 3};
  const std::vector<int32_t> ids_b = {1, 2, 4};
  cache.GetOrCompute(7, ids_a, compute);
  cache.GetOrCompute(8, ids_a, compute);  // same history, different user
  cache.GetOrCompute(7, ids_b, compute);  // same user, different history
  EXPECT_EQ(computes.load(), 3);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ContextCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Each entry costs ~4 KiB of tensor payload (+ small overhead); a 10 KiB
  // budget holds two entries at most.
  serve::ContextCache cache(10 * 1024);
  auto compute = [] { return MakeContext(1024); };
  const std::vector<int32_t> a = {1}, b = {2}, c = {3};
  cache.GetOrCompute(0, a, compute);
  cache.GetOrCompute(0, b, compute);
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.GetOrCompute(0, a, compute);  // touch a => b becomes LRU
  cache.GetOrCompute(0, c, compute);  // evicts b
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, stats.byte_budget);
  // a survived (hit), b was evicted (miss), c is resident (hit).
  cache.GetOrCompute(0, a, compute);
  cache.GetOrCompute(0, c, compute);
  EXPECT_EQ(cache.stats().hits, 3u);
  cache.GetOrCompute(0, b, compute);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(ContextCacheTest, OversizeEntryServedButNotCached) {
  serve::ContextCache cache(1024);  // smaller than one 4 KiB context
  auto compute = [] { return MakeContext(1024); };
  const std::vector<int32_t> ids = {1};
  auto ctx = cache.GetOrCompute(0, ids, compute);
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  cache.GetOrCompute(0, ids, compute);  // still a miss: nothing was cached
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ContextCacheTest, InvalidateDropsEverything) {
  serve::ContextCache cache(1 << 20);
  auto compute = [] { return MakeContext(64); };
  cache.GetOrCompute(0, {1}, compute);
  cache.GetOrCompute(1, {2}, compute);
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.Invalidate();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.invalidations, 1u);
  cache.GetOrCompute(0, {1}, compute);
  EXPECT_EQ(cache.stats().misses, 3u);  // re-fetch after invalidation misses
}

TEST(ContextCacheTest, ReinsertionAfterInvalidateDoesNotLeakBytes) {
  serve::ContextCache cache(1 << 20);
  const std::vector<int32_t> ids = {1, 2, 3};
  // compute() runs outside the cache lock, so a checkpoint reload can
  // invalidate mid-compute and the wave's entry is then (re)inserted into
  // the emptied cache — the racing-overwrite shape from the field. Repeating
  // the race must leave exactly one entry's worth of bytes, never an
  // accumulating residue.
  auto racing_compute = [&]() {
    cache.Invalidate();
    return MakeContext(64);
  };
  cache.GetOrCompute(7, ids, racing_compute);
  const auto once = cache.stats();
  ASSERT_EQ(once.entries, 1u);
  ASSERT_GT(once.bytes, 0u);
  for (int i = 0; i < 3; ++i) {
    cache.Invalidate();  // re-arm: the resident key would otherwise just hit
    cache.GetOrCompute(7, ids, racing_compute);
  }
  const auto again = cache.stats();
  EXPECT_EQ(again.entries, 1u);
  EXPECT_EQ(again.bytes, once.bytes) << "bytes leaked across re-insertions";
  // A plain re-lookup of the resident key must not double-charge either.
  cache.GetOrCompute(7, ids, [] { return MakeContext(64); });
  EXPECT_EQ(cache.stats().bytes, once.bytes);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ContextCacheTest, EntryCostChargesTheIdPayload) {
  // Same context tensors, histories of different lengths: the longer id key
  // must cost more, since the entry stores its own copy of the ids (the
  // header promises "ids + entry overhead included").
  serve::ContextCache short_ids(1 << 20);
  serve::ContextCache long_ids(1 << 20);
  short_ids.GetOrCompute(0, std::vector<int32_t>(4, 1),
                         [] { return MakeContext(64); });
  long_ids.GetOrCompute(0, std::vector<int32_t>(1004, 1),
                        [] { return MakeContext(64); });
  EXPECT_GE(long_ids.stats().bytes,
            short_ids.stats().bytes + 1000 * sizeof(int32_t));
}

TEST(ContextCacheTest, KeyHashMatchesFnvComposition) {
  const std::vector<int32_t> ids = {4, -1, 7};
  const int32_t user = 3;
  uint64_t expected = util::FnvUpdate(util::kFnv64Offset, &user, sizeof(user));
  expected = util::FnvUpdate(expected, ids.data(),
                             ids.size() * sizeof(int32_t));
  EXPECT_EQ(serve::ContextCache::KeyHash(user, ids), expected);
}

// ---------------------------------------------------------------------------
// Cached compiled scoring: parity + invalidation
// ---------------------------------------------------------------------------

TEST(CachedPredictorTest, CachedScoresBitExactAcrossRepeats) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  const auto catalog = FullCatalog(space);

  serve::PredictorOptions opts;
  opts.micro_batch = 4;
  opts.context_cache_bytes = 1 << 20;
  serve::Predictor cached(&model, &builder, opts);
  ASSERT_TRUE(cached.compiled_active());
  ASSERT_NE(cached.context_cache(), nullptr);

  for (size_t threads : {1u, 2u}) {
    util::SetGlobalThreads(threads);
    for (const auto& ex : TestExamples()) {
      const auto ref = TapedScores(&model, builder, ex, catalog);
      // Twice per example: the second pass must come from the cache and
      // still be bit-identical.
      ExpectBitEqual(cached.ScoreCandidates(ex, catalog), ref, "cold");
      ExpectBitEqual(cached.ScoreCandidates(ex, catalog), ref, "warm");
    }
  }
  util::SetGlobalThreads(1);

  const auto stats = cached.context_cache()->stats();
  // 2 threads x 6 examples x 2 passes = 24 lookups; examples[4] shares
  // examples[0]'s context, so only 5 distinct contexts exist and every
  // lookup after the five cold thread-1 misses hits.
  EXPECT_EQ(stats.hits + stats.misses, 24u);
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(stats.hits, 19u);
}

TEST(CachedPredictorTest, ReloadCheckpointInvalidatesStaleContexts) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm served(space, SmallSeqFmConfig(/*seed=*/321));
  core::SeqFm other(space, SmallSeqFmConfig(/*seed=*/999));
  const auto catalog = FullCatalog(space);
  const auto ex = TestExamples()[0];

  const std::string path = TempPath("stale_ctx_ckpt.bin");
  ASSERT_TRUE(serve::Checkpoint::Save(other, path).ok());

  serve::PredictorOptions opts;
  opts.context_cache_bytes = 1 << 20;
  serve::Predictor predictor(&served, &builder, opts);

  const auto before = predictor.ScoreCandidates(ex, catalog);  // caches ctx
  ASSERT_TRUE(predictor.ReloadCheckpoint(path).ok());
  const auto after = predictor.ScoreCandidates(ex, catalog);

  // After the reload the served model holds `other`'s parameters; scores
  // must match a taped forward through them, not the stale cached context.
  ExpectBitEqual(after, TapedScores(&other, builder, ex, catalog),
                 "post-reload parity");
  EXPECT_NE(std::memcmp(before.data(), after.data(),
                        before.size() * sizeof(float)),
            0)
      << "reload should change scores (different parameters)";
  EXPECT_EQ(predictor.context_cache()->stats().invalidations, 1u);
  std::remove(path.c_str());
}

TEST(CachedPredictorTest, TopKAllUsesPrebuiltCatalog) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  serve::Predictor predictor(&model, &builder, {});
  const auto ex = TestExamples()[3];

  const auto via_all = predictor.TopKAll(ex, 4);
  const auto via_manual = predictor.TopK(ex, FullCatalog(space), 4);
  ASSERT_EQ(via_all.size(), via_manual.size());
  for (size_t i = 0; i < via_all.size(); ++i) {
    EXPECT_EQ(via_all[i].item, via_manual[i].item);
    EXPECT_EQ(std::memcmp(&via_all[i].score, &via_manual[i].score,
                          sizeof(float)),
              0);
  }
}

// ---------------------------------------------------------------------------
// Predictor / shared serving edge cases
// ---------------------------------------------------------------------------

TEST(ServingEdgeCaseTest, EmptyCandidateListAndZeroK) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  serve::PredictorOptions opts;
  opts.context_cache_bytes = 1 << 20;
  serve::Predictor predictor(&model, &builder, opts);
  const auto ex = TestExamples()[1];

  EXPECT_TRUE(predictor.ScoreCandidates(ex, {}).empty());
  EXPECT_TRUE(predictor.TopK(ex, {}, 5).empty());
  EXPECT_TRUE(predictor.TopK(ex, {0, 1, 2}, 0).empty());
  EXPECT_TRUE(predictor.TopKAll(ex, 0).empty());
}

TEST(ServingEdgeCaseTest, DuplicateCandidatesKeepBothSlots) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  serve::Predictor predictor(&model, &builder, {});
  const auto ex = TestExamples()[3];

  const std::vector<int32_t> dupes = {5, 5, 3, 5};
  const auto scores = predictor.ScoreCandidates(ex, dupes);
  ASSERT_EQ(scores.size(), 4u);
  // Identical candidates must score bit-identically in every slot.
  EXPECT_EQ(std::memcmp(&scores[0], &scores[1], sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&scores[0], &scores[3], sizeof(float)), 0);
  // Ties break by candidate id, then by position for duplicates of the same
  // id — so the three 5s all survive, in submission order among themselves.
  const auto top = predictor.TopK(ex, dupes, 4);
  ASSERT_EQ(top.size(), 4u);
  int fives = 0;
  for (const auto& item : top) fives += (item.item == 5);
  EXPECT_EQ(fives, 3);
}

TEST(ServingEdgeCaseTest, SelectTopKNaNsSortLast) {
  const std::vector<int32_t> candidates = {10, 11, 12};
  const std::vector<float> scores = {std::nanf(""), 2.0f, 1.0f};
  const auto top = serve::SelectTopK(candidates, scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].item, 11);
  EXPECT_EQ(top[1].item, 12);
  EXPECT_EQ(top[2].item, 10);
}

// ---------------------------------------------------------------------------
// BatchServer
// ---------------------------------------------------------------------------

TEST(BatchServerTest, WaveResultsMatchPredictorTopK) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  const auto catalog = FullCatalog(space);
  const auto examples = TestExamples();

  serve::PredictorOptions opts;
  opts.micro_batch = 4;
  opts.context_cache_bytes = 1 << 20;
  serve::Predictor predictor(&model, &builder, opts);
  serve::Predictor reference(&model, &builder, {});  // uncached, unfused

  for (size_t threads : {1u, 2u}) {
    util::SetGlobalThreads(threads);
    serve::BatchServer server(&predictor, {});
    std::vector<std::future<std::vector<serve::ScoredItem>>> futures;
    std::vector<size_t> ks;
    for (size_t round = 0; round < 3; ++round) {
      for (const auto& ex : examples) {
        const size_t k = 1 + (round + futures.size()) % 5;
        ks.push_back(k);
        futures.push_back(server.Submit(ex, catalog, k));
      }
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      const auto got = futures[i].get();
      const auto want =
          reference.TopK(examples[i % examples.size()], catalog, ks[i]);
      ASSERT_EQ(got.size(), want.size()) << "request " << i;
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j].item, want[j].item) << "request " << i;
        EXPECT_EQ(std::memcmp(&got[j].score, &want[j].score, sizeof(float)),
                  0)
            << "request " << i;
      }
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.requests_admitted, futures.size());
  }
  util::SetGlobalThreads(1);
}

TEST(BatchServerTest, ServesEdgeCaseRequests) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  serve::PredictorOptions opts;
  opts.context_cache_bytes = 1 << 20;
  serve::Predictor predictor(&model, &builder, opts);
  serve::BatchServer server(&predictor, {});
  const auto examples = TestExamples();

  auto empty = server.Submit(examples[0], {}, 5);
  auto zero_k = server.Submit(examples[1], {0, 1, 2}, 0);
  auto clamped = server.Submit(examples[2], {0, 1}, 100);
  auto dupes = server.Submit(examples[3], {5, 5, 3}, 3);
  auto single_history = server.Submit(examples[1], {0, 4, 8}, 2);

  EXPECT_TRUE(empty.get().empty());
  EXPECT_TRUE(zero_k.get().empty());
  EXPECT_EQ(clamped.get().size(), 2u);
  const auto dupe_top = dupes.get();
  ASSERT_EQ(dupe_top.size(), 3u);
  const auto want = predictor.TopK(examples[1], {0, 4, 8}, 2);
  const auto got = single_history.get();
  ASSERT_EQ(got.size(), want.size());
  for (size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].item, want[j].item);
  }
}

TEST(BatchServerTest, ConcurrentSubmittersAllGetCorrectResults) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  const auto catalog = FullCatalog(space);
  const auto examples = TestExamples();

  serve::PredictorOptions opts;
  opts.context_cache_bytes = 1 << 20;
  serve::Predictor predictor(&model, &builder, opts);
  serve::Predictor reference(&model, &builder, {});

  // Precompute references single-threaded (reference shares the model).
  std::vector<std::vector<serve::ScoredItem>> want;
  for (const auto& ex : examples) {
    want.push_back(reference.TopK(ex, catalog, 3));
  }

  util::SetGlobalThreads(2);
  {
    serve::BatchServer server(&predictor, {});
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&, c]() {
        for (int r = 0; r < 8; ++r) {
          const size_t idx = (c + r) % examples.size();
          auto got = server.Submit(examples[idx], catalog, 3).get();
          if (got.size() != want[idx].size()) {
            ++failures;
            continue;
          }
          for (size_t j = 0; j < got.size(); ++j) {
            if (got[j].item != want[idx][j].item ||
                std::memcmp(&got[j].score, &want[idx][j].score,
                            sizeof(float)) != 0) {
              ++failures;
            }
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(server.stats().requests_served, 32u);
  }
  util::SetGlobalThreads(1);
}

TEST(BatchServerTest, GenericModelsServeThroughTheSameQueue) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  baselines::BaselineConfig cfg;
  cfg.embedding_dim = 8;
  cfg.max_seq_len = kSeqLen;
  cfg.mlp_hidden = 8;
  cfg.keep_prob = 1.0f;
  cfg.seed = 123;
  auto fm = baselines::CreateBaseline("FM", space, cfg).ValueOrDie();
  const auto catalog = FullCatalog(space);

  serve::Predictor predictor(fm.get(), &builder, {});
  ASSERT_TRUE(predictor.compiled_active());
  serve::BatchServer server(&predictor, {});

  for (const auto& ex : TestExamples()) {
    const auto got = server.Submit(ex, catalog, 4).get();
    const auto want = predictor.TopK(ex, catalog, 4);
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].item, want[j].item);
      EXPECT_EQ(std::memcmp(&got[j].score, &want[j].score, sizeof(float)), 0);
    }
  }
}

TEST(BatchServerTest, ReloadCheckpointServesNewParameters) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm served(space, SmallSeqFmConfig(/*seed=*/321));
  core::SeqFm other(space, SmallSeqFmConfig(/*seed=*/999));
  const auto catalog = FullCatalog(space);
  const auto ex = TestExamples()[0];

  const std::string path = TempPath("server_reload_ckpt.bin");
  ASSERT_TRUE(serve::Checkpoint::Save(other, path).ok());

  serve::PredictorOptions opts;
  opts.context_cache_bytes = 1 << 20;
  serve::Predictor predictor(&served, &builder, opts);
  serve::BatchServer server(&predictor, {});

  (void)server.Submit(ex, catalog, 3).get();  // caches ex's context
  ASSERT_TRUE(server.ReloadCheckpoint(path).ok());
  const auto got = server.Submit(ex, catalog, 3).get();

  const auto ref = TapedScores(&other, builder, ex, catalog);
  const auto want = serve::SelectTopK(catalog, ref, 3);
  ASSERT_EQ(got.size(), want.size());
  for (size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].item, want[j].item);
    EXPECT_EQ(std::memcmp(&got[j].score, &want[j].score, sizeof(float)), 0);
  }
  std::remove(path.c_str());
}

TEST(BatchServerTest, DestructorDrainsQueuedRequests) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  const auto catalog = FullCatalog(space);
  serve::Predictor predictor(&model, &builder, {});

  std::vector<std::future<std::vector<serve::ScoredItem>>> futures;
  {
    serve::BatchServer server(&predictor, {});
    for (int i = 0; i < 16; ++i) {
      futures.push_back(server.Submit(TestExamples()[i % 6], catalog, 2));
    }
  }  // destructor must serve everything before joining
  for (auto& f : futures) {
    EXPECT_EQ(f.get().size(), 2u);
  }
}

TEST(BatchServerTest, SubmitRacingShutdownServesOrFailsCleanly) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  const auto catalog = FullCatalog(space);
  serve::PredictorOptions opts;
  opts.context_cache_bytes = 1 << 20;
  serve::Predictor predictor(&model, &builder, opts);
  const auto ex = TestExamples()[0];

  // Submitters hammer the server while another thread shuts it down
  // mid-traffic. Every future must resolve: either with a real top-k
  // (admitted before the cutoff — Shutdown drains those) or with the clean
  // std::runtime_error (lost the race). A deadlock here fails via test
  // timeout; a dropped promise via std::future_error on get().
  for (int round = 0; round < 4; ++round) {
    serve::BatchServer server(&predictor, {});
    std::atomic<bool> start{false};
    std::atomic<int> served{0}, rejected{0}, broken{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&]() {
        while (!start.load()) std::this_thread::yield();
        for (int r = 0; r < 16; ++r) {
          auto future = server.Submit(ex, catalog, 2);
          try {
            if (future.get().size() == 2) ++served;
          } catch (const std::runtime_error&) {
            ++rejected;  // clean post-shutdown failure
          } catch (const std::future_error&) {
            ++broken;  // promise dropped — the bug this test locks down
          }
        }
      });
    }
    start.store(true);
    // Shut down concurrently with the submitters (round 0 immediately, later
    // rounds after a few waves are likely in flight).
    for (int i = 0; i < round * 100; ++i) std::this_thread::yield();
    server.Shutdown();
    for (auto& t : clients) t.join();
    EXPECT_EQ(served.load() + rejected.load(), 64) << "round " << round;
    EXPECT_EQ(broken.load(), 0) << "round " << round;
    // Shutdown is idempotent, and Submit after it fails without blocking.
    server.Shutdown();
    EXPECT_THROW(server.Submit(ex, catalog, 2).get(), std::runtime_error);
  }
}

TEST(BatchServerTest, ConcurrentShutdownCallsAreSafe) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  serve::Predictor predictor(&model, &builder, {});
  serve::BatchServer server(&predictor, {});
  auto pending = server.Submit(TestExamples()[0], FullCatalog(space), 3);
  std::vector<std::thread> closers;
  for (int c = 0; c < 4; ++c) {
    closers.emplace_back([&]() { server.Shutdown(); });
  }
  for (auto& t : closers) t.join();
  // Whichever closer won, the admitted request was drained first.
  EXPECT_EQ(pending.get().size(), 3u);
}

TEST(BatchServerDeathTest, NullPredictorDies) {
  EXPECT_DEATH({ serve::BatchServer server(nullptr, {}); }, "null predictor");
}

}  // namespace
}  // namespace seqfm
