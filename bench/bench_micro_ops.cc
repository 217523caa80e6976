// Microbenchmarks backing the Sec. III-I complexity analysis: the
// self-attention unit is O(n^2 d) in sequence length and the FFN is O(l d^2),
// so SeqFM's per-sample cost is O((n_s + n.)^2 d + l d^2). google-benchmark
// sweeps n and d so the scaling exponents can be read off the reported times.
//
// After the google-benchmark run, a kernel speedup summary times the
// dispatched SIMD kernel layer (tensor/kernels.h) scalar-vs-AVX2 on this
// machine and — with --json=<path> — writes the headline numbers as
// machine-readable BENCH_*.json (see bench::JsonResultWriter). Acceptance
// bar: >= 2x on the GEMM microkernel with AVX2 on AVX2 hardware.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "bench/bench_common.h"
#include "ir/program.h"
#include "nn/layers.h"
#include "nn/masks.h"
#include "tensor/init.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/cpu.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace {

using autograd::Variable;
using tensor::Tensor;

Variable RandomBatch(size_t batch, size_t n, size_t d, Rng* rng) {
  Tensor t({batch, n, d});
  tensor::FillNormal(&t, rng, 1.0f);
  return Variable::Constant(std::move(t));
}

// ---------------------------------------------------------------------------
// GEMM backbone: 512x512x512 across thread counts, against the naive
// reference. The acceptance bar for the parallel backbone is >= 2x at 4
// threads over the 1-thread blocked kernel (given >= 4 cores).
// ---------------------------------------------------------------------------

void GemmBenchArgs(benchmark::internal::Benchmark* b) {
  b->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)
      ->UseRealTime();
}

void BM_Gemm512(benchmark::State& state) {
  const size_t m = 512, k = 512, n = 512;
  Rng rng(7);
  Tensor a({m, k}), b({k, n}), c({m, n});
  tensor::FillNormal(&a, &rng, 1.0f);
  tensor::FillNormal(&b, &rng, 1.0f);
  util::SetGlobalThreads(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    tensor::MatMul(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m * n * k) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
  util::SetGlobalThreads(1);
}
BENCHMARK(BM_Gemm512)->Apply(GemmBenchArgs);

void BM_Gemm512_Reference(benchmark::State& state) {
  const size_t m = 512, k = 512, n = 512;
  Rng rng(7);
  Tensor a({m, k}), b({k, n}), c({m, n});
  tensor::FillNormal(&a, &rng, 1.0f);
  tensor::FillNormal(&b, &rng, 1.0f);
  for (auto _ : state) {
    tensor::GemmReference(a.data(), b.data(), c.data(), m, k, n, false, false,
                          false);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m * n * k) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Gemm512_Reference)->Unit(benchmark::kMillisecond);

/// The compiled SeqFM body's B-normal matmuls on one 256-candidate chunk,
/// one thread: arg 0 is a residual layer's [256,64]x[64,64] (the 6 x 16
/// register blocks), arg 1 the output projection's [256,192]x[192,1] (the
/// row-vectorized column tail).
struct GemmBodyShape {
  size_t m, k, n;
};
constexpr GemmBodyShape kGemmBodyShapes[] = {{256, 64, 64}, {256, 192, 1}};

void BM_GemmBody(benchmark::State& state) {
  const GemmBodyShape s = kGemmBodyShapes[state.range(0)];
  Rng rng(9);
  Tensor a({s.m, s.k}), b({s.k, s.n}), c({s.m, s.n});
  tensor::FillNormal(&a, &rng, 1.0f);
  tensor::FillNormal(&b, &rng, 1.0f);
  util::SetGlobalThreads(1);
  for (auto _ : state) {
    tensor::MatMul(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(s.m * s.n * s.k) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmBody)->Arg(0)->Arg(1);

void BM_Gemm512_Transposed(benchmark::State& state) {
  // The A^T · B shape that dominates the backward pass.
  const size_t m = 512, k = 512, n = 512;
  Rng rng(8);
  Tensor a({k, m}), b({k, n}), c({m, n});
  tensor::FillNormal(&a, &rng, 1.0f);
  tensor::FillNormal(&b, &rng, 1.0f);
  util::SetGlobalThreads(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    tensor::MatMul(a, b, &c, /*trans_a=*/true);
    benchmark::DoNotOptimize(c.data());
  }
  util::SetGlobalThreads(1);
}
BENCHMARK(BM_Gemm512_Transposed)->Apply(GemmBenchArgs);

void BM_SelfAttentionForward_SeqLen(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t d = 32, batch = 32;
  Rng rng(1);
  nn::SelfAttention attention(d, &rng);
  Variable mask = nn::MakeCausalMask(n);
  Variable e = RandomBatch(batch, n, d, &rng);
  for (auto _ : state) {
    Variable h = attention.Forward(e, mask);
    benchmark::DoNotOptimize(h.value().data());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_SelfAttentionForward_SeqLen)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->Complexity(benchmark::oNSquared);

void BM_SelfAttentionForward_Dim(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = 20, batch = 32;
  Rng rng(2);
  nn::SelfAttention attention(d, &rng);
  Variable mask = nn::MakeCausalMask(n);
  Variable e = RandomBatch(batch, n, d, &rng);
  for (auto _ : state) {
    Variable h = attention.Forward(e, mask);
    benchmark::DoNotOptimize(h.value().data());
  }
  state.SetComplexityN(static_cast<int64_t>(d));
}
BENCHMARK(BM_SelfAttentionForward_Dim)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->Complexity();

void BM_AttentionForwardBackward(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t d = 32, batch = 32;
  Rng rng(3);
  nn::SelfAttention attention(d, &rng);
  Variable mask = nn::MakeCausalMask(n);
  Variable e = RandomBatch(batch, n, d, &rng);
  for (auto _ : state) {
    attention.ZeroGrad();
    Variable h = attention.Forward(e, mask);
    Variable loss = autograd::MeanAll(h);
    autograd::Backward(loss);
    benchmark::DoNotOptimize(loss.value().at(0));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_AttentionForwardBackward)
    ->RangeMultiplier(2)
    ->Range(8, 64)
    ->Complexity(benchmark::oNSquared);

void BM_ResidualFfn_Depth(benchmark::State& state) {
  const size_t layers = static_cast<size_t>(state.range(0));
  const size_t d = 64, batch = 128;
  Rng rng(4);
  nn::ResidualFeedForward ffn(d, layers, &rng);
  Tensor h({batch, d});
  tensor::FillNormal(&h, &rng, 1.0f);
  Variable input = Variable::Constant(std::move(h));
  for (auto _ : state) {
    Variable out = ffn.Forward(input, 1.0f, /*training=*/false, &rng);
    benchmark::DoNotOptimize(out.value().data());
  }
  state.SetComplexityN(static_cast<int64_t>(layers));
}
BENCHMARK(BM_ResidualFfn_Depth)->DenseRange(1, 5)->Complexity(benchmark::oN);

void BM_EmbeddingGather(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t batch = 128, d = 64, vocab = 10000;
  Rng rng(5);
  nn::Embedding emb(vocab, d, &rng);
  std::vector<int32_t> idx(batch * n);
  for (auto& i : idx) {
    i = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(vocab)));
  }
  for (auto _ : state) {
    Variable out = emb.Forward(idx, batch, n);
    benchmark::DoNotOptimize(out.value().data());
  }
}
BENCHMARK(BM_EmbeddingGather)->RangeMultiplier(2)->Range(8, 64);

void BM_MaskedSoftmax(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(6);
  Tensor x({64, n, n});
  tensor::FillNormal(&x, &rng, 1.0f);
  Variable input = Variable::Constant(std::move(x));
  Variable mask = nn::MakeCausalMask(n);
  for (auto _ : state) {
    Variable p = autograd::MaskedSoftmax(input, mask);
    benchmark::DoNotOptimize(p.value().data());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_MaskedSoftmax)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->Complexity(benchmark::oNSquared);

// ---------------------------------------------------------------------------
// SeqFM's fused attention views at the serving benchmark's shape
// ---------------------------------------------------------------------------

/// One SeqFM attention view (d = 64) of a 256-candidate chunk as the
/// compiled body reads it. Cross: Q, K and V each stack a broadcast user
/// row, the per-candidate row and 20 broadcast history rows, under the
/// cross mask. Static: the user and candidate rows only, unmasked.
struct SeqFmAttention {
  static constexpr size_t kCount = 256, kD = 64, kNs = 2, kNd = 20;
  const size_t n;
  std::vector<Tensor> blocks;
  std::vector<const Tensor*> ptrs;
  Tensor mask;
  std::vector<uint32_t> ranges;
  Tensor rows;
  Tensor pooled{{kCount, kD}};

  explicit SeqFmAttention(bool cross)
      : n(cross ? kNs + kNd : kNs),
        rows({kCount, n, kD}) {
    if (cross) mask = nn::MakeCrossMask(kNs, kNd).value();
    Rng rng(23);
    for (size_t j = 0; j < 3; ++j) {
      for (size_t batch : {size_t{1}, kCount}) {
        blocks.emplace_back(std::vector<size_t>{batch, 1, kD});
      }
      if (cross) blocks.emplace_back(std::vector<size_t>{1, kNd, kD});
    }
    for (Tensor& t : blocks) {
      tensor::FillNormal(&t, &rng, 1.0f);
      ptrs.push_back(&t);
    }
    ir::OpenKeyRanges(cross ? &mask : nullptr, n, n, &ranges);
  }

  /// The pooled [count, d] rows: in one op, or the unpooled op's
  /// [count, n, d] rows read back by SumAxis1.
  void Run(bool in_place) {
    const size_t per = ptrs.size() / 3;
    const tensor::RowStack q{ptrs.data(), per}, k{ptrs.data() + per, per},
        v{ptrs.data() + 2 * per, per};
    const Tensor* m = mask.size() > 0 ? &mask : nullptr;
    const float alpha = 1.0f / 8.0f, pool = 1.0f / static_cast<float>(n);
    if (in_place) {
      tensor::MaskedAttention(q, k, v, m, ranges.data(), alpha, pool,
                              &pooled);
      return;
    }
    tensor::MaskedAttention(q, k, v, m, ranges.data(), alpha, 0.0f, &rows);
    tensor::SumAxis1(rows, pool, &pooled);
  }
};

/// Arg 1: pooled in place; arg 0: unpooled + SumAxis1. Reports the time per
/// candidate.
void RunSeqFmAttention(benchmark::State& state, bool cross) {
  util::SetGlobalThreads(1);
  SeqFmAttention att(cross);
  for (auto _ : state) {
    att.Run(state.range(0) != 0);
    benchmark::DoNotOptimize(att.pooled.data());
  }
  state.counters["per_cand"] = benchmark::Counter(
      SeqFmAttention::kCount, benchmark::Counter::kIsIterationInvariantRate |
                                  benchmark::Counter::kInvert);
}

void BM_MaskedAttentionCross(benchmark::State& state) {
  RunSeqFmAttention(state, /*cross=*/true);
}
BENCHMARK(BM_MaskedAttentionCross)->Arg(0)->Arg(1);

void BM_MaskedAttentionStatic(benchmark::State& state) {
  RunSeqFmAttention(state, /*cross=*/false);
}
BENCHMARK(BM_MaskedAttentionStatic)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Kernel speedup summary: the dispatched SIMD layer, scalar vs AVX2
// ---------------------------------------------------------------------------

/// Seconds per iteration of fn, measured over >= min_seconds of work after
/// one warm-up call.
template <typename Fn>
double TimePerIter(Fn&& fn, double min_seconds = 0.2) {
  fn();
  size_t iters = 0;
  Stopwatch timer;
  do {
    fn();
    ++iters;
  } while (timer.ElapsedSeconds() < min_seconds);
  return timer.ElapsedSeconds() / static_cast<double>(iters);
}

void RunKernelSpeedupSummary(const std::string& json_path) {
  bench::JsonResultWriter json;
  json.Add("bench", "micro_ops");
  const bool avx2 = tensor::kernels::Avx2KernelsAvailable();
  json.Add("cpu_has_avx2", avx2 ? "true" : "false");
  std::printf("\n--- SIMD kernel layer: scalar vs avx2 (runtime dispatch, "
              "bit-identical results) ---\n");
  if (!avx2) {
    std::printf("AVX2 kernels unavailable on this machine; scalar only.\n");
    if (!json_path.empty()) json.WriteTo(json_path);
    return;
  }
  util::SetGlobalThreads(1);  // isolate the microkernel from pool effects

  Rng rng(17);
  const size_t gm = 256;
  Tensor a({gm, gm}), b({gm, gm}), c({gm, gm});
  tensor::FillNormal(&a, &rng, 1.0f);
  tensor::FillNormal(&b, &rng, 1.0f);
  const double gflop = 2.0 * static_cast<double>(gm * gm * gm) * 1e-9;

  auto time_gemm = [&](util::SimdLevel level, bool trans_b) {
    const util::SimdLevel prev = util::SetSimdLevel(level);
    const double sec = TimePerIter(
        [&]() { tensor::MatMul(a, b, &c, false, trans_b); });
    util::SetSimdLevel(prev);
    return sec;
  };

  std::printf("%-34s %12s %12s %9s\n", "kernel", "scalar", "avx2", "speedup");
  auto report = [&](const char* name, const char* key, double scalar_s,
                    double avx2_s, const char* unit, double per_iter_work) {
    std::printf("%-34s %9.2f %s %9.2f %s %8.2fx\n", name,
                per_iter_work / scalar_s, unit, per_iter_work / avx2_s, unit,
                scalar_s / avx2_s);
    json.Add(std::string(key) + "_speedup", scalar_s / avx2_s);
    json.Add(std::string(key) + "_scalar_per_sec", per_iter_work / scalar_s);
    json.Add(std::string(key) + "_avx2_per_sec", per_iter_work / avx2_s);
  };

  {
    const double s = time_gemm(util::SimdLevel::kScalar, false);
    const double v = time_gemm(util::SimdLevel::kAvx2, false);
    report("gemm 256^3 (B normal)", "gemm_microkernel", s, v, "GF/s", gflop);
  }
  {
    const double s = time_gemm(util::SimdLevel::kScalar, true);
    const double v = time_gemm(util::SimdLevel::kAvx2, true);
    report("gemm 256^3 (B transposed)", "gemm_trans", s, v, "GF/s", gflop);
  }

  {
    // The compiled SeqFM body's three B-normal matmuls on one chunk: two
    // residual layers and the output projection (BM_GemmBody's shapes).
    Tensor as[2], bs[2], cs[2];
    double body_gflop = 0.0;
    for (size_t i = 0; i < 2; ++i) {
      const GemmBodyShape& sh = kGemmBodyShapes[i];
      as[i] = Tensor({sh.m, sh.k});
      bs[i] = Tensor({sh.k, sh.n});
      cs[i] = Tensor({sh.m, sh.n});
      tensor::FillNormal(&as[i], &rng, 1.0f);
      tensor::FillNormal(&bs[i], &rng, 1.0f);
      body_gflop += (i == 0 ? 2 : 1) * 2.0 *
                    static_cast<double>(sh.m * sh.n * sh.k) * 1e-9;
    }
    auto time_body = [&](util::SimdLevel level) {
      const util::SimdLevel prev = util::SetSimdLevel(level);
      const double sec = TimePerIter([&]() {
        tensor::MatMul(as[0], bs[0], &cs[0]);
        tensor::MatMul(as[0], bs[0], &cs[0]);
        tensor::MatMul(as[1], bs[1], &cs[1]);
      });
      util::SetSimdLevel(prev);
      return sec;
    };
    const double s = time_body(util::SimdLevel::kScalar);
    const double v = time_body(util::SimdLevel::kAvx2);
    report("gemm SeqFM body (2x[256,64]^2+n=1)", "gemm_body", s, v, "GF/s",
           body_gflop);
  }
  {
    SeqFmAttention att(/*cross=*/true);
    auto time_cross = [&](util::SimdLevel level) {
      const util::SimdLevel prev = util::SetSimdLevel(level);
      const double sec = TimePerIter([&]() { att.Run(/*in_place=*/true); });
      util::SetSimdLevel(prev);
      return sec;
    };
    const double s = time_cross(util::SimdLevel::kScalar);
    const double v = time_cross(util::SimdLevel::kAvx2);
    report("cross attention, pooled (SeqFM)", "masked_attention_cross", s, v,
           "Mc/s", SeqFmAttention::kCount * 1e-6);
  }

  const auto& ks = tensor::kernels::Table(util::SimdLevel::kScalar);
  const auto& kv = tensor::kernels::Table(util::SimdLevel::kAvx2);
  const size_t n = 4096;
  Tensor x({n}), y({n}), z({n});
  tensor::FillNormal(&x, &rng, 1.0f);
  tensor::FillNormal(&y, &rng, 1.0f);
  const double melems = static_cast<double>(n) * 1e-6;

  volatile float sink = 0.0f;
  {
    const double s =
        TimePerIter([&]() { sink = ks.dot(x.data(), y.data(), n); });
    const double v =
        TimePerIter([&]() { sink = kv.dot(x.data(), y.data(), n); });
    report("dot n=4096", "dot", s, v, "Me/s", melems);
  }
  {
    const double s = TimePerIter(
        [&]() { ks.axpy(1.0009765f, x.data(), z.data(), n); });
    const double v = TimePerIter(
        [&]() { kv.axpy(1.0009765f, x.data(), z.data(), n); });
    report("axpy n=4096", "axpy", s, v, "Me/s", melems);
  }
  {
    const double s =
        TimePerIter([&]() { ks.sigmoid(x.data(), z.data(), n); });
    const double v =
        TimePerIter([&]() { kv.sigmoid(x.data(), z.data(), n); });
    report("sigmoid n=4096", "sigmoid", s, v, "Me/s", melems);
  }
  {
    auto softmax_row = [&](const tensor::kernels::KernelTable& kt) {
      const float mx = kt.reduce_max_add(x.data(), nullptr, n);
      const float total =
          kt.softmax_exp_sum(x.data(), nullptr, mx, z.data(), n);
      kt.scale_inplace(1.0f / total, z.data(), n);
    };
    const double s = TimePerIter([&]() { softmax_row(ks); });
    const double v = TimePerIter([&]() { softmax_row(kv); });
    report("softmax row n=4096", "softmax", s, v, "Me/s", melems);
  }
  (void)sink;
  std::printf("acceptance: gemm microkernel avx2/scalar must be >= 2x on "
              "AVX2 hardware.\n");
  if (!json_path.empty()) json.WriteTo(json_path);
}

}  // namespace
}  // namespace seqfm

int main(int argc, char** argv) {
  // Pull out our own --json flag before handing argv to google-benchmark.
  std::string json_path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  seqfm::RunKernelSpeedupSummary(json_path);
  return 0;
}
