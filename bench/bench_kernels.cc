/**
 * @file
 * Google-benchmark microbenchmarks: exact GEMM vs LUT-GEMM (encode +
 * lookup) software kernels, the encode and lookup phases separately, and
 * the serving arena's split data-plane kernels (planar-code encodeBatch,
 * the float argmin-encode at every forced SIMD level — scalar scan vs
 * the AVX2 and AVX-512 row-lane tiers, identical codes — the INT8
 * argmin-encode at every forced SIMD level — scalar integer
 * reference vs VPMADDUBSW/VPMADDWD vs VPDPBUSD, identical codes across
 * all three — float-bank gather, INT8-bank gather with both kernel
 * tiers forced (scalar group sweep vs VPERMB+VPDPBUSD dot), and the
 * nibble-packed INT4-bank gather at its forced levels for the
 * bytes-halved-vs-unpack-cost comparison against INT8 and float), and
 * the element-wise and attention math around the tables (GELU over one
 * FFN epilogue and one sequence's attention core, scalar twin vs
 * AVX-512, identical bits). The
 * shapes double as the kernel tier audit in docs/SERVING.md; regenerate
 * it with one --benchmark_enable_random_interleaving run. These are
 * software-kernel timings (host CPU), complementing the cycle
 * simulator's hardware numbers.
 *
 * Run: ./build/bench/bench_kernels [--json <path>] [google-benchmark args]
 *   --json <path>  shorthand for --benchmark_out=<path>
 *                  --benchmark_out_format=json, for machine-readable
 *                  results.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "lutboost/kernels.h"
#include "nn/activations.h"
#include "nn/attention.h"
#include "tensor/gemm.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "vq/lut.h"

using namespace lutdla;

namespace {

Tensor
randomMatrix(int64_t r, int64_t c, uint64_t seed)
{
    Tensor t(Shape{r, c});
    Rng rng(seed);
    for (int64_t i = 0; i < t.numel(); ++i)
        t.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
    return t;
}

struct KernelFixture
{
    KernelFixture(int64_t m, int64_t k, int64_t n, int64_t v, int64_t c)
        : a(randomMatrix(m, k, 1)), w(randomMatrix(k, n, 2))
    {
        vq::PQConfig cfg;
        cfg.v = v;
        cfg.c = c;
        engine = std::make_unique<vq::LutGemmEngine>(
            cfg, w, randomMatrix(256, k, 3));
    }

    Tensor a, w;
    std::unique_ptr<vq::LutGemmEngine> engine;
};

/** The serving arena + scratch for the split-phase benchmarks. */
struct ArenaFixture
{
    ArenaFixture(int64_t m, int64_t k, int64_t n, int64_t v, int64_t c)
        : fx(m, k, n, v, c),
          arena(fx.engine->quantizer(), fx.engine->lut(), nullptr, false),
          y(static_cast<size_t>(m * n))
    {
        arena.ensureInt8Bank();
        arena.ensureInt4Bank();
        arena.encodeBatch(fx.a.data(), m, scratch.codes, scratch.encode);
    }

    KernelFixture fx;
    lutboost::LutTableArena arena;
    lutboost::KernelScratch scratch;
    std::vector<float> y;
};

void
BM_ExactGemm(benchmark::State &state)
{
    KernelFixture fx(state.range(0), state.range(1), state.range(2), 4,
                     16);
    for (auto _ : state) {
        Tensor c = matmul(fx.a, fx.w);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * fx.a.dim(0) *
                            fx.a.dim(1) * fx.w.dim(1));
}

void
BM_LutGemm(benchmark::State &state)
{
    KernelFixture fx(state.range(0), state.range(1), state.range(2), 4,
                     16);
    for (auto _ : state) {
        Tensor c = fx.engine->matmul(fx.a);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * fx.a.dim(0) *
                            fx.a.dim(1) * fx.w.dim(1));
}

void
BM_Encode(benchmark::State &state)
{
    KernelFixture fx(state.range(0), state.range(1), 64, state.range(2),
                     16);
    for (auto _ : state) {
        auto codes = fx.engine->quantizer().encode(fx.a);
        benchmark::DoNotOptimize(codes.data());
    }
}

void
BM_Lookup(benchmark::State &state)
{
    KernelFixture fx(state.range(0), state.range(1), state.range(2), 4,
                     16);
    auto codes = fx.engine->quantizer().encode(fx.a);
    for (auto _ : state) {
        Tensor c = fx.engine->lut().lookupGemm(codes, fx.a.dim(0));
        benchmark::DoNotOptimize(c.data());
    }
}

// ---- Serving data-plane phases (the kernels behind KernelBackend) ------

void
BM_ArenaEncodeBatch(benchmark::State &state)
{
    ArenaFixture ax(state.range(0), state.range(1), 64, state.range(2),
                    16);
    for (auto _ : state) {
        ax.arena.encodeBatch(ax.fx.a.data(), ax.fx.a.dim(0),
                             ax.scratch.codes, ax.scratch.encode);
        benchmark::DoNotOptimize(ax.scratch.codes.sizeBytes());
    }
    state.SetItemsProcessed(state.iterations() * ax.fx.a.dim(0));
    state.counters["code_bytes"] =
        static_cast<double>(ax.scratch.codes.sizeBytes());
}

void
BM_ArenaGatherFloat(benchmark::State &state)
{
    ArenaFixture ax(state.range(0), state.range(1), state.range(2), 4,
                    16);
    for (auto _ : state) {
        ax.arena.gatherAccumulate(ax.scratch.codes, ax.y.data(),
                                  ax.scratch.gather);
        benchmark::DoNotOptimize(ax.y.data());
    }
    state.SetItemsProcessed(state.iterations() * ax.fx.a.dim(0));
    state.counters["table_bytes"] =
        static_cast<double>(ax.arena.sizeBytes());
}

/** Skips `state` when `level` asks for more than the running CPU has. */
bool
skipAboveHost(benchmark::State &state, util::SimdLevel level)
{
    if (level <= util::simdLevel())
        return false;
    state.SkipWithError("SIMD tier not available on this CPU");
    return true;
}

/**
 * Float L2 argmin-encode (c = 16) capped at a forced SIMD level: the
 * scalar scan, the AVX2 and the AVX-512 `genc` tiers, identical codes.
 * Args are (rows, K, v): bert's d_ff -> d and d -> d projections at one
 * 64-row block (v = 4, K = 1024 and 256) and at 512 rows, resnet18's
 * widest stage (K = 4608, v = 8; multitenant-swap's bulk lane runs it on
 * this encode), and 5- and 13-row batches at K = 1024, which are all
 * per-row tail at AVX-512 (and 5 at AVX2). Levels above the host's skip.
 */
void
encodeFloatVariant(benchmark::State &state, util::SimdLevel level)
{
    if (skipAboveHost(state, level))
        return;
    ArenaFixture ax(state.range(0), state.range(1), 64, state.range(2),
                    16);
    for (auto _ : state) {
        ax.arena.encodeBatch(ax.fx.a.data(), ax.fx.a.dim(0),
                             ax.scratch.codes, ax.scratch.encode, 0, level);
        benchmark::DoNotOptimize(ax.scratch.codes.sizeBytes());
    }
    state.SetItemsProcessed(state.iterations() * ax.fx.a.dim(0));
}

void
BM_ArenaEncodeFloatScalar(benchmark::State &state)
{
    encodeFloatVariant(state, util::SimdLevel::Generic);
}

void
BM_ArenaEncodeFloatAvx2(benchmark::State &state)
{
    encodeFloatVariant(state, util::SimdLevel::Avx2);
}

void
BM_ArenaEncodeFloatAvx512(benchmark::State &state)
{
    encodeFloatVariant(state, util::SimdLevel::Avx512);
}

/**
 * INT8 argmin-encode capped at a forced SIMD level: identical codes
 * across every tier (exact int32 scores), timed against the float
 * BM_ArenaEncodeBatch rows at the same shapes — the quantized-encode
 * acceptance comparison. Args are (rows, K, v); the K = 4608, v = 8 rows
 * are the hottest resnet18 stage at one served 64-row tile (row-lane
 * blocks) and at 4 rows (the per-row remainder). Levels above the host's
 * skip.
 */
void
encodeInt8Variant(benchmark::State &state, util::SimdLevel level)
{
    if (skipAboveHost(state, level))
        return;
    ArenaFixture ax(state.range(0), state.range(1), 64, state.range(2),
                    16);
    ax.arena.ensureInt8EncodeBank();
    for (auto _ : state) {
        ax.arena.encodeBatchInt8(ax.fx.a.data(), ax.fx.a.dim(0),
                                 ax.scratch.codes, ax.scratch.encode, 0,
                                 level);
        benchmark::DoNotOptimize(ax.scratch.codes.sizeBytes());
    }
    state.SetItemsProcessed(state.iterations() * ax.fx.a.dim(0));
    state.counters["encode_table_bytes"] =
        static_cast<double>(ax.arena.int8EncodeTableBytes());
}

void
BM_ArenaEncodeInt8(benchmark::State &state)
{
    encodeInt8Variant(state, util::simdLevel());
}

void
BM_ArenaEncodeInt8Scalar(benchmark::State &state)
{
    encodeInt8Variant(state, util::SimdLevel::Generic);
}

void
BM_ArenaEncodeInt8MaddAvx2(benchmark::State &state)
{
    encodeInt8Variant(state, util::SimdLevel::Avx2);
}

void
BM_ArenaEncodeInt8DotVnni(benchmark::State &state)
{
    encodeInt8Variant(state, util::SimdLevel::Avx512Vnni);
}

/**
 * INT8 gather capped at a forced SIMD level (the tier audit: VNNI
 * shuffle vs scalar at c=16 on identical codes, bit-exact outputs). The
 * VNNI level skips on hosts without VBMI+VNNI.
 */
void
gatherInt8Variant(benchmark::State &state, util::SimdLevel level)
{
    if (skipAboveHost(state, level))
        return;
    ArenaFixture ax(state.range(0), state.range(1), state.range(2), 4,
                    16);
    for (auto _ : state) {
        ax.arena.gatherAccumulateInt8(ax.scratch.codes, ax.y.data(),
                                      ax.scratch.gather, level);
        benchmark::DoNotOptimize(ax.y.data());
    }
    state.SetItemsProcessed(state.iterations() * ax.fx.a.dim(0));
    state.counters["table_bytes"] =
        static_cast<double>(ax.arena.int8TableBytes());
}

void
BM_ArenaGatherInt8(benchmark::State &state)
{
    gatherInt8Variant(state, util::simdLevel());
}

void
BM_ArenaGatherInt8Scalar(benchmark::State &state)
{
    gatherInt8Variant(state, util::SimdLevel::Generic);
}

void
BM_ArenaGatherInt8ShuffleVnni(benchmark::State &state)
{
    gatherInt8Variant(state, util::SimdLevel::Avx512Vnni);
}

/**
 * INT4 gather capped at a forced SIMD level: same codes, nibble-packed
 * bit-plane bank (two output columns per byte). Compared against the
 * INT8 and float rows at identical shapes, this times the cost of the
 * extra unpack-and-shift against the halved table stream. Args are
 * (rows, K, N, v); 64 x 4608 x 512 at v = 8 is the hottest resnet18
 * stage at one served tile, and 1-15 rows of it are the row-tail path:
 * the SIMD row sweep at the default cap and the shuffle levels, the
 * scalar sweep under Scalar.
 * The 256-row rows (int4GatherArgs) are the resnet18-bulk stage
 * shapes at a full batch: on the small-K stages and the fc, the code
 * handoff and the transpose-out are a large share of the gather.
 */
void
gatherInt4Variant(benchmark::State &state, util::SimdLevel level)
{
    if (skipAboveHost(state, level))
        return;
    ArenaFixture ax(state.range(0), state.range(1), state.range(2),
                    state.range(3), 16);
    for (auto _ : state) {
        ax.arena.gatherAccumulateInt4(ax.scratch.codes, ax.y.data(),
                                      ax.scratch.gather, level);
        benchmark::DoNotOptimize(ax.y.data());
    }
    state.SetItemsProcessed(state.iterations() * ax.fx.a.dim(0));
    state.counters["table_bytes"] =
        static_cast<double>(ax.arena.int4TableBytes());
}

void
BM_ArenaGatherInt4(benchmark::State &state)
{
    gatherInt4Variant(state, util::simdLevel());
}

void
BM_ArenaGatherInt4Scalar(benchmark::State &state)
{
    gatherInt4Variant(state, util::SimdLevel::Generic);
}

void
BM_ArenaGatherInt4ShuffleAvx512(benchmark::State &state)
{
    gatherInt4Variant(state, util::SimdLevel::Avx512);
}

void
BM_ArenaGatherInt4ShuffleAvx2(benchmark::State &state)
{
    gatherInt4Variant(state, util::SimdLevel::Avx2);
}

/**
 * GELU over one bert-encoder FFN epilogue (512 rows x d_ff 1024 =
 * 524,288 floats) at a forced math tier: the scalar twin vs the AVX-512
 * variant, identical bits. Each iteration restores the input with a
 * 2 MB memcpy before the in-place GELU.
 */
void
geluTier(benchmark::State &state, util::SimdLevel level)
{
    if (skipAboveHost(state, level))
        return;
    const Tensor x = randomMatrix(512, 1024, 4);
    std::vector<float> y(static_cast<size_t>(x.numel()));
    for (auto _ : state) {
        std::memcpy(y.data(), x.data(), y.size() * sizeof(float));
        nn::geluForward(y.data(), x.numel(), level);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * x.numel());
}

void
BM_GeluForwardScalar(benchmark::State &state)
{
    geluTier(state, util::SimdLevel::Generic);
}

void
BM_GeluForwardAvx512(benchmark::State &state)
{
    geluTier(state, util::SimdLevel::Avx512);
}

/**
 * The attention core of one bert-encoder sequence (T = 128, d_model =
 * 256, 4 heads) at a forced tier: scores, softmax and context, scalar
 * loop vs the AVX-512 variant (identical bits). Each iteration zeroes
 * the 128 KB context plane first, as AttentionStage does.
 */
void
attentionTier(benchmark::State &state, util::SimdLevel level)
{
    if (skipAboveHost(state, level))
        return;
    constexpr int64_t kT = 128, kD = 256, kHeads = 4;
    const Tensor q = randomMatrix(kT, kD, 5), k = randomMatrix(kT, kD, 6),
                 v = randomMatrix(kT, kD, 7);
    std::vector<float> ctx(static_cast<size_t>(kT * kD));
    std::vector<float> probs(static_cast<size_t>(kHeads * kT * kT));
    std::vector<float> k_t(static_cast<size_t>(kD / kHeads * kT));
    for (auto _ : state) {
        std::fill(ctx.begin(), ctx.end(), 0.0f);
        nn::attentionSequenceContext(q.data(), k.data(), v.data(), kT,
                                     kHeads, kD, ctx.data(), probs.data(),
                                     k_t.data(), level);
        benchmark::DoNotOptimize(ctx.data());
    }
    state.SetItemsProcessed(state.iterations() * kT);
}

void
BM_AttentionSequenceContextScalar(benchmark::State &state)
{
    attentionTier(state, util::SimdLevel::Generic);
}

void
BM_AttentionSequenceContextAvx512(benchmark::State &state)
{
    attentionTier(state, util::SimdLevel::Avx512);
}

} // namespace

BENCHMARK(BM_ExactGemm)
    ->Args({128, 256, 256})
    ->Args({256, 512, 512})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LutGemm)
    ->Args({128, 256, 256})
    ->Args({256, 512, 512})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Encode)
    ->Args({256, 512, 4})
    ->Args({256, 512, 8})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Lookup)
    ->Args({128, 256, 256})
    ->Args({256, 512, 512})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ArenaEncodeBatch)
    ->Args({256, 512, 4})
    ->Args({256, 512, 8})
    ->Unit(benchmark::kMicrosecond);
/** Float encode args: (rows, K, v); see encodeFloatVariant. */
void
floatEncodeArgs(benchmark::internal::Benchmark *b)
{
    b->Args({64, 256, 4})
        ->Args({64, 1024, 4})
        ->Args({64, 4608, 8})
        ->Args({512, 1024, 4})
        ->Args({5, 1024, 4})
        ->Args({13, 1024, 4})
        ->Unit(benchmark::kMicrosecond);
}
BENCHMARK(BM_ArenaEncodeFloatScalar)->Apply(floatEncodeArgs);
BENCHMARK(BM_ArenaEncodeFloatAvx2)->Apply(floatEncodeArgs);
BENCHMARK(BM_ArenaEncodeFloatAvx512)->Apply(floatEncodeArgs);
BENCHMARK(BM_ArenaEncodeInt8)
    ->Args({256, 512, 4})
    ->Args({256, 512, 8})
    ->Args({64, 4608, 8})
    ->Args({4, 4608, 8})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ArenaEncodeInt8Scalar)
    ->Args({256, 512, 4})
    ->Args({256, 512, 8})
    ->Args({64, 4608, 8})
    ->Args({4, 4608, 8})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ArenaEncodeInt8MaddAvx2)
    ->Args({256, 512, 4})
    ->Args({256, 512, 8})
    ->Args({64, 4608, 8})
    ->Args({4, 4608, 8})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ArenaEncodeInt8DotVnni)
    ->Args({256, 512, 4})
    ->Args({256, 512, 8})
    ->Args({64, 4608, 8})
    ->Args({4, 4608, 8})
    ->Unit(benchmark::kMicrosecond);
/** Float gather args: the generic shapes, then the tiny batches (1, 3
 * and 7 rows) that the grouped sweep serves like any other. */
void
floatGatherArgs(benchmark::internal::Benchmark *b)
{
    b->Args({128, 256, 256})
        ->Args({256, 512, 512})
        ->Args({1, 256, 256})
        ->Args({3, 256, 256})
        ->Args({7, 256, 256})
        ->Args({1, 4608, 512})
        ->Args({3, 4608, 512})
        ->Args({7, 4608, 512})
        ->Unit(benchmark::kMicrosecond);
}

/** INT8 gather args (rows, K, N): the generic shapes, a K 256 -> N 1024
 * layer at 16, 24 and 32 rows (either side of the padded-tail threshold,
 * LutTableArena::kInt8PadTailRows), 64 and 512 rows, and the widest
 * resnet18 stage at one 64-row tile and a 256-row batch. */
void
int8GatherArgs(benchmark::internal::Benchmark *b)
{
    b->Args({128, 256, 256})
        ->Args({256, 512, 512})
        ->Args({16, 256, 1024})
        ->Args({24, 256, 1024})
        ->Args({32, 256, 1024})
        ->Args({64, 256, 1024})
        ->Args({512, 256, 1024})
        ->Args({64, 4608, 512})
        ->Args({256, 4608, 512})
        ->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_ArenaGatherFloat)->Apply(floatGatherArgs);
BENCHMARK(BM_ArenaGatherInt8)->Apply(int8GatherArgs);
BENCHMARK(BM_ArenaGatherInt8Scalar)->Apply(int8GatherArgs);
BENCHMARK(BM_ArenaGatherInt8ShuffleVnni)->Apply(int8GatherArgs);
/** INT4 gather args: the generic shapes; the hottest resnet18 stage at
 * one tile, at the 1-15-row batches the SIMD row sweep serves, and at
 * 16-48 rows around the padded-tail threshold
 * (LutTableArena::kInt4PadTailRows); the fc at a 3-row batch; then the
 * resnet18-bulk stage shapes at a 256-row batch (K / N = 576 / 64 ...
 * 4608 / 512, and the 512 / 1000 fc). */
void
int4GatherArgs(benchmark::internal::Benchmark *b)
{
    b->Args({128, 256, 256, 4})
        ->Args({256, 512, 512, 4})
        ->Args({64, 4608, 512, 8})
        ->Args({1, 4608, 512, 8})
        ->Args({3, 4608, 512, 8})
        ->Args({8, 4608, 512, 8})
        ->Args({15, 4608, 512, 8})
        ->Args({16, 4608, 512, 8})
        ->Args({24, 4608, 512, 8})
        ->Args({32, 4608, 512, 8})
        ->Args({48, 4608, 512, 8})
        ->Args({3, 512, 1000, 8})
        ->Args({256, 576, 64, 8})
        ->Args({256, 1152, 128, 8})
        ->Args({256, 2304, 256, 8})
        ->Args({256, 4608, 512, 8})
        ->Args({256, 512, 1000, 8})
        ->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_ArenaGatherInt4)->Apply(int4GatherArgs);
BENCHMARK(BM_ArenaGatherInt4Scalar)->Apply(int4GatherArgs);
BENCHMARK(BM_ArenaGatherInt4ShuffleAvx512)->Apply(int4GatherArgs);
BENCHMARK(BM_ArenaGatherInt4ShuffleAvx2)->Apply(int4GatherArgs);

BENCHMARK(BM_GeluForwardScalar)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GeluForwardAvx512)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AttentionSequenceContextScalar)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AttentionSequenceContextAvx512)->Unit(benchmark::kMicrosecond);

int
main(int argc, char **argv)
{
    // Translate our conventional --json <path> flag into google-benchmark's
    // reporter flags so every bench in the repo shares one CLI shape.
    std::vector<std::string> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            args.push_back(std::string("--benchmark_out=") + argv[i + 1]);
            args.push_back("--benchmark_out_format=json");
            ++i;
            continue;
        }
        args.push_back(argv[i]);
    }
    std::vector<char *> argv2;
    argv2.reserve(args.size());
    for (std::string &arg : args)
        argv2.push_back(arg.data());
    int argc2 = static_cast<int>(argv2.size());
    benchmark::Initialize(&argc2, argv2.data());
    if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
