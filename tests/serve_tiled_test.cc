// Tests for the row-tiled segment executor: bit-exactness of the tiled
// forwardBatch against the untiled phase-barrier path across tile sizes,
// table precisions, forced gather levels, and ragged tails; the tile
// plan's segment partition and per-worker scratch accounting; the
// multi-worker engine racing per-tile tasks over MLP / CNN / transformer
// stage graphs; and one poisoned scratch reused across all three.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "api/lutdla.h"
#include "lutboost/converter.h"
#include "lutboost/kernels.h"
#include "lutboost/kernels_simd.h"
#include "lutboost/lut_conv.h"
#include "lutboost/lut_linear.h"
#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/norm.h"
#include "nn/sequential.h"
#include "serve/frozen_model.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace lutdla {
namespace {

Tensor
randomRows(int64_t rows, int64_t width, uint64_t seed)
{
    Rng rng(seed);
    Tensor x(Shape{rows, width});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
    return x;
}

/** A three-GEMM trace chain with a non-chaining width in the middle, so
 * the tiled segment also covers a width-adapt prologue. */
serve::FrozenModel
makeTraceModel(serve::PlanOptions plan)
{
    std::vector<sim::GemmShape> gemms{
        {4, 24, 40, "a"}, {4, 36, 18, "b"}, {4, 18, 9, "c"}};
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    auto model = serve::FrozenModel::fromTrace(gemms, pq, {}, 91, plan);
    EXPECT_TRUE(model.ok()) << model.status().toString();
    return model.take();
}

// ---------------------------------------------------------------------------
// Property sweep: every tile size x every precision is bit-identical to
// the untiled executor on the same plan.

TEST(TiledExecutor, TraceSweepBitExactAcrossTileSizesAndPrecisions)
{
    // 193 rows: ragged against every candidate tile size below.
    const Tensor x = randomRows(193, 24, 17);

    for (const serve::TablePrecision precision :
         {serve::TablePrecision::Float32, serve::TablePrecision::Int8,
          serve::TablePrecision::Int4}) {
        serve::PlanOptions untiled;
        untiled.table_precision = precision;
        untiled.tile_rows = -1;  // phase-barrier executor
        serve::FrozenModel baseline = makeTraceModel(untiled);
        ASSERT_TRUE(baseline.tilePlan().segments.empty())
            << "tile_rows=-1 must disable the segment partition";
        const Tensor reference = baseline.forwardBatch(x);

        // Auto plan, to learn the segment granule for this precision.
        serve::PlanOptions auto_plan = untiled;
        auto_plan.tile_rows = 0;
        const serve::FrozenModel tuned = baseline.withPlan(auto_plan);
        ASSERT_FALSE(tuned.tilePlan().segments.empty());
        const int64_t granule = tuned.tilePlan().segments[0].granule;
        EXPECT_EQ(tuned.tilePlan().segments[0].tile_rows % granule, 0)
            << "auto tile size must be a granule multiple";
        EXPECT_TRUE(tuned.forwardBatch(x).equals(reference))
            << "auto tile diverged at precision "
            << serve::tablePrecisionName(precision);

        for (const int64_t tile :
             {int64_t{1}, int64_t{7}, granule, granule + 1,
              x.dim(0)}) {
            serve::PlanOptions forced = untiled;
            forced.tile_rows = tile;
            const serve::FrozenModel tiled = baseline.withPlan(forced);
            ASSERT_FALSE(tiled.tilePlan().segments.empty());
            EXPECT_EQ(tiled.tilePlan().segments[0].tile_rows, tile);
            const Tensor streamed = tiled.forwardBatch(x);
            EXPECT_TRUE(streamed.equals(reference))
                << "tile=" << tile << " precision="
                << serve::tablePrecisionName(precision) << " maxdiff="
                << Tensor::maxAbsDiff(streamed, reference);
        }
    }
}

// ---------------------------------------------------------------------------
// Forced gather levels: per-tile encode + gather (exactly what the
// executor runs inside a segment) is bit-identical to the whole-batch
// sweep at EVERY tier, not just the one the default cap resolves to.

TEST(TiledExecutor, ForcedGatherLevelsBitExactUnderTiling)
{
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    const int64_t k = 52, n = 70, rows = 130;
    lutboost::LutLinear layer(k, n, pq, /*bias=*/true, /*seed=*/5);
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    arena->ensureInt8Bank();
    arena->ensureInt4Bank();
    const Tensor x = randomRows(rows, k, 23);

    lutboost::KernelScratch full;
    lutboost::KernelBackend::of(lutboost::TablePrecision::Float32)
        .encodeBatch(*arena, x.data(), rows, full);

    const util::SimdLevel level = util::simdLevel();
    const int64_t chunk = lutboost::simd::shuffleGatherChunkRows(level);
    std::vector<int64_t> tile_sizes{1, 33};
    if (chunk > 0) {
        tile_sizes.push_back(chunk);
        tile_sizes.push_back(chunk + 1);
    }

    // The host's own level is the default cap.
    std::vector<util::SimdLevel> int8_levels{util::SimdLevel::Generic,
                                             level};
    if (level >= util::SimdLevel::Avx512Vnni)
        int8_levels.push_back(util::SimdLevel::Avx512Vnni);
    for (const util::SimdLevel cap : int8_levels) {
        Tensor whole(Shape{rows, n});
        arena->gatherAccumulateInt8(full.codes, whole.data(), full.gather,
                                    cap);
        for (const int64_t tile : tile_sizes) {
            Tensor tiled(Shape{rows, n});
            lutboost::KernelScratch local;
            for (int64_t r0 = 0; r0 < rows; r0 += tile) {
                const int64_t rn = std::min(tile, rows - r0);
                lutboost::KernelBackend::of(
                    lutboost::TablePrecision::Float32)
                    .encodeBatch(*arena, x.data() + r0 * k, rn, local);
                arena->gatherAccumulateInt8(local.codes,
                                            tiled.data() + r0 * n,
                                            local.gather, cap);
            }
            EXPECT_TRUE(tiled.equals(whole))
                << "int8 at " << util::simdLevelName(cap)
                << " tile=" << tile << " diverged under per-tile sweep";
        }
    }

    std::vector<util::SimdLevel> int4_levels{util::SimdLevel::Generic};
    if (level >= util::SimdLevel::Avx2)
        int4_levels.push_back(util::SimdLevel::Avx2);
    if (level >= util::SimdLevel::Avx512)
        int4_levels.push_back(util::SimdLevel::Avx512);
    for (const util::SimdLevel cap : int4_levels) {
        Tensor whole(Shape{rows, n});
        arena->gatherAccumulateInt4(full.codes, whole.data(), full.gather,
                                    cap);
        for (const int64_t tile : tile_sizes) {
            Tensor tiled(Shape{rows, n});
            lutboost::KernelScratch local;
            for (int64_t r0 = 0; r0 < rows; r0 += tile) {
                const int64_t rn = std::min(tile, rows - r0);
                lutboost::KernelBackend::of(
                    lutboost::TablePrecision::Float32)
                    .encodeBatch(*arena, x.data() + r0 * k, rn, local);
                arena->gatherAccumulateInt4(local.codes,
                                            tiled.data() + r0 * n,
                                            local.gather, cap);
            }
            EXPECT_TRUE(tiled.equals(whole))
                << "int4 at " << util::simdLevelName(cap)
                << " tile=" << tile << " diverged under per-tile sweep";
        }
    }
}

// ---------------------------------------------------------------------------
// Plan accounting: segments, granule multiples, and the scratch-plane
// reduction planSummary() reports.

TEST(TiledExecutor, PlanReportsSegmentsAndScratchReduction)
{
    // Wide interior, narrow boundaries: the shape where full-batch
    // ping-pong planes hurt and tiling shrinks steady-state scratch.
    std::vector<sim::GemmShape> gemms{
        {4, 64, 1024, "a"}, {4, 1024, 1024, "b"}, {4, 1024, 32, "c"}};
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    serve::PlanOptions plan;
    plan.table_precision = serve::TablePrecision::Int4;
    auto model = serve::FrozenModel::fromTrace(gemms, pq, {}, 91, plan);
    ASSERT_TRUE(model.ok()) << model.status().toString();

    const serve::TileExecPlan &tiles = model->tilePlan();
    ASSERT_EQ(tiles.segments.size(), 1u) << model->planSummary();
    const serve::TilePlan &seg = tiles.segments[0];
    EXPECT_GT(seg.tile_rows, 0);
    EXPECT_GT(seg.granule, 0);
    EXPECT_EQ(seg.tile_rows % seg.granule, 0);
    EXPECT_GT(seg.row_bytes, 0);

    // Every lut-gemm stage carries its segment in the plan record.
    for (const serve::StagePlan &p : model->plan())
        if (p.code_bits > 0) {
            EXPECT_EQ(p.segment, 0) << p.description;
            EXPECT_EQ(p.tile_rows, seg.tile_rows);
        }

    // The wide interior planes leave per-worker steady-state scratch:
    // at a batch well past the tile size, the tiled executor holds less.
    const int64_t batch = 4 * seg.tile_rows;
    EXPECT_LT(tiles.scratchBytesPerWorker(batch, true),
              tiles.scratchBytesPerWorker(batch, false))
        << model->planSummary();
    // The segment spans the whole chain: it reads the request tensor and
    // writes the result tensor, so no plane holds the full batch.
    EXPECT_EQ(tiles.tiled_plane_bytes_per_row, 0) << model->planSummary();

    const std::string summary = model->planSummary();
    EXPECT_NE(summary.find("tiled executor"), std::string::npos);
    EXPECT_NE(summary.find("scratch planes/worker"), std::string::npos);

    // Forcing a tile size is honored verbatim by the partition.
    serve::PlanOptions forced = plan;
    forced.tile_rows = 96;
    EXPECT_EQ(model->withPlan(forced).tilePlan().segments[0].tile_rows,
              96);

    // Disabling restores the phase-barrier accounting: no segments, and
    // the full-batch figure on both sides.
    serve::PlanOptions off = plan;
    off.tile_rows = -1;
    const serve::FrozenModel untiled = model->withPlan(off);
    EXPECT_TRUE(untiled.tilePlan().segments.empty());
    EXPECT_EQ(untiled.tilePlan().scratchBytesPerWorker(batch, true),
              untiled.tilePlan().scratchBytesPerWorker(batch, false));
}

// ---------------------------------------------------------------------------
// Tile arithmetic: the plan counts only bytes a tile really streams. A
// width-adapted stage's encode reads its in-plane in place, so it adds
// no adapt plane; the formula is pinned rather than a tile count (the
// granule is 64 rows at AVX-512 and 32 at AVX2).

TEST(TiledExecutor, TileArithmeticCountsOnlyRealBytes)
{
    for (const int64_t c : {16, 300}) {  // 8-bit and 16-bit codes
        vq::PQConfig pq;
        pq.v = 4;
        pq.c = c;
        lutboost::LutLinear layer(52, 70, pq, /*bias=*/false, /*seed=*/3);
        layer.refreshInferenceLut();
        const auto arena = layer.inferenceArena();
        const int64_t code_bytes =
            arena->numSubspaces() * (vq::codeBitsFor(c) / 8);
        const serve::ArenaStage plain(arena);
        const serve::ArenaStage widened(arena, nullptr, {}, 24);
        const serve::ArenaStage truncated(arena, nullptr, {}, 80);
        EXPECT_EQ(plain.tileScratchBytesPerRow(), code_bytes) << "c=" << c;
        EXPECT_EQ(widened.tileScratchBytesPerRow(), code_bytes)
            << "c=" << c;
        EXPECT_EQ(truncated.tileScratchBytesPerRow(), code_bytes)
            << "c=" << c;
    }

    // The middle stage widens 256 -> 1024: its replicated rows would be
    // the widest plane in the segment, and they no longer exist.
    std::vector<sim::GemmShape> gemms{
        {4, 64, 256, "a"}, {4, 1024, 128, "b"}, {4, 128, 100, "c"}};
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    for (const serve::TablePrecision precision :
         {serve::TablePrecision::Float32, serve::TablePrecision::Int4}) {
        serve::PlanOptions plan;
        plan.table_precision = precision;
        auto model = serve::FrozenModel::fromTrace(gemms, pq, {}, 91, plan);
        ASSERT_TRUE(model.ok()) << model.status().toString();
        ASSERT_EQ(model->tilePlan().segments.size(), 1u);
        const serve::TilePlan &seg = model->tilePlan().segments[0];
        int64_t want = 0;
        for (int64_t i = seg.begin; i < seg.end; ++i) {
            const serve::FrozenStage &stage = *model->stages()[i];
            const int64_t codes = stage.planArena()->numSubspaces() *
                                  model->plan()[i].code_bits / 8;
            want = std::max(
                want, (stage.inWidth() + stage.outWidth()) *
                              static_cast<int64_t>(sizeof(float)) +
                          codes);
        }
        EXPECT_EQ(seg.row_bytes, want) << model->planSummary();
        EXPECT_EQ(seg.row_bytes, (256 + 128) * 4 + 256)
            << "the widening stage sets the footprint by its planes";
    }
}

// ---------------------------------------------------------------------------
// Multi-worker race: tiles are the work-stealing unit, so a 4-worker
// engine splitting one big batch into per-tile tasks must stay bit-exact
// with the single-threaded untiled sweep — across MLP, CNN, and
// transformer graphs.

TEST(InferenceEngine, TiledTasksRaceBitExactMlp)
{
    serve::PlanOptions untiled;
    untiled.table_precision = serve::TablePrecision::Int8;
    untiled.tile_rows = -1;
    serve::FrozenModel baseline = makeTraceModel(untiled);
    const Tensor x = randomRows(192, 24, 3);
    const Tensor reference = baseline.forwardBatch(x);

    serve::PlanOptions tiled_plan = untiled;
    tiled_plan.tile_rows = 16;  // 12 tiles: plenty to steal
    const serve::FrozenModel tiled = baseline.withPlan(tiled_plan);

    serve::EngineOptions options;
    options.threads = 4;
    options.max_batch = 256;
    auto engine = serve::InferenceEngine::create(tiled, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();
    for (int round = 0; round < 8; ++round) {
        auto result = engine.value()->submit(x);
        ASSERT_TRUE(result.ok()) << result.status().toString();
        EXPECT_TRUE(result->equals(reference))
            << "round " << round << " maxdiff="
            << Tensor::maxAbsDiff(*result, reference);
    }
    engine.value()->shutdown();
}

TEST(InferenceEngine, TiledTasksRaceBitExactCnn)
{
    vq::PQConfig pq;
    pq.v = 3;
    pq.c = 8;
    ConvGeometry g;
    g.in_channels = 1;
    g.out_channels = 4;
    g.kernel = 3;
    g.stride = 1;
    g.padding = 1;
    auto model = std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
        std::make_shared<lutboost::LutConv2d>(g, pq, /*bias=*/true, 31),
        std::make_shared<nn::ReLU>(),
        std::make_shared<nn::MaxPool2d>(2),
        std::make_shared<nn::Flatten>(),
        std::make_shared<lutboost::LutLinear>(4 * 4 * 4, 5, pq,
                                              /*bias=*/true, 32)});
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(model))
        layer->refreshInferenceLut();

    serve::PlanOptions off;
    off.tile_rows = -1;
    auto baseline = serve::FrozenModel::fromModel(
        model, serve::ServeInputShape{8, 8}, off);
    ASSERT_TRUE(baseline.ok()) << baseline.status().toString();
    const Tensor x = randomRows(64, 64, 9);
    const Tensor reference = baseline->forwardBatch(x);

    serve::PlanOptions tiled_plan;
    tiled_plan.tile_rows = 8;  // conv stages stay barriers; the
                               // flatten -> lut-gemm tail streams
    const serve::FrozenModel tiled = baseline->withPlan(tiled_plan);
    ASSERT_FALSE(tiled.tilePlan().segments.empty());

    serve::EngineOptions options;
    options.threads = 4;
    options.max_batch = 64;
    auto engine = serve::InferenceEngine::create(tiled, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();
    auto result = engine.value()->submit(x);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_TRUE(result->equals(reference))
        << "maxdiff=" << Tensor::maxAbsDiff(*result, reference);
    engine.value()->shutdown();
}

TEST(InferenceEngine, TiledTasksRaceBitExactTransformer)
{
    constexpr int64_t kInWidth = 12, kDModel = 16, kDff = 32;
    constexpr int64_t kSeqLen = 16;
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 8;
    auto model = std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
        std::make_shared<lutboost::LutLinear>(kInWidth, kDModel, pq,
                                              /*bias=*/true, 61),
        std::make_shared<nn::TransformerBlock>(kSeqLen, kDModel, 4, kDff,
                                               62)});
    lutboost::ConvertOptions opts;
    opts.pq = pq;
    opts.min_in_features = 0;
    ASSERT_EQ(lutboost::replaceOperators(model, opts), 6);
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(model))
        layer->refreshInferenceLut();

    serve::PlanOptions off;
    off.tile_rows = -1;
    auto baseline = serve::FrozenModel::fromModel(model, {}, off);
    ASSERT_TRUE(baseline.ok()) << baseline.status().toString();
    const Tensor x = randomRows(8 * kSeqLen, kInWidth, 13);
    const Tensor reference = baseline->forwardBatch(x);

    serve::PlanOptions tiled_plan;
    tiled_plan.tile_rows = 8;
    const serve::FrozenModel tiled = baseline->withPlan(tiled_plan);
    // Skip-save / residual-add / attention stay barriers; the embedding
    // gemm and the FFN run between skip edges form the segments.
    ASSERT_FALSE(tiled.tilePlan().segments.empty());
    for (const serve::TilePlan &seg : tiled.tilePlan().segments)
        for (int64_t s = seg.begin; s < seg.end; ++s)
            EXPECT_TRUE(
                tiled.stages()[static_cast<size_t>(s)]->rowTileable());
    // The barriers between the segments still ping-pong full-batch
    // d_model-wide planes; only the widest interior (d_ff) is tile-local.
    EXPECT_EQ(tiled.tilePlan().tiled_plane_bytes_per_row,
              2 * kDModel * static_cast<int64_t>(sizeof(float)))
        << tiled.planSummary();
    EXPECT_GT(tiled.tilePlan().untiled_plane_bytes_per_row,
              tiled.tilePlan().tiled_plane_bytes_per_row);

    serve::EngineOptions options;
    options.threads = 4;
    options.max_batch = 128;
    auto engine = serve::InferenceEngine::create(tiled, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();
    auto result = engine.value()->submit(x);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_TRUE(result->equals(reference))
        << "maxdiff=" << Tensor::maxAbsDiff(*result, reference);
    engine.value()->shutdown();
}

// ---------------------------------------------------------------------------
// Dirty-scratch battery for the one stage runner: a single StageScratch
// carried across MLP, CNN and transformer graphs (and around again), with
// every activation plane NaN-poisoned between calls, must give results
// memcmp-equal to a fresh-scratch untiled walk. Any read of a plane the
// runner did not write this call surfaces as NaN. Batch sizes straddle
// the tile: 1 and one tile fall through to stage-by-stage walks, tile + 1
// and 4 tiles + 7 stream segments with ragged tails. The suite runs at the
// host's dispatch and, in CI, again at LUTDLA_SIMD=avx2.

/** Freeze every LUT operator, then lower with tiling disabled. */
serve::FrozenModel
untiledModel(const nn::LayerPtr &model, serve::ServeInputShape input = {})
{
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(model))
        layer->refreshInferenceLut();
    serve::PlanOptions off;
    off.tile_rows = -1;
    auto frozen = serve::FrozenModel::fromModel(model, input, off);
    EXPECT_TRUE(frozen.ok()) << frozen.status().toString();
    return frozen.take();
}

/** LutLinear chain whose trailing softmax mutates the caller's output in
 * place after the last out-of-place stage. */
serve::FrozenModel
batteryMlp()
{
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    return untiledModel(std::make_shared<nn::Sequential>(
        std::vector<nn::LayerPtr>{
            std::make_shared<lutboost::LutLinear>(24, 40, pq, true, 71),
            std::make_shared<nn::ReLU>(),
            std::make_shared<lutboost::LutLinear>(40, 18, pq, true, 72),
            std::make_shared<nn::GELU>(),
            std::make_shared<lutboost::LutLinear>(18, 9, pq, true, 73),
            std::make_shared<nn::Softmax>()}));
}

/** Conv chain that opens with an in-place stage, so the first step
 * copies the request into a scratch plane. */
serve::FrozenModel
batteryCnn()
{
    vq::PQConfig pq;
    pq.v = 3;
    pq.c = 8;
    ConvGeometry g;
    g.in_channels = 1;
    g.out_channels = 4;
    g.kernel = 3;
    g.stride = 1;
    g.padding = 1;
    return untiledModel(
        std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
            std::make_shared<nn::BatchNorm2d>(1),
            std::make_shared<lutboost::LutConv2d>(g, pq, true, 74),
            std::make_shared<nn::ReLU>(),
            std::make_shared<nn::MaxPool2d>(2),
            std::make_shared<nn::Flatten>(),
            std::make_shared<lutboost::LutLinear>(4 * 4 * 4, 12, pq, true,
                                                  75),
            std::make_shared<nn::ReLU>(),
            std::make_shared<lutboost::LutLinear>(12, 5, pq, true, 76),
            std::make_shared<nn::Softmax>()}),
        serve::ServeInputShape{8, 8});
}

/** Embedding gemm plus a transformer block: skip edges and attention as
 * single-stage steps, LayerNorm-led FFN segments between them. */
serve::FrozenModel
batteryTransformer()
{
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 8;
    auto model = std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
        std::make_shared<lutboost::LutLinear>(12, 16, pq, true, 77),
        std::make_shared<nn::TransformerBlock>(4, 16, 4, 32, 78)});
    lutboost::ConvertOptions opts;
    opts.pq = pq;
    opts.min_in_features = 0;
    EXPECT_EQ(lutboost::replaceOperators(model, opts), 6);
    return untiledModel(model);
}

void
poison(serve::StageScratch &scratch)
{
    for (std::vector<float> *plane :
         {&scratch.ping, &scratch.pong, &scratch.tile_a, &scratch.tile_b})
        std::fill(plane->begin(), plane->end(),
                  std::numeric_limits<float>::quiet_NaN());
}

TEST(TiledExecutor, DirtyScratchAcrossModelsMatchesFreshUntiled)
{
    const std::vector<serve::FrozenModel> models{
        batteryMlp(), batteryCnn(), batteryTransformer()};
    serve::StageScratch scratch;
    uint64_t seed = 100;
    int64_t streamed = 0;  // calls whose batch spanned several tiles
    for (int round = 0; round < 2; ++round) {
        for (size_t m = 0; m < models.size(); ++m) {
            const serve::FrozenModel &baseline = models[m];
            ASSERT_TRUE(baseline.tilePlan().segments.empty());
            for (const int64_t forced : {int64_t{0}, int64_t{8}}) {
                serve::PlanOptions plan;
                plan.tile_rows = forced;
                const serve::FrozenModel tiled = baseline.withPlan(plan);
                ASSERT_FALSE(tiled.tilePlan().segments.empty());
                const int64_t tile = tiled.tilePlan().segments[0].tile_rows;
                const int64_t group = tiled.rowGroup();
                for (const int64_t batch :
                     {int64_t{1}, tile, tile + 1, 4 * tile + 7}) {
                    // Attention serves whole sequences only.
                    const int64_t rows = (batch + group - 1) / group * group;
                    streamed += rows > tile ? 1 : 0;
                    const Tensor x =
                        randomRows(rows, baseline.inputWidth(), ++seed);
                    const Tensor reference = baseline.forwardBatch(x);
                    poison(scratch);
                    const Tensor y = tiled.forwardBatch(x, scratch);
                    ASSERT_EQ(y.shape(), reference.shape());
                    EXPECT_EQ(std::memcmp(y.data(), reference.data(),
                                          static_cast<size_t>(y.numel()) *
                                              sizeof(float)),
                              0)
                        << "round " << round << " model " << m
                        << " tile_rows=" << forced << " (tile " << tile
                        << ") rows=" << rows << " maxdiff="
                        << Tensor::maxAbsDiff(y, reference);
                }
            }
        }
    }
    EXPECT_GT(streamed, 0) << "no batch exercised a segment step";
}

} // namespace
} // namespace lutdla
