// Tests for the serving layer: bit-exactness of the fused arena tile and
// the lowered stage graphs against the reference eval path, dynamic
// batching, shutdown semantics, and the typed error paths of the engine
// facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "api/lutdla.h"
#include "lutboost/kernels.h"
#include "lutboost/kernels_simd.h"
#include "lutboost/lut_conv.h"
#include "lutboost/lut_linear.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/models.h"
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

/** A converted + frozen mlp-mixture model and its dataset rows. */
struct FrozenFixture
{
    nn::LayerPtr model;
    Tensor rows;
};

FrozenFixture
makeFrozenMlp(vq::LutPrecision precision = {})
{
    lutboost::ConvertOptions opts;
    opts.pq.v = 4;
    opts.pq.c = 8;
    opts.centroid_stage.epochs = 1;
    opts.joint_stage.epochs = 1;

    auto builder = api::Pipeline::forWorkload("mlp-mixture")
                       .pretrain(nn::TrainConfig::sgd(2, 0.05))
                       .convert(opts)
                       .deployPrecision(precision);
    auto run = builder.report();
    EXPECT_TRUE(run.ok()) << run.status().toString();
    FrozenFixture fx;
    fx.model = builder.convertedModel();
    fx.rows = randomRows(24, 16, 42);
    return fx;
}

/**
 * The LUT GEMM every serving stage runs, on a frozen layer's arena: one
 * fused KernelBackend::forwardTile over the bit-exact float bank.
 */
Tensor
forwardTile(const lutboost::LutLinear &layer, const Tensor &x)
{
    Tensor y(Shape{x.dim(0), layer.outFeatures()});
    lutboost::KernelScratch scratch;
    lutboost::KernelBackend::of(lutboost::TablePrecision::Float32)
        .forwardTile(*layer.inferenceArena(), x.data(), x.dim(0), y.data(),
                     scratch, nullptr, nullptr);
    return y;
}

// ---------------------------------------------------------------------------
// forwardTile vs forward: bit-exact.

TEST(LutTableArena, ForwardTileBitExactWithEvalForward)
{
    for (bool bf16 : {false, true}) {
        for (bool int8 : {false, true}) {
            vq::PQConfig pq;
            pq.v = 4;
            pq.c = 8;
            lutboost::LutLinear layer(22, 10, pq, /*bias=*/true,
                                      /*seed=*/5);
            layer.setPrecision(vq::LutPrecision{bf16, int8});
            layer.refreshInferenceLut();

            // Tiny batches and one spanning >1 row block: the grouped
            // sweep serves every batch size.
            for (int64_t rows : {1, 3, 7, 300}) {
                const Tensor x = randomRows(rows, 22, 7);
                const Tensor batched = forwardTile(layer, x);
                const Tensor reference =
                    layer.forward(x, /*train=*/false);
                EXPECT_TRUE(batched.equals(reference))
                    << "bf16=" << bf16 << " int8=" << int8
                    << " rows=" << rows << " maxdiff="
                    << Tensor::maxAbsDiff(batched, reference);
            }
        }
    }
}

TEST(LutTableArena, RowByRowForwardMatchesForwardTile)
{
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    lutboost::LutLinear layer(17, 6, pq, true, 11);
    layer.refreshInferenceLut();

    const Tensor x = randomRows(9, 17, 3);
    const Tensor batched = forwardTile(layer, x);
    for (int64_t r = 0; r < x.dim(0); ++r) {
        Tensor row(Shape{1, 17});
        std::copy(x.data() + r * 17, x.data() + (r + 1) * 17, row.data());
        const Tensor one = layer.forward(row, false);
        for (int64_t n = 0; n < 6; ++n)
            EXPECT_EQ(one.at(0, n), batched.at(r, n)) << "row " << r;
    }
}

TEST(LutLinear, LastForwardRowsIsATraceProbeOnly)
{
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 8;
    auto layer = std::make_shared<lutboost::LutLinear>(12, 4, pq, true, 3);
    layer->refreshInferenceLut();

    EXPECT_EQ(layer->lastForwardRows(), 0);
    layer->forward(randomRows(5, 12, 1), false);
    EXPECT_EQ(layer->lastForwardRows(), 5);
    // Serving is per-call (rows come from the result), and must not
    // disturb the single-threaded trace probe.
    auto frozen = serve::FrozenModel::fromModel(
        std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{layer}));
    ASSERT_TRUE(frozen.ok()) << frozen.status().toString();
    const Tensor y = frozen->forwardBatch(randomRows(9, 12, 2));
    EXPECT_EQ(y.dim(0), 9);
    EXPECT_EQ(layer->lastForwardRows(), 5);
}

TEST(FrozenModel, MatchesModelEvalBitExact)
{
    FrozenFixture fx = makeFrozenMlp(vq::LutPrecision{true, true});
    auto frozen = serve::FrozenModel::fromModel(fx.model);
    ASSERT_TRUE(frozen.ok()) << frozen.status().toString();

    const Tensor batched = frozen->forwardBatch(fx.rows);
    const Tensor reference = fx.model->forward(fx.rows, false);
    EXPECT_TRUE(batched.equals(reference))
        << "maxdiff=" << Tensor::maxAbsDiff(batched, reference);
    // Planned stage graph: the relu folded into the first arena sweep.
    EXPECT_EQ(frozen->numStages(), 2);
    EXPECT_EQ(frozen->numLutStages(), 2);
    EXPECT_EQ(frozen->describe(), "lut-gemm+relu -> lut-gemm");
    EXPECT_GT(frozen->tableBytes(), 0);
}

TEST(FrozenModel, QuantizedPlanTopOneAgreementWithinTolerance)
{
    // The INT8 data plane is approximate by design. The documented
    // tolerance (docs/SERVING.md): on a trained classifier, top-1
    // agreement with the bit-exact reference plan must be >= 90%.
    FrozenFixture fx = makeFrozenMlp();
    auto reference = serve::FrozenModel::fromModel(fx.model);
    ASSERT_TRUE(reference.ok());

    serve::PlanOptions plan;
    plan.table_precision = serve::TablePrecision::Int8;
    auto quantized = serve::FrozenModel::fromModel(fx.model, {}, plan);
    ASSERT_TRUE(quantized.ok()) << quantized.status().toString();
    EXPECT_EQ(quantized->describe(), "lut-gemm[int8]+relu -> lut-gemm[int8]");
    // The INT8 bank (q table + scales) streams ~4x fewer bytes.
    EXPECT_LT(quantized->tableBytes(), reference->tableBytes() / 3);

    const Tensor ref = reference->forwardBatch(fx.rows);
    const Tensor quant = quantized->forwardBatch(fx.rows);
    ASSERT_TRUE(ref.shape() == quant.shape());
    const int64_t rows = ref.dim(0), classes = ref.dim(1);
    int64_t agree = 0;
    for (int64_t r = 0; r < rows; ++r) {
        int64_t ref_arg = 0, quant_arg = 0;
        for (int64_t n = 1; n < classes; ++n) {
            if (ref.at(r, n) > ref.at(r, ref_arg))
                ref_arg = n;
            if (quant.at(r, n) > quant.at(r, quant_arg))
                quant_arg = n;
        }
        agree += ref_arg == quant_arg ? 1 : 0;
    }
    const double agreement =
        static_cast<double>(agree) / static_cast<double>(rows);
    RecordProperty("top1_agreement", std::to_string(agreement));
    EXPECT_GE(agreement, 0.9)
        << "INT8 plan top-1 agreement " << agreement
        << " below the documented 90% tolerance";
}

TEST(FrozenModel, Int8EncodePlanHoldsTopOneAgreementEnvelope)
{
    // The INT8 encode plane is approximate by design: codes are chosen
    // by an integer argmin over 7-bit-quantized subvectors, so some rows
    // pick different centroids than the float argmin. The documented
    // envelope (docs/SERVING.md): on a trained classifier, top-1
    // agreement with the bit-exact reference plan must stay >= 90%.
    FrozenFixture fx = makeFrozenMlp();
    auto reference = serve::FrozenModel::fromModel(fx.model);
    ASSERT_TRUE(reference.ok());

    serve::PlanOptions plan;
    plan.encode_precision = serve::EncodePrecision::Int8;
    auto quantized = serve::FrozenModel::fromModel(fx.model, {}, plan);
    ASSERT_TRUE(quantized.ok()) << quantized.status().toString();
    EXPECT_EQ(quantized->describe(),
              "lut-gemm[enc:int8]+relu -> lut-gemm[enc:int8]");
    // The encode bank streams a fraction of the float transposed
    // codebooks (1 byte/entry + norms/grid vs 4 bytes/entry).
    EXPECT_LT(quantized->encodeBytes(), reference->encodeBytes());
    EXPECT_GT(quantized->encodeBytes(), 0);
    // Gather tables are untouched: this is the orthogonal axis.
    EXPECT_EQ(quantized->tableBytes(), reference->tableBytes());

    // The plan records the RESOLVED per-stage choice + kernel name.
    for (const serve::StagePlan &p : quantized->plan()) {
        if (p.code_bits <= 0)
            continue;
        EXPECT_EQ(p.encode_precision, serve::EncodePrecision::Int8);
        EXPECT_EQ(p.encode_kernel.rfind("int8-", 0), 0u)
            << p.encode_kernel;
        EXPECT_GT(p.encode_bytes, 0);
    }

    const Tensor ref = reference->forwardBatch(fx.rows);
    const Tensor quant = quantized->forwardBatch(fx.rows);
    ASSERT_TRUE(ref.shape() == quant.shape());
    const int64_t rows = ref.dim(0), classes = ref.dim(1);
    int64_t agree = 0;
    for (int64_t r = 0; r < rows; ++r) {
        int64_t ref_arg = 0, quant_arg = 0;
        for (int64_t n = 1; n < classes; ++n) {
            if (ref.at(r, n) > ref.at(r, ref_arg))
                ref_arg = n;
            if (quant.at(r, n) > quant.at(r, quant_arg))
                quant_arg = n;
        }
        agree += ref_arg == quant_arg ? 1 : 0;
    }
    const double agreement =
        static_cast<double>(agree) / static_cast<double>(rows);
    RecordProperty("int8_encode_top1_agreement", std::to_string(agreement));
    EXPECT_GE(agreement, 0.9)
        << "INT8 encode top-1 agreement " << agreement
        << " below the documented 90% envelope";

    // And through the facade: ServeOptions carries the same knob.
    api::ServeOptions options;
    options.engine.threads = 1;
    options.plan.encode_precision = serve::EncodePrecision::Int8;
    auto engine = api::makeEngine(fx.model, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();
    EXPECT_EQ(engine.value()->model().describe(),
              "lut-gemm[enc:int8]+relu -> lut-gemm[enc:int8]");
    auto served = engine.value()->submit(fx.rows);
    ASSERT_TRUE(served.ok());
    // The engine path is the same planned model: identical bits.
    EXPECT_TRUE(served->equals(quant));
    engine.value()->shutdown();
}

TEST(FrozenModel, TraceWidthAdaptMatchesHandReplicatedBackendReference)
{
    // Stage b widens 6 -> 9 (K % v = 1, so its last subspace is ragged);
    // stage c truncates 10 -> 8.
    std::vector<sim::GemmShape> gemms{
        {4, 12, 6, "a"}, {4, 9, 10, "b"}, {4, 8, 5, "c"}};
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    const int64_t rows = 37;
    const Tensor x = randomRows(rows, 12, 9);

    struct Plan
    {
        serve::TablePrecision tables;
        serve::EncodePrecision encode;
        const char *describe;
    };
    const Plan plans[] = {
        {serve::TablePrecision::Float32, serve::EncodePrecision::Float32,
         "lut-gemm -> adapt+lut-gemm -> adapt+lut-gemm"},
        // The resnet18-bulk plan: int4 tables fed by the int8 encode.
        {serve::TablePrecision::Int4, serve::EncodePrecision::Int8,
         "lut-gemm[int4][enc:int8] -> adapt+lut-gemm[int4][enc:int8] -> "
         "adapt+lut-gemm[int4][enc:int8]"},
    };
    for (const Plan &p : plans) {
        // Untiled, forced 8-row tiles and the auto tile size.
        for (const int64_t tile_rows : {-1, 8, 0}) {
            serve::PlanOptions plan;
            plan.table_precision = p.tables;
            plan.encode_precision = p.encode;
            plan.tile_rows = tile_rows;
            auto model =
                serve::FrozenModel::fromTrace(gemms, pq, {}, 91, plan);
            ASSERT_TRUE(model.ok()) << model.status().toString();
            EXPECT_EQ(model->describe(), p.describe);
            ASSERT_EQ(model->plan().size(), 3u);
            for (const serve::StagePlan &sp : model->plan()) {
                EXPECT_TRUE(sp.fused.empty()) << sp.description;
                EXPECT_GT(sp.code_bits, 0);
            }

            // Reference: each stage's own backend forwardTile on rows
            // replicated by hand, column j = input column j % w.
            std::vector<float> cur(x.data(), x.data() + x.numel());
            int64_t w = 12;
            int adapts = 0;
            lutboost::KernelScratch kernel;
            for (const serve::StagePtr &ptr : model->stages()) {
                const auto *stage =
                    dynamic_cast<const serve::ArenaStage *>(ptr.get());
                ASSERT_NE(stage, nullptr);
                const lutboost::LutTableArena &arena = *stage->arena();
                const int64_t k = arena.inFeatures();
                const int64_t n = arena.outFeatures();
                EXPECT_EQ(stage->inWidth(), w);
                EXPECT_EQ(stage->adaptInWidth(), k == w ? 0 : w);
                adapts += stage->adaptInWidth() > 0 ? 1 : 0;
                std::vector<float> in(static_cast<size_t>(rows * k));
                for (int64_t r = 0; r < rows; ++r)
                    for (int64_t j = 0; j < k; ++j)
                        in[static_cast<size_t>(r * k + j)] =
                            cur[static_cast<size_t>(r * w + j % w)];
                std::vector<float> out(static_cast<size_t>(rows * n));
                uint64_t encode_ns = 0, gather_ns = 0;
                stage->backend().forwardTile(arena, in.data(), rows,
                                             out.data(), kernel, &encode_ns,
                                             &gather_ns,
                                             stage->encodePrecision());
                EXPECT_EQ(stage->encodePrecision(), p.encode);
                cur = std::move(out);
                w = n;
            }
            EXPECT_EQ(adapts, 2);

            const Tensor y = model->forwardBatch(x);
            ASSERT_EQ(y.numel(), static_cast<int64_t>(cur.size()));
            int64_t mismatches = 0;
            for (int64_t i = 0; i < y.numel(); ++i)
                mismatches += y.at(i) == cur[static_cast<size_t>(i)] ? 0 : 1;
            EXPECT_EQ(mismatches, 0)
                << p.describe << " tile_rows=" << tile_rows;
        }
    }
}

TEST(ServingFacade, ServeOptionsDeployQuantizedPlanWithPhaseStats)
{
    FrozenFixture fx = makeFrozenMlp();
    api::ServeOptions options;
    options.engine.threads = 1;
    options.engine.max_batch = 8;
    options.plan.table_precision = serve::TablePrecision::Int8;
    auto engine = api::makeEngine(fx.model, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();
    EXPECT_EQ(engine.value()->model().describe(),
              "lut-gemm[int8]+relu -> lut-gemm[int8]");

    for (int64_t r = 0; r + 8 <= fx.rows.dim(0); r += 8) {
        Tensor chunk(Shape{8, 16});
        std::copy(fx.rows.data() + r * 16, fx.rows.data() + (r + 8) * 16,
                  chunk.data());
        auto result = engine.value()->submit(chunk);
        ASSERT_TRUE(result.ok()) << result.status().toString();
    }
    engine.value()->shutdown();

    // The engine splits LUT-stage time into encode vs gather phases.
    const serve::EngineStats stats = engine.value()->stats();
    EXPECT_GT(stats.encode_seconds, 0.0);
    EXPECT_GT(stats.gather_seconds, 0.0);
    EXPECT_GT(stats.encodeFraction(), 0.0);
    EXPECT_LT(stats.encodeFraction(), 1.0);
    EXPECT_NE(stats.summary().find("lut phases"), std::string::npos);
}

TEST(FrozenModel, RejectsUnconvertedAndUnfrozenModels)
{
    nn::LayerPtr plain = nn::makeMlp(8, {6}, 3);
    auto no_lut = serve::FrozenModel::fromModel(plain);
    ASSERT_FALSE(no_lut.ok());
    EXPECT_EQ(no_lut.status().code(), api::StatusCode::InvalidArgument);

    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 8;
    auto unfrozen = std::make_shared<lutboost::LutLinear>(8, 3, pq);
    auto not_ready = serve::FrozenModel::fromModel(unfrozen);
    ASSERT_FALSE(not_ready.ok());
    EXPECT_EQ(not_ready.status().code(),
              api::StatusCode::FailedPrecondition);
}

TEST(ServingFacade, RejectedModelIsLeftUnfrozen)
{
    // makeEngine freezes layers on the caller's behalf, so validation
    // must run FIRST: a topology rejection may not mutate the model.
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 8;
    auto lut = std::make_shared<lutboost::LutLinear>(8, 4, pq);
    auto model = std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
        lut, std::make_shared<nn::MaxPool2d>(2)});

    auto engine = api::makeEngine(model, {});
    ASSERT_FALSE(engine.ok());
    EXPECT_EQ(engine.status().code(), api::StatusCode::InvalidArgument);
    EXPECT_FALSE(lut->inferenceLutReady())
        << "failed makeEngine must not freeze the model's layers";
}

// ---------------------------------------------------------------------------
// CNN lowering: the stage graph serves converted conv chains.

/**
 * A frozen conv -> relu -> pool -> flatten -> linear chain on 8x8
 * single-channel images, frozen directly (bit-exactness needs no
 * training). Returns the model; the serving input is 64-wide flat rows.
 */
nn::LayerPtr
makeFrozenCnn(vq::LutPrecision precision)
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
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(model)) {
        layer->setPrecision(precision);
        layer->refreshInferenceLut();
    }
    return model;
}

Tensor
randomImages(int64_t n, int64_t c, int64_t h, int64_t w, uint64_t seed)
{
    Rng rng(seed);
    Tensor x(Shape{n, c, h, w});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
    return x;
}

/** NCHW batch -> the flat [N, C*H*W] rows the serving layer consumes. */
Tensor
flattenImages(const Tensor &x)
{
    return x.reshaped(Shape{x.dim(0), x.numel() / x.dim(0)});
}

TEST(FrozenModel, CnnMatchesModelEvalBitExactAcrossPrecisions)
{
    for (bool bf16 : {false, true}) {
        for (bool int8 : {false, true}) {
            nn::LayerPtr model =
                makeFrozenCnn(vq::LutPrecision{bf16, int8});
            auto frozen = serve::FrozenModel::fromModel(
                model, serve::ServeInputShape{8, 8});
            ASSERT_TRUE(frozen.ok()) << frozen.status().toString();
            EXPECT_EQ(frozen->describe(),
                      "conv+relu -> maxpool -> flatten -> lut-gemm");
            EXPECT_EQ(frozen->numLutStages(), 2);
            EXPECT_EQ(frozen->inputWidth(), 64);
            EXPECT_EQ(frozen->outputWidth(), 5);

            const Tensor images = randomImages(6, 1, 8, 8, 33);
            const Tensor batched =
                frozen->forwardBatch(flattenImages(images));
            const Tensor reference = model->forward(images, false);
            EXPECT_TRUE(batched.equals(reference))
                << "bf16=" << bf16 << " int8=" << int8 << " maxdiff="
                << Tensor::maxAbsDiff(batched, reference);
        }
    }
}

TEST(FrozenModel, CnnWithNormAndGlobalPoolLowersBitExact)
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
        std::make_shared<lutboost::LutConv2d>(g, pq, /*bias=*/false, 41),
        std::make_shared<nn::BatchNorm2d>(4),
        std::make_shared<nn::ReLU>(),
        std::make_shared<nn::GlobalAvgPool>(),
        std::make_shared<lutboost::LutLinear>(4, 3, pq, /*bias=*/true,
                                              42)});
    // Populate BatchNorm running statistics with one training pass, THEN
    // freeze — the stage must snapshot the post-training stats.
    model->forward(randomImages(8, 1, 6, 6, 43), true);
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(model))
        layer->refreshInferenceLut();

    auto frozen = serve::FrozenModel::fromModel(
        model, serve::ServeInputShape{6, 6});
    ASSERT_TRUE(frozen.ok()) << frozen.status().toString();
    EXPECT_EQ(frozen->describe(),
              "conv -> batchnorm -> relu -> gpool -> lut-gemm");

    const Tensor images = randomImages(5, 1, 6, 6, 44);
    const Tensor batched = frozen->forwardBatch(flattenImages(images));
    const Tensor reference = model->forward(images, false);
    EXPECT_TRUE(batched.equals(reference))
        << "maxdiff=" << Tensor::maxAbsDiff(batched, reference);
}

TEST(FrozenModel, LayerNormChainLowersBitExact)
{
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 8;
    auto model = std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
        std::make_shared<lutboost::LutLinear>(16, 8, pq, true, 51),
        std::make_shared<nn::LayerNorm>(8),
        std::make_shared<nn::GELU>(),
        std::make_shared<lutboost::LutLinear>(8, 4, pq, true, 52)});
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(model))
        layer->refreshInferenceLut();

    auto frozen = serve::FrozenModel::fromModel(model);
    ASSERT_TRUE(frozen.ok()) << frozen.status().toString();
    EXPECT_EQ(frozen->describe(),
              "lut-gemm -> layernorm -> gelu -> lut-gemm");

    const Tensor rows = randomRows(12, 16, 53);
    const Tensor batched = frozen->forwardBatch(rows);
    const Tensor reference = model->forward(rows, false);
    EXPECT_TRUE(batched.equals(reference))
        << "maxdiff=" << Tensor::maxAbsDiff(batched, reference);
}

TEST(ServingFacade, CnnViaMakeEngineBitExact)
{
    // The acceptance path: a converted CNN (conv -> pool -> flatten ->
    // linear) served through api::makeEngine answers bit-exactly with
    // eval-mode model->forward() across deployment precisions.
    for (vq::LutPrecision precision :
         {vq::LutPrecision{false, false}, vq::LutPrecision{true, true}}) {
        nn::LayerPtr model = makeFrozenCnn(precision);
        serve::EngineOptions options;
        options.threads = 2;
        options.max_batch = 8;
        auto engine = api::makeEngine(model, options,
                                      serve::ServeInputShape{8, 8});
        ASSERT_TRUE(engine.ok()) << engine.status().toString();

        const Tensor images = randomImages(6, 1, 8, 8, 61);
        const Tensor reference = model->forward(images, false);
        auto result = engine.value()->submit(flattenImages(images));
        ASSERT_TRUE(result.ok()) << result.status().toString();
        EXPECT_TRUE(result->equals(reference))
            << "bf16=" << precision.bf16_similarity
            << " maxdiff=" << Tensor::maxAbsDiff(*result, reference);
    }
}

TEST(ConvStage, ServesVaryingBatchesBitExactWithPhaseStats)
{
    // The conv stage alone: the model's one LUT stage is the conv, on a
    // 1-worker engine, so every batch runs through one worker's scratch.
    // Growing, shrinking and regrowing batches reuse its grow-only conv
    // planes; each answer must still be bit-exact.
    vq::PQConfig pq;
    pq.v = 3;
    pq.c = 8;
    ConvGeometry g;
    g.in_channels = 2;
    g.out_channels = 4;
    g.kernel = 3;
    g.stride = 1;
    g.padding = 1;
    auto model = std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
        std::make_shared<lutboost::LutConv2d>(g, pq, /*bias=*/true, 71),
        std::make_shared<nn::ReLU>(), std::make_shared<nn::Flatten>()});
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(model))
        layer->refreshInferenceLut();

    auto frozen =
        serve::FrozenModel::fromModel(model, serve::ServeInputShape{6, 6});
    ASSERT_TRUE(frozen.ok()) << frozen.status().toString();
    EXPECT_EQ(frozen->describe(), "conv+relu -> flatten");
    EXPECT_EQ(frozen->numLutStages(), 1);
    serve::EngineOptions options;
    options.threads = 1;
    options.max_batch = 32;
    auto engine = serve::InferenceEngine::create(frozen.take(), options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();

    uint64_t seed = 72;
    int64_t rows = 0;
    for (int64_t images_in_batch : {1, 32, 3, 32}) {
        const Tensor images = randomImages(images_in_batch, 2, 6, 6, seed++);
        const Tensor reference = model->forward(images, false);
        auto result = engine.value()->submit(flattenImages(images));
        ASSERT_TRUE(result.ok()) << result.status().toString();
        EXPECT_TRUE(result->equals(flattenImages(reference)))
            << "batch of " << images_in_batch << " maxdiff="
            << Tensor::maxAbsDiff(*result, flattenImages(reference));
        rows += images_in_batch;
    }
    engine.value()->shutdown();

    // Conv is the only LUT stage, so the lane's phase split is all its
    // own: im2col and the encode on one side, the gather, NCHW reshape
    // and fused relu on the other.
    const serve::EngineStats stats = engine.value()->stats();
    EXPECT_EQ(stats.served, 4u);
    EXPECT_EQ(stats.rows, static_cast<uint64_t>(rows));
    EXPECT_GT(stats.encode_seconds, 0.0);
    EXPECT_GT(stats.gather_seconds, 0.0);
}

TEST(ConvStage, PhaseTimesCoverItsWallTime)
{
    // The lane stats split LUT-stage time into encode and gather; a conv
    // stage credits its im2col to encode and its NCHW reshape and fused
    // epilogue to gather, so the two phases add up to its whole wall
    // time. Two centroids and one output channel keep the encode and
    // gather cheap, leaving the im2col a large share: a stage that
    // stopped crediting it would fall well short. The best of five runs
    // rides out a preemption between the stage's clock reads.
    vq::PQConfig pq;
    pq.v = 9;
    pq.c = 2;
    ConvGeometry g;
    g.in_channels = 2;
    g.out_channels = 1;
    g.kernel = 3;
    g.stride = 1;
    g.padding = 1;
    lutboost::LutConv2d conv(g, pq, /*bias=*/true, 81);
    conv.inner().refreshInferenceLut();
    const serve::ConvStage stage(g, 16, 16, conv.inferenceArena(), nullptr,
                                 {serve::PointwiseOp::Relu});
    constexpr int64_t kImages = 32;
    const Tensor images = randomImages(kImages, 2, 16, 16, 82);
    std::vector<float> out(static_cast<size_t>(kImages * stage.outWidth()));
    serve::StageScratch scratch;
    stage.forward(images.data(), kImages, out.data(), scratch);  // grow

    double best = 0.0;
    for (int run = 0; run < 5; ++run) {
        scratch.encode_ns = 0;
        scratch.gather_ns = 0;
        const auto t0 = std::chrono::steady_clock::now();
        stage.forward(images.data(), kImages, out.data(), scratch);
        const double wall_ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        best = std::max(
            best, static_cast<double>(scratch.encode_ns + scratch.gather_ns) /
                      wall_ns);
    }
    EXPECT_GT(best, 0.9) << "encode + gather cover only " << best
                         << " of the conv stage's wall time";
}

TEST(FrozenModel, ErrorPathsNameFirstOffendingLayer)
{
    vq::PQConfig pq;
    pq.v = 3;
    pq.c = 8;
    ConvGeometry g;
    g.in_channels = 1;
    g.out_channels = 4;
    g.kernel = 3;
    g.padding = 1;
    const serve::ServeInputShape img{8, 8};
    auto expectInvalid = [](const api::Status &status,
                            const std::string &needle) {
        ASSERT_FALSE(status.ok());
        EXPECT_EQ(status.code(), api::StatusCode::InvalidArgument);
        EXPECT_NE(status.toString().find(needle), std::string::npos)
            << "status '" << status.toString() << "' should name '"
            << needle << "'";
    };

    // Unconverted operators are named.
    expectInvalid(
        serve::FrozenModel::validateServable(nn::makeMlp(8, {6}, 3)),
        "Linear");
    expectInvalid(serve::FrozenModel::validateServable(
                      std::make_shared<nn::Conv2d>(g), img),
                  "Conv2d");
    // Projection-shortcut residual topologies are named (identity-skip
    // blocks lower onto skip edges; a shortcut BRANCH still does not).
    expectInvalid(
        serve::FrozenModel::validateServable(
            std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
                std::make_shared<lutboost::LutConv2d>(g, pq, true, 70),
                std::make_shared<nn::ResidualBlock>(
                    std::make_shared<nn::ReLU>(),
                    std::make_shared<nn::Conv2d>(g))}),
            img),
        "ResidualBlock");

    // Conv at the input without a serving image shape.
    auto conv_first =
        std::make_shared<lutboost::LutConv2d>(g, pq, true, 71);
    expectInvalid(serve::FrozenModel::validateServable(conv_first),
                  "ServeInputShape");

    // Channel mismatch between chained convs.
    ConvGeometry g2 = g;
    g2.in_channels = 8;
    expectInvalid(
        serve::FrozenModel::validateServable(
            std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
                std::make_shared<lutboost::LutConv2d>(g, pq, true, 72),
                std::make_shared<lutboost::LutConv2d>(g2, pq, true, 73)}),
            img),
        "LutConv2d expects 8 input channels");

    // Spatial output feeding a linear head without Flatten.
    expectInvalid(
        serve::FrozenModel::validateServable(
            std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
                std::make_shared<lutboost::LutConv2d>(g, pq, true, 74),
                std::make_shared<lutboost::LutLinear>(256, 4, pq)}),
            img),
        "insert Flatten");

    // Pooling over flat rows.
    expectInvalid(
        serve::FrozenModel::validateServable(
            std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
                std::make_shared<lutboost::LutLinear>(8, 4, pq),
                std::make_shared<nn::MaxPool2d>(2)})),
        "MaxPool2d");

    // Non-chaining widths.
    expectInvalid(
        serve::FrozenModel::validateServable(
            std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
                std::make_shared<lutboost::LutLinear>(8, 4, pq),
                std::make_shared<lutboost::LutLinear>(6, 2, pq)})),
        "do not chain");

    // Norm width mismatch.
    expectInvalid(
        serve::FrozenModel::validateServable(
            std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
                std::make_shared<lutboost::LutLinear>(8, 4, pq),
                std::make_shared<nn::LayerNorm>(6)})),
        "LayerNorm");
}

TEST(ServingFacade, PipelineEngineServesCnnWorkload)
{
    // End-to-end through the facade: convert the lenet-shapes workload
    // and serve it; the builder infers the image shape from the dataset.
    lutboost::ConvertOptions opts;
    opts.pq.v = 3;
    opts.pq.c = 8;
    opts.calibration_rows = 256;
    opts.centroid_stage.epochs = 0;
    opts.joint_stage.epochs = 0;

    serve::EngineOptions engine_opts;
    engine_opts.threads = 1;
    engine_opts.max_batch = 16;
    auto builder = api::Pipeline::forWorkload("lenet-shapes")
                       .pretrain(nn::TrainConfig::sgd(1, 0.05))
                       .convert(opts);
    auto engine = builder.engine(engine_opts);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();

    const Tensor images = randomImages(4, 1, 12, 12, 81);
    const Tensor reference =
        builder.convertedModel()->forward(images, false);
    auto result = engine.value()->submit(flattenImages(images));
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_TRUE(result->equals(reference))
        << "maxdiff=" << Tensor::maxAbsDiff(*result, reference);
}

TEST(FrozenModel, TraceModelAdaptsWidthsDeterministically)
{
    std::vector<sim::GemmShape> gemms{{4, 12, 6, "a"}, {4, 9, 5, "b"}};
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 8;
    auto frozen = serve::FrozenModel::fromTrace(gemms, pq);
    ASSERT_TRUE(frozen.ok()) << frozen.status().toString();
    EXPECT_EQ(frozen->inputWidth(), 12);
    EXPECT_EQ(frozen->outputWidth(), 5);

    const Tensor x = randomRows(7, 12, 9);
    const Tensor a = frozen->forwardBatch(x);
    const Tensor b = frozen->forwardBatch(x);
    EXPECT_TRUE(a.equals(b));

    auto empty = serve::FrozenModel::fromTrace({}, pq);
    EXPECT_FALSE(empty.ok());
}

// ---------------------------------------------------------------------------
// Engine behavior.

TEST(InferenceEngine, ServesConcurrentSubmittersCorrectly)
{
    FrozenFixture fx = makeFrozenMlp();
    auto frozen = serve::FrozenModel::fromModel(fx.model);
    ASSERT_TRUE(frozen.ok());
    const Tensor reference = frozen->forwardBatch(fx.rows);

    serve::EngineOptions options;
    options.threads = 2;
    options.max_batch = 8;
    options.max_wait_us = 100;
    auto engine = serve::InferenceEngine::create(frozen.take(), options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();

    constexpr int kSubmitters = 4;
    constexpr int kPerThread = 6;  // 24 single-row requests total
    std::vector<std::thread> submitters;
    std::vector<api::Status> failures(kSubmitters);
    for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const int64_t r = t * kPerThread + i;
                Tensor row(Shape{1, 16});
                std::copy(fx.rows.data() + r * 16,
                          fx.rows.data() + (r + 1) * 16, row.data());
                auto result = engine.value()->submit(row);
                if (!result.ok()) {
                    failures[static_cast<size_t>(t)] = result.status();
                    return;
                }
                for (int64_t n = 0; n < result->dim(1); ++n) {
                    if (result->at(0, n) != reference.at(r, n)) {
                        failures[static_cast<size_t>(t)] =
                            api::Status::internal("row mismatch");
                        return;
                    }
                }
            }
        });
    }
    for (std::thread &thread : submitters)
        thread.join();
    for (const api::Status &status : failures)
        EXPECT_TRUE(status.ok()) << status.toString();

    const serve::EngineStats stats = engine.value()->stats();
    EXPECT_EQ(stats.served, kSubmitters * kPerThread);
    EXPECT_EQ(stats.rows, kSubmitters * kPerThread);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_GE(stats.batches, 1u);
    EXPECT_LE(stats.batches, stats.served);
}

/**
 * Hostile rows — NaN, +/-Inf, +/-denorm_min, +/-FLT_MAX and -0, one per
 * row, everywhere, or a whole row of one — through a 4-worker engine on
 * a width-adapting trace model: every response is ok and byte-equal
 * (memcmp, since NaN != NaN) to the single-thread forwardBatch, whether
 * the rows arrive as one batch or as concurrent single-row requests.
 */
TEST(InferenceEngine, HostileRowsServeOkAndBitExact)
{
    const float hostile[] = {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::denorm_min(),
                             -std::numeric_limits<float>::denorm_min(),
                             std::numeric_limits<float>::max(),
                             -std::numeric_limits<float>::max(),
                             -0.0f};
    constexpr int64_t kHostile = sizeof(hostile) / sizeof(hostile[0]);
    constexpr int64_t kRows = 48, kWidth = 12;
    Tensor x = randomRows(kRows, kWidth, 77);
    for (int64_t r = 0; r < kRows; ++r)
        for (int64_t i = 0; i < kWidth; ++i) {
            const float pick = hostile[(r / 3) % kHostile];
            if (r % 3 == 0 && i == r % kWidth)
                x.at(r, i) = pick;
            else if (r % 3 == 1)
                x.at(r, i) = hostile[(r + i) % kHostile];
            else if (r % 3 == 2)
                x.at(r, i) = pick;
        }

    // Stage b widens 6 -> 9 and stage c truncates 10 -> 8.
    const std::vector<sim::GemmShape> gemms{
        {4, 12, 6, "a"}, {4, 9, 10, "b"}, {4, 8, 5, "c"}};
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    for (const bool quantized : {false, true}) {
        serve::PlanOptions plan;
        if (quantized) {
            plan.table_precision = serve::TablePrecision::Int4;
            plan.encode_precision = serve::EncodePrecision::Int8;
        }
        auto model = serve::FrozenModel::fromTrace(gemms, pq, {}, 91, plan);
        ASSERT_TRUE(model.ok()) << model.status().toString();
        const Tensor reference = model->forwardBatch(x);
        const int64_t n = reference.dim(1);
        const auto same_row = [&](const Tensor &got, int64_t got_row,
                                  int64_t ref_row) {
            return std::memcmp(got.data() + got_row * n,
                               reference.data() + ref_row * n,
                               static_cast<size_t>(n) * sizeof(float)) == 0;
        };

        serve::EngineOptions options;
        options.threads = 4;
        options.max_batch = kRows;
        auto engine = serve::InferenceEngine::create(model.take(), options);
        ASSERT_TRUE(engine.ok()) << engine.status().toString();
        auto batch = engine.value()->submit(x);
        ASSERT_TRUE(batch.ok()) << batch.status().toString();
        for (int64_t r = 0; r < kRows; ++r)
            EXPECT_TRUE(same_row(*batch, r, r))
                << "batch row " << r << " quantized=" << quantized;

        std::vector<std::future<api::Result<Tensor>>> singles;
        for (int64_t r = 0; r < kRows; ++r) {
            Tensor row(Shape{1, kWidth});
            std::copy(x.data() + r * kWidth, x.data() + (r + 1) * kWidth,
                      row.data());
            singles.push_back(engine.value()->submitAsync(row));
        }
        for (int64_t r = 0; r < kRows; ++r) {
            auto result = singles[static_cast<size_t>(r)].get();
            ASSERT_TRUE(result.ok()) << result.status().toString();
            EXPECT_TRUE(same_row(*result, 0, r))
                << "single row " << r << " quantized=" << quantized;
        }
        engine.value()->shutdown();
    }
}

TEST(InferenceEngine, DynamicBatchingCoalescesQueuedRequests)
{
    FrozenFixture fx = makeFrozenMlp();

    serve::EngineOptions options;
    options.threads = 1;
    options.max_batch = 4;
    options.max_wait_us = 50000;
    options.queue_capacity = 64;
    options.autostart = false;  // pre-fill, then start: deterministic
    auto engine = api::makeEngine(fx.model, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();

    std::vector<std::future<api::Result<Tensor>>> futures;
    for (int64_t r = 0; r < 8; ++r) {
        Tensor row(Shape{1, 16});
        std::copy(fx.rows.data() + r * 16, fx.rows.data() + (r + 1) * 16,
                  row.data());
        futures.push_back(engine.value()->submitAsync(std::move(row)));
    }
    engine.value()->start();
    for (auto &future : futures) {
        auto result = future.get();
        ASSERT_TRUE(result.ok()) << result.status().toString();
    }

    const serve::EngineStats stats = engine.value()->stats();
    EXPECT_EQ(stats.served, 8u);
    EXPECT_EQ(stats.batches, 2u);  // 8 queued rows / max_batch 4
    ASSERT_EQ(stats.batch_fill.size(), 5u);
    EXPECT_EQ(stats.batch_fill[4], 2u);
    EXPECT_DOUBLE_EQ(stats.avgBatchFill(), 4.0);
    EXPECT_GT(stats.p99_latency_us, 0.0);
}

TEST(InferenceEngine, MultiRowRequestsRespectMaxBatch)
{
    FrozenFixture fx = makeFrozenMlp();
    auto frozen = serve::FrozenModel::fromModel(fx.model);
    ASSERT_TRUE(frozen.ok());
    const Tensor reference = frozen->forwardBatch(fx.rows);

    serve::EngineOptions options;
    options.threads = 1;
    options.max_batch = 5;
    options.autostart = false;
    auto engine = serve::InferenceEngine::create(frozen.take(), options);
    ASSERT_TRUE(engine.ok());

    // 3 + 3 rows cannot share a 5-row batch; expect two batches.
    Tensor first(Shape{3, 16});
    std::copy(fx.rows.data(), fx.rows.data() + 3 * 16, first.data());
    Tensor second(Shape{3, 16});
    std::copy(fx.rows.data() + 3 * 16, fx.rows.data() + 6 * 16,
              second.data());
    auto fut1 = engine.value()->submitAsync(std::move(first));
    auto fut2 = engine.value()->submitAsync(std::move(second));
    engine.value()->start();

    auto res1 = fut1.get();
    auto res2 = fut2.get();
    ASSERT_TRUE(res1.ok() && res2.ok());
    for (int64_t r = 0; r < 3; ++r)
        for (int64_t n = 0; n < res1->dim(1); ++n) {
            EXPECT_EQ(res1->at(r, n), reference.at(r, n));
            EXPECT_EQ(res2->at(r, n), reference.at(r + 3, n));
        }
    const serve::EngineStats stats = engine.value()->stats();
    EXPECT_EQ(stats.batches, 2u);
    EXPECT_EQ(stats.rows, 6u);
}

TEST(InferenceEngine, CleanShutdownAnswersInFlightRequests)
{
    FrozenFixture fx = makeFrozenMlp();
    serve::EngineOptions options;
    options.threads = 2;
    options.max_batch = 4;
    options.queue_capacity = 128;
    auto engine = api::makeEngine(fx.model, options);
    ASSERT_TRUE(engine.ok());

    std::vector<std::future<api::Result<Tensor>>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(
            engine.value()->submitAsync(randomRows(1, 16, 100 + i)));
    engine.value()->shutdown();  // must drain, not drop

    for (auto &future : futures) {
        auto result = future.get();
        ASSERT_TRUE(result.ok()) << result.status().toString();
        EXPECT_EQ(result->dim(0), 1);
    }
    EXPECT_EQ(engine.value()->stats().served, 64u);

    // And post-shutdown submissions come back as typed errors.
    auto late = engine.value()->submit(randomRows(1, 16, 999));
    ASSERT_FALSE(late.ok());
    EXPECT_EQ(late.status().code(), api::StatusCode::FailedPrecondition);
}

TEST(InferenceEngine, NeverStartedShutdownFailsQueuedRequests)
{
    FrozenFixture fx = makeFrozenMlp();
    serve::EngineOptions options;
    options.threads = 1;
    options.autostart = false;
    auto engine = api::makeEngine(fx.model, options);
    ASSERT_TRUE(engine.ok());
    auto future = engine.value()->submitAsync(randomRows(1, 16, 5));
    engine.value()->shutdown();
    auto result = future.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), api::StatusCode::FailedPrecondition);
}

TEST(InferenceEngine, NotStartedEngineFailsFastWhenQueueFills)
{
    // With no workers running, a full queue can never drain; submissions
    // beyond capacity must be shed typed instead of blocking forever.
    FrozenFixture fx = makeFrozenMlp();
    serve::EngineOptions options;
    options.threads = 1;
    options.queue_capacity = 2;
    options.max_batch = 4;
    options.autostart = false;
    auto engine = api::makeEngine(fx.model, options);
    ASSERT_TRUE(engine.ok());

    auto fut1 = engine.value()->submitAsync(randomRows(1, 16, 1));
    auto fut2 = engine.value()->submitAsync(randomRows(1, 16, 2));
    auto overflow = engine.value()->submitAsync(randomRows(1, 16, 3));
    auto shed = overflow.get();  // must not hang
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), api::StatusCode::ResourceExhausted);

    engine.value()->start();
    EXPECT_TRUE(fut1.get().ok());
    EXPECT_TRUE(fut2.get().ok());
    EXPECT_EQ(engine.value()->stats().shed_capacity, 1u);
}

TEST(InferenceEngine, RejectsMalformedRequests)
{
    FrozenFixture fx = makeFrozenMlp();
    serve::EngineOptions options;
    options.threads = 1;
    options.max_batch = 4;
    auto engine = api::makeEngine(fx.model, options);
    ASSERT_TRUE(engine.ok());

    // A zero-row tensor cannot even be constructed (Tensor rejects empty
    // dims), so "no rows" arrives as a rank-0 default tensor.
    auto zero = engine.value()->submit(Tensor());
    ASSERT_FALSE(zero.ok());
    EXPECT_EQ(zero.status().code(), api::StatusCode::InvalidArgument);

    auto width = engine.value()->submit(randomRows(1, 7, 1));
    ASSERT_FALSE(width.ok());
    EXPECT_EQ(width.status().code(), api::StatusCode::InvalidArgument);

    auto oversized = engine.value()->submit(randomRows(5, 16, 1));
    ASSERT_FALSE(oversized.ok());
    EXPECT_EQ(oversized.status().code(), api::StatusCode::InvalidArgument);

    EXPECT_EQ(engine.value()->stats().rejected, 3u);
}

TEST(InferenceEngine, CreateValidatesOptions)
{
    FrozenFixture fx = makeFrozenMlp();
    auto frozen = serve::FrozenModel::fromModel(fx.model);
    ASSERT_TRUE(frozen.ok());

    serve::EngineOptions bad;
    bad.max_batch = 0;
    auto engine = serve::InferenceEngine::create(frozen.take(), bad);
    ASSERT_FALSE(engine.ok());
    EXPECT_EQ(engine.status().code(), api::StatusCode::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Facade entry points.

TEST(ServingFacade, PipelineEngineTerminalServes)
{
    lutboost::ConvertOptions opts;
    opts.pq.v = 4;
    opts.pq.c = 8;
    opts.centroid_stage.epochs = 1;
    opts.joint_stage.epochs = 1;

    serve::EngineOptions engine_opts;
    engine_opts.threads = 1;
    auto engine = api::Pipeline::forWorkload("mlp-mixture")
                      .pretrain(nn::TrainConfig::sgd(1, 0.05))
                      .convert(opts)
                      .engine(engine_opts);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();
    auto result = engine.value()->submit(randomRows(2, 16, 77));
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_EQ(result->dim(0), 2);
    EXPECT_EQ(result->dim(1), 4);
}

TEST(ServingFacade, WorkloadTraceEngineServes)
{
    vq::PQConfig pq;
    pq.v = 8;
    pq.c = 16;
    serve::EngineOptions options;
    options.threads = 1;
    options.max_batch = 16;
    auto engine = api::Pipeline::engineForWorkload("lenet", pq, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();

    const int64_t width = engine.value()->model().inputWidth();
    auto result = engine.value()->submit(randomRows(4, width, 21));
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_EQ(result->dim(0), 4);

    auto unknown = api::Pipeline::engineForWorkload("no-such", pq, options);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(), api::StatusCode::NotFound);
}

TEST(ServingFacade, ArtifactsEngineReplaysTrace)
{
    api::RunArtifacts artifacts;
    artifacts.pq.v = 4;
    artifacts.pq.c = 8;
    artifacts.gemms = {{8, 20, 10, "l0"}, {8, 10, 6, "l1"}};
    serve::EngineOptions options;
    options.threads = 1;
    auto engine = api::Pipeline::engineForArtifacts(artifacts, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();
    auto result = engine.value()->submit(randomRows(3, 20, 13));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->dim(1), 6);

    auto empty = api::Pipeline::engineForArtifacts(api::RunArtifacts{},
                                                   options);
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.status().code(), api::StatusCode::FailedPrecondition);
}

// ---------------------------------------------------------------------------
// Intra-batch sharding: a multi-worker engine splits one big batch into
// row blocks, each a fused encode -> gather tile on its worker's own
// scratch. Must be invisible in the output.

TEST(InferenceEngine, ShardedBigBatchBitExactAcrossPlans)
{
    // Big enough batches that every lut-gemm stage splits (one block is a
    // shuffle chunk: 64 rows on AVX-512 hosts, 32 on AVX2): 256 rows =
    // 4+ blocks. 263 rows leave a ragged last block of 7 rows, whose
    // planes stay unpadded and whose gather takes the scalar tail.
    std::vector<sim::GemmShape> gemms{{4, 24, 18, "a"}, {4, 18, 7, "b"}};
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;

    struct Plan
    {
        const char *name;
        serve::TablePrecision tables;
        serve::EncodePrecision encode;
    };
    const Plan plans[] = {
        {"float32", serve::TablePrecision::Float32,
         serve::EncodePrecision::Float32},
        {"int8", serve::TablePrecision::Int8,
         serve::EncodePrecision::Float32},
        // The resnet18-bulk plan: int4 tables fed by the int8 encode.
        {"int4+enc:int8", serve::TablePrecision::Int4,
         serve::EncodePrecision::Int8},
    };
    for (const Plan &p : plans) {
        serve::PlanOptions plan;
        plan.table_precision = p.tables;
        plan.encode_precision = p.encode;
        auto model = serve::FrozenModel::fromTrace(gemms, pq, {}, 91, plan);
        ASSERT_TRUE(model.ok()) << model.status().toString();
        ASSERT_GT(model->plan()[0].shard_rows, 0)
            << "planner must bind a shard granularity to lut-gemm stages";
        EXPECT_EQ(model->plan()[0].encode_precision, p.encode) << p.name;

        for (const int64_t batch : {256, 263}) {
            const Tensor rows =
                randomRows(batch, 24, 77 + static_cast<uint64_t>(batch));
            // Reference: the same frozen model swept on ONE thread.
            const Tensor reference = model->forwardBatch(rows);

            serve::EngineOptions options;
            options.threads = 4;
            options.max_batch = batch;
            auto engine = serve::InferenceEngine::create(*model, options);
            ASSERT_TRUE(engine.ok()) << engine.status().toString();
            auto result = engine.value()->submit(rows);
            ASSERT_TRUE(result.ok()) << result.status().toString();
            EXPECT_TRUE(result->equals(reference))
                << p.name << " rows=" << batch
                << " sharded sweep diverged, maxdiff="
                << Tensor::maxAbsDiff(*result, reference);
            engine.value()->shutdown();

            const serve::EngineStats stats = engine.value()->stats();
            EXPECT_GE(stats.active_workers, 1);
            EXPECT_LE(stats.active_workers, 4);
            EXPECT_GT(stats.encode_seconds, 0.0);
            EXPECT_GT(stats.gather_seconds, 0.0);
            // The raw cross-worker sums are always >= the per-worker
            // average.
            EXPECT_GE(stats.encode_cpu_seconds, stats.encode_seconds);
            EXPECT_GE(stats.gather_cpu_seconds, stats.gather_seconds);
        }
    }
}

/** Pool whose helper scratch runs every block: the initiator steals
 * none, as when woken helpers claim all of a small stage's blocks. */
class HelperRunsEveryBlock : public serve::IntraBatchPool
{
  public:
    void
    parallelFor(int64_t blocks, const serve::ShardFn &fn,
                serve::StageScratch &) override
    {
        for (int64_t b = 0; b < blocks; ++b)
            fn(b, helper);
    }

    serve::StageScratch helper;
};

TEST(InferenceEngine, StolenBlocksCreditPhaseTimeToTheBatch)
{
    std::vector<sim::GemmShape> gemms{{4, 24, 18, "a"}, {4, 18, 7, "b"}};
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    const int64_t block = serve::intraBatchBlockRows();
    const Tensor rows = randomRows(4 * block + 3, 24, 5);
    // Untiled: each stage splits into row blocks; tiled: one tile per
    // block.
    for (const int64_t tile_rows : {int64_t{-1}, block}) {
        serve::PlanOptions plan;
        plan.tile_rows = tile_rows;
        auto model = serve::FrozenModel::fromTrace(gemms, pq, {}, 91, plan);
        ASSERT_TRUE(model.ok()) << model.status().toString();

        HelperRunsEveryBlock pool;
        serve::StageScratch scratch;
        scratch.pool = &pool;
        const Tensor y = model->forwardBatch(rows, scratch);
        EXPECT_TRUE(y.equals(model->forwardBatch(rows)))
            << "tile_rows=" << tile_rows;
        EXPECT_GT(scratch.encode_ns, 0u) << "tile_rows=" << tile_rows;
        EXPECT_GT(scratch.gather_ns, 0u) << "tile_rows=" << tile_rows;
        // The helper's own counters are left as they were.
        EXPECT_EQ(pool.helper.encode_ns, 0u);
        EXPECT_EQ(pool.helper.gather_ns, 0u);
        EXPECT_EQ(scratch.pool, &pool);
    }
}

TEST(InferenceEngine, ShardStealingWorkersCountAsActive)
{
    // Regression: a worker that only ever STEALS shard blocks from the
    // other worker's batches used to go uncounted in active_workers,
    // under-counting 2-thread runs where batch coalescing funnels every
    // request through one initiator (and inflating the per-active-worker
    // encode/gather averages). ONE big sharded batch guarantees exactly
    // one initiator, so before the fix this engine deterministically
    // reported active_workers == 1; the second worker has dozens of
    // shard blocks across the stage phases to claim. The stages are wide
    // enough that each phase outlasts the helper's wake-up even with fast
    // kernels on a loaded host; with 4x narrower stages the initiator
    // sometimes finished every block alone.
    std::vector<sim::GemmShape> gemms{{4, 1024, 768, "a"},
                                      {4, 768, 512, "b"},
                                      {4, 512, 64, "c"}};
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    auto model = serve::FrozenModel::fromTrace(gemms, pq);
    ASSERT_TRUE(model.ok()) << model.status().toString();

    serve::EngineOptions options;
    options.threads = 2;
    options.max_batch = 512;
    auto engine = serve::InferenceEngine::create(*model, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();
    auto result = engine.value()->submit(randomRows(512, 1024, 300));
    ASSERT_TRUE(result.ok()) << result.status().toString();
    engine.value()->shutdown();

    const serve::EngineStats stats = engine.value()->stats();
    EXPECT_EQ(stats.active_workers, 2)
        << "shard-stealing helper not counted as active";
    // With both workers counted, the per-active-worker phase averages
    // must be a genuine average, not the raw cross-worker sum.
    EXPECT_GE(stats.encode_cpu_seconds, stats.encode_seconds * 1.99);
    EXPECT_GE(stats.gather_cpu_seconds, stats.gather_seconds * 1.99);
}

TEST(InferenceEngine, ShardedConcurrentSmallRequestsStayBitExact)
{
    // Many small concurrent requests + multi-worker batching + sharding
    // racing each other must still answer every request bit-exactly.
    std::vector<sim::GemmShape> gemms{{4, 16, 12, "a"}};
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    auto model = serve::FrozenModel::fromTrace(gemms, pq);
    ASSERT_TRUE(model.ok());

    serve::EngineOptions options;
    options.threads = 3;
    options.max_batch = 128;
    options.queue_capacity = 512;
    auto engine = serve::InferenceEngine::create(*model, options);
    ASSERT_TRUE(engine.ok());

    std::vector<Tensor> inputs;
    std::vector<std::future<api::Result<Tensor>>> futures;
    for (int r = 0; r < 48; ++r) {
        inputs.push_back(randomRows(5, 16, 100 + static_cast<uint64_t>(r)));
        futures.push_back(engine.value()->submitAsync(inputs.back()));
    }
    for (size_t r = 0; r < futures.size(); ++r) {
        auto result = futures[r].get();
        ASSERT_TRUE(result.ok()) << result.status().toString();
        EXPECT_TRUE(result->equals(model->forwardBatch(inputs[r])))
            << "request " << r << " diverged";
    }
    engine.value()->shutdown();
}

TEST(PlanSummary, RecordsIsaKernelsAndShardGranularity)
{
    std::vector<sim::GemmShape> gemms{{4, 16, 9, "a"}};
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    serve::PlanOptions plan;
    plan.table_precision = serve::TablePrecision::Int8;
    auto model = serve::FrozenModel::fromTrace(gemms, pq, {}, 91, plan);
    ASSERT_TRUE(model.ok());
    ASSERT_EQ(model->plan().size(), 1u);
    const serve::StagePlan &p = model->plan()[0];
    // The block granularity is one shuffle-gather chunk (32 rows when no
    // vector tier runs).
    const int64_t chunk =
        lutboost::simd::shuffleGatherChunkRows(util::simdLevel());
    const int64_t want = chunk > 0 ? chunk : 32;
    EXPECT_EQ(p.shard_rows, want);
    EXPECT_FALSE(p.encode_kernel.empty());
    EXPECT_FALSE(p.gather_kernel.empty());

    const std::string summary = model->planSummary();
    EXPECT_NE(summary.find("isa: "), std::string::npos)
        << "planSummary must log the runtime-dispatched ISA level";
    EXPECT_NE(summary.find("shard " + std::to_string(want)),
              std::string::npos);
    EXPECT_NE(summary.find(p.gather_kernel), std::string::npos);
}

// ---------------------------------------------------------------------------
// Admission control: a full queue sheds typed, it never blocks.

TEST(InferenceEngine, FullQueueShedsTypedInsteadOfBlocking)
{
    // Flood a 1-worker engine with a tiny admission queue: every
    // submission must resolve immediately as either a served result or a
    // typed ResourceExhausted — never a block, never any other status.
    FrozenFixture fx = makeFrozenMlp();
    serve::EngineOptions options;
    options.threads = 1;
    options.queue_capacity = 1;
    options.max_batch = 1;
    options.max_wait_us = 0;
    auto engine = api::makeEngine(fx.model, options);
    ASSERT_TRUE(engine.ok());

    const Tensor rows = randomRows(1, 16, 5);
    const Tensor reference = fx.model->forward(rows, /*train=*/false);
    int served = 0, shed = 0;
    std::vector<std::future<api::Result<Tensor>>> futures;
    for (int i = 0; i < 200; ++i)
        futures.push_back(engine.value()->submitAsync(rows));
    for (auto &future : futures) {
        auto result = future.get();
        if (result.ok()) {
            served++;
            EXPECT_TRUE(result->equals(reference));
        } else {
            ASSERT_EQ(result.status().code(),
                      api::StatusCode::ResourceExhausted)
                << result.status().toString();
            shed++;
        }
    }
    EXPECT_EQ(served + shed, 200);
    EXPECT_GT(served, 0);
    engine.value()->shutdown();
    const serve::EngineStats stats = engine.value()->stats();
    EXPECT_EQ(stats.shed_capacity, static_cast<uint64_t>(shed));
    EXPECT_EQ(stats.rejected, 0u);
}

TEST(InferenceEngine, StatsSplitQueueWaitFromServiceTime)
{
    FrozenFixture fx = makeFrozenMlp();
    serve::EngineOptions options;
    options.threads = 1;
    options.max_batch = 8;
    auto engine = api::makeEngine(fx.model, options);
    ASSERT_TRUE(engine.ok());

    for (int i = 0; i < 32; ++i) {
        auto result =
            engine.value()->submit(randomRows(2, 16, 10 + uint64_t(i)));
        ASSERT_TRUE(result.ok());
    }
    engine.value()->shutdown();

    const serve::EngineStats stats = engine.value()->stats();
    EXPECT_GT(stats.p50_service_us, 0.0);
    EXPECT_GE(stats.p99_service_us, stats.p50_service_us);
    EXPECT_GE(stats.p99_queue_us, stats.p50_queue_us);
    // The two phases partition end-to-end latency (each component is
    // clock-sampled independently, so allow per-request rounding slack).
    EXPECT_NEAR(stats.mean_queue_us + stats.mean_service_us,
                stats.mean_latency_us, 4.0);
    const std::string summary = stats.summary();
    EXPECT_NE(summary.find("queue"), std::string::npos);
    EXPECT_NE(summary.find("service"), std::string::npos);
}

} // namespace
} // namespace lutdla
