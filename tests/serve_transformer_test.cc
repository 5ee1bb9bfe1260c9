// Transformer serving through the skip-edge stage graph: bit-exactness of
// the lowered encoder block against the nn:: eval forward across head
// counts, sequence lengths, and deployment precisions; skip-edge scratch
// aliasing under the sharded worker pool; the typed lowering error paths;
// the shared numerically stable softmax; and INT8 gather-tier
// bit-identity over the attention projection arenas.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <future>
#include <thread>
#include <tuple>
#include <vector>

#include "api/lutdla.h"
#include "lutboost/converter.h"
#include "lutboost/kernels.h"
#include "lutboost/lut_linear.h"
#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/sequential.h"
#include "serve/frozen_model.h"
#include "serve/stage_transformer.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace lutdla {
namespace {

constexpr int64_t kInWidth = 12;  ///< embedding input width
constexpr int64_t kDModel = 16;   ///< divisible by heads 1/4/8
constexpr int64_t kDff = 32;

vq::PQConfig
smallPq()
{
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 8;  // c <= 16 keeps the INT8 shuffle tier eligible
    return pq;
}

Tensor
randomRows(int64_t rows, int64_t width, uint64_t seed)
{
    Rng rng(seed);
    Tensor x(Shape{rows, width});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
    return x;
}

/**
 * An embedding LutLinear feeding one pre-LN encoder block, with the
 * attention Q/K/V/output projections and both FFN linears LUT-converted
 * (exactly the operator set the paper converts for its BERT/OPT
 * evaluation) and frozen at `precision`.
 */
nn::LayerPtr
makeLutTransformer(int64_t seq_len, int64_t heads,
                   vq::LutPrecision precision, uint64_t seed)
{
    auto model = std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
        std::make_shared<lutboost::LutLinear>(kInWidth, kDModel, smallPq(),
                                              /*bias=*/true, seed),
        std::make_shared<nn::TransformerBlock>(seq_len, kDModel, heads,
                                               kDff, seed + 1)});
    lutboost::ConvertOptions opts;
    opts.pq = smallPq();
    opts.min_in_features = 0;
    const int64_t replaced = lutboost::replaceOperators(model, opts);
    EXPECT_EQ(replaced, 6) << "q/k/v/o projections + 2 FFN linears";
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(model)) {
        layer->setPrecision(precision);
        layer->refreshInferenceLut();
    }
    return model;
}

// ---------------------------------------------------------------------------
// The acceptance sweep: heads x sequence length x deployment precision.

class TransformerServeSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>>
{
};

TEST_P(TransformerServeSweep, ServedMatchesEvalBitExactAcrossPrecisions)
{
    const auto [heads, seq_len] = GetParam();
    for (bool quantized_layer : {false, true}) {
        const vq::LutPrecision precision{quantized_layer, quantized_layer};
        nn::LayerPtr model = makeLutTransformer(
            seq_len, heads, precision,
            static_cast<uint64_t>(100 + heads * 1000 + seq_len));
        auto frozen = serve::FrozenModel::fromModel(model);
        ASSERT_TRUE(frozen.ok()) << frozen.status().toString();
        EXPECT_EQ(frozen->rowGroup(), seq_len);

        // seq_len 130 spans two shuffle chunks; 63/65 are ragged.
        const int64_t sequences = seq_len == 1 ? 3 : 2;
        const Tensor x =
            randomRows(sequences * seq_len, kInWidth,
                       static_cast<uint64_t>(7 + heads + seq_len));
        const Tensor served = frozen->forwardBatch(x);
        const Tensor reference = model->forward(x, /*train=*/false);
        EXPECT_TRUE(served.equals(reference))
            << "heads=" << heads << " seq=" << seq_len
            << " layer_int8=" << quantized_layer
            << " maxdiff=" << Tensor::maxAbsDiff(served, reference);
    }
}

INSTANTIATE_TEST_SUITE_P(
    HeadsAndSequenceLengths, TransformerServeSweep,
    ::testing::Combine(::testing::Values<int64_t>(1, 4, 8),
                       // single-row, chunk boundary +/- 1, multi-chunk
                       ::testing::Values<int64_t>(1, 63, 64, 65, 130)));

// ---------------------------------------------------------------------------
// Stage graph shape: skip edges lower structurally and act as fusion
// barriers; legal fusion inside the trunks still happens.

TEST(FrozenModel, TransformerLowersToSkipEdgeGraphWithFusionBarriers)
{
    nn::LayerPtr model =
        makeLutTransformer(/*seq_len=*/64, /*heads=*/4, {}, 31);
    auto frozen = serve::FrozenModel::fromModel(model);
    ASSERT_TRUE(frozen.ok()) << frozen.status().toString();

    // The embedding gemm's epilogue collection must stop at skip-save#0
    // (fusing the layernorm or save across the edge would change what the
    // residual lands on); the FFN GELU fuses into its own trunk's arena.
    EXPECT_EQ(frozen->describe(),
              "lut-gemm -> skip-save#0 -> layernorm -> attention(h4,t64) "
              "-> residual-add#0 -> skip-save#0 -> layernorm -> "
              "lut-gemm+gelu -> lut-gemm -> residual-add#0");
    EXPECT_EQ(frozen->numStages(), 10);
    ASSERT_EQ(frozen->plan().size(), 10u);
    EXPECT_TRUE(frozen->plan()[0].fused.empty())
        << "nothing may fold across the skip-save barrier";
    EXPECT_GT(frozen->plan()[3].code_bits, 0) << "attention is a LUT stage";
    EXPECT_TRUE(frozen->plan()[3].fused.empty())
        << "residual-add must not fold into the attention epilogue";
    EXPECT_EQ(frozen->plan()[7].fused, std::vector<std::string>{"gelu"});
    // Attention streams all four projection tables.
    EXPECT_GT(frozen->plan()[3].table_bytes,
              3 * frozen->plan()[0].table_bytes);
}

TEST(FrozenModel, ResidualBlockKeepsSkipPlaneAcrossPingPongRotation)
{
    // The residual trunk holds TWO arena stages, so the ping-pong planes
    // rotate (out becomes in) between skip-save and residual-add. If the
    // saved plane lived inside the rotation it would be overwritten; the
    // skip slot must survive untouched.
    vq::PQConfig pq = smallPq();
    auto model = std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
        std::make_shared<lutboost::LutLinear>(kInWidth, kDModel, pq, true,
                                              61),
        std::make_shared<nn::ResidualBlock>(std::make_shared<nn::Sequential>(
            std::vector<nn::LayerPtr>{
                std::make_shared<lutboost::LutLinear>(kDModel, kDModel, pq,
                                                      true, 62),
                std::make_shared<nn::ReLU>(),
                std::make_shared<lutboost::LutLinear>(kDModel, kDModel, pq,
                                                      true, 63)}))});
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(model))
        layer->refreshInferenceLut();

    auto frozen = serve::FrozenModel::fromModel(model);
    ASSERT_TRUE(frozen.ok()) << frozen.status().toString();
    EXPECT_EQ(frozen->describe(),
              "lut-gemm -> skip-save#0 -> lut-gemm+relu -> lut-gemm -> "
              "residual-add#0 -> relu");
    EXPECT_EQ(frozen->rowGroup(), 1) << "no attention, no row grouping";

    const Tensor x = randomRows(37, kInWidth, 64);
    const Tensor served = frozen->forwardBatch(x);
    const Tensor reference = model->forward(x, false);
    EXPECT_TRUE(served.equals(reference))
        << "maxdiff=" << Tensor::maxAbsDiff(served, reference);
}

TEST(FrozenModel, NestedResidualBlocksStackSkipSlots)
{
    vq::PQConfig pq = smallPq();
    auto inner = std::make_shared<nn::ResidualBlock>(
        std::make_shared<lutboost::LutLinear>(kDModel, kDModel, pq, true,
                                              71));
    auto model = std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
        std::make_shared<lutboost::LutLinear>(kInWidth, kDModel, pq, true,
                                              72),
        std::make_shared<nn::ResidualBlock>(std::make_shared<nn::Sequential>(
            std::vector<nn::LayerPtr>{
                std::make_shared<lutboost::LutLinear>(kDModel, kDModel, pq,
                                                      true, 73),
                inner}))});
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(model))
        layer->refreshInferenceLut();

    auto frozen = serve::FrozenModel::fromModel(model);
    ASSERT_TRUE(frozen.ok()) << frozen.status().toString();
    // The inner edge nests inside the outer one, so it gets its own slot.
    EXPECT_NE(frozen->describe().find("skip-save#1"), std::string::npos)
        << frozen->describe();

    const Tensor x = randomRows(9, kInWidth, 74);
    EXPECT_TRUE(frozen->forwardBatch(x).equals(model->forward(x, false)));
}

// ---------------------------------------------------------------------------
// Skip-edge scratch under the worker pool: raced, sharded, deterministic.

TEST(ServingFacade, TransformerRacedAcrossWorkersIsBitExact)
{
    // 8 sequences x 16 rows = 128 rows: at least two row blocks of one
    // shuffle chunk, so the projections split across the pool.
    const int64_t seq_len = 16, sequences = 8;
    nn::LayerPtr model =
        makeLutTransformer(seq_len, /*heads=*/4, {}, 81);
    const Tensor x = randomRows(sequences * seq_len, kInWidth, 82);
    const Tensor reference = model->forward(x, false);

    api::ServeOptions options;
    options.engine.threads = 4;
    options.engine.max_batch = sequences * seq_len;
    auto engine = api::makeEngine(model, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();

    // 4 submitter threads x 5 identical requests: every response must be
    // bit-identical to the eval forward no matter which workers shard the
    // batch or which scratch (skip slots, attention planes) they reuse.
    std::vector<std::future<api::Result<Tensor>>> futures;
    std::mutex mu;
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
        submitters.emplace_back([&] {
            for (int i = 0; i < 5; ++i) {
                auto f = engine.value()->submitAsync(x);
                std::lock_guard<std::mutex> lock(mu);
                futures.push_back(std::move(f));
            }
        });
    }
    for (std::thread &t : submitters)
        t.join();
    for (auto &f : futures) {
        auto result = f.get();
        ASSERT_TRUE(result.ok()) << result.status().toString();
        EXPECT_TRUE(result->equals(reference))
            << "raced transformer response diverged; maxdiff="
            << Tensor::maxAbsDiff(*result, reference);
    }
    engine.value()->shutdown();
}

// ---------------------------------------------------------------------------
// Row-group admission: attention models serve whole sequences.

TEST(ServingFacade, AttentionRowGroupAdmission)
{
    const int64_t seq_len = 8;
    nn::LayerPtr model =
        makeLutTransformer(seq_len, /*heads=*/4, {}, 91);

    // max_batch smaller than one sequence can never admit a request.
    api::ServeOptions tiny;
    tiny.engine.max_batch = seq_len - 1;
    auto rejected = api::makeEngine(model, tiny);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), api::StatusCode::InvalidArgument);
    EXPECT_NE(rejected.status().toString().find("row group"),
              std::string::npos)
        << rejected.status().toString();

    api::ServeOptions options;
    options.engine.max_batch = seq_len * 4;
    auto engine = api::makeEngine(model, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();

    // Partial sequences are a typed error, not a crash.
    auto partial =
        engine.value()->submit(randomRows(seq_len + 4, kInWidth, 92));
    ASSERT_FALSE(partial.ok());
    EXPECT_EQ(partial.status().code(), api::StatusCode::InvalidArgument);
    EXPECT_NE(partial.status().toString().find("sequence length"),
              std::string::npos)
        << partial.status().toString();

    // Whole sequences serve bit-exactly.
    const Tensor x = randomRows(seq_len * 2, kInWidth, 93);
    auto result = engine.value()->submit(x);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_TRUE(result->equals(model->forward(x, false)));
    engine.value()->shutdown();

    // The same three cases through the front door: publish refuses a
    // max_batch below one sequence, a partial sequence is rejected typed
    // (never reaching the attention stage), whole sequences serve.
    auto door = api::makeFrontDoor({});
    ASSERT_TRUE(door.ok()) << door.status().toString();
    api::ServeOptions tiny_slo;
    tiny_slo.slo.max_batch = seq_len - 1;
    auto tiny_publish =
        api::publishModel(door.value(), "tf", model, tiny_slo);
    ASSERT_FALSE(tiny_publish.ok());
    EXPECT_EQ(tiny_publish.status().code(),
              api::StatusCode::InvalidArgument);
    EXPECT_NE(tiny_publish.status().toString().find("row group"),
              std::string::npos)
        << tiny_publish.status().toString();

    api::ServeOptions door_options;
    door_options.slo.max_batch = seq_len * 4;
    auto published =
        api::publishModel(door.value(), "tf", model, door_options);
    ASSERT_TRUE(published.ok()) << published.status().toString();
    auto door_partial = door.value()->submit(
        "tf", randomRows(seq_len + 4, kInWidth, 92));
    ASSERT_FALSE(door_partial.ok());
    EXPECT_EQ(door_partial.status().code(),
              api::StatusCode::InvalidArgument);
    EXPECT_NE(door_partial.status().toString().find("sequence length"),
              std::string::npos)
        << door_partial.status().toString();
    auto door_result = door.value()->submit("tf", x);
    ASSERT_TRUE(door_result.ok()) << door_result.status().toString();
    EXPECT_TRUE(door_result->equals(model->forward(x, false)));
    door.value()->shutdown();
    const serve::FrontDoorStats door_stats = door.value()->stats();
    EXPECT_EQ(door_stats.models.at("tf").rejected, 1u);
    EXPECT_EQ(door_stats.models.at("tf").shed(), 0u);
}

// ---------------------------------------------------------------------------
// Typed lowering error paths name the first offending layer.

TEST(FrozenModel, TransformerLoweringErrorsNameOffendingLayer)
{
    vq::PQConfig pq = smallPq();
    auto expectInvalid = [](const api::Status &status,
                            const std::string &needle) {
        ASSERT_FALSE(status.ok());
        EXPECT_EQ(status.code(), api::StatusCode::InvalidArgument);
        EXPECT_NE(status.toString().find(needle), std::string::npos)
            << "status '" << status.toString() << "' should name '"
            << needle << "'";
    };

    // Attention at the model input: no width before ServeInputShape or a
    // LUT operator is known.
    expectInvalid(serve::FrozenModel::validateServable(
                      std::make_shared<nn::MultiHeadSelfAttention>(
                          8, kDModel, 4)),
                  "MultiHeadSelfAttention");

    // Softmax at the input likewise.
    expectInvalid(
        serve::FrozenModel::validateServable(std::make_shared<nn::Softmax>()),
        "Softmax");

    auto embed = [&](int64_t out) {
        return std::make_shared<lutboost::LutLinear>(kInWidth, out, pq,
                                                     true, 101);
    };

    // Stage widths must chain into d_model.
    expectInvalid(
        serve::FrozenModel::validateServable(
            std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
                embed(kDModel / 2),
                std::make_shared<nn::MultiHeadSelfAttention>(8, kDModel,
                                                             4)})),
        "stage widths do not chain at MultiHeadSelfAttention");

    // Unconverted projections are named before serving.
    expectInvalid(
        serve::FrozenModel::validateServable(
            std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
                embed(kDModel),
                std::make_shared<nn::MultiHeadSelfAttention>(8, kDModel,
                                                             4)})),
        "LUT-converted");

    // Two attention stages with different sequence lengths cannot share
    // one row group.
    {
        auto model =
            std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
                embed(kDModel),
                std::make_shared<nn::MultiHeadSelfAttention>(8, kDModel, 4),
                std::make_shared<nn::MultiHeadSelfAttention>(4, kDModel,
                                                             4)});
        lutboost::ConvertOptions opts;
        opts.pq = pq;
        opts.min_in_features = 0;
        lutboost::replaceOperators(model, opts);
        expectInvalid(serve::FrozenModel::validateServable(model),
                      "mismatched sequence lengths");
    }

    // Residual trunks must emit the width the skip edge carries.
    expectInvalid(
        serve::FrozenModel::validateServable(
            std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
                embed(kDModel),
                std::make_shared<nn::ResidualBlock>(
                    std::make_shared<lutboost::LutLinear>(
                        kDModel, kDModel / 2, pq, true, 102))})),
        "mismatched residual widths at ResidualBlock");

    // Converted but unfrozen projections: FailedPrecondition at build.
    {
        auto model =
            std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
                embed(kDModel),
                std::make_shared<nn::MultiHeadSelfAttention>(8, kDModel,
                                                             4)});
        lutboost::ConvertOptions opts;
        opts.pq = pq;
        opts.min_in_features = 0;
        lutboost::replaceOperators(model, opts);
        // Freeze ONLY the embedding so the walk reaches the attention.
        lutboost::findLutLayers(model)[0]->refreshInferenceLut();
        auto frozen = serve::FrozenModel::fromModel(model);
        ASSERT_FALSE(frozen.ok());
        EXPECT_EQ(frozen.status().code(),
                  api::StatusCode::FailedPrecondition);
        EXPECT_NE(frozen.status().toString().find("not "), std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// The shared numerically stable softmax.

TEST(Softmax, StableUnderExtremeLogitsRegression)
{
    // +/-1e4 logits overflow naive exp(x) to inf/NaN; the shared
    // row-max-subtracting kernel must stay finite and normalized.
    const int64_t rows = 3, features = 5;
    Tensor x(Shape{rows, features});
    const float logits[rows][features] = {
        {1.0e4f, -1.0e4f, 9.999e3f, 0.0f, -5.0e3f},
        {-1.0e4f, -1.0e4f, -1.0e4f, -1.0e4f, -1.0e4f},
        {1.0e4f, 1.0e4f, 1.0e4f, 1.0e4f, 1.0e4f}};
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t j = 0; j < features; ++j)
            x.at(r, j) = logits[r][j];

    Tensor y(Shape{rows, features});
    nn::softmaxForward(x.data(), rows, features, y.data());
    for (int64_t r = 0; r < rows; ++r) {
        float sum = 0.0f;
        for (int64_t j = 0; j < features; ++j) {
            ASSERT_TRUE(std::isfinite(y.at(r, j)))
                << "r=" << r << " j=" << j;
            EXPECT_GE(y.at(r, j), 0.0f);
            sum += y.at(r, j);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f) << "row " << r;
    }
    // Row 0: the 1e4 logit dominates 9999 by e^1 ~ 2.718.
    EXPECT_GT(y.at(0, 0), y.at(0, 2));
    EXPECT_NEAR(y.at(0, 0) / y.at(0, 2), std::exp(1.0f), 1e-2f);
    // Uniform rows stay uniform whatever the shared offset.
    for (int64_t j = 0; j < features; ++j) {
        EXPECT_NEAR(y.at(1, j), 0.2f, 1e-5f);
        EXPECT_NEAR(y.at(2, j), 0.2f, 1e-5f);
    }

    // The nn::Softmax layer and the serving SoftmaxStage both run this
    // exact kernel: the layer's forward must be bit-identical to it.
    nn::Softmax layer;
    const Tensor via_layer = layer.forward(x, false);
    EXPECT_TRUE(via_layer.equals(y));

    // Rows whose max lies below -1e30: the row max is seeded at -inf, so
    // the largest logit still maps to exp(0) = 1 instead of dividing by
    // a zero denominator. The serving SoftmaxStage (what lowering emits
    // for nn::Softmax) gives the same bits in place.
    const Tensor low(Shape{2, 3}, std::vector<float>{-2e30f, -3e30f,
                                                     -2.5e30f, -FLT_MAX,
                                                     -FLT_MAX, -FLT_MAX});
    const Tensor low_y = layer.forward(low, false);
    EXPECT_EQ(low_y.at(0, 0), 1.0f);
    EXPECT_EQ(low_y.at(0, 1), 0.0f);
    EXPECT_EQ(low_y.at(0, 2), 0.0f);
    for (int64_t j = 0; j < 3; ++j)
        EXPECT_EQ(low_y.at(1, j), 1.0f / 3.0f) << "j=" << j;
    Tensor served = low;
    serve::StageScratch scratch;
    serve::SoftmaxStage(3).forwardInPlace(served.data(), 2, scratch);
    EXPECT_TRUE(served.equals(low_y));
}

TEST(FrozenModel, SoftmaxHeadLowersBitExact)
{
    vq::PQConfig pq = smallPq();
    auto model = std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
        std::make_shared<lutboost::LutLinear>(kInWidth, 5, pq, true, 111),
        std::make_shared<nn::Softmax>()});
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(model))
        layer->refreshInferenceLut();

    auto frozen = serve::FrozenModel::fromModel(model);
    ASSERT_TRUE(frozen.ok()) << frozen.status().toString();
    EXPECT_EQ(frozen->describe(), "lut-gemm -> softmax");

    // Scale the inputs so the logits are large; serve and eval share the
    // stable kernel, so the outputs stay bit-identical and finite.
    Tensor x = randomRows(17, kInWidth, 112);
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) *= 100.0f;
    const Tensor served = frozen->forwardBatch(x);
    const Tensor reference = model->forward(x, false);
    EXPECT_TRUE(served.equals(reference))
        << "maxdiff=" << Tensor::maxAbsDiff(served, reference);
    for (int64_t i = 0; i < served.numel(); ++i)
        ASSERT_TRUE(std::isfinite(served.at(i)));
}

// ---------------------------------------------------------------------------
// INT8 data plane over the attention arenas.

TEST(AttentionArenas, Int8GatherLevelsBitIdenticalAcrossSimdTiers)
{
    // The VNNI INT8 gather at a forced level (where the host has it) and
    // at the default cap over the transformer's projection arenas must
    // match the scalar tier bit for bit (the same contract the generic property test proves,
    // here over the arenas attention actually serves from, at a ragged
    // row count).
    nn::LayerPtr model =
        makeLutTransformer(/*seq_len=*/65, /*heads=*/4, {}, 121);

    // The host's own level is the default cap.
    std::vector<util::SimdLevel> levels{util::simdLevel()};
    if (util::simdLevel() >= util::SimdLevel::Avx512Vnni)
        levels.push_back(util::SimdLevel::Avx512Vnni);

    int64_t checked = 0;
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(model)) {
        const auto arena = layer->inferenceArena();
        ASSERT_NE(arena, nullptr);
        arena->ensureInt8Bank();
        const int64_t rows = 65, n = arena->outFeatures();
        const Tensor x = randomRows(rows, arena->inFeatures(),
                                    static_cast<uint64_t>(122 + checked));
        lutboost::KernelScratch scratch;
        lutboost::KernelBackend::of(lutboost::TablePrecision::Float32)
            .encodeBatch(*arena, x.data(), rows, scratch);
        Tensor scalar(Shape{rows, n});
        arena->gatherAccumulateInt8(scratch.codes, scalar.data(),
                                    scratch.gather, util::SimdLevel::Generic);
        for (const util::SimdLevel level : levels) {
            Tensor shuffled(Shape{rows, n});
            arena->gatherAccumulateInt8(scratch.codes, shuffled.data(),
                                        scratch.gather, level);
            EXPECT_TRUE(shuffled.equals(scalar))
                << util::simdLevelName(level) << " diverged on arena " << checked << " maxdiff="
                << Tensor::maxAbsDiff(shuffled, scalar);
        }
        ++checked;
    }
    EXPECT_EQ(checked, 7) << "embedding + q/k/v/o + 2 FFN arenas";
}

TEST(AttentionArenas, Int4GatherLevelsBitIdenticalAcrossSimdTiers)
{
    // The INT4 mirror of the test above: every SIMD tier's nibble-packed
    // gather at a forced level over the transformer's projection arenas
    // must match the scalar sweep bit for bit (one unpack-and-shift
    // per chunk on top of the same VPSHUFB path; no VNNI tier — the
    // dot-product instruction would mix the two nibble planes).
    nn::LayerPtr model =
        makeLutTransformer(/*seq_len=*/65, /*heads=*/4, {}, 121);

    std::vector<util::SimdLevel> levels;
    const util::SimdLevel host = util::simdLevel();
    if (host >= util::SimdLevel::Avx2)
        levels.push_back(util::SimdLevel::Avx2);
    if (host >= util::SimdLevel::Avx512)
        levels.push_back(util::SimdLevel::Avx512);
    if (levels.empty())
        GTEST_SKIP() << "no SIMD level on this host; scalar-only";

    int64_t checked = 0;
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(model)) {
        const auto arena = layer->inferenceArena();
        ASSERT_NE(arena, nullptr);
        arena->ensureInt4Bank();
        const int64_t rows = 65, n = arena->outFeatures();
        const Tensor x = randomRows(rows, arena->inFeatures(),
                                    static_cast<uint64_t>(222 + checked));
        lutboost::KernelScratch scratch;
        lutboost::KernelBackend::of(lutboost::TablePrecision::Float32)
            .encodeBatch(*arena, x.data(), rows, scratch);
        Tensor scalar(Shape{rows, n});
        arena->gatherAccumulateInt4(scratch.codes, scalar.data(),
                                    scratch.gather, util::SimdLevel::Generic);
        for (const util::SimdLevel level : levels) {
            Tensor shuffled(Shape{rows, n});
            arena->gatherAccumulateInt4(scratch.codes, shuffled.data(),
                                        scratch.gather, level);
            EXPECT_TRUE(shuffled.equals(scalar))
                << util::simdLevelName(level) << " diverged on arena " << checked << " maxdiff="
                << Tensor::maxAbsDiff(shuffled, scalar);
        }
        ++checked;
    }
    EXPECT_EQ(checked, 7) << "embedding + q/k/v/o + 2 FFN arenas";
}

TEST(FrozenModel, QuantizedTransformerPlanDeterministicWithinEnvelope)
{
    const int64_t seq_len = 64;
    nn::LayerPtr model =
        makeLutTransformer(seq_len, /*heads=*/4, {}, 131);
    auto reference = serve::FrozenModel::fromModel(model);
    ASSERT_TRUE(reference.ok());

    serve::PlanOptions plan;
    plan.table_precision = serve::TablePrecision::Int8;
    auto quantized = serve::FrozenModel::fromModel(model, {}, plan);
    ASSERT_TRUE(quantized.ok()) << quantized.status().toString();
    EXPECT_NE(quantized->describe().find("attention(h4,t64)[int8]"),
              std::string::npos)
        << quantized->describe();
    // The INT8 banks stream fewer bytes than the float tables.
    EXPECT_LT(quantized->tableBytes(), reference->tableBytes());

    const Tensor x = randomRows(seq_len * 2, kInWidth, 132);
    const Tensor ref = reference->forwardBatch(x);
    const Tensor quant = quantized->forwardBatch(x);
    ASSERT_TRUE(ref.shape() == quant.shape());

    float ref_absmax = 0.0f;
    for (int64_t i = 0; i < ref.numel(); ++i)
        ref_absmax = std::max(ref_absmax, std::abs(ref.at(i)));
    for (int64_t i = 0; i < quant.numel(); ++i)
        ASSERT_TRUE(std::isfinite(quant.at(i))) << "i=" << i;
    const float maxdiff = Tensor::maxAbsDiff(quant, ref);
    RecordProperty("int8_transformer_maxdiff", std::to_string(maxdiff));
    // The quantized plan is approximate by design; the envelope bounds
    // the drift through two residual edges + softmax on this workload.
    EXPECT_LE(maxdiff, 0.5f * (ref_absmax + 1.0f))
        << "maxdiff=" << maxdiff << " ref_absmax=" << ref_absmax;

    // Determinism: the quantized plan answers the same bits every time.
    EXPECT_TRUE(quantized->forwardBatch(x).equals(quant));
}

} // namespace
} // namespace lutdla
