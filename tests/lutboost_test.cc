/**
 * @file
 * Tests for the LUT operators (STE forward/backward, reconstruction loss)
 * and the LUTBoost multistage converter.
 */

#include <gtest/gtest.h>

#include "lutboost/converter.h"
#include "lutboost/lut_conv.h"
#include "lutboost/lut_linear.h"
#include "nn/models.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "serve/frozen_model.h"
#include "tensor/gemm.h"
#include "util/rng.h"

namespace lutdla::lutboost {
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

vq::PQConfig
smallPq(int64_t v = 4, int64_t c = 8)
{
    vq::PQConfig cfg;
    cfg.v = v;
    cfg.c = c;
    return cfg;
}

TEST(LutLinear, ForwardIsQuantizedMatmul)
{
    LutLinear layer(8, 5, smallPq(), /*bias=*/false, 1);
    Tensor x = randomMatrix(6, 8, 2);
    Tensor y = layer.forward(x, false);
    Tensor expected = matmul(layer.quantize(x), layer.weight().value);
    EXPECT_LT(Tensor::maxAbsDiff(y, expected), 1e-4f);
}

TEST(LutLinear, BiasIsAdded)
{
    LutLinear layer(4, 3, smallPq(2, 4), true, 3);
    layer.bias().value.fill(2.0f);
    Tensor x = randomMatrix(2, 4, 4);
    Tensor with = layer.forward(x, false);
    layer.bias().value.fill(0.0f);
    Tensor without = layer.forward(x, false);
    for (int64_t i = 0; i < with.numel(); ++i)
        EXPECT_NEAR(with.at(i) - without.at(i), 2.0f, 1e-5f);
}

TEST(LutLinear, SteInputGradientIsGradThroughAhat)
{
    LutLinear layer(6, 4, smallPq(3, 4), false, 5);
    layer.setReconPenalty(0.0);
    Tensor x = randomMatrix(3, 6, 6);
    (void)layer.forward(x, true);
    Tensor grad_out = randomMatrix(3, 4, 7);
    Tensor grad_in = layer.backward(grad_out);
    // STE: dL/dA = dL/dA_hat = grad_out * W^T.
    Tensor expected = matmulTransposedB(grad_out, layer.weight().value);
    EXPECT_LT(Tensor::maxAbsDiff(grad_in, expected), 1e-4f);
}

TEST(LutLinear, CentroidGradScattersBySelection)
{
    vq::PQConfig pq = smallPq(2, 2);
    LutLinear layer(2, 1, pq, false, 8);
    // Two centroids: [0,0] and [10,10]; input near origin selects #0.
    Tensor cents(Shape{1, 2, 2}, std::vector<float>{0, 0, 10, 10});
    layer.centroids().value = cents;
    layer.weight().value = Tensor(Shape{2, 1}, std::vector<float>{1, 1});
    Tensor x(Shape{1, 2}, std::vector<float>{0.1f, -0.1f});
    (void)layer.forward(x, true);
    Tensor grad_out(Shape{1, 1}, 1.0f);
    layer.centroids().zeroGrad();
    (void)layer.backward(grad_out);
    // Selected centroid 0 receives dA_hat = grad*W^T = [1, 1].
    EXPECT_FLOAT_EQ(layer.centroids().grad.at(0), 1.0f);
    EXPECT_FLOAT_EQ(layer.centroids().grad.at(1), 1.0f);
    // Unselected centroid untouched.
    EXPECT_FLOAT_EQ(layer.centroids().grad.at(2), 0.0f);
    EXPECT_FLOAT_EQ(layer.centroids().grad.at(3), 0.0f);
}

TEST(LutLinear, ReconstructionLossIsScaledSquaredDiff)
{
    LutLinear layer(4, 3, smallPq(2, 4), false, 9);
    layer.setReconPenalty(0.5);
    Tensor x = randomMatrix(5, 4, 10);
    Tensor y = layer.forward(x, true);
    Tensor exact = matmul(x, layer.weight().value);
    const double msd = (y - exact).squaredNorm() / y.numel();
    EXPECT_NEAR(layer.auxLoss(), 2.0 * 0.5 * msd, 1e-6);
}

TEST(LutLinear, ReconstructionPullsCentroidsTowardData)
{
    // Pure reconstruction: repeated steps should reduce aux loss.
    LutLinear layer(4, 4, smallPq(2, 4), false, 11);
    layer.setReconPenalty(1.0);
    Tensor x = randomMatrix(64, 4, 12);
    nn::Sgd sgd({&layer.centroids()}, 0.05, 0.0, 0.0);
    (void)layer.forward(x, true);
    const double first = layer.auxLoss();
    for (int i = 0; i < 30; ++i) {
        layer.centroids().zeroGrad();
        layer.weight().zeroGrad();
        (void)layer.forward(x, true);
        Tensor zero(Shape{64, 4});
        (void)layer.backward(zero);  // recon gradient only
        sgd.step();
    }
    (void)layer.forward(x, true);
    EXPECT_LT(layer.auxLoss(), first * 0.8);
}

TEST(LutLinear, CalibrationImprovesApproximation)
{
    // Clustered activations (like real feature maps): subvectors drawn
    // from a few prototypes plus noise. k-means calibration must recover
    // the prototypes and beat random centroids decisively.
    LutLinear layer(8, 6, smallPq(4, 16), false, 13);
    Rng rng(14);
    Tensor data(Shape{256, 8});
    Tensor protos = randomMatrix(8, 4, 15);
    for (int64_t i = 0; i < 256; ++i) {
        for (int64_t s = 0; s < 2; ++s) {
            const int64_t p = rng.uniformInt(0, 7);
            for (int64_t t = 0; t < 4; ++t)
                data.at(i, s * 4 + t) =
                    3.0f * protos.at(p, t) +
                    static_cast<float>(rng.gaussian(0.0, 0.1));
        }
    }
    const double before =
        Tensor::relError(layer.quantize(data), data);
    layer.beginCalibration(512);
    (void)layer.forward(data, false);
    layer.finishCalibration();
    const double after = Tensor::relError(layer.quantize(data), data);
    EXPECT_LT(after, before * 0.5);
    EXPECT_LT(after, 0.2);
}

TEST(LutLinear, FromLinearCopiesWeights)
{
    nn::Linear lin(6, 4, true, 15);
    auto lut = LutLinear::fromLinear(lin, smallPq(3, 4));
    EXPECT_TRUE(lut->weight().value.equals(lin.weight().value));
    EXPECT_TRUE(lut->bias().value.equals(lin.bias().value));
}

TEST(LutLinear, InferenceLutMatchesFloatPath)
{
    LutLinear layer(8, 5, smallPq(4, 8), true, 16);
    Tensor data = randomMatrix(128, 8, 17);
    layer.beginCalibration(256);
    (void)layer.forward(data, false);
    layer.finishCalibration();

    Tensor eval = randomMatrix(16, 8, 18);
    Tensor float_path = layer.forward(eval, false);
    layer.setPrecision(vq::LutPrecision{false, false});
    layer.refreshInferenceLut();
    Tensor lut_path = layer.forward(eval, false);
    EXPECT_LT(Tensor::maxAbsDiff(float_path, lut_path), 1e-3f);
    layer.clearInferenceLut();
}

TEST(LutConv2d, MatchesLinearOnIm2col)
{
    ConvGeometry g;
    g.in_channels = 2;
    g.out_channels = 3;
    g.kernel = 3;
    g.padding = 1;
    LutConv2d conv(g, smallPq(3, 8), false, 19);
    Tensor x(Shape{1, 2, 4, 4});
    Rng rng(20);
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0, 1));

    Tensor y = conv.forward(x, false);
    Tensor cols = im2col(x, g);
    Tensor flat = conv.inner().forward(cols, false);
    for (int64_t co = 0; co < 3; ++co)
        for (int64_t p = 0; p < 16; ++p)
            EXPECT_NEAR(y.at4(0, co, p / 4, p % 4), flat.at(p, co),
                        1e-4f);
}

TEST(LutConv2d, SpatialCacheFollowsLatestTrainForward)
{
    // Regression: consecutive train forwards at different resolutions
    // must re-cache H/W so backward unlowers against the latest shape.
    ConvGeometry g;
    g.in_channels = 1;
    g.out_channels = 2;
    g.kernel = 3;
    g.padding = 1;
    LutConv2d conv(g, smallPq(3, 8), false, 23);

    Tensor big(Shape{2, 1, 6, 6});
    Tensor small(Shape{2, 1, 4, 4});
    Rng rng(24);
    for (int64_t i = 0; i < big.numel(); ++i)
        big.at(i) = static_cast<float>(rng.gaussian(0, 1));
    for (int64_t i = 0; i < small.numel(); ++i)
        small.at(i) = static_cast<float>(rng.gaussian(0, 1));

    conv.forward(big, true);
    Tensor y_small = conv.forward(small, true);
    Tensor grad(y_small.shape(), 1.0f);
    Tensor grad_in = conv.backward(grad);
    ASSERT_EQ(grad_in.rank(), 4);
    EXPECT_EQ(grad_in.dim(2), 4);
    EXPECT_EQ(grad_in.dim(3), 4);
}

TEST(LutConv2d, EvalForwardDoesNotClobberSpatialCache)
{
    // Regression: an eval forward between forward(train=true) and
    // backward (e.g. a mid-training validation pass at another
    // resolution) must not disturb the cached train shape.
    ConvGeometry g;
    g.in_channels = 1;
    g.out_channels = 2;
    g.kernel = 3;
    g.padding = 1;
    LutConv2d conv(g, smallPq(3, 8), false, 25);

    Tensor train_x(Shape{1, 1, 6, 6});
    Tensor eval_x(Shape{1, 1, 4, 4});
    Rng rng(26);
    for (int64_t i = 0; i < train_x.numel(); ++i)
        train_x.at(i) = static_cast<float>(rng.gaussian(0, 1));
    for (int64_t i = 0; i < eval_x.numel(); ++i)
        eval_x.at(i) = static_cast<float>(rng.gaussian(0, 1));

    Tensor y = conv.forward(train_x, true);
    conv.forward(eval_x, false);  // shape probe; must leave cache intact
    Tensor grad_in = conv.backward(Tensor(y.shape(), 1.0f));
    EXPECT_EQ(grad_in.dim(2), 6);
    EXPECT_EQ(grad_in.dim(3), 6);
}

TEST(LutConv2d, BackwardRejectsMismatchedGradShape)
{
    ConvGeometry g;
    g.in_channels = 1;
    g.out_channels = 2;
    g.kernel = 3;
    g.padding = 1;
    LutConv2d conv(g, smallPq(3, 8), false, 27);
    Tensor x(Shape{1, 1, 6, 6}, 0.5f);
    conv.forward(x, true);
    // A grad whose spatial extent matches a DIFFERENT input shape must be
    // rejected instead of silently corrupting col2im.
    EXPECT_DEATH(conv.backward(Tensor(Shape{1, 2, 4, 4}, 1.0f)),
                 "does not match the last train forward");
}

TEST(LutConv2d, ServedConvBitExactWithEvalForward)
{
    // The batched path is the serving one: a one-conv model lowered to a
    // ConvStage must answer bit-exactly with eval-mode forward().
    ConvGeometry g;
    g.in_channels = 2;
    g.out_channels = 3;
    g.kernel = 3;
    g.stride = 1;
    g.padding = 1;
    for (bool bf16 : {false, true}) {
        auto conv =
            std::make_shared<LutConv2d>(g, smallPq(3, 8), /*bias=*/true, 28);
        conv->inner().setPrecision(vq::LutPrecision{bf16, false});
        conv->inner().refreshInferenceLut();
        auto frozen = serve::FrozenModel::fromModel(
            std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{conv}),
            serve::ServeInputShape{5, 5});
        ASSERT_TRUE(frozen.ok()) << frozen.status().toString();

        Tensor x(Shape{3, 2, 5, 5});
        Rng rng(29);
        for (int64_t i = 0; i < x.numel(); ++i)
            x.at(i) = static_cast<float>(rng.gaussian(0, 1));

        const Tensor batched =
            frozen->forwardBatch(x.reshaped(Shape{3, 2 * 5 * 5}));
        const Tensor reference =
            conv->forward(x, false).reshaped(Shape{3, 3 * 5 * 5});
        EXPECT_TRUE(batched.equals(reference))
            << "bf16=" << bf16 << " maxdiff="
            << Tensor::maxAbsDiff(batched, reference);
    }
}

TEST(Converter, ReplacesLinearAndConv)
{
    auto model = nn::makeLeNetStyle(4, 21);
    ConvertOptions opts;
    opts.pq = smallPq(3, 8);
    const int64_t replaced = replaceOperators(model, opts);
    EXPECT_EQ(replaced, 4);  // 2 convs + 2 linears
    EXPECT_EQ(findLutLayers(model).size(), 4u);
}

TEST(Converter, MinInFeaturesSkipsNarrowLayers)
{
    auto model = nn::makeMlp(4, {32}, 2, 22);
    ConvertOptions opts;
    opts.pq = smallPq(2, 4);
    opts.min_in_features = 16;
    const int64_t replaced = replaceOperators(model, opts);
    EXPECT_EQ(replaced, 1);  // only the 32-wide classifier layer
}

TEST(Converter, MultistagePreservesAccuracy)
{
    nn::GaussianMixtureConfig dcfg;
    dcfg.classes = 4;
    dcfg.dim = 16;
    dcfg.train_per_class = 32;
    dcfg.test_per_class = 10;
    nn::Dataset ds = nn::makeGaussianMixture(dcfg);

    auto model = nn::makeMlp(16, {24}, 4, 23);
    nn::TrainConfig pre;
    pre.epochs = 10;
    nn::Trainer(model, ds, pre).train();

    ConvertOptions opts;
    opts.pq = smallPq(4, 16);
    opts.centroid_stage.epochs = 2;
    opts.joint_stage.epochs = 4;
    ConversionReport report = convert(model, ds, opts);
    EXPECT_GT(report.baseline_accuracy, 0.85);
    EXPECT_GT(report.final_accuracy, report.baseline_accuracy - 0.15);
    EXPECT_EQ(report.replaced_layers, 2);
    // Joint training should not be worse than raw k-means replacement.
    EXPECT_GE(report.final_accuracy,
              report.post_replace_accuracy - 0.05);
}

TEST(Converter, SingleStageFromScratchIsWorseOrEqual)
{
    nn::GaussianMixtureConfig dcfg;
    dcfg.classes = 4;
    dcfg.dim = 12;
    dcfg.train_per_class = 24;
    dcfg.test_per_class = 8;
    nn::Dataset ds = nn::makeGaussianMixture(dcfg);

    nn::TrainConfig pre;
    pre.epochs = 8;

    auto multi_model = nn::makeMlp(12, {16}, 4, 24);
    nn::Trainer(multi_model, ds, pre).train();
    ConvertOptions opts;
    opts.pq = smallPq(4, 8);
    opts.centroid_stage.epochs = 2;
    opts.joint_stage.epochs = 3;
    ConversionReport multi = convert(multi_model, ds, opts);

    auto single_model = nn::makeMlp(12, {16}, 4, 24);
    nn::Trainer(single_model, ds, pre).train();
    ConversionReport single = singleStageConvert(
        single_model, ds, opts, SingleStageMode::FromScratch, 5);

    EXPECT_GE(multi.final_accuracy + 0.10, single.final_accuracy);
}

} // namespace
} // namespace lutdla::lutboost
