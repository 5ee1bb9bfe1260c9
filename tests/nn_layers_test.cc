/**
 * @file
 * Gradient and behaviour tests for every NN layer. Gradients are checked
 * against central finite differences through a random linear functional of
 * the layer output.
 */

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/norm.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "nn/simd_math.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace lutdla::nn {
namespace {

Tensor
randomTensor(const Shape &shape, uint64_t seed, double std = 1.0)
{
    Tensor t(shape);
    Rng rng(seed);
    for (int64_t i = 0; i < t.numel(); ++i)
        t.at(i) = static_cast<float>(rng.gaussian(0.0, std));
    return t;
}

/** loss(x) = sum(layer(x) .* r); returns analytic dloss/dx via backward. */
double
lossOf(Layer &layer, const Tensor &x, const Tensor &r)
{
    Tensor y = layer.forward(x, true);
    double loss = 0.0;
    for (int64_t i = 0; i < y.numel(); ++i)
        loss += static_cast<double>(y.at(i)) * r.at(i);
    return loss;
}

/** Max relative error between analytic and numeric input gradients. */
double
checkInputGradient(Layer &layer, Tensor x, const Shape &out_shape,
                   uint64_t seed, double eps = 1e-2)
{
    Tensor r = randomTensor(out_shape, seed);
    (void)lossOf(layer, x, r);
    Tensor analytic = layer.backward(r);

    double worst = 0.0;
    for (int64_t i = 0; i < x.numel(); ++i) {
        const float orig = x.at(i);
        x.at(i) = orig + static_cast<float>(eps);
        const double lp = lossOf(layer, x, r);
        x.at(i) = orig - static_cast<float>(eps);
        const double lm = lossOf(layer, x, r);
        x.at(i) = orig;
        const double numeric = (lp - lm) / (2.0 * eps);
        const double denom =
            std::max({std::fabs(numeric), std::fabs(
                          static_cast<double>(analytic.at(i))), 1e-2});
        worst = std::max(
            worst, std::fabs(numeric - analytic.at(i)) / denom);
    }
    return worst;
}

/** Same check for one parameter tensor. */
double
checkParamGradient(Layer &layer, const Tensor &x, Parameter &param,
                   const Shape &out_shape, uint64_t seed,
                   double eps = 1e-2)
{
    Tensor r = randomTensor(out_shape, seed);
    param.zeroGrad();
    (void)lossOf(layer, x, r);
    (void)layer.backward(r);
    Tensor analytic = param.grad;

    double worst = 0.0;
    for (int64_t i = 0; i < param.value.numel(); ++i) {
        const float orig = param.value.at(i);
        param.value.at(i) = orig + static_cast<float>(eps);
        const double lp = lossOf(layer, x, r);
        param.value.at(i) = orig - static_cast<float>(eps);
        const double lm = lossOf(layer, x, r);
        param.value.at(i) = orig;
        const double numeric = (lp - lm) / (2.0 * eps);
        const double denom =
            std::max({std::fabs(numeric), std::fabs(
                          static_cast<double>(analytic.at(i))), 1e-2});
        worst = std::max(
            worst, std::fabs(numeric - analytic.at(i)) / denom);
    }
    return worst;
}

TEST(Linear, ForwardMatchesManual)
{
    Linear lin(2, 2, true, 1);
    lin.weight().value = Tensor(Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
    lin.bias().value = Tensor(Shape{2}, std::vector<float>{10, 20});
    Tensor x(Shape{1, 2}, std::vector<float>{1, 1});
    Tensor y = lin.forward(x, false);
    EXPECT_FLOAT_EQ(y.at(0, 0), 14.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 26.0f);
}

TEST(Linear, InputGradient)
{
    Linear lin(5, 4, true, 2);
    Tensor x = randomTensor({3, 5}, 3);
    EXPECT_LT(checkInputGradient(lin, x, {3, 4}, 4), 2e-2);
}

TEST(Linear, WeightAndBiasGradients)
{
    Linear lin(4, 3, true, 5);
    Tensor x = randomTensor({2, 4}, 6);
    EXPECT_LT(checkParamGradient(lin, x, lin.weight(), {2, 3}, 7), 2e-2);
    EXPECT_LT(checkParamGradient(lin, x, lin.bias(), {2, 3}, 8), 2e-2);
}

TEST(Conv2d, InputGradient)
{
    ConvGeometry g;
    g.in_channels = 2;
    g.out_channels = 3;
    g.kernel = 3;
    g.padding = 1;
    Conv2d conv(g, true, 9);
    Tensor x = randomTensor({2, 2, 4, 4}, 10);
    EXPECT_LT(checkInputGradient(conv, x, {2, 3, 4, 4}, 11), 2e-2);
}

TEST(Conv2d, WeightGradient)
{
    ConvGeometry g;
    g.in_channels = 1;
    g.out_channels = 2;
    g.kernel = 3;
    g.stride = 2;
    g.padding = 1;
    Conv2d conv(g, true, 12);
    Tensor x = randomTensor({1, 1, 6, 6}, 13);
    EXPECT_LT(checkParamGradient(conv, x, conv.weight(), {1, 2, 3, 3}, 14),
              2e-2);
}

TEST(ReLU, ForwardAndGradient)
{
    ReLU relu;
    Tensor x(Shape{1, 4}, std::vector<float>{-1, 2, -3, 4});
    Tensor y = relu.forward(x, true);
    EXPECT_EQ(y.at(0), 0.0f);
    EXPECT_EQ(y.at(1), 2.0f);
    Tensor g = relu.backward(Tensor(Shape{1, 4}, 1.0f));
    EXPECT_EQ(g.at(0), 0.0f);
    EXPECT_EQ(g.at(3), 1.0f);
}

TEST(GELU, Gradient)
{
    GELU gelu;
    Tensor x = randomTensor({2, 6}, 15);
    EXPECT_LT(checkInputGradient(gelu, x, {2, 6}, 16), 2e-2);
}

TEST(GELU, KnownValues)
{
    GELU gelu;
    Tensor x(Shape{1, 2}, std::vector<float>{0.0f, 3.0f});
    Tensor y = gelu.forward(x, false);
    EXPECT_NEAR(y.at(0), 0.0f, 1e-6f);
    EXPECT_NEAR(y.at(1), 2.996f, 5e-3f);
}

TEST(MaxPool2d, ForwardAndGradient)
{
    MaxPool2d pool(2);
    Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
    Tensor y = pool.forward(x, true);
    EXPECT_EQ(y.at(0), 5.0f);
    Tensor g = pool.backward(Tensor(Shape{1, 1, 1, 1}, 2.0f));
    EXPECT_EQ(g.at4(0, 0, 0, 1), 2.0f);
    EXPECT_EQ(g.at4(0, 0, 0, 0), 0.0f);
}

TEST(MaxPool2d, WindowBelowAnyFiniteSeedRegression)
{
    // Window {2, 3, 6, 7} holds only -FLT_MAX: its output is that value
    // and its gradient lands on its own first element, not on element 0
    // of the other window.
    MaxPool2d pool(2);
    Tensor x(Shape{1, 1, 2, 4},
             std::vector<float>{1, 5, -FLT_MAX, -FLT_MAX, 3, 2, -FLT_MAX,
                                -FLT_MAX});
    Tensor y = pool.forward(x, true);
    EXPECT_EQ(y.at(0), 5.0f);
    EXPECT_EQ(y.at(1), -FLT_MAX);
    Tensor g = pool.backward(Tensor(Shape{1, 1, 1, 2},
                                    std::vector<float>{2.0f, 7.0f}));
    const std::vector<float> want{0, 2, 7, 0, 0, 0, 0, 0};
    for (int64_t i = 0; i < g.numel(); ++i)
        EXPECT_EQ(g.at(i), want[static_cast<size_t>(i)]) << "i=" << i;
}

TEST(GlobalAvgPool, ForwardAndGradient)
{
    GlobalAvgPool pool;
    Tensor x = randomTensor({2, 3, 4, 4}, 17);
    EXPECT_LT(checkInputGradient(pool, x, {2, 3}, 18), 2e-2);
}

TEST(BatchNorm2d, NormalizesTrainingBatch)
{
    BatchNorm2d bn(2);
    Tensor x = randomTensor({4, 2, 3, 3}, 19, 5.0);
    Tensor y = bn.forward(x, true);
    // Per-channel mean ~0, var ~1.
    for (int64_t c = 0; c < 2; ++c) {
        double mean = 0.0, var = 0.0;
        for (int64_t n = 0; n < 4; ++n)
            for (int64_t h = 0; h < 3; ++h)
                for (int64_t w = 0; w < 3; ++w)
                    mean += y.at4(n, c, h, w);
        mean /= 36.0;
        for (int64_t n = 0; n < 4; ++n)
            for (int64_t h = 0; h < 3; ++h)
                for (int64_t w = 0; w < 3; ++w)
                    var += std::pow(y.at4(n, c, h, w) - mean, 2);
        var /= 36.0;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(BatchNorm2d, InputGradient)
{
    BatchNorm2d bn(2);
    Tensor x = randomTensor({3, 2, 2, 2}, 20);
    EXPECT_LT(checkInputGradient(bn, x, {3, 2, 2, 2}, 21), 3e-2);
}

TEST(LayerNorm, InputGradient)
{
    LayerNorm ln(6);
    Tensor x = randomTensor({4, 6}, 22);
    EXPECT_LT(checkInputGradient(ln, x, {4, 6}, 23), 3e-2);
}

TEST(LayerNorm, NormalizesRows)
{
    LayerNorm ln(8);
    Tensor x = randomTensor({2, 8}, 24, 3.0);
    Tensor y = ln.forward(x, false);
    for (int64_t r = 0; r < 2; ++r) {
        double mean = 0.0;
        for (int64_t j = 0; j < 8; ++j)
            mean += y.at(r, j);
        EXPECT_NEAR(mean / 8.0, 0.0, 1e-4);
    }
}

TEST(Attention, OutputShapeAndGradient)
{
    MultiHeadSelfAttention attn(4, 8, 2, 25);
    Tensor x = randomTensor({8, 8}, 26);  // B=2, T=4, D=8
    Tensor y = attn.forward(x, true);
    EXPECT_EQ(y.dim(0), 8);
    EXPECT_EQ(y.dim(1), 8);
    EXPECT_LT(checkInputGradient(attn, x, {8, 8}, 27), 4e-2);
}

TEST(TransformerBlock, GradientFlowsThroughResiduals)
{
    TransformerBlock block(4, 8, 2, 16, 28);
    Tensor x = randomTensor({4, 8}, 29);  // B=1
    EXPECT_LT(checkInputGradient(block, x, {4, 8}, 30), 5e-2);
}

TEST(Sequential, ChainsAndBackprops)
{
    auto seq = std::make_shared<Sequential>();
    seq->add(std::make_shared<Linear>(4, 8, true, 31));
    seq->add(std::make_shared<ReLU>());
    seq->add(std::make_shared<Linear>(8, 2, true, 32));
    Tensor x = randomTensor({3, 4}, 33);
    EXPECT_LT(checkInputGradient(*seq, x, {3, 2}, 34), 2e-2);
    EXPECT_EQ(collectParameters(seq).size(), 4u);
}

TEST(ResidualBlock, IdentitySkipGradient)
{
    auto main = std::make_shared<Sequential>();
    main->add(std::make_shared<Linear>(6, 6, true, 35));
    ResidualBlock block(main);
    Tensor x = randomTensor({2, 6}, 36);
    EXPECT_LT(checkInputGradient(block, x, {2, 6}, 37), 2e-2);
}

TEST(Loss, SoftmaxCrossEntropyKnownValue)
{
    SoftmaxCrossEntropy loss;
    Tensor logits(Shape{1, 2}, std::vector<float>{0.0f, 0.0f});
    const double l = loss.forward(logits, {0});
    EXPECT_NEAR(l, std::log(2.0), 1e-6);
    Tensor g = loss.backward();
    EXPECT_NEAR(g.at(0, 0), -0.5f, 1e-6f);
    EXPECT_NEAR(g.at(0, 1), 0.5f, 1e-6f);
}

TEST(Loss, LogitsBelowMinusOneE30StayFiniteRegression)
{
    SoftmaxCrossEntropy loss;
    Tensor logits(Shape{1, 3}, std::vector<float>{-2e30f, -3e30f, -2.5e30f});
    EXPECT_EQ(loss.forward(logits, {0}), 0.0);
    Tensor g = loss.backward();
    EXPECT_EQ(g.at(0, 0), 0.0f);
    EXPECT_EQ(g.at(0, 1), 0.0f);
}

TEST(Loss, Accuracy)
{
    Tensor logits(Shape{2, 3},
                  std::vector<float>{1, 5, 2, 9, 0, 1});
    EXPECT_DOUBLE_EQ(accuracy(logits, {1, 0}), 1.0);
    EXPECT_DOUBLE_EQ(accuracy(logits, {0, 0}), 0.5);
}

TEST(Optimizer, SgdDescendsQuadratic)
{
    // Minimize f(w) = (w - 3)^2 by hand-fed gradients.
    Parameter w("w", Tensor(Shape{1}));
    Sgd sgd({&w}, 0.1, 0.0, 0.0);
    for (int i = 0; i < 200; ++i) {
        w.zeroGrad();
        w.grad.at(0) = 2.0f * (w.value.at(0) - 3.0f);
        sgd.step();
    }
    EXPECT_NEAR(w.value.at(0), 3.0f, 1e-3f);
}

TEST(Optimizer, AdamDescendsQuadratic)
{
    Parameter w("w", Tensor(Shape{1}));
    Adam adam({&w}, 0.1);
    for (int i = 0; i < 500; ++i) {
        w.zeroGrad();
        w.grad.at(0) = 2.0f * (w.value.at(0) - 3.0f);
        adam.step();
    }
    EXPECT_NEAR(w.value.at(0), 3.0f, 1e-2f);
}

// ---- SIMD tiers of the in-repo tanh/exp and the math built on them -----
//
// tanh, exp, GELU (forward and gradient), softmax and the attention core
// each have a scalar twin and an AVX-512 variant (simd_math.h). Each test
// runs every tier the running CPU has through the dispatcher and requires
// the scalar tier's bits (memcmp) on hostile inputs, ragged lengths and
// the shapes attention serves. Under LUTDLA_SIMD=avx2 or generic only the
// scalar tier runs.

/** The scalar tier, then the running CPU's level when that selects the
 * AVX-512 variant. */
std::vector<util::SimdLevel>
mathTiers()
{
    std::vector<util::SimdLevel> tiers{util::SimdLevel::Generic};
    if (util::simdLevel() >= util::SimdLevel::Avx512)
        tiers.push_back(util::simdLevel());
    return tiers;
}

float
fromBits(uint32_t b)
{
    float f;
    std::memcpy(&f, &b, sizeof f);
    return f;
}

uint32_t
toBits(float f)
{
    uint32_t b;
    std::memcpy(&b, &f, sizeof b);
    return b;
}

/** NaNs (quiet, negative, with a payload, signaling), signed zeros, and
 * +-: infinity, denorm_min, FLT_MIN, FLT_MAX, the tanh branch point
 * 0.625 and its neighbour, tanh's saturation (9, 10, 20), exp's
 * overflow and underflow edges (87.3 ... 104) and 1e30. */
std::vector<float>
hostileValues()
{
    std::vector<float> v{std::numeric_limits<float>::quiet_NaN(),
                         fromBits(0xffc00000u), fromBits(0x7fc12345u),
                         fromBits(0x7f800001u), 0.0f, -0.0f};
    for (float m : {INFINITY, std::numeric_limits<float>::denorm_min(),
                    FLT_MIN, FLT_MAX, 1e-20f, 0.625f,
                    std::nextafter(0.625f, 0.0f), 9.0f, 10.0f, 20.0f, 87.3f,
                    88.0f, 88.72f, 89.0f, 103.9f, 104.0f, 1e30f}) {
        v.push_back(m);
        v.push_back(-m);
    }
    return v;
}

/** `n` values: the hostile ones, then gaussians whose scale spans 0.1 to
 * 100 (both tanh branches and exp's whole range). */
std::vector<float>
mixedInputs(int64_t n, uint64_t seed)
{
    std::vector<float> v = hostileValues();
    Rng rng(seed);
    while (static_cast<int64_t>(v.size()) < n)
        v.push_back(static_cast<float>(
            rng.gaussian(0.0, std::pow(10.0, rng.uniform(-1.0, 2.0)))));
    v.resize(static_cast<size_t>(n));
    return v;
}

/** "" when a and b hold the same bits, else the first differing index
 * and both bit patterns. */
std::string
bitDiff(const float *a, const float *b, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        if (toBits(a[i]) != toBits(b[i])) {
            char buf[96];
            std::snprintf(buf, sizeof buf, "i=%lld: %08x (%g) vs %08x (%g)",
                          static_cast<long long>(i), toBits(a[i]), a[i],
                          toBits(b[i]), b[i]);
            return buf;
        }
    return "";
}

/** y[0, n) from x[off, off + n) at a tier; y never aliases x. */
using TieredSpan = std::function<void(const std::vector<float> &x,
                                      int64_t off, int64_t n, float *y,
                                      util::SimdLevel level)>;

/**
 * Every tier of `span` gives the scalar tier's bits on 4099 mixed inputs
 * as one span, and on ragged spans (1 ... 100 floats) at unaligned
 * offsets, with the floats on either side of each span left untouched.
 */
void
expectTiersBitIdentical(const TieredSpan &span, const std::string &what)
{
    const int64_t n = 4099;
    const std::vector<float> x = mixedInputs(n, 7);
    std::vector<float> want(static_cast<size_t>(n));
    span(x, 0, n, want.data(), util::SimdLevel::Generic);
    const float sentinel = fromBits(0x7fbadbadu);
    for (const util::SimdLevel level : mathTiers()) {
        const std::string at = what + " " + util::simdLevelName(level);
        std::vector<float> got(static_cast<size_t>(n));
        span(x, 0, n, got.data(), level);
        EXPECT_EQ(bitDiff(got.data(), want.data(), n), "") << at;
        for (const int64_t len : {1, 3, 15, 16, 17, 31, 33, 47, 100}) {
            for (const int64_t off : {0, 1, 5, 38}) {
                std::vector<float> out(static_cast<size_t>(len + 2),
                                       sentinel);
                span(x, off, len, out.data() + 1, level);
                EXPECT_EQ(bitDiff(out.data() + 1, want.data() + off, len),
                          "")
                    << at << " len=" << len << " off=" << off;
                EXPECT_EQ(toBits(out.front()), toBits(sentinel)) << at;
                EXPECT_EQ(toBits(out.back()), toBits(sentinel)) << at;
            }
        }
    }
}

/** `span` at every tier equals `scalar` element by element on 515 mixed
 * inputs, also in place (y == x). */
void
expectSpanIsScalarTwin(void (*span)(const float *, int64_t, float *,
                                    util::SimdLevel),
                       float (*scalar)(float), uint64_t seed)
{
    const std::vector<float> x = mixedInputs(515, seed);
    std::vector<float> want(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        want[i] = scalar(x[i]);
    for (const util::SimdLevel level : mathTiers()) {
        std::vector<float> inplace = x;
        span(inplace.data(), 515, inplace.data(), level);
        EXPECT_EQ(bitDiff(inplace.data(), want.data(), 515), "")
            << util::simdLevelName(level);
    }
}

TEST(SimdMath, TanhTiersBitIdentical)
{
    expectTiersBitIdentical(
        [](const std::vector<float> &x, int64_t off, int64_t n, float *y,
           util::SimdLevel level) { tanhSpan(x.data() + off, n, y, level); },
        "tanh");
    expectSpanIsScalarTwin(tanhSpan, tanhFloat, 8);
}

TEST(SimdMath, ExpTiersBitIdentical)
{
    expectTiersBitIdentical(
        [](const std::vector<float> &x, int64_t off, int64_t n, float *y,
           util::SimdLevel level) { expSpan(x.data() + off, n, y, level); },
        "exp");
    expectSpanIsScalarTwin(expSpan, expFloat, 9);
}

TEST(SimdMath, GeluForwardAndGradientTiersBitIdentical)
{
    expectTiersBitIdentical(
        [](const std::vector<float> &x, int64_t off, int64_t n, float *y,
           util::SimdLevel level) {
            std::copy(x.begin() + off, x.begin() + off + n, y);
            geluForward(y, n, level);
        },
        "gelu");
    // The scalar tier of the span is geluForward(float) per element.
    const std::vector<float> x = mixedInputs(515, 10);
    std::vector<float> span = x;
    geluForward(span.data(), 515, util::SimdLevel::Generic);
    for (size_t i = 0; i < x.size(); ++i)
        ASSERT_EQ(toBits(span[i]), toBits(geluForward(x[i]))) << "i=" << i;

    // Upstream NaNs with other payloads than x's at the same index.
    std::vector<float> upstream = mixedInputs(4099, 11);
    std::reverse(upstream.begin(), upstream.begin() + 60);
    expectTiersBitIdentical(
        [&upstream](const std::vector<float> &x, int64_t off, int64_t n,
                    float *y, util::SimdLevel level) {
            std::copy(upstream.begin() + off, upstream.begin() + off + n, y);
            geluBackward(x.data() + off, n, y, level);
        },
        "gelu backward");
}

TEST(SimdMath, SoftmaxTiersBitIdenticalInAndOutOfPlace)
{
    for (const int64_t T : {1, 7, 16, 17, 128, 130}) {
        const int64_t rows = 10;
        std::vector<float> x = mixedInputs(rows * T, static_cast<uint64_t>(T));
        Rng rng(static_cast<uint64_t>(T) + 100);
        float *r = x.data();
        // Row 0 keeps the hostile values; then plain, extreme and
        // degenerate rows.
        for (int64_t j = 0; j < T; ++j) {
            r[1 * T + j] = static_cast<float>(rng.gaussian(0.0, 3.0));
            r[2 * T + j] = static_cast<float>(rng.gaussian(0.0, 1e4));
            r[3 * T + j] = -FLT_MAX;
            r[4 * T + j] = -2e30f - static_cast<float>(j) * 1e29f;
            r[5 * T + j] = j % 2 == 0 ? -0.0f : 0.0f;  // signed-zero max
            r[6 * T + j] = j % 3 == 0 ? 0.0f : -static_cast<float>(j);
            r[7 * T + j] = std::numeric_limits<float>::quiet_NaN();
            r[8 * T + j] = j == T / 2 ? INFINITY : 1.0f;
            r[9 * T + j] = j % 2 == 0 ? -INFINITY : -1e-3f * j;
        }
        std::vector<float> want(x.size());
        softmaxForward(x.data(), rows, T, want.data(),
                       util::SimdLevel::Generic);
        for (const util::SimdLevel level : mathTiers()) {
            const std::string at = std::string(util::simdLevelName(level)) +
                                   " T=" + std::to_string(T);
            std::vector<float> got(x.size());
            softmaxForward(x.data(), rows, T, got.data(), level);
            EXPECT_EQ(bitDiff(got.data(), want.data(), rows * T), "") << at;
            std::vector<float> inplace = x;
            softmaxForward(inplace.data(), rows, T, inplace.data(), level);
            EXPECT_EQ(bitDiff(inplace.data(), want.data(), rows * T), "")
                << at << " in place";
        }
        // The plain rows still normalize.
        float sum = 0.0f;
        for (int64_t j = 0; j < T; ++j)
            sum += want[static_cast<size_t>(T + j)];
        EXPECT_NEAR(sum, 1.0f, 1e-5f) << "T=" << T;
    }
}

TEST(SimdMath, AttentionTiersBitIdentical)
{
    const int64_t heads = 2;
    for (const int64_t T : {1, 7, 16, 17, 128, 130}) {
        for (const int64_t d_head : {4, 8, 16, 24, 64}) {
            const int64_t d_model = heads * d_head;
            const auto seed = static_cast<uint64_t>(T * 100 + d_head);
            for (const bool hostile : {false, true}) {
                std::vector<float> q(static_cast<size_t>(T * d_model));
                std::vector<float> k(q.size()), v(q.size());
                Rng rng(seed + hostile);
                for (size_t i = 0; i < q.size(); ++i) {
                    q[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
                    k[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
                    v[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
                }
                if (hostile) {
                    // Overflowing scores, a NaN query, an infinite key
                    // and value, and denormal values.
                    const std::vector<float> h = hostileValues();
                    for (size_t i = 0; i < q.size(); i += 5) {
                        q[i] = h[i % h.size()];
                        k[(i * 7) % k.size()] = h[(i + 3) % h.size()];
                        v[(i * 3) % v.size()] = h[(i + 7) % h.size()];
                    }
                }
                const size_t probs_n = static_cast<size_t>(heads * T * T);
                std::vector<float> want_ctx(q.size(), 0.0f);
                std::vector<float> want_probs(probs_n);
                std::vector<float> k_t(static_cast<size_t>(d_head * T + 1),
                                       std::numeric_limits<float>::quiet_NaN());
                attentionSequenceContext(q.data(), k.data(), v.data(), T,
                                         heads, d_model, want_ctx.data(),
                                         want_probs.data(), k_t.data(),
                                         util::SimdLevel::Generic);
                for (const util::SimdLevel level : mathTiers()) {
                    const std::string at =
                        std::string(util::simdLevelName(level)) +
                        " T=" + std::to_string(T) +
                        " d_head=" + std::to_string(d_head) +
                        (hostile ? " hostile" : "");
                    std::vector<float> ctx(q.size(), 0.0f);
                    std::vector<float> probs(probs_n);
                    // A NaN-filled K^T plane with one guard float past
                    // its end: stale contents must not leak in.
                    std::fill(k_t.begin(), k_t.end(),
                              std::numeric_limits<float>::quiet_NaN());
                    k_t.back() = 12345.0f;
                    attentionSequenceContext(q.data(), k.data(), v.data(), T,
                                             heads, d_model, ctx.data(),
                                             probs.data(), k_t.data(), level);
                    EXPECT_EQ(bitDiff(ctx.data(), want_ctx.data(),
                                      static_cast<int64_t>(ctx.size())),
                              "")
                        << at << " ctx";
                    EXPECT_EQ(bitDiff(probs.data(), want_probs.data(),
                                      static_cast<int64_t>(probs_n)),
                              "")
                        << at << " probs";
                    EXPECT_EQ(k_t.back(), 12345.0f) << at;
                }
            }
        }
    }
}

/** |got - want| in units of the float ulp at want (2^-149 in the
 * subnormal range); 0 when both are NaN or the same infinity. */
double
ulpError(float got, double want)
{
    if (std::isnan(want) || std::isinf(want))
        return (std::isnan(got) && std::isnan(want)) ||
                       static_cast<double>(got) == want
                   ? 0.0
                   : INFINITY;
    int e = 0;
    std::frexp(want, &e);
    const double ulp = std::ldexp(1.0, std::max(e - 24, -149));
    return std::fabs(static_cast<double>(got) - want) / ulp;
}

/** Max ulp error of `span` against `ref` over [-neg_max, pos_max]: every
 * 64th float bit pattern of each sign, plus 2^20 evenly spaced values. */
double
maxUlpError(void (*span)(const float *, int64_t, float *, util::SimdLevel),
            double (*ref)(double), float neg_max, float pos_max)
{
    std::vector<float> x;
    for (uint32_t b = 0; b <= toBits(std::max(neg_max, pos_max)); b += 64) {
        const float m = fromBits(b);
        if (m <= pos_max)
            x.push_back(m);
        if (m <= neg_max)
            x.push_back(-m);
    }
    const int64_t even = int64_t{1} << 20;
    for (int64_t i = 0; i <= even; ++i)
        x.push_back(-neg_max + (pos_max + neg_max) *
                                   static_cast<float>(i) /
                                   static_cast<float>(even));
    std::vector<float> y(x.size());
    span(x.data(), static_cast<int64_t>(x.size()), y.data(),
         util::simdLevel());
    double worst = 0.0;
    for (size_t i = 0; i < x.size(); ++i)
        worst = std::max(worst, ulpError(y[i], ref(x[i])));
    return worst;
}

double
refTanh(double x)
{
    return std::tanh(x);
}

double
refExp(double x)
{
    return std::exp(x);
}

TEST(SimdMath, TanhAndExpWithinMeasuredUlpOfDouble)
{
    // The tiers are bit-identical (above), so one tier's error is every
    // tier's. The bounds are the measured maxima rounded up (1.283 and
    // 0.972 ulp on this sweep; 1.298 and 0.973 on every 16th bit
    // pattern). glibc's tanhf measures 2.155 ulp, its expf 0.502.
    const double tanh_ulp = maxUlpError(tanhSpan, refTanh, 12.0f, 12.0f);
    const double exp_ulp =
        maxUlpError(expSpan, refExp, 103.9f, 88.72f);
    std::printf("max ulp vs double: tanh %.3f, exp %.3f\n", tanh_ulp,
                exp_ulp);
    EXPECT_LE(tanh_ulp, 1.3);
    EXPECT_LE(exp_ulp, 1.0);
    // Saturation and special values.
    EXPECT_EQ(tanhFloat(10.0f), 1.0f);
    EXPECT_EQ(tanhFloat(-INFINITY), -1.0f);
    EXPECT_EQ(toBits(tanhFloat(-0.0f)), toBits(-0.0f));
    EXPECT_EQ(tanhFloat(std::numeric_limits<float>::denorm_min()),
              std::numeric_limits<float>::denorm_min());
    EXPECT_EQ(expFloat(89.0f), INFINITY);
    EXPECT_EQ(expFloat(-104.0f), 0.0f);
    EXPECT_EQ(expFloat(-INFINITY), 0.0f);
    EXPECT_EQ(expFloat(0.0f), 1.0f);
    EXPECT_EQ(expFloat(-0.0f), 1.0f);
    EXPECT_EQ(toBits(expFloat(fromBits(0x7fc12345u))), 0x7fc12345u);
}

} // namespace
} // namespace lutdla::nn
