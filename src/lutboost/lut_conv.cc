#include "lutboost/lut_conv.h"

#include <chrono>

#include "util/logging.h"

namespace lutdla::lutboost {

void
convArenaForward(const LutTableArena &arena, const ConvGeometry &geom,
                 const float *x, int64_t n, int64_t h, int64_t w, float *y,
                 ConvScratch &scratch, const KernelBackend &backend,
                 KernelScratch &kscratch, uint64_t *encode_ns,
                 uint64_t *gather_ns, EncodePrecision encode)
{
    using Clock = std::chrono::steady_clock;
    const int64_t Ho = geom.outSize(h), Wo = geom.outSize(w);
    LUTDLA_CHECK(Ho > 0 && Wo > 0, "conv output collapsed to zero");
    LUTDLA_CHECK(arena.inFeatures() == geom.patchSize(),
                 "arena width ", arena.inFeatures(),
                 " != conv patch size ", geom.patchSize());
    const int64_t rows = n * Ho * Wo;
    const int64_t co_dim = arena.outFeatures();

    const auto t0 = Clock::now();
    scratch.cols.resize(static_cast<size_t>(rows * geom.patchSize()));
    scratch.flat.resize(static_cast<size_t>(rows * co_dim));
    im2colInto(x, n, h, w, geom, scratch.cols.data());
    backend.encodeBatch(arena, scratch.cols.data(), rows, kscratch,
                        encode);
    const auto t1 = Clock::now();
    backend.gatherAccumulate(arena, kscratch, scratch.flat.data());

    // [n*Ho*Wo, C_out] -> NCHW, same traversal as LutConv2d::forward.
    const float *flat = scratch.flat.data();
    int64_t row = 0;
    for (int64_t b = 0; b < n; ++b)
        for (int64_t ho = 0; ho < Ho; ++ho)
            for (int64_t wo = 0; wo < Wo; ++wo, ++row)
                for (int64_t co = 0; co < co_dim; ++co)
                    y[((b * co_dim + co) * Ho + ho) * Wo + wo] =
                        flat[row * co_dim + co];
    const auto t2 = Clock::now();
    if (encode_ns)
        *encode_ns += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
    if (gather_ns)
        *gather_ns += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
                .count());
}

LutConv2d::LutConv2d(ConvGeometry geom, vq::PQConfig pq, bool bias,
                     uint64_t seed)
    : geom_(geom),
      inner_(std::make_shared<LutLinear>(geom.patchSize(),
                                         geom.out_channels, pq, bias, seed))
{
}

std::shared_ptr<LutConv2d>
LutConv2d::fromConv(const nn::Conv2d &conv, vq::PQConfig pq)
{
    auto lut = std::make_shared<LutConv2d>(conv.geometry(), pq,
                                           conv.hasBias());
    lut->inner_->weight().value = conv.weight().value;
    if (conv.hasBias())
        lut->inner_->bias().value =
            const_cast<nn::Conv2d &>(conv).bias().value;
    return lut;
}

Tensor
LutConv2d::forward(const Tensor &x, bool train)
{
    LUTDLA_CHECK(x.rank() == 4, "LutConv2d expects NCHW");
    const int64_t N = x.dim(0), H = x.dim(2), W = x.dim(3);
    const int64_t Ho = geom_.outSize(H), Wo = geom_.outSize(W);
    if (train) {
        // Always refresh: consecutive train forwards may change shape, and
        // backward must unlower against the most recent one.
        cached_n_ = N;
        cached_h_ = H;
        cached_w_ = W;
    }
    Tensor cols = im2col(x, geom_);
    Tensor flat = inner_->forward(cols, train);

    Tensor y(Shape{N, geom_.out_channels, Ho, Wo});
    int64_t row = 0;
    for (int64_t n = 0; n < N; ++n)
        for (int64_t ho = 0; ho < Ho; ++ho)
            for (int64_t wo = 0; wo < Wo; ++wo, ++row)
                for (int64_t co = 0; co < geom_.out_channels; ++co)
                    y.at4(n, co, ho, wo) = flat.at(row, co);
    return y;
}

Tensor
LutConv2d::forwardBatch(const Tensor &x) const
{
    LUTDLA_CHECK(x.rank() == 4 && x.dim(1) == geom_.in_channels,
                 "LutConv2d::forwardBatch expects NCHW with C=",
                 geom_.in_channels, ", got ", shapeStr(x.shape()));
    const int64_t N = x.dim(0), H = x.dim(2), W = x.dim(3);
    Tensor y(Shape{N, geom_.out_channels, geom_.outSize(H),
                   geom_.outSize(W)});
    ConvScratch scratch;
    KernelScratch kscratch;
    convArenaForward(*inferenceArena(), geom_, x.data(), N, H, W, y.data(),
                     scratch, KernelBackend::of(TablePrecision::Float32),
                     kscratch);
    return y;
}

Tensor
LutConv2d::backward(const Tensor &grad_out)
{
    LUTDLA_CHECK(cached_n_ > 0,
                 "LutConv2d backward without forward(train=true)");
    const int64_t N = grad_out.dim(0), Ho = grad_out.dim(2);
    const int64_t Wo = grad_out.dim(3);
    // The cache holds the spatial shape of the most recent TRAIN forward
    // (eval forwards — e.g. a mid-training validation pass at a different
    // resolution — deliberately do not touch it). Guard against a grad
    // from any other shape: col2im would otherwise scatter out of bounds.
    LUTDLA_CHECK(N == cached_n_ && grad_out.dim(1) == geom_.out_channels &&
                     Ho == geom_.outSize(cached_h_) &&
                     Wo == geom_.outSize(cached_w_),
                 "LutConv2d backward shape ", shapeStr(grad_out.shape()),
                 " does not match the last train forward ([", cached_n_,
                 ", ", geom_.in_channels, ", ", cached_h_, ", ", cached_w_,
                 "] input)");
    Tensor flat(Shape{N * Ho * Wo, geom_.out_channels});
    int64_t row = 0;
    for (int64_t n = 0; n < N; ++n)
        for (int64_t ho = 0; ho < Ho; ++ho)
            for (int64_t wo = 0; wo < Wo; ++wo, ++row)
                for (int64_t co = 0; co < geom_.out_channels; ++co)
                    flat.at(row, co) = grad_out.at4(n, co, ho, wo);

    Tensor grad_cols = inner_->backward(flat);
    return col2im(grad_cols, geom_, cached_n_, cached_h_, cached_w_);
}

std::vector<nn::Parameter *>
LutConv2d::parameters()
{
    return inner_->parameters();
}

} // namespace lutdla::lutboost
