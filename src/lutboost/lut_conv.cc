#include "lutboost/lut_conv.h"

#include "util/logging.h"

namespace lutdla::lutboost {

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
