#include "nn/activations.h"

#include <cmath>

#include "util/logging.h"

namespace lutdla::nn {

Tensor
ReLU::forward(const Tensor &x, bool train)
{
    Tensor y = x;
    if (train)
        mask_ = Tensor(x.shape());
    for (int64_t i = 0; i < y.numel(); ++i) {
        const bool pos = y.at(i) > 0.0f;
        y.at(i) = reluForward(y.at(i));
        if (train)
            mask_.at(i) = pos ? 1.0f : 0.0f;
    }
    return y;
}

Tensor
ReLU::backward(const Tensor &grad_out)
{
    LUTDLA_CHECK(mask_.numel() == grad_out.numel(), "ReLU backward shape");
    Tensor g = grad_out;
    for (int64_t i = 0; i < g.numel(); ++i)
        g.at(i) *= mask_.at(i);
    return g;
}

// geluForward, geluBackward and softmaxForward are SIMD-tiered and live
// in simd_math.cc with the in-repo tanh/exp they evaluate.

Tensor
GELU::forward(const Tensor &x, bool train)
{
    if (train)
        cached_input_ = x;
    Tensor y = x;
    geluForward(y.data(), y.numel());
    return y;
}

Tensor
GELU::backward(const Tensor &grad_out)
{
    LUTDLA_CHECK(cached_input_.numel() == grad_out.numel(),
                 "GELU backward shape");
    Tensor g = grad_out;
    geluBackward(cached_input_.data(), g.numel(), g.data());
    return g;
}

Tensor
Softmax::forward(const Tensor &x, bool train)
{
    LUTDLA_CHECK(x.rank() == 2, "Softmax expects [N, C]");
    Tensor y(x.shape());
    softmaxForward(x.data(), x.dim(0), x.dim(1), y.data());
    if (train)
        probs_ = y;
    return y;
}

Tensor
Softmax::backward(const Tensor &grad_out)
{
    LUTDLA_CHECK(probs_.numel() == grad_out.numel(),
                 "Softmax backward shape");
    const int64_t N = probs_.dim(0), C = probs_.dim(1);
    Tensor g(probs_.shape());
    for (int64_t n = 0; n < N; ++n) {
        float dot = 0.0f;
        for (int64_t c = 0; c < C; ++c)
            dot += grad_out.at(n, c) * probs_.at(n, c);
        for (int64_t c = 0; c < C; ++c)
            g.at(n, c) = probs_.at(n, c) * (grad_out.at(n, c) - dot);
    }
    return g;
}

Tensor
Flatten::forward(const Tensor &x, bool train)
{
    if (train)
        input_shape_ = x.shape();
    return x.reshaped(Shape{x.dim(0), x.numel() / x.dim(0)});
}

Tensor
Flatten::backward(const Tensor &grad_out)
{
    return grad_out.reshaped(input_shape_);
}

void
maxPool2dForward(const float *x, int64_t n, int64_t c, int64_t h, int64_t w,
                 int64_t kernel, float *y, int64_t *argmax)
{
    const int64_t ho_dim = h / kernel, wo_dim = w / kernel;
    int64_t out_idx = 0;
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t ch = 0; ch < c; ++ch) {
            const float *plane = x + (b * c + ch) * h * w;
            for (int64_t ho = 0; ho < ho_dim; ++ho) {
                for (int64_t wo = 0; wo < wo_dim; ++wo, ++out_idx) {
                    // -inf and the window's first index, so a window of
                    // values below any finite seed still reports one of
                    // its own elements; strict > keeps NaN skipped.
                    float best = -INFINITY;
                    int64_t best_flat =
                        ((b * c + ch) * h + ho * kernel) * w + wo * kernel;
                    for (int64_t kh = 0; kh < kernel; ++kh) {
                        for (int64_t kw = 0; kw < kernel; ++kw) {
                            const int64_t hi = ho * kernel + kh;
                            const int64_t wi = wo * kernel + kw;
                            const float v = plane[hi * w + wi];
                            if (v > best) {
                                best = v;
                                best_flat = ((b * c + ch) * h + hi) * w + wi;
                            }
                        }
                    }
                    y[out_idx] = best;
                    if (argmax)
                        argmax[out_idx] = best_flat;
                }
            }
        }
    }
}

Tensor
MaxPool2d::forward(const Tensor &x, bool train)
{
    LUTDLA_CHECK(x.rank() == 4, "MaxPool2d expects NCHW");
    const int64_t N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
    const int64_t Ho = H / kernel_, Wo = W / kernel_;
    LUTDLA_CHECK(Ho > 0 && Wo > 0, "pool collapsed output");

    Tensor y(Shape{N, C, Ho, Wo});
    if (train) {
        input_shape_ = x.shape();
        argmax_.assign(static_cast<size_t>(y.numel()), 0);
    }
    maxPool2dForward(x.data(), N, C, H, W, kernel_, y.data(),
                     train ? argmax_.data() : nullptr);
    return y;
}

Tensor
MaxPool2d::backward(const Tensor &grad_out)
{
    Tensor g(input_shape_);
    for (int64_t i = 0; i < grad_out.numel(); ++i)
        g.at(argmax_[static_cast<size_t>(i)]) += grad_out.at(i);
    return g;
}

void
globalAvgPoolForward(const float *x, int64_t n, int64_t c, int64_t h,
                     int64_t w, float *y)
{
    const float inv = 1.0f / static_cast<float>(h * w);
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t ch = 0; ch < c; ++ch) {
            const float *plane = x + (b * c + ch) * h * w;
            float s = 0.0f;
            for (int64_t i = 0; i < h * w; ++i)
                s += plane[i];
            y[b * c + ch] = s * inv;
        }
    }
}

Tensor
GlobalAvgPool::forward(const Tensor &x, bool train)
{
    LUTDLA_CHECK(x.rank() == 4, "GlobalAvgPool expects NCHW");
    if (train)
        input_shape_ = x.shape();
    const int64_t N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
    Tensor y(Shape{N, C});
    globalAvgPoolForward(x.data(), N, C, H, W, y.data());
    return y;
}

Tensor
GlobalAvgPool::backward(const Tensor &grad_out)
{
    const int64_t N = input_shape_[0], C = input_shape_[1];
    const int64_t H = input_shape_[2], W = input_shape_[3];
    Tensor g(input_shape_);
    const float inv = 1.0f / static_cast<float>(H * W);
    for (int64_t n = 0; n < N; ++n)
        for (int64_t c = 0; c < C; ++c)
            for (int64_t h = 0; h < H; ++h)
                for (int64_t w = 0; w < W; ++w)
                    g.at4(n, c, h, w) = grad_out.at(n, c) * inv;
    return g;
}

} // namespace lutdla::nn
