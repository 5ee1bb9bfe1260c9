#ifndef LUTDLA_NN_ACTIVATIONS_H
#define LUTDLA_NN_ACTIVATIONS_H

/**
 * @file
 * Pointwise activations and shape plumbing layers. In the accelerator these
 * map onto the IMM's element-wise/dequant path (Sec. IV-A); in software they
 * are exact up to the in-repo tanh/exp (simd_math.h) that GELU and softmax
 * evaluate, which carry SIMD tiers with identical bits.
 */

#include "nn/layer.h"
#include "util/cpu_features.h"

namespace lutdla::nn {

/**
 * Scalar tanh-approximation GELU (as in BERT): 0.5 x (1 + tanh(c (x +
 * 0.044715 x^3))) with the in-repo tanhFloat (simd_math.h). It is the
 * scalar tier of the span form below.
 */
float geluForward(float x);

/**
 * In-place GELU over data[0, n): the single definition GELU::forward and
 * the serving layer's GELU epilogue (serve::applyPointwiseOps) share, so
 * the engine's bit-exactness contract holds. SIMD-tiered like
 * simd_math.h: the AVX-512 variant from util::SimdLevel::Avx512 up, else
 * geluForward per element, with identical bits either way.
 */
void geluForward(float *data, int64_t n,
                 util::SimdLevel level = util::simdLevel());

/**
 * GELU backward: grad[i] *= GELU'(x[i]) for i < n, tiered like the
 * forward span (identical bits at every tier; a NaN product is the
 * default quiet NaN). GELU::backward's kernel.
 */
void geluBackward(const float *x, int64_t n, float *grad,
                  util::SimdLevel level = util::simdLevel());

/** Scalar ReLU; the single definition ReLU::forward and serving share. */
inline float
reluForward(float x)
{
    return x > 0.0f ? x : 0.0f;
}

/**
 * Raw NCHW max-pool kernel (stride == kernel, floor division), shared by
 * MaxPool2d::forward and the serving layer's pooling stage so both paths
 * are one definition and therefore bit-exact.
 *
 * @param x      Input [n, c, h, w], row-major contiguous.
 * @param y      Output [n, c, h/kernel, w/kernel], caller-allocated.
 * @param argmax When non-null, receives the flat input index of each
 *               output's winning element (training needs it for backward;
 *               serving passes nullptr).
 */
void maxPool2dForward(const float *x, int64_t n, int64_t c, int64_t h,
                      int64_t w, int64_t kernel, float *y, int64_t *argmax);

/**
 * Raw NCHW global-average-pool kernel, shared by GlobalAvgPool::forward
 * and the serving layer's pooling stage (single definition, bit-exact).
 * `y` is the caller-allocated [n, c] output.
 */
void globalAvgPoolForward(const float *x, int64_t n, int64_t c, int64_t h,
                          int64_t w, float *y);

/**
 * Numerically stable row-wise softmax: y[r, :] = softmax(x[r, :]), with
 * the row max (seeded at -inf, so rows anywhere in float range work)
 * subtracted before exponentiation so logits of any magnitude never
 * overflow exp. Single definition shared by Softmax::forward,
 * MultiHeadSelfAttention's probability rows, and the serving layer's
 * SoftmaxStage — the engine's bit-exactness contract depends on all
 * three running these exact float ops in this exact order. The exp is
 * the in-repo expFloat (simd_math.h), vectorized along the row at the
 * AVX-512 tier; each row's denominator stays one serial left-to-right
 * sum, so every tier gives identical bits. A row whose denominator is
 * NaN (a NaN or +inf logit, or every logit -inf) comes out as the
 * default quiet NaN. In-place operation (y == x) is allowed.
 */
void softmaxForward(const float *x, int64_t rows, int64_t features,
                    float *y, util::SimdLevel level = util::simdLevel());

/** max(0, x). */
class ReLU : public Layer
{
  public:
    std::string name() const override { return "ReLU"; }
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

  private:
    Tensor mask_;
};

/** Gaussian error linear unit (tanh approximation, as in BERT). */
class GELU : public Layer
{
  public:
    std::string name() const override { return "GELU"; }
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

  private:
    Tensor cached_input_;
};

/** Row-wise softmax over [N, C] (stable; see softmaxForward). */
class Softmax : public Layer
{
  public:
    std::string name() const override { return "Softmax"; }
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

  private:
    Tensor probs_;
};

/** Collapse NCHW to [N, C*H*W] for classifier heads. */
class Flatten : public Layer
{
  public:
    std::string name() const override { return "Flatten"; }
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

  private:
    Shape input_shape_;
};

/** Non-overlapping max pooling with stride == kernel. */
class MaxPool2d : public Layer
{
  public:
    explicit MaxPool2d(int64_t kernel) : kernel_(kernel) {}

    std::string name() const override { return "MaxPool2d"; }
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

    /** Pooling window (== stride); the serving lowering pass reads it. */
    int64_t kernel() const { return kernel_; }

  private:
    int64_t kernel_;
    Shape input_shape_;
    std::vector<int64_t> argmax_;
};

/** Global average pooling: NCHW -> [N, C]. */
class GlobalAvgPool : public Layer
{
  public:
    std::string name() const override { return "GlobalAvgPool"; }
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

  private:
    Shape input_shape_;
};

} // namespace lutdla::nn

#endif // LUTDLA_NN_ACTIVATIONS_H
