#ifndef LUTDLA_LUTBOOST_LUT_CONV_H
#define LUTDLA_LUTBOOST_LUT_CONV_H

/**
 * @file
 * Vector-quantized convolution: im2col + LutLinear + reshape, matching how
 * the LUT-DLA hardware executes convolutions (the paper's CNN evaluations
 * lower every conv onto the LUT GEMM path after im2col).
 *
 * Two inference paths exist once the inner LutLinear is frozen:
 *  - forward(x, false): the reference eval path (im2col -> lookupGemm).
 *  - forwardBatch(x) / convArenaForward(): the batched serving path that
 *    lowers the whole NCHW batch through one im2col into reusable scratch
 *    and sweeps the flat LutTableArena kernel. Bit-exact with the
 *    reference path and thread-safe (immutable arena only).
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "lutboost/kernels.h"
#include "lutboost/lut_linear.h"
#include "nn/conv2d.h"
#include "tensor/im2col.h"

namespace lutdla::lutboost {

/**
 * Reusable scratch for the batched conv path: the im2col matrix and the
 * flat GEMM output. Workers keep one per thread so steady-state serving
 * performs no per-batch allocations beyond vector growth to the largest
 * batch seen.
 */
struct ConvScratch
{
    std::vector<float> cols;  ///< [n*Ho*Wo, patchSize] im2col rows
    std::vector<float> flat;  ///< [n*Ho*Wo, out_channels] GEMM output
};

/**
 * Batched frozen-conv kernel: lower NCHW `x` ([n, C_in, h, w] contiguous)
 * through im2col into `scratch.cols`, run the lowered GEMM as an explicit
 * encode -> gather pair through `backend` (KernelBackend::of any table
 * precision; see lutboost/kernels.h) with code planes in `kscratch` into
 * `scratch.flat`, and transpose the result into NCHW `y`
 * ([n, C_out, Ho, Wo], caller-allocated). When `encode_ns` / `gather_ns`
 * are non-null, the im2col + encode and gather + NCHW-reshape phase times
 * are accumulated into them — the serving engine's encode/gather stat
 * split. `encode` selects the argmin arithmetic for the lowered GEMM (see
 * KernelBackend::encodeBatch). Thread-safe; with the Float32 backend
 * and Float32 encode, bit-exact with eval-mode LutConv2d::forward(x,
 * false) on a frozen layer.
 */
void convArenaForward(const LutTableArena &arena, const ConvGeometry &geom,
                      const float *x, int64_t n, int64_t h, int64_t w,
                      float *y, ConvScratch &scratch,
                      const KernelBackend &backend, KernelScratch &kscratch,
                      uint64_t *encode_ns = nullptr,
                      uint64_t *gather_ns = nullptr,
                      EncodePrecision encode = EncodePrecision::Float32);

/** Conv2d whose lowered GEMM runs through a LutLinear. */
class LutConv2d : public nn::Layer
{
  public:
    /** Construct with random centroids. */
    LutConv2d(ConvGeometry geom, vq::PQConfig pq, bool bias = true,
              uint64_t seed = 29);

    /** Clone weights/bias from a trained Conv2d. */
    static std::shared_ptr<LutConv2d> fromConv(const nn::Conv2d &conv,
                                               vq::PQConfig pq);

    std::string name() const override { return "LutConv2d"; }
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<nn::Parameter *> parameters() override;
    double auxLoss() const override { return inner_->auxLoss(); }

    const ConvGeometry &geometry() const { return geom_; }

    /** The wrapped LUT GEMM operator (centroids, weight, precision). */
    LutLinear &inner() { return *inner_; }

    /** True once the inner LutLinear froze its inference tables. */
    bool inferenceLutReady() const { return inner_->inferenceLutReady(); }

    /** Shared handle to the inner frozen arena; see LutLinear. */
    std::shared_ptr<const LutTableArena>
    inferenceArena() const
    {
        return inner_->inferenceArena();
    }

    /**
     * Batched frozen inference: NCHW in, NCHW out, through the flat table
     * arena (convArenaForward). Thread-safe and bit-exact with eval-mode
     * forward() on a frozen layer; requires refreshInferenceLut() on the
     * inner operator first. Serving uses the raw kernel directly with
     * per-worker scratch; this wrapper allocates its own.
     */
    Tensor forwardBatch(const Tensor &x) const;

  private:
    ConvGeometry geom_;
    std::shared_ptr<LutLinear> inner_;
    // Spatial shape of the most recent forward(train=true); backward
    // validates its grad against this so a shape-changing forward between
    // the train forward and backward cannot silently corrupt col2im.
    int64_t cached_n_ = 0, cached_h_ = 0, cached_w_ = 0;
};

} // namespace lutdla::lutboost

#endif // LUTDLA_LUTBOOST_LUT_CONV_H
