#ifndef LUTDLA_LUTBOOST_LUT_CONV_H
#define LUTDLA_LUTBOOST_LUT_CONV_H

/**
 * @file
 * Vector-quantized convolution: im2col + LutLinear + reshape, matching how
 * the LUT-DLA hardware executes convolutions (the paper's CNN evaluations
 * lower every conv onto the LUT GEMM path after im2col).
 *
 * Once the inner LutLinear is frozen, forward(x, false) is the reference
 * eval path (im2col -> lookupGemm). Batched inference is the serving
 * layer's: FrozenModel::fromModel lowers the layer to a serve::ConvStage,
 * which runs the same im2col into per-worker scratch and one
 * KernelBackend::forwardTile over the frozen arena (inferenceArena()),
 * bit-exact with this reference path under the default plan.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "lutboost/lut_linear.h"
#include "nn/conv2d.h"
#include "tensor/im2col.h"

namespace lutdla::lutboost {

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
