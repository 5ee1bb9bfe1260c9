#ifndef LUTDLA_LUTBOOST_LUT_LINEAR_H
#define LUTDLA_LUTBOOST_LUT_LINEAR_H

/**
 * @file
 * The LUT operator: a drop-in replacement for nn::Linear that routes the
 * input through vector quantization (Sec. II-B / V of the paper).
 *
 * Forward:  A -> encode (argmin distance per subspace) -> A_hat -> A_hat*W.
 * Backward: straight-through estimator for the non-differentiable argmin
 *           (dL/dA ~= dL/dA_hat), VQ-VAE-style scatter gradients into the
 *           selected centroids, plus the paper's symmetric reconstruction
 *           loss  Lre = (SG(A_hat W) - A W)^2 + (A_hat W - SG(A W))^2
 *           scaled by a penalty ratio.
 */

#include <atomic>
#include <memory>
#include <mutex>

#include "lutboost/table_arena.h"
#include "nn/layer.h"
#include "nn/linear.h"
#include "vq/lut.h"
#include "vq/pq.h"

namespace lutdla::lutboost {

/** Vector-quantized linear layer. */
class LutLinear : public nn::Layer
{
  public:
    /**
     * Construct with randomly initialized centroids (single-stage setups
     * initialize this way; LUTBoost overwrites via calibration).
     */
    LutLinear(int64_t in_features, int64_t out_features, vq::PQConfig pq,
              bool bias = true, uint64_t seed = 23);

    /** Clone weights/bias from an existing Linear (operator replace). */
    static std::shared_ptr<LutLinear> fromLinear(const nn::Linear &linear,
                                                 vq::PQConfig pq);

    std::string name() const override { return "LutLinear"; }
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<nn::Parameter *> parameters() override;
    double auxLoss() const override { return aux_loss_; }

    int64_t inFeatures() const { return in_features_; }
    int64_t outFeatures() const { return out_features_; }

    /**
     * Rows of the most recent forward() input (0 before any forward).
     * Convolutions reach this layer post-im2col, so for them this is
     * batch x output-pixels — exactly the M of the lowered GEMM, which is
     * how the pipeline facade extracts a deployment trace from a model.
     *
     * Contract: this is a *trace probe* for the single-threaded extraction
     * flow (drive one forward(), then read it). The store/load pair is
     * atomic so concurrent readers never see a torn value, but the probe is
     * NOT a per-call result: interleaved forward() calls from several
     * threads leave whichever row count was stored last. Serving runs the
     * frozen arena (inferenceArena()) and never updates it — batched
     * callers take the row count from the returned tensor
     * (`result.dim(0)`) instead.
     */
    int64_t
    lastForwardRows() const
    {
        return last_forward_rows_.load(std::memory_order_relaxed);
    }
    const vq::PQConfig &pqConfig() const { return pq_config_; }
    int64_t numSubspaces() const { return num_subspaces_; }

    /** Centroid parameter, shaped [Nc, c, v]. */
    nn::Parameter &centroids() { return centroids_; }
    nn::Parameter &weight() { return weight_; }
    nn::Parameter &bias() { return bias_; }

    /** Reconstruction-loss penalty ratio (0 disables the term). */
    void setReconPenalty(double penalty) { recon_penalty_ = penalty; }
    double reconPenalty() const { return recon_penalty_; }

    /** @name Calibration (LUTBoost stage 1->2 bridge)
     * While calibrating, forward() behaves as the exact Linear and records
     * input rows; finishCalibration() k-means-inits the codebooks from the
     * recorded activations.
     * @{
     */
    void beginCalibration(int64_t max_rows = 4096);
    void finishCalibration();
    bool calibrating() const { return calibrating_; }
    /** @} */

    /** Encode rows of x to [rows, Nc] indices with current centroids. */
    std::vector<int32_t> encode(const Tensor &x) const;

    /** Quantized reconstruction A_hat of x under current centroids. */
    Tensor quantize(const Tensor &x) const;

    /**
     * Inference precision: when set, eval-mode forward() uses a frozen
     * LookupTable honoring BF16 similarity / INT8 entries. Call
     * refreshInferenceLut() after training to (re)build it.
     */
    void setPrecision(vq::LutPrecision precision);
    void refreshInferenceLut();
    void clearInferenceLut();

    /** True once refreshInferenceLut() has frozen the inference tables. */
    bool inferenceLutReady() const { return use_inference_lut_; }

    /** Precision the inference LUT was (or will be) frozen with. */
    const vq::LutPrecision &precision() const { return precision_; }

    /**
     * Shared handle to the frozen arena, the tables batched inference
     * runs on: serving lowers the layer to a stage that drives it through
     * KernelBackend::forwardTile (lutboost/kernels.h), bit-exact with
     * eval-mode forward() under the Float32 backend and encode. Panics
     * before refreshInferenceLut(). Built lazily on the first call, so
     * freeze-only flows — deployPrecision accuracy evals that never
     * serve — pay no extra table memory. The serving layer aliases the
     * returned pointer, so an engine keeps working even if the layer is
     * later re-trained or re-frozen. Safe to call concurrently with
     * itself; NOT safe concurrently with
     * refreshInferenceLut()/clearInferenceLut().
     */
    std::shared_ptr<const LutTableArena> inferenceArena() const;

  private:
    /** Copy the padded subvector for subspace `s` of `row` into `out`. */
    void extractSub(const float *row, int64_t s, float *out) const;

    /** Scatter dA_hat into centroid grads following `codes`. */
    void scatterCentroidGrad(const Tensor &d_ahat,
                             const std::vector<int32_t> &codes);

    /** Build a ProductQuantizer view of the current centroid parameter. */
    vq::ProductQuantizer snapshotQuantizer(bool bf16) const;

    int64_t in_features_;
    int64_t out_features_;
    vq::PQConfig pq_config_;
    int64_t num_subspaces_;
    bool has_bias_;

    nn::Parameter weight_;     ///< [in, out]
    nn::Parameter bias_;       ///< [out]
    nn::Parameter centroids_;  ///< [Nc, c, v]

    double recon_penalty_ = 0.0;
    double aux_loss_ = 0.0;
    std::atomic<int64_t> last_forward_rows_{0};

    // Training caches.
    Tensor cached_input_;
    Tensor cached_ahat_;
    Tensor cached_diff_;       ///< D = A_hat*W - A*W when recon active
    std::vector<int32_t> cached_codes_;

    // Calibration state.
    bool calibrating_ = false;
    int64_t calib_cap_ = 0;
    std::vector<float> calib_rows_;
    int64_t calib_count_ = 0;

    // Inference LUT (reference path) + flat arena (serving path). The
    // arena duplicates the frozen tables in serving layout, so it is
    // built lazily under arena_mu_ the first time serving asks for it.
    vq::LutPrecision precision_;
    bool use_inference_lut_ = false;
    std::unique_ptr<vq::ProductQuantizer> infer_pq_;
    std::unique_ptr<vq::LookupTable> infer_lut_;
    mutable std::mutex arena_mu_;
    mutable std::shared_ptr<const LutTableArena> infer_arena_;
};

} // namespace lutdla::lutboost

#endif // LUTDLA_LUTBOOST_LUT_LINEAR_H
