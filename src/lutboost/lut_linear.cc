#include "lutboost/lut_linear.h"

#include <cmath>

#include "tensor/gemm.h"
#include "util/logging.h"
#include "util/rng.h"
#include "vq/distance.h"
#include "vq/kmeans.h"

namespace lutdla::lutboost {

LutLinear::LutLinear(int64_t in_features, int64_t out_features,
                     vq::PQConfig pq, bool bias, uint64_t seed)
    : in_features_(in_features), out_features_(out_features),
      pq_config_(pq),
      num_subspaces_((in_features + pq.v - 1) / pq.v),
      has_bias_(bias)
{
    Rng rng(seed);
    Tensor w(Shape{in_features_, out_features_});
    const float bound = std::sqrt(6.0f / static_cast<float>(in_features_));
    for (int64_t i = 0; i < w.numel(); ++i)
        w.at(i) = static_cast<float>(rng.uniform(-bound, bound));
    weight_ = nn::Parameter("weight", std::move(w));
    if (has_bias_)
        bias_ = nn::Parameter("bias", Tensor(Shape{out_features_}));

    Tensor c(Shape{num_subspaces_, pq_config_.c, pq_config_.v});
    for (int64_t i = 0; i < c.numel(); ++i)
        c.at(i) = static_cast<float>(rng.gaussian(0.0, 0.5));
    centroids_ = nn::Parameter("centroids", std::move(c));
}

std::shared_ptr<LutLinear>
LutLinear::fromLinear(const nn::Linear &linear, vq::PQConfig pq)
{
    auto lut = std::make_shared<LutLinear>(
        linear.inFeatures(), linear.outFeatures(), pq, linear.hasBias());
    lut->weight_.value = linear.weight().value;
    if (linear.hasBias())
        lut->bias_.value = linear.bias().value;
    return lut;
}

void
LutLinear::extractSub(const float *row, int64_t s, float *out) const
{
    const int64_t base = s * pq_config_.v;
    for (int64_t t = 0; t < pq_config_.v; ++t) {
        const int64_t k = base + t;
        out[t] = k < in_features_ ? row[k] : 0.0f;
    }
}

std::vector<int32_t>
LutLinear::encode(const Tensor &x) const
{
    const int64_t m = x.dim(0);
    const int64_t v = pq_config_.v, c = pq_config_.c;
    std::vector<int32_t> codes(static_cast<size_t>(m * num_subspaces_));
    std::vector<float> sub(static_cast<size_t>(v));
    for (int64_t i = 0; i < m; ++i) {
        const float *row = x.data() + i * in_features_;
        for (int64_t s = 0; s < num_subspaces_; ++s) {
            extractSub(row, s, sub.data());
            const float *cb = centroids_.value.data() + s * c * v;
            codes[static_cast<size_t>(i * num_subspaces_ + s)] =
                vq::argminCentroid(pq_config_.metric, sub.data(), cb, c, v);
        }
    }
    return codes;
}

Tensor
LutLinear::quantize(const Tensor &x) const
{
    const auto codes = encode(x);
    const int64_t m = x.dim(0);
    const int64_t v = pq_config_.v, c = pq_config_.c;
    Tensor ahat(Shape{m, in_features_});
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t s = 0; s < num_subspaces_; ++s) {
            const int32_t j =
                codes[static_cast<size_t>(i * num_subspaces_ + s)];
            const float *cb = centroids_.value.data() + (s * c + j) * v;
            const int64_t base = s * v;
            for (int64_t t = 0; t < v && base + t < in_features_; ++t)
                ahat.at(i, base + t) = cb[t];
        }
    }
    return ahat;
}

Tensor
LutLinear::forward(const Tensor &x, bool train)
{
    LUTDLA_CHECK(x.rank() == 2 && x.dim(1) == in_features_,
                 "LutLinear expects [rows, ", in_features_, "], got ",
                 shapeStr(x.shape()));
    aux_loss_ = 0.0;
    last_forward_rows_.store(x.dim(0), std::memory_order_relaxed);

    if (calibrating_) {
        // Record activations and behave exactly like the float layer so
        // downstream layers calibrate on undistorted inputs.
        const int64_t take =
            std::min(x.dim(0), calib_cap_ - calib_count_);
        for (int64_t i = 0; i < take; ++i) {
            const float *row = x.data() + i * in_features_;
            calib_rows_.insert(calib_rows_.end(), row, row + in_features_);
        }
        calib_count_ += take;
        Tensor y = matmul(x, weight_.value);
        if (has_bias_)
            for (int64_t r = 0; r < y.dim(0); ++r)
                for (int64_t n = 0; n < out_features_; ++n)
                    y.at(r, n) += bias_.value.at(n);
        return y;
    }

    if (!train && use_inference_lut_ && infer_lut_) {
        Tensor xin = x;
        if (precision_.bf16_similarity)
            vq::tensorToBf16(xin);
        Tensor y = infer_lut_->lookupGemm(infer_pq_->encode(xin),
                                          xin.dim(0));
        if (has_bias_)
            for (int64_t r = 0; r < y.dim(0); ++r)
                for (int64_t n = 0; n < out_features_; ++n)
                    y.at(r, n) += bias_.value.at(n);
        return y;
    }

    const auto codes = encode(x);
    Tensor ahat(Shape{x.dim(0), in_features_});
    {
        const int64_t v = pq_config_.v, c = pq_config_.c;
        for (int64_t i = 0; i < x.dim(0); ++i) {
            for (int64_t s = 0; s < num_subspaces_; ++s) {
                const int32_t j =
                    codes[static_cast<size_t>(i * num_subspaces_ + s)];
                const float *cb =
                    centroids_.value.data() + (s * c + j) * v;
                const int64_t base = s * v;
                for (int64_t t = 0; t < v && base + t < in_features_; ++t)
                    ahat.at(i, base + t) = cb[t];
            }
        }
    }

    Tensor y = matmul(ahat, weight_.value);

    if (train) {
        cached_input_ = x;
        cached_ahat_ = ahat;
        cached_codes_ = codes;
        if (recon_penalty_ > 0.0) {
            // D = A_hat*W - A*W; both SG terms of Lre square exactly D.
            cached_diff_ = y - matmul(x, weight_.value);
            const double msd =
                cached_diff_.squaredNorm() /
                static_cast<double>(cached_diff_.numel());
            aux_loss_ = 2.0 * recon_penalty_ * msd;
        } else {
            cached_diff_ = Tensor();
        }
    }

    if (has_bias_)
        for (int64_t r = 0; r < y.dim(0); ++r)
            for (int64_t n = 0; n < out_features_; ++n)
                y.at(r, n) += bias_.value.at(n);
    return y;
}

void
LutLinear::scatterCentroidGrad(const Tensor &d_ahat,
                               const std::vector<int32_t> &codes)
{
    const int64_t m = d_ahat.dim(0);
    const int64_t v = pq_config_.v, c = pq_config_.c;
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t s = 0; s < num_subspaces_; ++s) {
            const int32_t j =
                codes[static_cast<size_t>(i * num_subspaces_ + s)];
            float *gc = centroids_.grad.data() + (s * c + j) * v;
            const int64_t base = s * v;
            for (int64_t t = 0; t < v && base + t < in_features_; ++t)
                gc[t] += d_ahat.at(i, base + t);
        }
    }
}

Tensor
LutLinear::backward(const Tensor &grad_out)
{
    LUTDLA_CHECK(cached_input_.numel() > 0,
                 "backward without forward(train=true)");
    // Task-loss path (forward used A_hat * W + b).
    weight_.grad += matmulTransposedA(cached_ahat_, grad_out);
    if (has_bias_) {
        for (int64_t r = 0; r < grad_out.dim(0); ++r)
            for (int64_t n = 0; n < out_features_; ++n)
                bias_.grad.at(n) += grad_out.at(r, n);
    }
    Tensor d_ahat = matmulTransposedB(grad_out, weight_.value);
    scatterCentroidGrad(d_ahat, cached_codes_);

    // STE: dL/dA ~= dL/dA_hat.
    Tensor grad_in = d_ahat;

    if (recon_penalty_ > 0.0 && cached_diff_.numel() > 0) {
        // Each SG term differentiates once w.r.t. its live side:
        // d(term2)/dP = 2*lambda*D/n and d(term1)/dQ = -2*lambda*D/n.
        const double coeff =
            2.0 * recon_penalty_ /
            static_cast<double>(cached_diff_.numel());
        // R = coeff * D * W^T feeds +centroids (term 2) and -input (term 1).
        Tensor r = matmulTransposedB(cached_diff_, weight_.value);
        r *= static_cast<float>(coeff);
        scatterCentroidGrad(r, cached_codes_);
        grad_in -= r;
        // dW = coeff * (A_hat - A)^T * D.
        Tensor ahat_minus_a = cached_ahat_ - cached_input_;
        Tensor dw = matmulTransposedA(ahat_minus_a, cached_diff_);
        dw *= static_cast<float>(coeff);
        weight_.grad += dw;
    }
    return grad_in;
}

std::vector<nn::Parameter *>
LutLinear::parameters()
{
    std::vector<nn::Parameter *> out{&weight_, &centroids_};
    if (has_bias_)
        out.push_back(&bias_);
    return out;
}

void
LutLinear::beginCalibration(int64_t max_rows)
{
    calibrating_ = true;
    calib_cap_ = max_rows;
    calib_count_ = 0;
    calib_rows_.clear();
}

void
LutLinear::finishCalibration()
{
    LUTDLA_CHECK(calibrating_, "finishCalibration without begin");
    calibrating_ = false;
    if (calib_count_ == 0) {
        warn("LutLinear calibration saw no rows; keeping random centroids");
        return;
    }
    Tensor samples(Shape{calib_count_, in_features_},
                   std::move(calib_rows_));
    calib_rows_ = {};

    const int64_t v = pq_config_.v;
    Tensor sub(Shape{calib_count_, v});
    for (int64_t s = 0; s < num_subspaces_; ++s) {
        for (int64_t i = 0; i < calib_count_; ++i)
            extractSub(samples.data() + i * in_features_, s,
                       sub.data() + i * v);
        vq::KMeansConfig kc;
        kc.clusters = pq_config_.c;
        kc.metric = pq_config_.metric;
        kc.max_iters = pq_config_.kmeans_iters;
        kc.seed = pq_config_.seed + static_cast<uint64_t>(s) * 7919;
        const Tensor centers = vq::kmeans(sub, kc).centroids;
        std::copy(centers.data(), centers.data() + pq_config_.c * v,
                  centroids_.value.data() + s * pq_config_.c * v);
    }
    calib_count_ = 0;
}

vq::ProductQuantizer
LutLinear::snapshotQuantizer(bool bf16) const
{
    vq::ProductQuantizer pq(in_features_, pq_config_);
    const int64_t v = pq_config_.v, c = pq_config_.c;
    for (int64_t s = 0; s < num_subspaces_; ++s) {
        Tensor cb(Shape{c, v});
        const float *src = centroids_.value.data() + s * c * v;
        std::copy(src, src + c * v, cb.data());
        if (bf16)
            vq::tensorToBf16(cb);
        pq.setCodebook(s, std::move(cb));
    }
    return pq;
}

void
LutLinear::setPrecision(vq::LutPrecision precision)
{
    precision_ = precision;
}

void
LutLinear::refreshInferenceLut()
{
    infer_pq_ = std::make_unique<vq::ProductQuantizer>(
        snapshotQuantizer(precision_.bf16_similarity));
    infer_lut_ = std::make_unique<vq::LookupTable>(*infer_pq_,
                                                   weight_.value,
                                                   precision_);
    {
        // Invalidate any arena built from a previous freeze; the next
        // serving call rebuilds it from the fresh tables.
        std::unique_lock<std::mutex> lock(arena_mu_);
        infer_arena_.reset();
    }
    use_inference_lut_ = true;
}

void
LutLinear::clearInferenceLut()
{
    infer_pq_.reset();
    infer_lut_.reset();
    {
        std::unique_lock<std::mutex> lock(arena_mu_);
        infer_arena_.reset();
    }
    use_inference_lut_ = false;
}

std::shared_ptr<const LutTableArena>
LutLinear::inferenceArena() const
{
    LUTDLA_CHECK(use_inference_lut_ && infer_pq_ && infer_lut_,
                 "inferenceArena requires refreshInferenceLut() first");
    std::unique_lock<std::mutex> lock(arena_mu_);
    if (!infer_arena_)
        infer_arena_ = std::make_shared<const LutTableArena>(
            *infer_pq_, *infer_lut_, has_bias_ ? &bias_.value : nullptr,
            precision_.bf16_similarity);
    return infer_arena_;
}

} // namespace lutdla::lutboost
