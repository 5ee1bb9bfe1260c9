#include "nn/attention.h"

#include <cmath>

#include "nn/activations.h"
#include "util/logging.h"

namespace lutdla::nn {

// attentionSequenceContext is SIMD-tiered and lives in simd_math.cc.

MultiHeadSelfAttention::MultiHeadSelfAttention(int64_t seq_len,
                                               int64_t d_model,
                                               int64_t heads, uint64_t seed)
    : seq_len_(seq_len), d_model_(d_model), heads_(heads),
      d_head_(d_model / heads)
{
    LUTDLA_CHECK(d_model_ % heads_ == 0, "heads must divide d_model");
    wq_ = std::make_shared<Linear>(d_model_, d_model_, true, seed + 1);
    wk_ = std::make_shared<Linear>(d_model_, d_model_, true, seed + 2);
    wv_ = std::make_shared<Linear>(d_model_, d_model_, true, seed + 3);
    wo_ = std::make_shared<Linear>(d_model_, d_model_, true, seed + 4);
}

Tensor
MultiHeadSelfAttention::forward(const Tensor &x, bool train)
{
    LUTDLA_CHECK(x.rank() == 2 && x.dim(1) == d_model_ &&
                 x.dim(0) % seq_len_ == 0,
                 "attention expects [B*T, D]");
    const int64_t B = x.dim(0) / seq_len_;
    const int64_t T = seq_len_;
    Tensor q = wq_->forward(x, train);
    Tensor k = wk_->forward(x, train);
    Tensor v = wv_->forward(x, train);

    Tensor probs(Shape{B * heads_, T, T});
    Tensor ctx(Shape{B * T, d_model_});
    std::vector<float> k_t(static_cast<size_t>(d_head_ * T));

    for (int64_t b = 0; b < B; ++b)
        attentionSequenceContext(q.data() + b * T * d_model_,
                                 k.data() + b * T * d_model_,
                                 v.data() + b * T * d_model_, T, heads_,
                                 d_model_,
                                 ctx.data() + b * T * d_model_,
                                 probs.data() + b * heads_ * T * T,
                                 k_t.data());

    if (train) {
        q_ = q;
        k_ = k;
        v_ = v;
        probs_ = probs;
        batch_ = B;
    }
    return wo_->forward(ctx, train);
}

Tensor
MultiHeadSelfAttention::backward(const Tensor &grad_out)
{
    const int64_t B = batch_, T = seq_len_;
    Tensor g_ctx = wo_->backward(grad_out);
    Tensor dq(q_.shape()), dk(k_.shape()), dv(v_.shape());
    const float scale = 1.0f / std::sqrt(static_cast<float>(d_head_));

    for (int64_t b = 0; b < B; ++b) {
        for (int64_t h = 0; h < heads_; ++h) {
            const float *p = probs_.data() + (b * heads_ + h) * T * T;
            const int64_t col = h * d_head_;
            // dP and dV.
            std::vector<float> dp(static_cast<size_t>(T * T), 0.0f);
            for (int64_t t = 0; t < T; ++t) {
                const float *grow =
                    g_ctx.data() + (b * T + t) * d_model_ + col;
                for (int64_t s = 0; s < T; ++s) {
                    const float *vrow =
                        v_.data() + (b * T + s) * d_model_ + col;
                    float dot = 0.0f;
                    for (int64_t j = 0; j < d_head_; ++j)
                        dot += grow[j] * vrow[j];
                    dp[static_cast<size_t>(t * T + s)] = dot;
                    float *dvrow = dv.data() + (b * T + s) * d_model_ + col;
                    const float w = p[t * T + s];
                    for (int64_t j = 0; j < d_head_; ++j)
                        dvrow[j] += w * grow[j];
                }
            }
            // Softmax backward: dS = P * (dP - sum_s dP*P).
            for (int64_t t = 0; t < T; ++t) {
                float dot = 0.0f;
                for (int64_t s = 0; s < T; ++s)
                    dot += dp[static_cast<size_t>(t * T + s)] * p[t * T + s];
                for (int64_t s = 0; s < T; ++s) {
                    const float ds =
                        p[t * T + s] *
                        (dp[static_cast<size_t>(t * T + s)] - dot) * scale;
                    // dQ[t] += ds * K[s]; dK[s] += ds * Q[t].
                    float *dqrow = dq.data() + (b * T + t) * d_model_ + col;
                    float *dkrow = dk.data() + (b * T + s) * d_model_ + col;
                    const float *krow =
                        k_.data() + (b * T + s) * d_model_ + col;
                    const float *qrow =
                        q_.data() + (b * T + t) * d_model_ + col;
                    for (int64_t j = 0; j < d_head_; ++j) {
                        dqrow[j] += ds * krow[j];
                        dkrow[j] += ds * qrow[j];
                    }
                }
            }
        }
    }

    Tensor gx = wq_->backward(dq);
    gx += wk_->backward(dk);
    gx += wv_->backward(dv);
    return gx;
}

void
MultiHeadSelfAttention::visitSlots(const SlotVisitor &visitor)
{
    visitor(wq_);
    visitor(wk_);
    visitor(wv_);
    visitor(wo_);
}

TransformerBlock::TransformerBlock(int64_t seq_len, int64_t d_model,
                                   int64_t heads, int64_t d_ff, uint64_t seed)
{
    ln1_ = std::make_shared<LayerNorm>(d_model);
    attn_ = std::make_shared<MultiHeadSelfAttention>(seq_len, d_model, heads,
                                                     seed);
    ln2_ = std::make_shared<LayerNorm>(d_model);
    auto ffn = std::make_shared<Sequential>();
    ffn->add(std::make_shared<Linear>(d_model, d_ff, true, seed + 10));
    ffn->add(std::make_shared<GELU>());
    ffn->add(std::make_shared<Linear>(d_ff, d_model, true, seed + 11));
    ffn_ = ffn;
}

Tensor
TransformerBlock::forward(const Tensor &x, bool train)
{
    Tensor h1 = attn_->forward(ln1_->forward(x, train), train);
    Tensor r1 = x + h1;
    Tensor h2 = ffn_->forward(ln2_->forward(r1, train), train);
    return r1 + h2;
}

Tensor
TransformerBlock::backward(const Tensor &grad_out)
{
    Tensor d_r1 = grad_out;
    d_r1 += ln2_->backward(ffn_->backward(grad_out));
    Tensor d_x = d_r1;
    d_x += ln1_->backward(attn_->backward(d_r1));
    return d_x;
}

void
TransformerBlock::visitSlots(const SlotVisitor &visitor)
{
    visitor(ln1_);
    visitor(attn_);
    visitor(ln2_);
    visitor(ffn_);
}

Tensor
SequencePool::forward(const Tensor &x, bool train)
{
    LUTDLA_CHECK(x.rank() == 2 && x.dim(0) % seq_len_ == 0,
                 "SequencePool expects [B*T, D]");
    const int64_t B = x.dim(0) / seq_len_, D = x.dim(1);
    if (train) {
        batch_ = B;
        d_ = D;
    }
    Tensor y(Shape{B, D});
    const float inv = 1.0f / static_cast<float>(seq_len_);
    for (int64_t b = 0; b < B; ++b)
        for (int64_t t = 0; t < seq_len_; ++t)
            for (int64_t j = 0; j < D; ++j)
                y.at(b, j) += x.at(b * seq_len_ + t, j) * inv;
    return y;
}

Tensor
SequencePool::backward(const Tensor &grad_out)
{
    Tensor g(Shape{batch_ * seq_len_, d_});
    const float inv = 1.0f / static_cast<float>(seq_len_);
    for (int64_t b = 0; b < batch_; ++b)
        for (int64_t t = 0; t < seq_len_; ++t)
            for (int64_t j = 0; j < d_; ++j)
                g.at(b * seq_len_ + t, j) = grad_out.at(b, j) * inv;
    return g;
}

} // namespace lutdla::nn
