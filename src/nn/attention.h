#ifndef LUTDLA_NN_ATTENTION_H
#define LUTDLA_NN_ATTENTION_H

/**
 * @file
 * Multi-head self-attention and a pre-LN transformer encoder block.
 *
 * The QKV/output projections and the FFN linears are ordinary Linear
 * layers exposed as slots, which is exactly the set of operators the paper
 * converts to LUTs for its BERT/DistilBERT/OPT evaluation (QKV projection
 * and FFN layers, Sec. VII-C). Softmax/LayerNorm stay exact (up to the
 * in-repo exp softmax evaluates, see simd_math.h), mirroring the
 * hardware's decision to offload them.
 */

#include "nn/layer.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "nn/sequential.h"
#include "util/cpu_features.h"

namespace lutdla::nn {

/**
 * Scaled-dot-product attention kernel for ONE sequence, shared by
 * MultiHeadSelfAttention::forward and the serving layer's AttentionStage
 * (single definition, bit-exact). `q`/`k`/`v` are that sequence's
 * [seq_len, d_model] projection planes; heads are column slices of width
 * d_head = d_model/heads. Per head and query row it computes the scaled
 * dots (ascending-j sums), runs the stable shared softmax
 * (softmaxForward: row-max subtraction, so huge logits never overflow
 * exp), and accumulates the probability-weighted value rows into `ctx`
 * in ascending key order; the CALLER must zero-initialize `ctx`.
 * `probs` is [heads, seq_len, seq_len] caller scratch (training wants it
 * cached; serving reuses a per-worker plane).
 *
 * SIMD-tiered like simd_math.h, with identical bits at every tier: the
 * scalar loop is the generic tier, and the AVX-512 variant transposes
 * each head's K slice into `k_t` ([d_head, seq_len] caller scratch, which
 * the scalar tier leaves untouched) to score 16 keys per vector and
 * update the context 16 columns at a time, masking ragged blocks. A NaN
 * context value is the default quiet NaN.
 */
void attentionSequenceContext(const float *q, const float *k,
                              const float *v, int64_t seq_len,
                              int64_t heads, int64_t d_model, float *ctx,
                              float *probs, float *k_t,
                              util::SimdLevel level = util::simdLevel());

/** Self-attention over [B*T, D] rows with a fixed sequence length. */
class MultiHeadSelfAttention : public Layer
{
  public:
    /**
     * @param seq_len Sequence length T (rows must be a multiple of it).
     * @param d_model Embedding width D.
     * @param heads   Head count (must divide D).
     * @param seed    Projection init seed.
     */
    MultiHeadSelfAttention(int64_t seq_len, int64_t d_model, int64_t heads,
                           uint64_t seed = 17);

    std::string name() const override { return "MultiHeadSelfAttention"; }
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    void visitSlots(const SlotVisitor &visitor) override;

    /** @name Serving-lowering accessors (read-only)
     * @{
     */
    int64_t seqLen() const { return seq_len_; }
    int64_t dModel() const { return d_model_; }
    int64_t heads() const { return heads_; }
    const LayerPtr &wq() const { return wq_; }
    const LayerPtr &wk() const { return wk_; }
    const LayerPtr &wv() const { return wv_; }
    const LayerPtr &wo() const { return wo_; }
    /** @} */

  private:
    int64_t seq_len_;
    int64_t d_model_;
    int64_t heads_;
    int64_t d_head_;
    LayerPtr wq_, wk_, wv_, wo_;
    // Training caches.
    Tensor q_, k_, v_;
    Tensor probs_;  ///< [B*heads, T, T]
    int64_t batch_ = 0;
};

/** Pre-LN encoder block: x + MHSA(LN(x)), then x + FFN(LN(x)). */
class TransformerBlock : public Layer
{
  public:
    TransformerBlock(int64_t seq_len, int64_t d_model, int64_t heads,
                     int64_t d_ff, uint64_t seed = 19);

    std::string name() const override { return "TransformerBlock"; }
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    void visitSlots(const SlotVisitor &visitor) override;

    /** @name Serving-lowering accessors (read-only)
     * @{
     */
    const LayerPtr &ln1() const { return ln1_; }
    const LayerPtr &attn() const { return attn_; }
    const LayerPtr &ln2() const { return ln2_; }
    const LayerPtr &ffn() const { return ffn_; }
    /** @} */

  private:
    LayerPtr ln1_, attn_, ln2_, ffn_;
};

/** Mean-pool rows of each sequence: [B*T, D] -> [B, D]. */
class SequencePool : public Layer
{
  public:
    explicit SequencePool(int64_t seq_len) : seq_len_(seq_len) {}

    std::string name() const override { return "SequencePool"; }
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

  private:
    int64_t seq_len_;
    int64_t batch_ = 0, d_ = 0;
};

} // namespace lutdla::nn

#endif // LUTDLA_NN_ATTENTION_H
