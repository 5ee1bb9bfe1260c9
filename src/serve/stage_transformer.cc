#include "serve/stage_transformer.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "nn/activations.h"
#include "nn/attention.h"
#include "util/logging.h"

namespace lutdla::serve {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t
nanosSince(Clock::time_point start)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
}

/** Size a skip slot's plane, growing the slot vector on first use. */
float *
skipPlane(StageScratch &scratch, int64_t slot, int64_t total)
{
    if (static_cast<size_t>(slot) >= scratch.skip.size())
        scratch.skip.resize(static_cast<size_t>(slot) + 1);
    return growPlane(scratch.skip[static_cast<size_t>(slot)], total);
}

} // namespace

std::string
SkipSaveStage::description() const
{
    return "skip-save#" + std::to_string(slot_);
}

void
SkipSaveStage::forwardInPlace(float *data, int64_t rows,
                              StageScratch &scratch) const
{
    const int64_t total = rows * width_;
    std::memcpy(skipPlane(scratch, slot_, total), data,
                static_cast<size_t>(total) * sizeof(float));
}

std::string
ResidualAddStage::description() const
{
    return "residual-add#" + std::to_string(slot_);
}

void
ResidualAddStage::forwardInPlace(float *data, int64_t rows,
                                 StageScratch &scratch) const
{
    const int64_t total = rows * width_;
    LUTDLA_CHECK(static_cast<size_t>(slot_) < scratch.skip.size() &&
                     scratch.skip[static_cast<size_t>(slot_)].size() >=
                         static_cast<size_t>(total),
                 "residual-add slot ", slot_,
                 " has no saved plane of ", total,
                 " floats; SkipSaveStage must precede it");
    const float *saved = scratch.skip[static_cast<size_t>(slot_)].data();
    for (int64_t i = 0; i < total; ++i)
        data[i] += saved[i];
}

void
SoftmaxStage::forwardInPlace(float *data, int64_t rows,
                             StageScratch &) const
{
    nn::softmaxForward(data, rows, width_, data);
}

AttentionStage::AttentionStage(Arenas arenas, int64_t seq_len,
                               int64_t heads,
                               const lutboost::KernelBackend *backend,
                               std::vector<PointwiseOp> epilogue,
                               lutboost::EncodePrecision encode)
    : LutStage({std::move(arenas.q), std::move(arenas.k),
                std::move(arenas.v), std::move(arenas.o)},
               backend, std::move(epilogue), encode),
      seq_len_(seq_len), heads_(heads),
      d_model_(arenas_[kQ]->outFeatures())
{
    LUTDLA_CHECK(seq_len_ >= 1, "seq_len must be >= 1");
    LUTDLA_CHECK(heads_ >= 1 && d_model_ % heads_ == 0,
                 "heads must divide d_model");
}

std::string
AttentionStage::description() const
{
    return describe("attention(h" + std::to_string(heads_) + ",t" +
                    std::to_string(seq_len_) + ")");
}

StagePtr
AttentionStage::rebind(const lutboost::KernelBackend &backend,
                       lutboost::EncodePrecision encode,
                       const std::vector<PointwiseOp> &epilogue) const
{
    return std::make_shared<AttentionStage>(
        Arenas{arenas_[kQ], arenas_[kK], arenas_[kV], arenas_[kO]},
        seq_len_, heads_, &backend, epilogueWith(epilogue), encode);
}

void
AttentionStage::forward(const float *in, int64_t rows, float *out,
                        StageScratch &scratch) const
{
    LUTDLA_CHECK(rows % seq_len_ == 0, "attention batch of ", rows,
                 " rows is not a multiple of seq_len ", seq_len_,
                 "; the front door admits whole sequences only");
    const int64_t total = rows * d_model_;
    float *q = growPlane(scratch.attn_q, total);
    float *k = growPlane(scratch.attn_k, total);
    float *v = growPlane(scratch.attn_v, total);
    float *ctx = growPlane(scratch.attn_ctx, total);

    // Three projection LUT-GEMMs into the worker's attention planes; the
    // shared arena body splits them into row blocks exactly like
    // ArenaStage.
    static const std::vector<PointwiseOp> kNoEpilogue;
    arenaGemmForward(*arenas_[kQ], *backend_, in, rows, q, kNoEpilogue,
                     scratch, encode_);
    arenaGemmForward(*arenas_[kK], *backend_, in, rows, k, kNoEpilogue,
                     scratch, encode_);
    arenaGemmForward(*arenas_[kV], *backend_, in, rows, v, kNoEpilogue,
                     scratch, encode_);

    // Scaled-dot-product core: the shared eval kernel per sequence, into
    // a zeroed context plane. Sequences are independent, so one block per
    // sequence is bit-exact (disjoint context rows); each participant
    // brings its own probability and K^T planes. Charged to the gather
    // phase.
    const auto t0 = Clock::now();
    std::fill(ctx, ctx + total, 0.0f);
    const int64_t sequences = rows / seq_len_;
    const int64_t probs_floats = heads_ * seq_len_ * seq_len_;
    const int64_t k_t_floats = (d_model_ / heads_) * seq_len_;
    const ShardFn run_sequence = [&](int64_t b, StageScratch &local) {
        const int64_t off = b * seq_len_ * d_model_;
        nn::attentionSequenceContext(
            q + off, k + off, v + off, seq_len_, heads_, d_model_, ctx + off,
            growPlane(local.attn_probs, probs_floats),
            growPlane(local.attn_k_t, k_t_floats));
    };
    forEachBlock(scratch, sequences, run_sequence);
    scratch.gather_ns += nanosSince(t0);

    // Output projection (with any fused epilogue) into the stage output.
    arenaGemmForward(*arenas_[kO], *backend_, ctx, rows, out, epilogue_,
                     scratch, encode_);
}

} // namespace lutdla::serve
