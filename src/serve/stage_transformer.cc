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

std::string
epilogueSuffix(const std::vector<PointwiseOp> &ops)
{
    std::string out;
    for (PointwiseOp op : ops)
        out += op == PointwiseOp::Relu ? "+relu" : "+gelu";
    return out;
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
    : arenas_(std::move(arenas)), seq_len_(seq_len), heads_(heads),
      d_model_(arenas_.q->outFeatures()),
      backend_(backend != nullptr ? backend
                                  : &lutboost::referenceBackend()),
      epilogue_(std::move(epilogue)),
      encode_(lutboost::EncodePrecision::Float32)
{
    LUTDLA_CHECK(arenas_.q && arenas_.k && arenas_.v && arenas_.o,
                 "AttentionStage needs all four projection arenas");
    LUTDLA_CHECK(seq_len_ >= 1, "seq_len must be >= 1");
    LUTDLA_CHECK(heads_ >= 1 && d_model_ % heads_ == 0,
                 "heads must divide d_model");
    backend_->prepare(*arenas_.q);
    backend_->prepare(*arenas_.k);
    backend_->prepare(*arenas_.v);
    backend_->prepare(*arenas_.o);
    // The stage is one plan unit, so the encode choice is all-or-nothing
    // across the four projections: Int8 resolves only when every arena
    // carries the quantized encode bank (they share metric and geometry
    // in practice, so this is not restrictive).
    if (encode == lutboost::EncodePrecision::Int8 &&
        arenas_.q->int8EncodeSupported() &&
        arenas_.k->int8EncodeSupported() &&
        arenas_.v->int8EncodeSupported() &&
        arenas_.o->int8EncodeSupported()) {
        arenas_.q->ensureInt8EncodeBank();
        arenas_.k->ensureInt8EncodeBank();
        arenas_.v->ensureInt8EncodeBank();
        arenas_.o->ensureInt8EncodeBank();
        encode_ = lutboost::EncodePrecision::Int8;
    }
}

std::string
AttentionStage::description() const
{
    std::string out = "attention(h" + std::to_string(heads_) + ",t" +
                      std::to_string(seq_len_) + ")";
    if (!backend_->bitExact())
        out += "[" + backend_->name() + "]";
    if (encode_ == lutboost::EncodePrecision::Int8)
        out += "[enc:int8]";
    return out + epilogueSuffix(epilogue_);
}

StagePtr
AttentionStage::rebind(const lutboost::KernelBackend &backend,
                       lutboost::EncodePrecision encode,
                       const std::vector<PointwiseOp> &epilogue) const
{
    std::vector<PointwiseOp> ops = epilogue_;
    ops.insert(ops.end(), epilogue.begin(), epilogue.end());
    return std::make_shared<AttentionStage>(arenas_, seq_len_, heads_,
                                            &backend, std::move(ops),
                                            encode);
}

int64_t
AttentionStage::tableBytes() const
{
    return backend_->tableBytes(*arenas_.q) +
           backend_->tableBytes(*arenas_.k) +
           backend_->tableBytes(*arenas_.v) +
           backend_->tableBytes(*arenas_.o);
}

int64_t
AttentionStage::encodeBytes() const
{
    const auto arena_encode_bytes =
        [&](const lutboost::LutTableArena &arena) {
            if (encode_ == lutboost::EncodePrecision::Int8)
                return arena.int8EncodeTableBytes();
            return arena.inFeatures() * arena.numCentroids() *
                   static_cast<int64_t>(sizeof(float));
        };
    return arena_encode_bytes(*arenas_.q) + arena_encode_bytes(*arenas_.k) +
           arena_encode_bytes(*arenas_.v) + arena_encode_bytes(*arenas_.o);
}

int64_t
AttentionStage::residentBytes() const
{
    int64_t bytes = backend_->residentBytes(*arenas_.q) +
                    backend_->residentBytes(*arenas_.k) +
                    backend_->residentBytes(*arenas_.v) +
                    backend_->residentBytes(*arenas_.o);
    if (encode_ == lutboost::EncodePrecision::Int8)
        bytes += arenas_.q->int8EncodeResidentBytes() +
                 arenas_.k->int8EncodeResidentBytes() +
                 arenas_.v->int8EncodeResidentBytes() +
                 arenas_.o->int8EncodeResidentBytes();
    return bytes;
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
    arenaGemmForward(*arenas_.q, *backend_, in, rows, q, kNoEpilogue,
                     scratch, encode_);
    arenaGemmForward(*arenas_.k, *backend_, in, rows, k, kNoEpilogue,
                     scratch, encode_);
    arenaGemmForward(*arenas_.v, *backend_, in, rows, v, kNoEpilogue,
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
    arenaGemmForward(*arenas_.o, *backend_, ctx, rows, out, epilogue_,
                     scratch, encode_);
}

} // namespace lutdla::serve
