#include "serve/frozen_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "lutboost/lut_conv.h"
#include "lutboost/lut_linear.h"
#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/norm.h"
#include "nn/sequential.h"
#include "serve/stage_transformer.h"
#include "util/logging.h"
#include "util/rng.h"
#include "vq/quant.h"

namespace lutdla::serve {

namespace {

/** Depth-first, in-order flattening of Sequential containers. */
void
flattenLayers(const nn::LayerPtr &layer, std::vector<nn::Layer *> &out)
{
    if (auto *seq = dynamic_cast<nn::Sequential *>(layer.get())) {
        for (int64_t i = 0; i < seq->size(); ++i)
            flattenLayers(seq->child(i), out);
        return;
    }
    out.push_back(layer.get());
}

bool
isPowerOfTwo(int64_t x)
{
    return x > 0 && (x & (x - 1)) == 0;
}

/**
 * Activation-shape state threaded through the lowering walk: either a
 * spatial [c, h, w] image per row, a known flat width, or unknown (before
 * the first width-fixing layer).
 */
struct LowerState
{
    bool spatial = false;
    int64_t c = 0, h = 0, w = 0;  ///< valid when spatial
    int64_t flat = -1;            ///< valid when >= 0 and not spatial

    bool known() const { return spatial || flat >= 0; }

    std::string
    str() const
    {
        if (spatial)
            return "[C=" + std::to_string(c) + ", H=" + std::to_string(h) +
                   ", W=" + std::to_string(w) + "]";
        if (flat >= 0)
            return "[" + std::to_string(flat) + "]";
        return "(unknown)";
    }
};

/**
 * Lowering context threaded through the (recursive) walk: the activation
 * shape state, whether any LUT operator was seen, the skip-edge nesting
 * depth (which assigns scratch slots — sequential edges at one depth
 * reuse a slot, nested edges stack), and the row group attention stages
 * pin to their sequence length.
 */
struct LowerCtx
{
    LowerState st;
    ServeInputShape input;
    std::vector<StagePtr> *emit = nullptr;
    bool any_lut = false;
    int64_t skip_depth = 0;
    int64_t row_group = 1;
};

/** Shape-state equality, used to validate residual-branch widths. */
bool
sameState(const LowerState &a, const LowerState &b)
{
    if (a.spatial != b.spatial)
        return false;
    return a.spatial ? (a.c == b.c && a.h == b.h && a.w == b.w)
                     : a.flat == b.flat;
}

api::Status lowerLayer(nn::Layer *layer, LowerCtx &ctx);

api::Status
lowerLayers(const std::vector<nn::Layer *> &layers, LowerCtx &ctx)
{
    for (nn::Layer *layer : layers)
        if (api::Status status = lowerLayer(layer, ctx); !status.ok())
            return status;
    return {};
}

/** Flatten-and-lower a sub-graph rooted at `child` (skip-edge trunks). */
api::Status
lowerChild(const nn::LayerPtr &child, LowerCtx &ctx)
{
    std::vector<nn::Layer *> layers;
    flattenLayers(child, layers);
    return lowerLayers(layers, ctx);
}

/**
 * The per-layer dispatch behind fromModel and validateServable: track the
 * activation shape and either emit stages (ctx.emit != nullptr; requires
 * frozen LUT operators) or only validate the topology (ctx.emit ==
 * nullptr; side-effect free, works pre-freeze). Every rejection names the
 * first unlowerable layer. Skip-edge layers (TransformerBlock,
 * identity-shortcut ResidualBlock) recurse into their trunk with a
 * SkipSave/ResidualAdd pair around it.
 */
api::Status
lowerLayer(nn::Layer *layer, LowerCtx &ctx)
{
    LowerState &st = ctx.st;
    std::vector<StagePtr> *emit = ctx.emit;
    const ServeInputShape input = ctx.input;
    bool &any_lut = ctx.any_lut;

    {
        if (auto *conv = dynamic_cast<lutboost::LutConv2d *>(layer)) {
            const ConvGeometry &geom = conv->geometry();
            if (!st.known()) {
                if (!input.spatial())
                    return api::Status::invalidArgument(
                        "LutConv2d at the model input needs the serving "
                        "image shape; pass ServeInputShape{height, width} "
                        "(each request row is a flattened NCHW image)");
                st.spatial = true;
                st.c = geom.in_channels;
                st.h = input.height;
                st.w = input.width;
            }
            if (!st.spatial)
                return api::Status::invalidArgument(
                    "LutConv2d cannot follow a flat " + st.str() +
                    " output; conv stages need spatial (NCHW) rows");
            if (st.c != geom.in_channels)
                return api::Status::invalidArgument(
                    "LutConv2d expects " +
                    std::to_string(geom.in_channels) +
                    " input channels but the previous stage emits " +
                    st.str());
            const int64_t ho = geom.outSize(st.h), wo = geom.outSize(st.w);
            if (ho < 1 || wo < 1)
                return api::Status::invalidArgument(
                    "LutConv2d collapses the spatial extent " + st.str() +
                    " to zero; the serving input shape is too small");
            if (emit) {
                if (!conv->inferenceLutReady())
                    return api::Status::failedPrecondition(
                        "LutConv2d is not frozen; call "
                        "refreshInferenceLut() (or Pipeline "
                        "deployPrecision()) before serving");
                emit->push_back(std::make_shared<ConvStage>(
                    geom, st.h, st.w, conv->inferenceArena()));
            }
            st.c = geom.out_channels;
            st.h = ho;
            st.w = wo;
            any_lut = true;
            return {};
        }
        if (auto *lut = dynamic_cast<lutboost::LutLinear *>(layer)) {
            if (st.spatial)
                return api::Status::invalidArgument(
                    "LutLinear follows a spatial " + st.str() +
                    " output; insert Flatten (or GlobalAvgPool) before "
                    "the classifier head");
            if (st.flat >= 0 && st.flat != lut->inFeatures())
                return api::Status::invalidArgument(
                    "stage widths do not chain at LutLinear: previous "
                    "layer emits " + std::to_string(st.flat) +
                    ", next expects " + std::to_string(lut->inFeatures()));
            if (emit) {
                if (!lut->inferenceLutReady())
                    return api::Status::failedPrecondition(
                        "LutLinear is not frozen; call "
                        "refreshInferenceLut() (or Pipeline "
                        "deployPrecision()) before serving");
                emit->push_back(
                    std::make_shared<ArenaStage>(lut->inferenceArena()));
            }
            st.spatial = false;
            st.flat = lut->outFeatures();
            any_lut = true;
            return {};
        }
        if (dynamic_cast<nn::ReLU *>(layer) != nullptr ||
            dynamic_cast<nn::GELU *>(layer) != nullptr) {
            if (!st.known())
                return api::Status::invalidArgument(
                    "activation '" + layer->name() +
                    "' at the model input has no inferable width; put a "
                    "LUT operator first");
            if (emit) {
                const auto op = dynamic_cast<nn::ReLU *>(layer) != nullptr
                                    ? PointwiseStage::Op::Relu
                                    : PointwiseStage::Op::Gelu;
                const int64_t width =
                    st.spatial ? st.c * st.h * st.w : st.flat;
                emit->push_back(
                    std::make_shared<PointwiseStage>(op, width));
            }
            return {};
        }
        if (dynamic_cast<nn::Flatten *>(layer) != nullptr) {
            if (st.spatial) {
                const int64_t width = st.c * st.h * st.w;
                if (emit)
                    emit->push_back(
                        std::make_shared<FlattenStage>(width));
                st.spatial = false;
                st.flat = width;
            }
            // Already-flat rows: rank-preserving identity, nothing to emit.
            return {};
        }
        if (auto *pool = dynamic_cast<nn::MaxPool2d *>(layer)) {
            if (!st.spatial)
                return api::Status::invalidArgument(
                    "MaxPool2d requires spatial (NCHW) rows but the "
                    "previous stage emits " + st.str() +
                    "; serving lowers pools only inside conv chains");
            const int64_t k = pool->kernel();
            if (st.h / k < 1 || st.w / k < 1)
                return api::Status::invalidArgument(
                    "MaxPool2d kernel " + std::to_string(k) +
                    " collapses the spatial extent " + st.str() +
                    " to zero");
            if (emit)
                emit->push_back(std::make_shared<MaxPoolStage>(
                    st.c, st.h, st.w, k));
            st.h /= k;
            st.w /= k;
            return {};
        }
        if (dynamic_cast<nn::GlobalAvgPool *>(layer) != nullptr) {
            if (!st.spatial)
                return api::Status::invalidArgument(
                    "GlobalAvgPool requires spatial (NCHW) rows but the "
                    "previous stage emits " + st.str());
            if (emit)
                emit->push_back(std::make_shared<GlobalAvgPoolStage>(
                    st.c, st.h, st.w));
            st.spatial = false;
            st.flat = st.c;
            return {};
        }
        if (auto *bn = dynamic_cast<nn::BatchNorm2d *>(layer)) {
            if (!st.known()) {
                if (!input.spatial())
                    return api::Status::invalidArgument(
                        "BatchNorm2d at the model input needs the serving "
                        "image shape; pass ServeInputShape{height, width}");
                st.spatial = true;
                st.c = bn->channels();
                st.h = input.height;
                st.w = input.width;
            }
            if (!st.spatial || st.c != bn->channels())
                return api::Status::invalidArgument(
                    "BatchNorm2d over " + std::to_string(bn->channels()) +
                    " channels cannot follow a stage emitting " + st.str());
            if (emit) {
                auto vec = [](const Tensor &t) {
                    return std::vector<float>(t.data(),
                                              t.data() + t.numel());
                };
                emit->push_back(std::make_shared<BatchNormStage>(
                    vec(bn->runningMean()), vec(bn->runningVar()),
                    vec(bn->gamma()), vec(bn->beta()), bn->epsilon(),
                    st.h, st.w));
            }
            return {};
        }
        if (auto *ln = dynamic_cast<nn::LayerNorm *>(layer)) {
            if (st.spatial || st.flat != ln->features())
                return api::Status::invalidArgument(
                    "LayerNorm over " + std::to_string(ln->features()) +
                    " features cannot follow a stage emitting " + st.str());
            if (emit) {
                auto vec = [](const Tensor &t) {
                    return std::vector<float>(t.data(),
                                              t.data() + t.numel());
                };
                emit->push_back(std::make_shared<LayerNormStage>(
                    vec(ln->gamma()), vec(ln->beta()), ln->epsilon()));
            }
            return {};
        }
        if (dynamic_cast<nn::Softmax *>(layer) != nullptr) {
            if (!st.known())
                return api::Status::invalidArgument(
                    "Softmax at the model input has no inferable width; "
                    "put a LUT operator first");
            if (st.spatial)
                return api::Status::invalidArgument(
                    "Softmax requires flat rows but the previous stage "
                    "emits " + st.str() +
                    "; insert Flatten (or GlobalAvgPool) first");
            if (emit)
                emit->push_back(std::make_shared<SoftmaxStage>(st.flat));
            return {};
        }
        if (auto *attn =
                dynamic_cast<nn::MultiHeadSelfAttention *>(layer)) {
            if (!st.known())
                return api::Status::invalidArgument(
                    "MultiHeadSelfAttention at the model input has no "
                    "inferable width before the serving input shape is "
                    "known; front it with a LUT operator (e.g. the "
                    "embedding LutLinear) — ServeInputShape only "
                    "describes spatial NCHW inputs");
            if (st.spatial)
                return api::Status::invalidArgument(
                    "MultiHeadSelfAttention follows a spatial " +
                    st.str() +
                    " output; attention needs flat [B*T, D] rows "
                    "(insert Flatten first)");
            if (st.flat != attn->dModel())
                return api::Status::invalidArgument(
                    "stage widths do not chain at MultiHeadSelfAttention: "
                    "previous layer emits " + std::to_string(st.flat) +
                    ", attention expects d_model " +
                    std::to_string(attn->dModel()));
            if (ctx.row_group != 1 && ctx.row_group != attn->seqLen())
                return api::Status::invalidArgument(
                    "mismatched sequence lengths at "
                    "MultiHeadSelfAttention: an earlier attention stage "
                    "fixed the serving row group to " +
                    std::to_string(ctx.row_group) +
                    " rows per sequence, but this layer expects " +
                    std::to_string(attn->seqLen()));
            auto *wq = dynamic_cast<lutboost::LutLinear *>(attn->wq().get());
            auto *wk = dynamic_cast<lutboost::LutLinear *>(attn->wk().get());
            auto *wv = dynamic_cast<lutboost::LutLinear *>(attn->wv().get());
            auto *wo = dynamic_cast<lutboost::LutLinear *>(attn->wo().get());
            if (wq == nullptr || wk == nullptr || wv == nullptr ||
                wo == nullptr)
                return api::Status::invalidArgument(
                    "MultiHeadSelfAttention projections are not "
                    "LUT-converted; run the LUTBoost conversion over the "
                    "Q/K/V/output Linear layers before serving");
            if (emit) {
                for (lutboost::LutLinear *proj : {wq, wk, wv, wo})
                    if (!proj->inferenceLutReady())
                        return api::Status::failedPrecondition(
                            "MultiHeadSelfAttention projection is not "
                            "frozen; call refreshInferenceLut() (or "
                            "Pipeline deployPrecision()) before serving");
                emit->push_back(std::make_shared<AttentionStage>(
                    AttentionStage::Arenas{wq->inferenceArena(),
                                           wk->inferenceArena(),
                                           wv->inferenceArena(),
                                           wo->inferenceArena()},
                    attn->seqLen(), attn->heads()));
            }
            ctx.row_group = attn->seqLen();
            st.flat = attn->dModel();
            any_lut = true;
            return {};
        }
        if (auto *block = dynamic_cast<nn::TransformerBlock *>(layer)) {
            if (!st.known())
                return api::Status::invalidArgument(
                    "TransformerBlock at the model input has no inferable "
                    "width; front it with a LUT operator (e.g. the "
                    "embedding LutLinear)");
            if (st.spatial)
                return api::Status::invalidArgument(
                    "TransformerBlock follows a spatial " + st.str() +
                    " output; transformer blocks need flat [B*T, D] rows "
                    "(insert Flatten first)");
            const LowerState entry = st;
            const int64_t width = st.flat;
            // Skip edge 1: x + attn(ln1(x)).
            int64_t slot = ctx.skip_depth++;
            if (emit)
                emit->push_back(
                    std::make_shared<SkipSaveStage>(width, slot));
            if (api::Status status = lowerChild(block->ln1(), ctx);
                !status.ok())
                return status;
            if (api::Status status = lowerChild(block->attn(), ctx);
                !status.ok())
                return status;
            if (!sameState(entry, st))
                return api::Status::invalidArgument(
                    "mismatched residual widths at TransformerBlock: the "
                    "attention path emits " + st.str() +
                    " but the skip edge carries " + entry.str());
            if (emit)
                emit->push_back(
                    std::make_shared<ResidualAddStage>(width, slot));
            --ctx.skip_depth;
            // Skip edge 2: r1 + ffn(ln2(r1)).
            slot = ctx.skip_depth++;
            if (emit)
                emit->push_back(
                    std::make_shared<SkipSaveStage>(width, slot));
            if (api::Status status = lowerChild(block->ln2(), ctx);
                !status.ok())
                return status;
            if (api::Status status = lowerChild(block->ffn(), ctx);
                !status.ok())
                return status;
            if (!sameState(entry, st))
                return api::Status::invalidArgument(
                    "mismatched residual widths at TransformerBlock: the "
                    "feed-forward path emits " + st.str() +
                    " but the skip edge carries " + entry.str());
            if (emit)
                emit->push_back(
                    std::make_shared<ResidualAddStage>(width, slot));
            --ctx.skip_depth;
            return {};
        }
        if (auto *res = dynamic_cast<nn::ResidualBlock *>(layer)) {
            if (res->shortcut() != nullptr)
                return api::Status::invalidArgument(
                    "unsupported layer 'ResidualBlock' for serving: only "
                    "identity-shortcut residual blocks lower onto skip "
                    "edges; a projection shortcut branch has no stage "
                    "lowering (use fromTrace for other topologies)");
            if (!st.known())
                return api::Status::invalidArgument(
                    "ResidualBlock at the model input has no inferable "
                    "width; put a LUT operator first");
            const LowerState entry = st;
            const int64_t width =
                st.spatial ? st.c * st.h * st.w : st.flat;
            const int64_t slot = ctx.skip_depth++;
            if (emit)
                emit->push_back(
                    std::make_shared<SkipSaveStage>(width, slot));
            if (api::Status status = lowerChild(res->main(), ctx);
                !status.ok())
                return status;
            if (!sameState(entry, st))
                return api::Status::invalidArgument(
                    "mismatched residual widths at ResidualBlock: the "
                    "main path emits " + st.str() +
                    " but the identity skip edge carries " + entry.str());
            if (emit) {
                emit->push_back(
                    std::make_shared<ResidualAddStage>(width, slot));
                // ResidualBlock applies ReLU after the add.
                emit->push_back(std::make_shared<PointwiseStage>(
                    PointwiseStage::Op::Relu, width));
            }
            --ctx.skip_depth;
            return {};
        }
        return api::Status::invalidArgument(
            "unsupported layer '" + layer->name() +
            "' for serving; FrozenModel lowers Sequential chains of "
            "LutLinear/LutConv2d/ReLU/GELU/Softmax/MaxPool2d/"
            "GlobalAvgPool/BatchNorm2d/LayerNorm/Flatten plus "
            "MultiHeadSelfAttention/TransformerBlock/identity-skip "
            "ResidualBlock (use fromTrace for other topologies)");
    }
}

/**
 * The single lowering pass behind fromModel and validateServable: walk a
 * flattened layer chain through lowerLayer, then enforce the whole-model
 * invariants (at least one LUT operator) and surface the row group the
 * chain pinned (sequence length for attention models, 1 otherwise).
 */
api::Status
lowerChain(const std::vector<nn::Layer *> &layers, ServeInputShape input,
           std::vector<StagePtr> *emit, int64_t *row_group = nullptr)
{
    LowerCtx ctx;
    ctx.input = input;
    ctx.emit = emit;
    if (api::Status status = lowerLayers(layers, ctx); !status.ok())
        return status;
    if (!ctx.any_lut)
        return api::Status::failedPrecondition(
            "model has no LUT operators; convert it before serving");
    if (row_group != nullptr)
        *row_group = ctx.row_group;
    return {};
}

/** Synthesized quantizer + weights for one traced GEMM layer. */
struct TraceLayer
{
    vq::ProductQuantizer quantizer;
    Tensor weights;  ///< [k, n]
};

/**
 * Deterministically synthesize one trace layer for fromTrace: Gaussian
 * codebooks and 1/sqrt(k)-scaled weights from `seed` + `index`.
 */
TraceLayer
synthesizeTraceLayer(const sim::GemmShape &gemm, const vq::PQConfig &pq,
                     uint64_t seed, int64_t index, bool bf16_codebooks)
{
    Rng rng(seed + 7919ull * static_cast<uint64_t>(index));
    vq::ProductQuantizer quantizer(gemm.k, pq);
    for (int64_t s = 0; s < quantizer.numSubspaces(); ++s) {
        Tensor cb(Shape{pq.c, pq.v});
        for (int64_t i = 0; i < cb.numel(); ++i)
            cb.at(i) = static_cast<float>(rng.gaussian(0.0, 0.5));
        if (bf16_codebooks)
            vq::tensorToBf16(cb);
        quantizer.setCodebook(s, std::move(cb));
    }
    Tensor weights(Shape{gemm.k, gemm.n});
    const double scale = 1.0 / std::sqrt(static_cast<double>(gemm.k));
    for (int64_t i = 0; i < weights.numel(); ++i)
        weights.at(i) = static_cast<float>(rng.gaussian(0.0, scale));
    return {std::move(quantizer), std::move(weights)};
}

} // namespace

api::Status
FrozenModel::validateServable(const nn::LayerPtr &model,
                              ServeInputShape input)
{
    if (!model)
        return api::Status::invalidArgument(
            "FrozenModel requires a model");
    std::vector<nn::Layer *> layers;
    flattenLayers(model, layers);
    return lowerChain(layers, input, nullptr);
}

api::Result<FrozenModel>
FrozenModel::fromModel(const nn::LayerPtr &model, ServeInputShape input,
                       PlanOptions plan)
{
    if (!model)
        return api::Status::invalidArgument(
            "FrozenModel requires a model");
    std::vector<nn::Layer *> layers;
    flattenLayers(model, layers);
    FrozenModel frozen;
    if (api::Status status = lowerChain(layers, input, &frozen.stages_,
                                        &frozen.row_group_);
        !status.ok())
        return status;
    planStages(frozen.stages_, plan, frozen.plan_, &frozen.tiles_);
    return frozen;
}

api::Result<FrozenModel>
FrozenModel::fromTrace(const std::vector<sim::GemmShape> &gemms,
                       const vq::PQConfig &pq, vq::LutPrecision precision,
                       uint64_t seed, PlanOptions plan)
{
    if (gemms.empty())
        return api::Status::invalidArgument(
            "fromTrace requires a non-empty GEMM trace");
    if (pq.v < 1)
        return api::Status::invalidArgument("v must be >= 1");
    if (pq.c < 2 || !isPowerOfTwo(pq.c))
        return api::Status::invalidArgument(
            "c must be a power of two >= 2 (got " + std::to_string(pq.c) +
            ")");

    FrozenModel frozen;
    int64_t index = 0;
    int64_t prev_out = -1;
    for (const sim::GemmShape &gemm : gemms) {
        if (gemm.k < 1 || gemm.n < 1)
            return api::Status::invalidArgument(
                "trace gemm '" + gemm.tag + "' has invalid dims [k=" +
                std::to_string(gemm.k) + ", n=" + std::to_string(gemm.n) +
                "]");
        TraceLayer layer = synthesizeTraceLayer(
            gemm, pq, seed, index++, precision.bf16_similarity);
        const vq::LookupTable lut(layer.quantizer, layer.weights,
                                  precision);
        if (prev_out >= 0 && prev_out != gemm.k)
            frozen.stages_.push_back(
                std::make_shared<WidthAdaptStage>(prev_out, gemm.k));
        frozen.stages_.push_back(std::make_shared<ArenaStage>(
            std::make_shared<const lutboost::LutTableArena>(
                layer.quantizer, lut, nullptr,
                precision.bf16_similarity)));
        prev_out = gemm.n;
    }
    planStages(frozen.stages_, plan, frozen.plan_, &frozen.tiles_);
    return frozen;
}

FrozenModel
FrozenModel::withPlan(const PlanOptions &plan) const
{
    FrozenModel out;
    out.stages_ = stages_;  // shared_ptr copies: arenas (and their cached
                            // quantized banks) are shared, never rebuilt
    out.row_group_ = row_group_;
    planStages(out.stages_, plan, out.plan_, &out.tiles_);
    return out;
}

int64_t
FrozenModel::inputWidth() const
{
    LUTDLA_CHECK(!stages_.empty(), "empty FrozenModel");
    return stages_.front()->inWidth();
}

int64_t
FrozenModel::outputWidth() const
{
    LUTDLA_CHECK(!stages_.empty(), "empty FrozenModel");
    return stages_.back()->outWidth();
}

int64_t
FrozenModel::numLutStages() const
{
    int64_t count = 0;
    for (const StagePtr &stage : stages_)
        if (stage->tableBytes() > 0)
            ++count;
    return count;
}

int64_t
FrozenModel::tableBytes() const
{
    int64_t total = 0;
    for (const StagePtr &stage : stages_)
        total += stage->tableBytes();
    return total;
}

int64_t
FrozenModel::encodeBytes() const
{
    int64_t total = 0;
    for (const StagePtr &stage : stages_)
        total += stage->encodeBytes();
    return total;
}

int64_t
FrozenModel::residentBytes() const
{
    int64_t total = 0;
    for (const StagePtr &stage : stages_)
        total += stage->residentBytes();
    return total;
}

std::string
FrozenModel::describe() const
{
    std::string out;
    for (const StagePtr &stage : stages_) {
        if (!out.empty())
            out += " -> ";
        out += stage->description();
    }
    return out;
}

std::string
FrozenModel::planSummary() const
{
    return serve::planSummary(plan_, &tiles_);
}

Tensor
FrozenModel::forwardBatch(const Tensor &x, StageScratch &scratch) const
{
    LUTDLA_CHECK(!stages_.empty(), "empty FrozenModel");
    LUTDLA_CHECK(x.rank() == 2 && x.dim(1) == inputWidth(),
                 "FrozenModel expects [rows, ", inputWidth(), "], got ",
                 shapeStr(x.shape()));
    const int64_t rows = x.dim(0);

    // Ping-pong execution: `cur` tracks the live activations, which start
    // in the request tensor itself (read-only), move into a scratch plane
    // at the first stage, and alternate planes at every out-of-place
    // stage. In-place stages mutate the live plane directly. Planned tile
    // segments leave this loop wholesale: the segment streams row tiles
    // through all its stages (runTiledSegment) and lands its output in
    // the opposite plane in one step, so only barrier stages and segment
    // boundaries ever hold full-batch planes.
    const float *cur = x.data();
    float *cur_mut = nullptr;  // non-null once cur points into scratch
    bool in_ping = false;
    size_t seg_idx = 0;
    size_t i = 0;
    while (i < stages_.size()) {
        while (seg_idx < tiles_.segments.size() &&
               tiles_.segments[seg_idx].end <= static_cast<int64_t>(i))
            ++seg_idx;
        const TilePlan *seg =
            (seg_idx < tiles_.segments.size() &&
             tiles_.segments[seg_idx].begin == static_cast<int64_t>(i))
                ? &tiles_.segments[seg_idx]
                : nullptr;
        if (seg != nullptr && rows > seg->tile_rows) {
            // Batches of at most one tile fall through to the per-stage
            // path below — identical work, no tiling overhead.
            const int64_t out_w =
                stages_[static_cast<size_t>(seg->end) - 1]->outWidth();
            std::vector<float> &dst =
                (cur_mut != nullptr && in_ping) ? scratch.pong
                                                : scratch.ping;
            dst.resize(static_cast<size_t>(rows * out_w));
            runTiledSegment(*seg, cur, rows, dst.data(), scratch);
            cur_mut = dst.data();
            cur = cur_mut;
            in_ping = (&dst == &scratch.ping);
            i = static_cast<size_t>(seg->end);
            continue;
        }
        const StagePtr &stage = stages_[i];
        if (stage->inPlace()) {
            if (cur_mut == nullptr) {
                scratch.ping.resize(
                    static_cast<size_t>(rows * stage->inWidth()));
                std::memcpy(scratch.ping.data(), cur,
                            static_cast<size_t>(rows * stage->inWidth()) *
                                sizeof(float));
                cur_mut = scratch.ping.data();
                cur = cur_mut;
                in_ping = true;
            }
            stage->forwardInPlace(cur_mut, rows, scratch);
        } else {
            std::vector<float> &dst =
                (cur_mut != nullptr && in_ping) ? scratch.pong
                                                : scratch.ping;
            dst.resize(static_cast<size_t>(rows * stage->outWidth()));
            stage->forward(cur, rows, dst.data(), scratch);
            cur_mut = dst.data();
            cur = cur_mut;
            in_ping = (&dst == &scratch.ping);
        }
        ++i;
    }

    Tensor y(Shape{rows, outputWidth()});
    std::memcpy(y.data(), cur,
                static_cast<size_t>(y.numel()) * sizeof(float));
    return y;
}

Tensor
FrozenModel::forwardBatch(const Tensor &x) const
{
    StageScratch scratch;
    return forwardBatch(x, scratch);
}

void
FrozenModel::runTiledSegment(const TilePlan &seg, const float *in,
                             int64_t rows, float *out,
                             StageScratch &scratch) const
{
    const size_t begin = static_cast<size_t>(seg.begin);
    const size_t end = static_cast<size_t>(seg.end);
    const int64_t tile = seg.tile_rows;
    const int64_t tiles = (rows + tile - 1) / tile;
    const int64_t in_w = stages_[begin]->inWidth();
    const int64_t out_w = stages_[end - 1]->outWidth();

    // From the LAST out-of-place stage on, a tile writes straight into
    // its disjoint span of the segment output (trailing in-place stages
    // mutate it there), so the streamed result never needs a final copy.
    // Stages before it alternate the tile-local planes.
    size_t last_oop = begin;
    for (size_t s = begin; s < end; ++s)
        if (!stages_[s]->inPlace())
            last_oop = s;

    // A tile IS the work-stealing unit: forEachBlock nulls the pool inside
    // it, so no stage splits the tile again.
    forEachBlock(scratch, tiles, [&](int64_t t, StageScratch &local) {
        const int64_t r0 = t * tile;
        const int64_t rn = std::min(tile, rows - r0);
        if (r0 + rn < rows) {
            // Pull the next tile's input behind this tile's sweep. Capped
            // well under the tile budget so the prefetch cannot evict the
            // planes this tile is actively streaming.
            const int64_t ahead =
                std::min(std::min(tile, rows - r0 - rn) * in_w *
                             static_cast<int64_t>(sizeof(float)),
                         static_cast<int64_t>(16) << 10);
            lutboost::prefetchSpan(in + (r0 + rn) * in_w, ahead);
        }

        const float *cur = in + r0 * in_w;
        float *cur_mut = nullptr;
        bool in_a = false;  // live plane is tile_a (when cur_mut set)
        for (size_t s = begin; s < end; ++s) {
            const FrozenStage &stage = *stages_[s];
            const bool to_out = s >= last_oop;
            if (stage.inPlace()) {
                if (cur_mut == nullptr) {
                    float *dst;
                    if (to_out) {
                        dst = out + r0 * out_w;
                    } else {
                        local.tile_a.resize(static_cast<size_t>(
                            tile * stage.inWidth()));
                        dst = local.tile_a.data();
                        in_a = true;
                    }
                    std::memcpy(dst, cur,
                                static_cast<size_t>(rn * stage.inWidth()) *
                                    sizeof(float));
                    cur_mut = dst;
                    cur = cur_mut;
                }
                stage.forwardInPlace(cur_mut, rn, local);
            } else {
                float *dst;
                if (to_out) {
                    dst = out + r0 * out_w;
                } else {
                    std::vector<float> &plane =
                        (cur_mut != nullptr && in_a) ? local.tile_b
                                                     : local.tile_a;
                    plane.resize(
                        static_cast<size_t>(tile * stage.outWidth()));
                    dst = plane.data();
                    in_a = (&plane == &local.tile_a);
                }
                stage.forward(cur, rn, dst, local);
                cur_mut = dst;
                cur = cur_mut;
            }
        }
    });
}

} // namespace lutdla::serve
