#ifndef LUTDLA_SERVE_FROZEN_MODEL_H
#define LUTDLA_SERVE_FROZEN_MODEL_H

/**
 * @file
 * FrozenModel: the serving layer's immutable view of a deployed network —
 * a stage graph (see serve/stage.h) produced by one lowering pass over a
 * LUTBoost-converted model. Each stage is an immutable node (arena GEMM,
 * im2col-lowered conv, pooling, flatten, norm, pointwise activation);
 * once built, the model shares arenas by shared_ptr and never touches the
 * mutable nn:: training graph again, which is what makes concurrent
 * forwardBatch() calls safe and keeps a live engine unaffected by later
 * re-training or re-freezing of the source model.
 *
 * Two builders:
 *  - fromModel(): lower a LUTBoost-converted, frozen nn model — Sequential
 *    chains of LutLinear / LutConv2d / ReLU / GELU / Softmax / MaxPool2d /
 *    GlobalAvgPool / BatchNorm2d / LayerNorm / Flatten, plus the
 *    non-linear-dataflow layers that lower onto skip edges
 *    (serve/stage_transformer.h): TransformerBlock and identity-shortcut
 *    ResidualBlock become SkipSave/ResidualAdd pairs around their trunk
 *    stages, and MultiHeadSelfAttention becomes an AttentionStage over
 *    four projection arenas. MLP chains lower directly; CNN chains
 *    additionally need the input image shape (ServeInputShape) because
 *    serving works on flat rows; attention fixes rowGroup() to the
 *    sequence length. Bit-exact with eval-mode model->forward() under the
 *    default plan.
 *  - fromTrace(): synthesize a load-testing model from a workload's GEMM
 *    trace (randomized codebooks/weights, one arena stage per traced
 *    layer). Stage widths follow the trace, so consecutive stages need
 *    not chain; the lowering inserts explicit WidthAdaptStage nodes
 *    (cyclic column replication), preserving each layer's true gather
 *    workload.
 *
 * Both builders finish with the planning pass (serve/plan.h): LUT stages
 * are bound to the kernel backend the PlanOptions select (bit-exact
 * float32 by default, INT8-table quantized on request) and
 * fusable neighbors (pointwise epilogues, width-adapt prologues) fold
 * into them. The resulting per-stage decisions are inspectable through
 * plan() / planSummary().
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/status.h"
#include "nn/layer.h"
#include "serve/plan.h"
#include "serve/stage.h"
#include "sim/config.h"
#include "vq/pq.h"

namespace lutdla::serve {

/**
 * Spatial shape of the serving input when the model starts with conv /
 * pool / norm layers: each request row is a flattened [C, height, width]
 * NCHW image (C comes from the first layer's geometry). Leave default
 * (0, 0) for flat MLP-class inputs.
 */
struct ServeInputShape
{
    int64_t height = 0;
    int64_t width = 0;

    /** True when a spatial input shape was provided. */
    bool spatial() const { return height > 0 && width > 0; }
};

/** Immutable, thread-safe inference snapshot of a deployed LUT network. */
class FrozenModel
{
  public:
    /**
     * Lower a converted nn model into the stage graph. Every LUT operator
     * must already be frozen (refreshInferenceLut); supported layers are
     * Sequential, LutLinear, LutConv2d, ReLU, GELU, Softmax, MaxPool2d,
     * GlobalAvgPool, BatchNorm2d, LayerNorm, Flatten,
     * MultiHeadSelfAttention, TransformerBlock, and identity-shortcut
     * ResidualBlock. Anything else yields InvalidArgument naming the
     * first unlowerable layer. Models whose first lowered layer is
     * spatial (conv/pool/norm) additionally require `input` to carry the
     * image height/width. `plan` selects the kernel backend and fusion
     * behavior (defaults are bit-exact).
     */
    static api::Result<FrozenModel>
    fromModel(const nn::LayerPtr &model, ServeInputShape input = {},
              PlanOptions plan = {});

    /**
     * Check that `model`'s topology is lowerable by fromModel WITHOUT
     * requiring (or triggering) any freeze — side-effect free. Callers
     * that freeze layers on the caller's behalf (api::makeEngine) run
     * this first so a rejected model is returned unmodified.
     */
    static api::Status validateServable(const nn::LayerPtr &model,
                                        ServeInputShape input = {});

    /**
     * Synthesize a load-testing model from a deployment GEMM trace: one
     * arena stage per GEMM, Gaussian random codebooks and weights
     * (deterministic in `seed`), no bias, no activations; WidthAdaptStage
     * between non-chaining widths. Validates `pq` like the conversion
     * pipeline does.
     */
    static api::Result<FrozenModel>
    fromTrace(const std::vector<sim::GemmShape> &gemms,
              const vq::PQConfig &pq, vq::LutPrecision precision = {},
              uint64_t seed = 91, PlanOptions plan = {});

    /**
     * Replan this model under different PlanOptions, returning a new
     * FrozenModel whose stages are rebuilt by the planning pass but
     * SHARE every arena with the original (shared_ptr copies). Because
     * quantized banks cache inside the arena, a replanned candidate
     * pays table quantization at most once per (arena, precision) no
     * matter how many plans bind it — the property the mixed-precision
     * auto-tuner's candidate sweep (serve/autotune.h) relies on. The
     * original model is untouched; planStages is idempotent on an
     * already-planned chain, so fusion decisions do not compound.
     */
    FrozenModel withPlan(const PlanOptions &plan) const;

    /** Input width the first stage expects. */
    int64_t inputWidth() const;

    /** Output width the last stage produces. */
    int64_t outputWidth() const;

    /** Number of stages in the graph (all kinds, not just LUT). */
    int64_t numStages() const
    {
        return static_cast<int64_t>(stages_.size());
    }

    /** Number of LUT-backed stages (arena GEMM + conv + attention). */
    int64_t numLutStages() const;

    /**
     * Row-group granularity requests must respect: 1 for row-independent
     * models; the sequence length T for models with attention stages
     * (rows are [B*T, D] and a batch must hold whole sequences). The
     * front door rejects requests whose row count is not a multiple of
     * this, and refuses to publish with slo.max_batch below it.
     */
    int64_t rowGroup() const { return row_group_; }

    /** Total arena footprint in bytes across stages. */
    int64_t tableBytes() const;

    /** Total encode-phase sweep bytes across LUT stages (transposed
     * float codebooks, or the INT8 encode bank where the plan bound
     * Int8 encode). tableBytes() + encodeBytes() is the byte currency
     * the joint (table, encode) auto-tuner descends on. */
    int64_t encodeBytes() const;

    /** Total bytes RESIDENT for the planned tables across stages: the
     * gather streams plus any CPU-gated mirror layouts (interleaved
     * shuffle banks, VNNI quads) the bound backends keep. */
    int64_t residentBytes() const;

    /** Stage list (read-only). */
    const std::vector<StagePtr> &stages() const { return stages_; }

    /** Per-stage planning decisions, one entry per stage. */
    const std::vector<StagePlan> &plan() const { return plan_; }

    /** The row-tiled executor's segment partition and per-worker
     * scratch-plane accounting (see TileExecPlan). Empty segment list
     * when tiling is disabled or nothing is tileable. */
    const TileExecPlan &tilePlan() const { return tiles_; }

    /** Multi-line plan dump (code widths, table precision, fusions,
     * tile segments, scratch-plane accounting). */
    std::string planSummary() const;

    /** Human-readable planned chain, e.g. "conv+relu -> maxpool -> ...". */
    std::string describe() const;

    /**
     * Run a batch of rows through every stage using caller-owned scratch
     * (the serving pool passes per-worker scratch so steady-state batches do
     * not allocate). Thread-safe — distinct scratch per concurrent caller
     * — and bit-exact with the source model's eval forward (fromModel
     * case). Rows must be [batch, inputWidth()].
     *
     * Execution is segment-streamed (the row-tiled executor): barrier
     * stages run full-batch as before, but each planned TilePlan segment
     * streams one row tile at a time through ALL its stages — a stage's
     * gather + fused epilogue feeds the next stage's encode while the
     * tile is still L1/L2-hot — with the next tile's input software-
     * prefetched behind it. When the scratch carries an IntraBatchPool,
     * tiles are the work-stealing unit (one task per tile, replacing the
     * old two-barriers-per-stage sharding inside segments). Bit-exact
     * with the untiled path (PlanOptions::tile_rows == -1) at every tile
     * size and precision, because tileable stages are row-independent.
     */
    Tensor forwardBatch(const Tensor &x, StageScratch &scratch) const;

    /** Convenience overload with throwaway scratch. */
    Tensor forwardBatch(const Tensor &x) const;

  private:
    /** Stream one tiled segment: read [rows, seg-in-width] from `in`,
     * write [rows, seg-out-width] to `out` (never aliasing), one tile
     * per pool task. */
    void runTiledSegment(const TilePlan &seg, const float *in,
                         int64_t rows, float *out,
                         StageScratch &scratch) const;

    std::vector<StagePtr> stages_;
    std::vector<StagePlan> plan_;
    TileExecPlan tiles_;
    int64_t row_group_ = 1;
};

} // namespace lutdla::serve

#endif // LUTDLA_SERVE_FROZEN_MODEL_H
