#ifndef LUTDLA_SERVE_PLAN_H
#define LUTDLA_SERVE_PLAN_H

/**
 * @file
 * The lowering-time planning pass: after FrozenModel's lowering walk has
 * produced a literal stage-per-layer chain, planStages() rewrites it into
 * the chain the data plane actually executes, through one path: every
 * LUT stage (ArenaStage / ConvStage / AttentionStage) is replaced by its
 * FrozenStage::rebind() copy and every glue stage passes through. A
 * rebind applies two decisions:
 *
 *  - precision selection: the stage is bound to the
 *    lutboost::KernelBackend of its TablePrecision (bit-exact float32,
 *    INT8 tables, or nibble-packed INT4 tables) and an encode
 *    precision — globally via
 *    PlanOptions::table_precision / encode_precision or heterogeneously
 *    via the per-stage lists — and each bound quantized bank is built
 *    eagerly so serving never pays the cost;
 *  - epilogue fusion (always on): pointwise activation stages directly
 *    following a LUT stage fold into that stage's arena-sweep epilogue
 *    (the same float ops run while the output slab is cache-hot, so the
 *    fused chain stays bit-exact under the Float32 backend). Skip edges
 *    are fusion barriers: SkipSaveStage / ResidualAddStage / SoftmaxStage
 *    are not PointwiseStages, so epilogue collection stops at them and no
 *    op is ever folded across a skip edge (which would change what the
 *    edge carries or what the residual lands on).
 *
 * Each planned node is recorded as a StagePlan — final label, what got
 * folded in, the stored code width, the table precision — surfaced
 * through FrozenModel::plan()/planSummary() so examples and reports can
 * show exactly what the data plane will run. See docs/SERVING.md for the
 * fusion rule table.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "serve/stage.h"

namespace lutdla::serve {

/**
 * Gather-phase table precision, re-exported from lutboost: the float
 * bank (bit-exact), the INT8 bank, or the nibble-packed INT4 bank. The
 * planner binds each LUT stage to lutboost::KernelBackend::of(precision).
 */
using TablePrecision = lutboost::TablePrecision;

/** Stable name for a table precision ("float32" / "int8" / "int4"). */
using lutboost::tablePrecisionName;

/**
 * Encode-phase argmin precision, re-exported from lutboost: Float32 is
 * the exact scan, Int8 the integer argmin over the quantized encode
 * bank. Orthogonal to TablePrecision — the planner binds (table, encode)
 * per LUT stage and the joint auto-tuner (serve/autotune.h) searches the
 * product space.
 */
using EncodePrecision = lutboost::EncodePrecision;

/** Stable name for an encode precision ("float32" / "int8"). */
using lutboost::encodePrecisionName;

/** Knobs for the planning pass; defaults preserve bit-exact semantics. */
struct PlanOptions
{
    /** Table bank every LUT stage gathers from (unless overridden per
     * stage below). */
    TablePrecision table_precision = TablePrecision::Float32;
    /**
     * Heterogeneous per-stage precision: entry i binds the i-th LUT
     * stage IN CHAIN ORDER (ArenaStage / AttentionStage / ConvStage;
     * fusion never changes the LUT stage count).
     * Empty = every LUT stage uses `table_precision`; shorter than the
     * chain = remaining stages fall back to `table_precision`. This is
     * the knob the mixed-precision auto-tuner (serve/autotune.h) emits.
     */
    std::vector<TablePrecision> stage_precision;
    /**
     * Encode-phase precision every LUT stage argmin-encodes with (unless
     * overridden per stage below). Int8 is honored only on stages whose
     * arena supports the quantized encode bank (L2 metric); others
     * silently resolve to Float32 — the StagePlan records the RESOLVED
     * choice.
     */
    EncodePrecision encode_precision = EncodePrecision::Float32;
    /**
     * Heterogeneous per-stage encode precision, indexed exactly like
     * `stage_precision` (i-th LUT stage in chain order; shorter than the
     * chain = fall back to `encode_precision`). The joint auto-tuner
     * emits this alongside `stage_precision`.
     */
    std::vector<EncodePrecision> stage_encode_precision;
    /**
     * Row-tile size for the streaming segment executor (see
     * FrozenModel::forwardBatch): 0 = auto — the largest multiple of the
     * segment's gather granule whose streamed working set (tile in-plane
     * + code planes + tile out-plane, at the segment's widest stage)
     * fits a fixed 1 MiB cache budget (about half a contemporary L2,
     * leaving the other half for the table stream the gather pulls
     * through it); -1 = disable tiling entirely (full-batch
     * phase barriers, the pre-tiling executor — what the bench A/B
     * measures against); > 0 = force this many rows per tile. Any value
     * is bit-exact with any other — the tile size only moves throughput,
     * because tileable stages are row-independent and every gather
     * tier of a bank is bit-identical across row groupings.
     */
    int64_t tile_rows = 0;
};

/** One planned stage: what the node runs and what was folded into it. */
struct StagePlan
{
    std::string kind;         ///< base stage kind, e.g. "lut-gemm"
    std::string description;  ///< planned label, e.g. "lut-gemm[int8]+relu"
    std::vector<std::string> fused;  ///< kinds of stages folded in
    int code_bits = 0;        ///< stored bits per code (8 or 16); 0 for
                              ///< non-LUT stages
    TablePrecision precision = TablePrecision::Float32;  ///< LUT stages
    /** RESOLVED encode-phase precision (Float32 when the stage's arena
     * cannot honor an Int8 request). */
    EncodePrecision encode_precision = EncodePrecision::Float32;
    int64_t table_bytes = 0;  ///< bytes the stage's gather streams
    /** Bytes the stage's encode phase streams per sweep (transposed
     * float codebooks, or the INT8 encode bank); 0 for non-LUT stages. */
    int64_t encode_bytes = 0;
    /** Encode kernel the runtime dispatch resolved ("avx512-genc",
     * "avx2-genc", "generic" for the float scan;
     * "int8-dot-vnni" / "int8-madd-avx2" / "int8-scalar" under Int8
     * encode); empty for non-LUT stages. */
    std::string encode_kernel;
    /** Gather kernel: "grouped-sweep" for the float bank, "shuffle-vnni"
     * / "scalar" for the INT8 bank, "shuffle-avx512" / "shuffle-avx2" /
     * "scalar" for the INT4 bank; empty for non-LUT stages. */
    std::string gather_kernel;
    /** Intra-batch block granularity in rows, one shuffle-gather chunk
     * (FrozenStage::blockRows(); 0 = never split, e.g. conv stages). */
    int64_t shard_rows = 0;
    /** Tiled-executor segment this stage belongs to; -1 for barrier
     * stages and untiled glue runs (see TilePlan). */
    int64_t segment = -1;
    /** Row-tile size the executor streams this stage's segment with
     * (0 = full-batch execution). */
    int64_t tile_rows = 0;
};

/**
 * One fusible segment of the planned chain: a maximal run of
 * row-tileable stages (FrozenStage::rowTileable) containing at least one
 * LUT stage, which the executor streams one row tile at a time instead
 * of full-batch stage-at-a-time. Structural barriers — skip edges,
 * attention's whole-sequence coupling, conv's im2col reshape — bound
 * the runs; glue-only runs between barriers stay untiled (nothing to
 * keep cache-hot).
 */
struct TilePlan
{
    int64_t begin = 0;      ///< first stage index of the segment
    int64_t end = 0;        ///< one past the last stage index
    int64_t tile_rows = 0;  ///< rows the executor streams per tile
    /** Gather sweep granule the tile size is a multiple of: the max of
     * the segment's per-stage tileGranuleRows(), so no stage pays extra
     * table sweeps for the tiling. */
    int64_t granule = 1;
    /** Streamed working-set bytes per tile row at the segment's widest
     * stage (in-plane + out-plane + code bytes; a width-adapted stage's
     * encode reads its in-plane in place, so it adds nothing) — what the
     * auto tile-size model fits into its 1 MiB cache budget. */
    int64_t row_bytes = 0;
};

/**
 * The tiled executor's whole-chain plan: the segments plus the scratch
 * accounting planSummary() reports. Plane figures are per pool worker;
 * the per-row figures scale with the batch size while tile_plane_bytes
 * is fixed (that asymmetry IS the steady-state scratch reduction — the
 * full-batch executor's intermediate planes all scaled with the batch).
 */
struct TileExecPlan
{
    std::vector<TilePlan> segments;  ///< tiled segments, in chain order
    /** Ping-pong plane bytes per batch row WITHOUT tiling (both planes
     * grown to the chain's widest stage). */
    int64_t untiled_plane_bytes_per_row = 0;
    /** Ping-pong plane bytes per batch row WITH tiling: only barrier
     * stages and segment-boundary planes still hold full-batch rows — a
     * segment that starts the chain reads the request tensor, and one
     * holding the last out-of-place stage writes the result tensor. */
    int64_t tiled_plane_bytes_per_row = 0;
    /** Fixed tile-local plane bytes (StageScratch::tile_a/tile_b grown
     * to the widest tiled segment's interior). */
    int64_t tile_plane_bytes = 0;

    /** Steady-state activation-plane bytes one worker holds for a
     * `rows`-row batch, with or without the tiled executor. */
    int64_t
    scratchBytesPerWorker(int64_t rows, bool tiled) const
    {
        return tiled ? tiled_plane_bytes_per_row * rows + tile_plane_bytes
                     : untiled_plane_bytes_per_row * rows;
    }
};

/**
 * Rewrite `stages` per `options` and record one StagePlan per surviving
 * node. Idempotent on an already-planned chain: a planned LUT stage has
 * no pointwise stage left to fold, so rebinding it only re-selects its
 * precisions. When `tiles` is non-null it also receives the row-tiled
 * executor's segment partition (empty when options.tile_rows == -1).
 */
void planStages(std::vector<StagePtr> &stages, const PlanOptions &options,
                std::vector<StagePlan> &plan,
                TileExecPlan *tiles = nullptr);

/** Multi-line human-readable plan dump: a header naming the runtime-
 * detected ISA level, then one line per planned stage (code width, table
 * precision, resolved encode/gather kernels, shard granularity, tile
 * segment), and — when `tiles` is non-null — a tiled-executor footer
 * with the segment list and the per-worker scratch-plane accounting. */
std::string planSummary(const std::vector<StagePlan> &plan,
                        const TileExecPlan *tiles = nullptr);

} // namespace lutdla::serve

#endif // LUTDLA_SERVE_PLAN_H
