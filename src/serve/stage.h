#ifndef LUTDLA_SERVE_STAGE_H
#define LUTDLA_SERVE_STAGE_H

/**
 * @file
 * The serving stage-graph IR: a FrozenModel is an ordered chain of
 * immutable FrozenStage nodes, each transforming a batch of flat
 * activation rows. A single lowering pass (FrozenModel::fromModel) maps
 * every LUTBoost-converted layer kind onto one of the concrete stages
 * here — arena LUT-GEMM for LutLinear, im2col + arena LUT-GEMM for
 * LutConv2d, pooling / flatten / norm / pointwise for the glue layers —
 * then a planning pass (serve/plan.h) rebinds each LUT stage to its
 * kernel backend and encode precision and folds the pointwise stages
 * after it into its epilogue (FrozenStage::rebind), so the serving
 * runtime's batch loop is topology-agnostic: MLPs, CNNs, and future
 * attention graphs all execute as "for stage in stages: stage.forward".
 *
 * Execution model: LUT stages do no inline math. Each block of rows runs
 * the fused KernelBackend::forwardTile — encodeBatch (rows -> planar
 * centroid indices) straight into gatherAccumulate (indices ->
 * accumulated table rows) on the executing worker's own KernelScratch,
 * with no barrier between the phases — dispatched through the
 * lutboost::KernelBackend of the table precision chosen at plan time
 * (Float32 = bit-exact, Int8 / Int4 = quantized tables; held with the
 * rest of the stage's binding in LutStage), and then applies any
 * pointwise epilogue ops the planner fused in while the block's output is
 * still cache-hot. The two phase times are accumulated into StageScratch
 * for the per-lane stats (LaneStats encode/gather split); a block run by
 * a helper worker is credited to the batch that initiated it.
 *
 * Layout contract: a batch is always a [rows, width] row-major matrix of
 * floats. Spatial stages interpret each row as a flattened NCHW image
 * (the C*H*W geometry is baked into the stage at lowering time), which is
 * exactly the layout nn::Flatten produces — so flattening is a zero-cost
 * identity stage and conv/pool stages never reshape the batch dimension.
 *
 * Numerics contract: every stage reuses the nn:: eval-path math (shared
 * free functions, not copies) or the arena kernels behind the Float32
 * backend, so a lowered chain under the default plan is bit-exact with
 * eval-mode model->forward() — epilogue fusion reorders nothing, it only
 * moves where the same float ops run. Tests enforce this across
 * precisions. Int8 / Int4 table stages are deterministic but approximate.
 *
 * Thread safety: stages are immutable after construction; all mutable
 * state lives in the caller-owned StageScratch, so one FrozenModel can
 * run concurrent batches from many workers.
 */

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lutboost/kernels.h"
#include "lutboost/table_arena.h"
#include "tensor/im2col.h"

namespace lutdla::serve {

/** Defined below; forward-declared for ShardFn / IntraBatchPool. */
struct StageScratch;

/** One block of an intra-batch parallel pass: `block` indexes the block,
 * `scratch` is the EXECUTING worker's scratch (each participant brings
 * its own buffers; shared state is captured by the closure). */
using ShardFn = std::function<void(int64_t block, StageScratch &scratch)>;

/**
 * Intra-batch parallelism seam: the serving runtime (FrontDoor, which
 * also backs the single-model InferenceEngine) hands each worker's
 * StageScratch a pool pointer, and forEachBlock() splits a batch's row
 * blocks over it instead of sweeping the whole batch on one thread.
 * parallelFor() blocks until every block ran; the CALLER participates
 * (running blocks with `caller` scratch) while idle workers steal the
 * rest from a shared block queue, so progress never depends on another
 * worker being free.
 */
class IntraBatchPool
{
  public:
    virtual ~IntraBatchPool() = default;

    /** Run fn(block, scratch) for block in [0, blocks); returns when all
     * blocks completed. Safe to call only from a pool worker. */
    virtual void parallelFor(int64_t blocks, const ShardFn &fn,
                             StageScratch &caller) = 0;
};

/** Elementwise op a PointwiseStage applies — and, after fusion, the op an
 * arena-sweep epilogue applies in place of that stage. */
enum class PointwiseOp
{
    Relu,
    Gelu
};

/**
 * Per-worker reusable buffers for one in-flight batch: the ping-pong
 * activation planes the stage chain alternates between, the conv stage's
 * im2col and GEMM-output planes, the kernel backend's code buffers, and the
 * encode/gather phase-time accumulators the front door folds into each
 * batch's lane stats. Every pool worker owns one, so steady-state serving
 * performs no per-batch allocations once the buffers have grown to the
 * largest batch seen.
 */
struct StageScratch
{
    std::vector<float> ping;           ///< activation buffer A
    std::vector<float> pong;           ///< activation buffer B
    /** ConvStage planes, grow-only like ping/pong: the im2col patch rows
     * [rows * Ho * Wo, patchSize] and their LUT-GEMM output
     * [rows * Ho * Wo, C_out] before the NCHW reshape. */
    std::vector<float> conv_cols, conv_flat;
    lutboost::KernelScratch kernel;    ///< code planes + staging planes
    /**
     * Skip-edge planes, indexed by the slot a SkipSaveStage was lowered
     * with: saving copies the live activations ASIDE, out of the
     * ping-pong rotation, so any number of out-of-place stages may
     * alternate ping/pong before the matching ResidualAddStage reads the
     * plane back. Slots nest (transformer blocks reuse slot 0 and 1 in
     * sequence), and like ping/pong they grow once and are then reused.
     */
    std::vector<std::vector<float>> skip;
    /** Attention working planes (Q/K/V projections and the per-sequence
     * context accumulator), sized [rows, d_model] by AttentionStage. */
    std::vector<float> attn_q, attn_k, attn_v, attn_ctx;
    /** Attention probability rows [heads, T, T]; per-PARTICIPANT scratch
     * (each sequence block runs with its executing worker's plane). */
    std::vector<float> attn_probs;
    /** One head's K slice transposed to [d_head, T] for the AVX-512
     * attention core; per-participant like attn_probs. */
    std::vector<float> attn_k_t;
    /**
     * Tile-local activation planes for the row-tiled segment executor
     * (FrozenModel::forwardBatch): while a segment streams one row tile
     * through its stages, the intermediate planes live here at
     * [tile_rows, width] instead of full-batch size — ping/pong only
     * carry segment boundaries. This is where the per-worker steady-state
     * scratch shrink planSummary() reports comes from.
     */
    std::vector<float> tile_a, tile_b;
    uint64_t encode_ns = 0;            ///< accumulated encode-phase time
    uint64_t gather_ns = 0;            ///< accumulated gather-phase time
    /** Per-block (encode, gather) phase deltas of the forEachBlock this
     * scratch initiated: each block writes its own pair, whichever worker
     * ran it, and the initiator sums them into encode_ns / gather_ns.
     * Grow-only, like the planes. */
    std::vector<uint64_t> block_ns;
    /** Intra-batch worker pool (the front door's); null = single-threaded.
     * forEachBlock() nulls it inside a block, so blocks never nest. */
    IntraBatchPool *pool = nullptr;
};

/**
 * Grow-only plane sizing: resize `plane` only when it holds fewer than
 * `floats` elements, and return its data. A plane sized down for a
 * narrow stage and back up for a wide one would otherwise zero-fill the
 * regrown part on every batch; callers overwrite what they use.
 */
float *growPlane(std::vector<float> &plane, int64_t floats);

/**
 * The intra-batch block granularity in rows: one shuffle-gather chunk of
 * the runtime-dispatched tier (32 when no vector tier runs), so a block
 * never hands the vector kernels a partial chunk (which would fall back
 * to the scalar tail sweep).
 */
int64_t intraBatchBlockRows();

/** Defined below; forward-declared for StagePtr (FrozenStage::rebind
 * returns one). */
class FrozenStage;

/** Shared-ownership handle to an immutable stage. */
using StagePtr = std::shared_ptr<const FrozenStage>;

/**
 * One node of the serving stage graph. Implementations are immutable and
 * thread-safe; `forward` maps [rows, inWidth()] to [rows, outWidth()].
 * Width-preserving elementwise stages advertise inPlace() and implement
 * forwardInPlace() instead — the executor then mutates the current buffer
 * directly and skips a copy.
 */
class FrozenStage
{
  public:
    virtual ~FrozenStage() = default;

    /** Stage kind tag for error messages and plans, e.g. "conv". */
    virtual std::string kind() const = 0;

    /**
     * Human-readable node label for describe(): the kind plus any planner
     * decorations (fused epilogues, table precision), e.g.
     * "lut-gemm[int8]+relu". Defaults to kind().
     */
    virtual std::string description() const { return kind(); }

    /** Flat row width this stage consumes. */
    virtual int64_t inWidth() const = 0;

    /** Flat row width this stage produces. */
    virtual int64_t outWidth() const = 0;

    /** Table bytes the stage's gather streams (0 for non-LUT stages). */
    virtual int64_t tableBytes() const { return 0; }

    /**
     * Bytes the stage's ENCODE phase streams per full sweep: the
     * transposed float codebooks under Float32 encode, the INT8 encode
     * bank (quantized codebooks + centroid norms + grid parameters)
     * under Int8. 0 for non-LUT stages. Together with tableBytes() this
     * is the byte currency the joint (table, encode) auto-tuner descends
     * on (serve/autotune.h).
     */
    virtual int64_t encodeBytes() const { return 0; }

    /** Bytes resident for the stage's tables, mirror layouts included
     * (== tableBytes() for the float bank; 0 for non-LUT stages). */
    virtual int64_t residentBytes() const { return 0; }

    /** True when the stage mutates rows in place (inWidth==outWidth). */
    virtual bool inPlace() const { return false; }

    /**
     * True when the row-tiled segment executor may stream this stage one
     * row tile at a time: forward() must be row-independent AND touch
     * nothing outside the rows handed to it — no skip-edge planes
     * (SkipSave/ResidualAdd), no whole-sequence coupling (attention), no
     * batch-shaped internal scratch (conv's im2col plane). Stages that
     * return false are structural barriers: they execute full-batch and
     * partition the chain into the fusible segments the planner tiles.
     * Defaults to false so future stages are barriers until proven
     * tileable.
     */
    virtual bool rowTileable() const { return false; }

    /**
     * Rows one gather sweep of this stage's tables covers (see
     * KernelBackend::gatherGranuleRows); tiling below this granule adds
     * whole extra table sweeps per batch. 1 for glue stages — any tile
     * size is free for them.
     */
    virtual int64_t tileGranuleRows() const { return 1; }

    /**
     * Per-row kernel-scratch bytes a tile of this stage streams beyond
     * its in/out planes (the centroid code bytes); input to the
     * planner's tile-size model. 0 for glue stages.
     */
    virtual int64_t tileScratchBytesPerRow() const { return 0; }

    /**
     * LUT stages only: a copy of this stage bound to `backend` and to
     * `encode` (resolved against the stage's arenas), with `epilogue`
     * appended to its own fused epilogue. The planner binds every LUT
     * stage through this one call, so binding an already-planned chain
     * again changes nothing it did not ask for. Null for glue stages.
     */
    virtual StagePtr
    rebind(const lutboost::KernelBackend & /*backend*/,
           lutboost::EncodePrecision /*encode*/,
           const std::vector<PointwiseOp> & /*epilogue*/) const
    {
        return nullptr;
    }

    /**
     * LUT stages only: the arena whose code width and kernel tags the
     * stage's StagePlan records (attention reports its Q projection; the
     * four share shape and dispatch). Null for glue stages, which is how
     * the planner tells the two apart.
     */
    virtual const lutboost::LutTableArena *planArena() const
    {
        return nullptr;
    }

    /** The RESOLVED encode precision: Int8 only when the stage's arenas
     * support the quantized encode bank; Float32 otherwise and for glue
     * stages. */
    virtual lutboost::EncodePrecision
    encodePrecision() const
    {
        return lutboost::EncodePrecision::Float32;
    }

    /** Rows per intra-batch block when the stage splits a batch over the
     * pool (intraBatchBlockRows()); 0 = the stage never splits one. */
    virtual int64_t blockRows() const { return 0; }

    /**
     * Out-of-place execution: read [rows, inWidth()] from `in`, write
     * [rows, outWidth()] to `out` (caller-sized; never aliases `in`).
     * In-place stages inherit this adapter, which copies then mutates.
     */
    virtual void forward(const float *in, int64_t rows, float *out,
                         StageScratch &scratch) const;

    /** In-place execution; only called when inPlace() is true. Skip-edge
     * stages read/write scratch.skip; pure elementwise stages ignore it. */
    virtual void forwardInPlace(float *data, int64_t rows,
                                StageScratch &scratch) const;
};

/** Apply fused pointwise epilogue ops to `total` contiguous floats. */
void applyPointwiseOps(const std::vector<PointwiseOp> &ops, float *data,
                       int64_t total);

/**
 * The one intra-batch parallel unit: run fn(block, local) for every block
 * in [0, blocks) — over `scratch.pool` when it is set and there are at
 * least two blocks, else serially on `scratch`. Inside a block
 * `local.pool` is null, so blocks never nest. Every block's encode_ns /
 * gather_ns delta is credited to `scratch`, whichever worker ran it (the
 * executing worker's own counters are left as they were), so a batch's
 * phase stats cover all of its blocks. The tiled executor's row tiles,
 * arenaGemmForward's row blocks and AttentionStage's sequences all run
 * through it.
 */
void forEachBlock(StageScratch &scratch, int64_t blocks, const ShardFn &fn);

/**
 * The arena LUT-GEMM execution body shared by ArenaStage and
 * AttentionStage's four projection GEMMs: encode `in` ([rows, in_width],
 * 0 = arena K; see LutTableArena::encodeBatch) and gather into `out`
 * ([rows, arena N]) through `backend`'s fused
 * forwardTile, applying `epilogue` on the output while it is cache-hot,
 * with phase times accumulated into scratch.encode_ns / gather_ns. When
 * `scratch.pool` is set, batches of at least two blocks split into
 * intraBatchBlockRows()-row blocks through forEachBlock; each
 * block runs the whole tile (encode, gather, epilogue) on its worker's
 * own KernelScratch, so there is no full-batch barrier and no shared
 * code buffer, and the result is bit-exact with the single-block sweep.
 * `encode` picks the encode-phase arithmetic (see
 * lutboost::EncodePrecision); every block routes it identically, so the
 * choice never depends on batch size.
 */
void arenaGemmForward(
    const lutboost::LutTableArena &arena,
    const lutboost::KernelBackend &backend, const float *in, int64_t rows,
    float *out, const std::vector<PointwiseOp> &epilogue,
    StageScratch &scratch,
    lutboost::EncodePrecision encode = lutboost::EncodePrecision::Float32,
    int64_t in_width = 0);

/**
 * The binding every LUT stage kind shares, over the stage's `N` frozen
 * arenas (one for ArenaStage and ConvStage; Q, K, V and output for
 * AttentionStage): the kernel backend and RESOLVED encode precision the
 * planner bound them to, and the fused pointwise epilogue. The encode
 * request resolves all-or-nothing across the arenas
 * (lutboost::resolveEncode on each): Int8 only when every arena supports
 * the quantized encode bank, Float32 otherwise, exactly as the planner
 * records it. Construction prepares every arena for the binding
 * (KernelBackend::prepare), so serving never pays a lazy bank build. The
 * description suffix and the byte accounting are defined here once,
 * summed over the arenas. The arenas live inline, so a stage is one
 * allocation.
 */
template <size_t N>
class LutStage : public FrozenStage
{
  public:
    int64_t tableBytes() const override;
    int64_t encodeBytes() const override;
    int64_t residentBytes() const override;
    const lutboost::LutTableArena *
    planArena() const override
    {
        return arenas_.front().get();
    }
    lutboost::EncodePrecision
    encodePrecision() const override
    {
        return encode_;
    }

    /** The kernel backend the planner chose. */
    const lutboost::KernelBackend &backend() const { return *backend_; }

  protected:
    /** The stage's arenas, none null. */
    using ArenaArray =
        std::array<std::shared_ptr<const lutboost::LutTableArena>, N>;

    /** Bind `arenas` to `backend` (null = the bit-exact float32
     * backend), `epilogue` and `encode`. */
    LutStage(ArenaArray arenas, const lutboost::KernelBackend *backend,
             std::vector<PointwiseOp> epilogue,
             lutboost::EncodePrecision encode);

    /** `base` plus the binding suffix: "[int8]" / "[int4]" off the float
     * bank, "[enc:int8]" under Int8 encode, then "+relu" / "+gelu" per
     * fused epilogue op, e.g. "lut-gemm[int8][enc:int8]+relu". */
    std::string describe(std::string base) const;

    /** This stage's fused epilogue followed by `appended` (rebind). */
    std::vector<PointwiseOp>
    epilogueWith(const std::vector<PointwiseOp> &appended) const;

    ArenaArray arenas_;
    const lutboost::KernelBackend *backend_;
    std::vector<PointwiseOp> epilogue_;
    lutboost::EncodePrecision encode_;
};

// Defined in stage.cc for the two arena counts the stage kinds use.
extern template class LutStage<1>;
extern template class LutStage<4>;

/**
 * Arena-backed LUT-GEMM stage (lowered LutLinear): encode -> gather
 * through the planned kernel backend, then any fused epilogue. The
 * optional `adapt_in_width` is the trace models' width adapt
 * (FrozenModel::fromTrace, whose consecutive GEMM widths need not chain):
 * the stage then consumes `adapt_in_width`-wide rows, which its encode
 * reads in place as if cyclically replicated to the arena width K —
 * column j is input column j % adapt_in_width, truncating when
 * K < adapt_in_width — preserving each traced layer's true gather
 * workload with no copy. When the executing scratch carries an
 * IntraBatchPool, batches of at least two intraBatchBlockRows() blocks
 * split into row blocks that each run encode -> gather -> epilogue on
 * their worker's own scratch (see arenaGemmForward) — bit-exact with the
 * single-thread sweep because rows are independent.
 *
 * `encode` picks the encode-phase arithmetic, resolved as LutStage
 * describes.
 */
class ArenaStage : public LutStage<1>
{
  public:
    explicit ArenaStage(
        std::shared_ptr<const lutboost::LutTableArena> arena,
        const lutboost::KernelBackend *backend = nullptr,
        std::vector<PointwiseOp> epilogue = {},
        int64_t adapt_in_width = 0,
        lutboost::EncodePrecision encode =
            lutboost::EncodePrecision::Float32);

    std::string kind() const override { return "lut-gemm"; }
    std::string description() const override;
    int64_t
    inWidth() const override
    {
        return adapt_in_ > 0 ? adapt_in_ : arena()->inFeatures();
    }
    int64_t outWidth() const override { return arena()->outFeatures(); }
    void forward(const float *in, int64_t rows, float *out,
                 StageScratch &scratch) const override;

    /** Rows are independent (encode and gather are both per-row), so the
     * streaming executor may tile the stage freely. */
    bool rowTileable() const override { return true; }
    int64_t tileGranuleRows() const override;
    int64_t tileScratchBytesPerRow() const override;
    StagePtr rebind(const lutboost::KernelBackend &backend,
                    lutboost::EncodePrecision encode,
                    const std::vector<PointwiseOp> &epilogue) const override;
    int64_t blockRows() const override { return intraBatchBlockRows(); }

    /** The frozen arena this stage gathers from. */
    const std::shared_ptr<const lutboost::LutTableArena> &
    arena() const
    {
        return arenas_.front();
    }

    /** Width-adapt input width (0 when absent). */
    int64_t adaptInWidth() const { return adapt_in_; }

  private:
    int64_t adapt_in_;
};

/**
 * Im2col-lowered convolution stage (lowered LutConv2d): fixed input
 * geometry (C, H, W baked in at lowering time), batched im2col into the
 * scratch's conv planes, one KernelBackend::forwardTile over every patch
 * row of the batch through the planned backend, NCHW reshape, then any
 * fused epilogue (elementwise, so it commutes with the reshape). Rows
 * are flattened NCHW images. Phase times: im2col counts as encode,
 * reshape and epilogue as gather.
 */
class ConvStage : public LutStage<1>
{
  public:
    ConvStage(ConvGeometry geom, int64_t height, int64_t width,
              std::shared_ptr<const lutboost::LutTableArena> arena,
              const lutboost::KernelBackend *backend = nullptr,
              std::vector<PointwiseOp> epilogue = {},
              lutboost::EncodePrecision encode =
                  lutboost::EncodePrecision::Float32);

    std::string kind() const override { return "conv"; }
    std::string description() const override;
    int64_t
    inWidth() const override
    {
        return geom_.in_channels * h_ * w_;
    }
    int64_t
    outWidth() const override
    {
        return geom_.out_channels * geom_.outSize(h_) * geom_.outSize(w_);
    }
    void forward(const float *in, int64_t rows, float *out,
                 StageScratch &scratch) const override;

    /** Conv stages are segment barriers for the row-tiled executor (the
     * inherited rowTileable() == false): the im2col expansion reshapes
     * the working set into a batch-shaped scratch plane whose patch rows
     * outnumber the batch rows, so the planner's row-tile size model does
     * not describe it. The stage runs one tile per batch and never
     * splits a batch over the pool (the inherited blockRows() == 0: the
     * im2col plane is shared). */
    StagePtr rebind(const lutboost::KernelBackend &backend,
                    lutboost::EncodePrecision encode,
                    const std::vector<PointwiseOp> &epilogue) const override;

  private:
    ConvGeometry geom_;
    int64_t h_, w_;
};

/** Pointwise activation stage (lowered ReLU / GELU); in place. */
class PointwiseStage : public FrozenStage
{
  public:
    /** Which nn:: eval function the stage applies. */
    using Op = PointwiseOp;

    PointwiseStage(Op op, int64_t width) : op_(op), width_(width) {}

    std::string
    kind() const override
    {
        return op_ == Op::Relu ? "relu" : "gelu";
    }
    int64_t inWidth() const override { return width_; }
    int64_t outWidth() const override { return width_; }
    bool inPlace() const override { return true; }
    bool rowTileable() const override { return true; }
    void forwardInPlace(float *data, int64_t rows,
                        StageScratch &scratch) const override;

    /** The elementwise op this stage applies (read by the fusion pass). */
    Op op() const { return op_; }

  private:
    Op op_;
    int64_t width_;
};

/**
 * Flatten marker stage: NCHW rows are already stored flat, so this is an
 * identity — it exists so describe() shows the spatial->flat transition
 * and widths keep chaining through the graph.
 */
class FlattenStage : public FrozenStage
{
  public:
    explicit FlattenStage(int64_t width) : width_(width) {}

    std::string kind() const override { return "flatten"; }
    int64_t inWidth() const override { return width_; }
    int64_t outWidth() const override { return width_; }
    bool inPlace() const override { return true; }
    bool rowTileable() const override { return true; }
    void
    forwardInPlace(float *, int64_t, StageScratch &) const override
    {
    }

  private:
    int64_t width_;
};

/** Non-overlapping max-pool stage (lowered MaxPool2d). */
class MaxPoolStage : public FrozenStage
{
  public:
    MaxPoolStage(int64_t channels, int64_t height, int64_t width,
                 int64_t kernel)
        : c_(channels), h_(height), w_(width), k_(kernel)
    {
    }

    std::string kind() const override { return "maxpool"; }
    int64_t inWidth() const override { return c_ * h_ * w_; }
    int64_t
    outWidth() const override
    {
        return c_ * (h_ / k_) * (w_ / k_);
    }
    bool rowTileable() const override { return true; }
    void forward(const float *in, int64_t rows, float *out,
                 StageScratch &scratch) const override;

  private:
    int64_t c_, h_, w_, k_;
};

/** Global-average-pool stage (lowered GlobalAvgPool): NCHW -> [C]. */
class GlobalAvgPoolStage : public FrozenStage
{
  public:
    GlobalAvgPoolStage(int64_t channels, int64_t height, int64_t width)
        : c_(channels), h_(height), w_(width)
    {
    }

    std::string kind() const override { return "gpool"; }
    int64_t inWidth() const override { return c_ * h_ * w_; }
    int64_t outWidth() const override { return c_; }
    bool rowTileable() const override { return true; }
    void forward(const float *in, int64_t rows, float *out,
                 StageScratch &scratch) const override;

  private:
    int64_t c_, h_, w_;
};

/**
 * Frozen batch-norm stage (lowered BatchNorm2d): an immutable snapshot
 * of the layer's running statistics and affine parameters, applied with
 * the same nn::batchNorm2dEval kernel the live layer uses in eval mode.
 */
class BatchNormStage : public FrozenStage
{
  public:
    BatchNormStage(std::vector<float> mean, std::vector<float> var,
                   std::vector<float> gamma, std::vector<float> beta,
                   float eps, int64_t height, int64_t width)
        : mean_(std::move(mean)), var_(std::move(var)),
          gamma_(std::move(gamma)), beta_(std::move(beta)), eps_(eps),
          h_(height), w_(width)
    {
    }

    std::string kind() const override { return "batchnorm"; }
    int64_t
    inWidth() const override
    {
        return static_cast<int64_t>(mean_.size()) * h_ * w_;
    }
    int64_t outWidth() const override { return inWidth(); }
    bool inPlace() const override { return true; }
    bool rowTileable() const override { return true; }
    void forwardInPlace(float *data, int64_t rows,
                        StageScratch &scratch) const override;

  private:
    std::vector<float> mean_, var_, gamma_, beta_;
    float eps_;
    int64_t h_, w_;
};

/**
 * Frozen layer-norm stage (lowered LayerNorm): snapshot of gamma/beta,
 * applied with the shared nn::layerNormForward kernel.
 */
class LayerNormStage : public FrozenStage
{
  public:
    LayerNormStage(std::vector<float> gamma, std::vector<float> beta,
                   float eps)
        : gamma_(std::move(gamma)), beta_(std::move(beta)), eps_(eps)
    {
    }

    std::string kind() const override { return "layernorm"; }
    int64_t
    inWidth() const override
    {
        return static_cast<int64_t>(gamma_.size());
    }
    int64_t outWidth() const override { return inWidth(); }
    bool inPlace() const override { return true; }
    bool rowTileable() const override { return true; }
    void forwardInPlace(float *data, int64_t rows,
                        StageScratch &scratch) const override;

  private:
    std::vector<float> gamma_, beta_;
    float eps_;
};

} // namespace lutdla::serve

#endif // LUTDLA_SERVE_STAGE_H
