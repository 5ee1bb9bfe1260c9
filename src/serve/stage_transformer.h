#ifndef LUTDLA_SERVE_STAGE_TRANSFORMER_H
#define LUTDLA_SERVE_STAGE_TRANSFORMER_H

/**
 * @file
 * Transformer stages and the skip-edge IR extension of the serving stage
 * graph (serve/stage.h).
 *
 * Skip edges: the stage chain stays an ordered list, but a
 * SkipSaveStage / ResidualAddStage pair threads a DAG edge through it —
 * save copies the live activation plane ASIDE into a numbered slot of the
 * worker's StageScratch (out of the ping-pong rotation), any number of
 * stages transform the trunk, and the matching add folds the saved plane
 * back in elementwise. Slots are assigned by nesting depth at lowering
 * time, so transformer blocks (two sequential skip edges) and nested
 * residual graphs reuse the same two or three planes across the whole
 * chain, and steady-state batches still allocate nothing once the planes
 * have grown. Because the saved plane is row-disjoint scratch per worker,
 * intra-batch sharding needs no extra synchronization: shards of the add
 * touch disjoint rows of both the trunk and the slot.
 *
 * Fusion constraint: a skip edge is a barrier. The planner never folds a
 * pointwise stage across a SkipSaveStage or ResidualAddStage, because the
 * folded op would then run before the save (changing what the skip edge
 * carries) or before the add (changing the trunk the residual lands on).
 * This falls out structurally — epilogue collection stops at the first
 * non-PointwiseStage — and tests pin it.
 *
 * AttentionStage runs the paper's transformer workload on the LUT data
 * plane: the Q/K/V/output projections are four arena LUT-GEMMs (the same
 * encode -> gather kernels as ArenaStage, sharded over the serving
 * worker pool), while the scaled-dot-product core reuses the exact
 * nn::attentionSequenceContext kernel — stable softmax included, and
 * SIMD-tiered with identical bits at every tier — that eval-mode
 * MultiHeadSelfAttention runs, so a lowered block is bit-exact
 * with the training graph under the Float32 backend. Sequences are
 * independent, so the sdpa core shards over sequences (disjoint context
 * rows) and stays bit-exact under any worker count.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/stage.h"

namespace lutdla::serve {

/**
 * Skip-edge source: copies the live [rows, width] plane into
 * scratch.skip[slot] and passes the trunk through unchanged. Lowered at
 * the entry of a residual connection; the matching ResidualAddStage
 * carries the same slot. In-place (identity on the trunk).
 */
class SkipSaveStage : public FrozenStage
{
  public:
    SkipSaveStage(int64_t width, int64_t slot)
        : width_(width), slot_(slot)
    {
    }

    std::string kind() const override { return "skip-save"; }
    std::string description() const override;
    int64_t inWidth() const override { return width_; }
    int64_t outWidth() const override { return width_; }
    bool inPlace() const override { return true; }
    /** Segment barrier for the row-tiled executor: the save writes a
     * full-batch plane into scratch.skip that the matching add reads
     * back after arbitrarily many stages, so the edge's lifetime spans
     * stages — a tile cannot carry it through the segment. */
    bool rowTileable() const override { return false; }
    void forwardInPlace(float *data, int64_t rows,
                        StageScratch &scratch) const override;

    /** Scratch slot the saved plane lives in (matched by the add). */
    int64_t slot() const { return slot_; }

  private:
    int64_t width_;
    int64_t slot_;
};

/**
 * Skip-edge sink: adds scratch.skip[slot] (saved by the matching
 * SkipSaveStage) elementwise into the live [rows, width] plane — the
 * same trunk-plus-skip order the nn:: residual forwards run, so the
 * lowered edge is bit-exact. In-place.
 */
class ResidualAddStage : public FrozenStage
{
  public:
    ResidualAddStage(int64_t width, int64_t slot)
        : width_(width), slot_(slot)
    {
    }

    std::string kind() const override { return "residual-add"; }
    std::string description() const override;
    int64_t inWidth() const override { return width_; }
    int64_t outWidth() const override { return width_; }
    bool inPlace() const override { return true; }
    /** Segment barrier: reads the skip plane its SkipSaveStage partner
     * saved (see that stage's note). */
    bool rowTileable() const override { return false; }
    void forwardInPlace(float *data, int64_t rows,
                        StageScratch &scratch) const override;

    /** Scratch slot the saved plane is read from. */
    int64_t slot() const { return slot_; }

  private:
    int64_t width_;
    int64_t slot_;
};

/**
 * Row-wise softmax stage (lowered nn::Softmax): the shared numerically
 * stable nn::softmaxForward kernel (row-max subtraction), applied in
 * place. Never fused into arena epilogues — softmax is row-coupled, not
 * pointwise.
 */
class SoftmaxStage : public FrozenStage
{
  public:
    explicit SoftmaxStage(int64_t width) : width_(width) {}

    std::string kind() const override { return "softmax"; }
    int64_t inWidth() const override { return width_; }
    int64_t outWidth() const override { return width_; }
    bool inPlace() const override { return true; }
    /** Softmax couples columns WITHIN a row, never across rows, so the
     * row-tiled executor may stream it (unlike arena epilogue fusion,
     * which it is excluded from for not being pointwise). */
    bool rowTileable() const override { return true; }
    void forwardInPlace(float *data, int64_t rows,
                        StageScratch &scratch) const override;

  private:
    int64_t width_;
};

/**
 * Multi-head self-attention stage (lowered MultiHeadSelfAttention): four
 * frozen projection arenas (Q, K, V, output) run as LUT-GEMMs through
 * the planned kernel backend, with the scaled-dot-product + stable
 * softmax core between them executed by the shared
 * nn::attentionSequenceContext kernel per sequence. Batches must be
 * whole sequences ([B * seq_len, d_model] rows); the front door enforces
 * this at admission via FrozenModel::rowGroup(). When the executing
 * scratch carries an IntraBatchPool, the projection GEMMs split into row
 * blocks (each a fused encode -> gather tile) and the sdpa core into one
 * block per sequence, all through forEachBlock — bit-exact with the
 * single-thread sweep. The planner may fuse a pointwise epilogue into
 * the output projection.
 */
class AttentionStage : public LutStage<4>
{
  public:
    /** One frozen projection arena per Q/K/V/output. */
    struct Arenas
    {
        std::shared_ptr<const lutboost::LutTableArena> q, k, v, o;
    };

    AttentionStage(Arenas arenas, int64_t seq_len, int64_t heads,
                   const lutboost::KernelBackend *backend = nullptr,
                   std::vector<PointwiseOp> epilogue = {},
                   lutboost::EncodePrecision encode =
                       lutboost::EncodePrecision::Float32);

    std::string kind() const override { return "attention"; }
    std::string description() const override;
    int64_t inWidth() const override { return arenas_[kQ]->inFeatures(); }
    int64_t outWidth() const override { return arenas_[kO]->outFeatures(); }
    /** Segment barrier: the sdpa core couples all rowGroup() == seq_len
     * rows of a sequence (every context row reads every K/V row), so the
     * stage needs whole sequences and full-batch projection planes — it
     * executes between tiled segments, never inside one. */
    bool rowTileable() const override { return false; }
    void forward(const float *in, int64_t rows, float *out,
                 StageScratch &scratch) const override;
    StagePtr rebind(const lutboost::KernelBackend &backend,
                    lutboost::EncodePrecision encode,
                    const std::vector<PointwiseOp> &epilogue) const override;
    int64_t blockRows() const override { return intraBatchBlockRows(); }

  private:
    /** Index of each projection in the bound arenas (planArena() is Q;
     * the four share shape and dispatch). */
    enum Projection : size_t
    {
        kQ,
        kK,
        kV,
        kO
    };

    int64_t seq_len_;
    int64_t heads_;
    int64_t d_model_;
};

} // namespace lutdla::serve

#endif // LUTDLA_SERVE_STAGE_TRANSFORMER_H
