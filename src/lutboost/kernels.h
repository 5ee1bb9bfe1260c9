#ifndef LUTDLA_LUTBOOST_KERNELS_H
#define LUTDLA_LUTBOOST_KERNELS_H

/**
 * @file
 * The precision-pluggable kernel backend behind the serving data plane.
 *
 * A frozen LUT layer executes in two phases — encode (argmin each row's
 * subvectors against the codebooks, producing planar centroid indices)
 * and gather (accumulate the indexed PSum table rows into the output) —
 * and KernelBackend is the seam where the precision of each phase is
 * chosen. There is one backend per TablePrecision, KernelBackend::of():
 *
 *  - Float32: float table bank; with the default Float32 encode it is
 *    bit-exact with eval-mode LutLinear::forward (the numerics contract
 *    every serving test pins).
 *  - Int8: gather over the arena's INT8-quantized bank (per-(subspace,
 *    output-block) symmetric scales, ~4x less table traffic).
 *    Approximate — docs/SERVING.md documents the error envelope, and
 *    tests bound top-1 disagreement.
 *  - Int4: gather over the nibble-packed INT4 bank (two output columns
 *    per byte, ~8x less traffic than float). Coarser still; the
 *    per-stage mixed-precision auto-tuner (serve/autotune.h) decides
 *    where it is safe.
 *
 * The ENCODE phase has its own, orthogonal precision axis
 * (EncodePrecision below): every backend defaults to the exact float
 * argmin, and any backend can instead run the INT8 integer argmin over
 * the arena's quantized encode bank — the planner picks per stage, and
 * the auto-tuner searches the joint (table, encode) space.
 *
 * Backends are immutable singletons; all mutable per-batch state lives
 * in the caller-owned KernelScratch, so one backend serves every worker
 * thread concurrently. Serving stages (serve/stage.h) hold a backend
 * pointer chosen by the lowering-time planner (serve/plan.h) and emit
 * encodeBatch/gatherAccumulate calls instead of doing inline math.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "lutboost/table_arena.h"
#include "vq/code_buffer.h"

namespace lutdla::lutboost {

/**
 * Issue software prefetches for the first `bytes` of `p` (one per cache
 * line, read-intent, moderate temporal locality). The row-tiled segment
 * executor uses this to pull the NEXT tile's input rows toward L1/L2
 * while the current tile is still streaming through the segment, hiding
 * the cold-plane latency the full-batch executor paid at every stage
 * boundary. Callers cap `bytes` — prefetching beyond a few tens of KB
 * just evicts what the current tile is using.
 */
inline void
prefetchSpan(const void *p, int64_t bytes)
{
#if defined(__GNUC__) || defined(__clang__)
    const char *line = static_cast<const char *>(p);
    for (int64_t off = 0; off < bytes; off += 64)
        __builtin_prefetch(line + off, 0, 2);
#else
    (void)p;
    (void)bytes;
#endif
}

/**
 * Reusable per-caller buffers for one in-flight batch of kernel calls:
 * the planar code buffer the encode phase fills and the gather phase
 * reads, plus the encode-side scratch (BF16 staging, per-subspace code
 * block, padded subspace) and the gather-side scratch (row-major tail
 * codes, shuffle accumulators). Owned by the serving StageScratch so
 * steady-state batches perform no allocations. Nothing here is shared
 * between workers: when a batch is split into row blocks, each block
 * encodes into and gathers from its executing worker's own
 * KernelScratch.
 */
struct KernelScratch
{
    vq::CodeBuffer codes;  ///< planar [Nc, planeStride] indices
    EncodeScratch encode;  ///< staging + per-subspace encode buffers
    GatherScratch gather;  ///< row-major tail codes / colmajor
};

/**
 * Precision of the ENCODE phase, orthogonal to the backend's gather
 * precision: Float32 is the bit-exact argmin every numerics contract
 * pins; Int8 runs the integer argmin over the arena's quantized encode
 * bank (VNNI/AVX2 tiers, ~4x less codebook traffic) and carries a top-1
 * agreement envelope instead. Lives here rather than in serve/plan.h so
 * the lutboost layer needs no serve dependency; the serving planner
 * re-exports it (serve::EncodePrecision) and resolves per-stage choices.
 */
enum class EncodePrecision
{
    Float32,  ///< exact float argmin (default; bit-exact contract)
    Int8      ///< integer argmin over the INT8 encode bank (L2 only)
};

/** Stable tag for plans and reports: "float32" / "int8". */
const char *encodePrecisionName(EncodePrecision precision);

/**
 * Precision of the GATHER phase: which of the arena's table banks a LUT
 * layer reads. Lives here, next to EncodePrecision, so the lutboost layer
 * needs no serve dependency; the serving planner re-exports it
 * (serve::TablePrecision) and binds it per stage.
 */
enum class TablePrecision
{
    Float32,  ///< bit-exact float bank
    Int8,     ///< INT8 bank with per-(subspace, block) scales
    Int4      ///< nibble-packed INT4 bank, two columns per byte
};

/** Stable tag for plans and reports: "float32" / "int8" / "int4". */
const char *tablePrecisionName(TablePrecision precision);

/**
 * The encode precision `arena` runs for a `requested` one: Int8 only when
 * the arena supports the quantized encode bank (L2 metric), Float32
 * otherwise. Unsupported requests fall back to the exact float argmin
 * rather than faulting; serving stages resolve their binding with it,
 * and encodeBatch routes every call through it.
 */
EncodePrecision resolveEncode(const LutTableArena &arena,
                              EncodePrecision requested);

/**
 * The encode -> gather execution of a frozen LUT layer at one table
 * precision. One immutable instance exists per TablePrecision
 * (KernelBackend::of); per-batch state lives in the caller's
 * KernelScratch, so every method is thread-safe.
 */
class KernelBackend
{
  public:
    /** The backend that gathers from `precision`'s table bank. */
    static const KernelBackend &of(TablePrecision precision);

    /** Stable backend tag for plans and reports, e.g. "float32". */
    std::string name() const { return tablePrecisionName(precision_); }

    /** True when gather runs over the bit-exact float bank. */
    bool bitExact() const { return precision_ == TablePrecision::Float32; }

    /**
     * Encode phase: argmin-encode `rows` rows of `x` (`width` floats,
     * 0 = K, read as LutTableArena::encodeBatch does) into scratch.codes
     * at the arena's code width. Applies the arena's BF16 input rounding
     * via scratch.encode.staging. `encode` selects the argmin
     * arithmetic, resolved against the arena (resolveEncode): Float32 is
     * the exact scan; Int8 routes through the arena's quantized encode
     * bank. The same for every table precision.
     */
    void encodeBatch(const LutTableArena &arena, const float *x,
                     int64_t rows, KernelScratch &scratch,
                     EncodePrecision encode = EncodePrecision::Float32,
                     int64_t width = 0) const;

    /**
     * Gather phase: accumulate the table rows scratch.codes selects into
     * `y` ([scratch.codes.rows(), arena.outFeatures()]), bias included,
     * over this backend's table bank.
     */
    void gatherAccumulate(const LutTableArena &arena, KernelScratch &scratch,
                          float *y) const;

    /**
     * Fused tile entry point, the one unit of serving work: encode `rows`
     * contiguous `width`-float rows of `x` (see encodeBatch) and
     * immediately gather them into `y` in one call, so the tile's code
     * planes never leave cache between the phases. The row-tiled segment
     * executor runs it per tile and serve::arenaGemmForward per row
     * block, each on the executing worker's own `scratch`. Phase wall
     * times are accumulated into *encode_ns / *gather_ns (either may be
     * null). Bit-exact with a separate
     * encodeBatch + gatherAccumulate pair by construction — it IS that
     * pair, minus the full-batch barrier between them.
     */
    void forwardTile(const LutTableArena &arena, const float *x,
                     int64_t rows, float *y, KernelScratch &scratch,
                     uint64_t *encode_ns, uint64_t *gather_ns,
                     EncodePrecision encode = EncodePrecision::Float32,
                     int64_t width = 0) const;

    /**
     * Rows one full sweep of this backend's table bank covers: kRowBlock
     * (256) for the float bank's grouped sweep and for the scalar
     * quantized paths, one shuffle-gather chunk for the vectorized
     * banks (64 for INT8 on VBMI+VNNI and INT4 on AVX-512, 32 for INT4
     * on AVX2). Row tiles that are a
     * multiple of this granule add NO extra table traffic versus the
     * untiled sweep — the planner's tile-size model rounds to it.
     */
    int64_t gatherGranuleRows(const LutTableArena &arena) const;

    /** Bytes the gather phase streams per full table sweep. */
    int64_t tableBytes(const LutTableArena &arena) const;

    /**
     * Bytes the backend keeps RESIDENT for this arena — the gather
     * stream plus any CPU-capability-gated mirror layouts (interleaved
     * shuffle banks, VNNI quads). == tableBytes() for the float bank.
     */
    int64_t residentBytes(const LutTableArena &arena) const;

    /**
     * One-time lowering hook: build the table bank the gather phase
     * reads and, when `encode` resolves to Int8 on this arena, the INT8
     * encode bank, so serving never pays either cost.
     */
    void prepare(const LutTableArena &arena,
                 EncodePrecision encode = EncodePrecision::Float32) const;

  private:
    explicit KernelBackend(TablePrecision precision)
        : precision_(precision)
    {
    }

    TablePrecision precision_;
};

} // namespace lutdla::lutboost

#endif // LUTDLA_LUTBOOST_KERNELS_H
