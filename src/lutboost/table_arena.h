#ifndef LUTDLA_LUTBOOST_TABLE_ARENA_H
#define LUTDLA_LUTBOOST_TABLE_ARENA_H

/**
 * @file
 * LutTableArena: one frozen LUT layer packed into a single contiguous
 * allocation — per-subspace codebooks, the precomputed PSum table, and the
 * bias, in that order — plus the encode and gather kernels that run on
 * it.
 *
 * Rationale: LutLinear's training-time state scatters the tables the
 * inference path needs across several heap objects (one Tensor per codebook
 * inside ProductQuantizer, a separate table Tensor inside LookupTable, the
 * bias parameter). Serving wants the opposite: everything the gather loop
 * touches in one flat arena so a batch of rows sweeps each subspace's table
 * bank while it is hot in L1/L2, instead of chasing per-layer allocations
 * row by row. The arena is immutable after construction, which is what
 * makes the batched kernels safe to call from many threads at once.
 *
 * Execution model: inference splits into two phases the serving data plane
 * drives separately (see lutboost/kernels.h for the pluggable dispatch):
 *  - encode: `encodeBatch` / `encodeBatchInt8` argmin-encode rows into the
 *    planar vq::CodeBuffer, one contiguous block of codes per subspace
 *    (BF16 input rounding applied when the arena demands it). L2 arenas
 *    with 2 <= c <= 64 dispatch to the runtime-selected SIMD argmin
 *    (lutboost/kernels_simd.h).
 *  - gather: `gatherAccumulate` sweeps the float table bank,
 *    `gatherAccumulateInt8` sweeps the INT8-quantized bank, and
 *    `gatherAccumulateInt4` sweeps the nibble-packed INT4 bank. For
 *    c <= 16 the quantized gathers run as an in-register shuffle lookup
 *    against the bank's one interleaved layout — INT8 as VPERMB +
 *    VPDPBUSD over 64-row chunks on AVX-512 VBMI+VNNI hosts, INT4 as
 *    VPSHUFB plus one unpack-and-shift per lookup over 64-row (AVX-512)
 *    or 32-row (AVX2) chunks — reading the code planes in place and
 *    transposing each chunk's column-major partials out with a SIMD
 *    register transpose; otherwise a scalar group sweep runs, and so do
 *    the row tails too short for a chunk — for INT4 on the shuffle
 *    tiers through its SIMD twin (simd::sweepInt4Rows), which sums the
 *    nibbles of each group in u8 lanes. All paths of one bank share
 *    exact integer accumulation
 *    under per-(subspace-group, column-block) scales, so every tier
 *    of a bank is bit-identical by construction.
 * Tier selection: every encode and gather takes a trailing
 * `util::SimdLevel level` cap, the convention of nn/simd_math and the
 * simd:: kernels. It defaults to util::simdLevel(), the host's best,
 * which LUTDLA_SIMD caps for the whole process. A call runs the best
 * tier its arena shape allows at or below the cap, so a SIMD cap on a
 * shape with no SIMD tier runs the scalar reference; a cap above
 * util::simdLevel() is a checked error. Each kernel family has one
 * resolver from (arena shape, cap) to the level it runs at —
 * encodeLevel, int8EncodeLevel, int8GatherLevel, int4GatherLevel —
 * and it is the only place that family's shape rule lives: the kernels,
 * the bank builders' mirrors, KernelBackend::gatherGranuleRows and the
 * serving plan's kernel tags all ask it.
 * Both phases work on whole code buffers: an encode fills one from row
 * 0, a gather reads all of its rows. The serving runtime splits a batch
 * by handing each worker its own contiguous block of input rows, its own
 * CodeBuffer and its own slice of the output, never a span of a shared
 * buffer.
 * KernelBackend::forwardTile (lutboost/kernels.h) fuses one encode and one
 * gather per row tile; it is the only caller the serving stages use.
 *
 * Numerics contract: the reference is eval-mode LutLinear::forward. A
 * float encode followed by the float gather is bit-exact with it (encode
 * with the same argminCentroid, accumulate partial sums in ascending
 * subspace order into a zero-initialized output, add the bias last).
 * Tests enforce this through KernelBackend::forwardTile and the serving
 * stages.
 */

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "tensor/tensor.h"
#include "util/cpu_features.h"
#include "vq/code_buffer.h"
#include "vq/distance.h"
#include "vq/lut.h"
#include "vq/pq.h"

namespace lutdla::lutboost {

/**
 * Reusable per-caller encode scratch: the BF16 staging rows plus the
 * per-subspace working buffers of the encode driver. Caller-owned so
 * steady-state encode calls perform no allocations; one per concurrent
 * caller.
 */
struct EncodeScratch
{
    std::vector<float> staging;  ///< BF16-rounded input rows
    std::vector<float> padded;   ///< [rows, v] wrapped or ragged subspace
    std::vector<int32_t> block;  ///< [rows] one subspace's codes
    std::vector<float> dist;     ///< [c] distances (scalar float encode)
    std::vector<int32_t> xq;     ///< [v] quantized subvector (scalar INT8)
};

/**
 * Reusable per-caller gather scratch: the per-block row-major codes the
 * scalar sweeps run on, plus the column-major accumulator plane the
 * shuffle gather uses. Caller-owned so steady-state batches perform no
 * allocations; one per concurrent caller.
 */
struct GatherScratch
{
    std::vector<int32_t> unpacked;  ///< [block rows, Nc] row-major codes
    std::vector<float> colmajor;    ///< [N, chunk] shuffle accumulators
};

/** One frozen LUT layer in a single flat allocation. Immutable. */
class LutTableArena
{
  public:
    /**
     * Pack a trained quantizer + precomputed lookup table (+ optional bias)
     * into the arena.
     *
     * @param pq          Trained quantizer; codebooks are copied as-is, so
     *                    any BF16 rounding must already be applied.
     * @param lut         Precomputed PSum table over the same quantizer
     *                    (already INT8-round-tripped when requested).
     * @param bias        Optional [N] bias added after accumulation; may be
     *                    null.
     * @param bf16_inputs When true, input rows are rounded to BF16 before
     *                    encoding, mirroring LutPrecision::bf16_similarity.
     */
    LutTableArena(const vq::ProductQuantizer &pq, const vq::LookupTable &lut,
                  const Tensor *bias, bool bf16_inputs);

    /** Input width K this layer consumes. */
    int64_t inFeatures() const { return in_features_; }

    /** Output width N this layer produces. */
    int64_t outFeatures() const { return out_features_; }

    /** Number of subspaces Nc = ceil(K / v). */
    int64_t numSubspaces() const { return num_subspaces_; }

    /** Centroids per codebook c. */
    int64_t numCentroids() const { return num_centroids_; }

    /** Subvector length v. */
    int64_t subvectorLen() const { return subvector_len_; }

    /** True when inputs are rounded to BF16 before encoding. */
    bool bf16Inputs() const { return bf16_inputs_; }

    /** True when a bias row is packed into the arena. */
    bool hasBias() const { return has_bias_; }

    /** Total arena footprint in bytes (codebooks + table + bias). */
    int64_t sizeBytes() const
    {
        return static_cast<int64_t>(data_.size() * sizeof(float));
    }

    /**
     * Encode phase of the split execution model: reset `codes` for
     * [rows, Nc] at this arena's code width and fill it, applying the
     * arena's BF16 input rounding via `scratch.staging` (caller-owned so
     * steady-state batches do not allocate). Rows of `x` are `width`
     * floats (0 = K), read in place as if cyclically replicated to K —
     * column j is input column j % width, the trace models' width
     * adapt — so the codes equal those of the replicated copy. Runs at
     * encodeLevel(level); every tier selects bit-identical codes.
     * Thread-safe with distinct scratch.
     */
    void encodeBatch(const float *x, int64_t rows, vq::CodeBuffer &codes,
                     EncodeScratch &scratch, int64_t width = 0,
                     util::SimdLevel level = util::simdLevel()) const;

    /**
     * Level the float encode runs at under the cap `level`: Avx512 or
     * Avx2 (the generic-c L2 tier, "avx512-genc" / "avx2-genc")
     * for an L2 arena with 2 <= c <= 64, else Generic (the scalar
     * distance scan, "generic"). Panics when `level` is above
     * util::simdLevel().
     */
    util::SimdLevel encodeLevel(
        util::SimdLevel level = util::simdLevel()) const;

    /**
     * INT8 twin of encodeBatch: argmin-encode over the
     * quantized encode bank (requires ensureInt8EncodeBank() first;
     * panics otherwise). Rows are quantized onto the bank's per-subspace
     * 7-bit grid and scored in exact int32 arithmetic, so every tier
     * — scalar or SIMD — selects bit-identical codes; vs the float
     * encode the codes carry a top-1 agreement envelope instead (see
     * docs/SERVING.md). BF16 input rounding, `width` and ragged tail
     * subspaces work exactly like the float path. L2 metric only.
     * Runs at int8EncodeLevel(level). Thread-safe with distinct
     * `scratch` per caller.
     */
    void encodeBatchInt8(const float *x, int64_t rows,
                         vq::CodeBuffer &codes, EncodeScratch &scratch,
                         int64_t width = 0,
                         util::SimdLevel level = util::simdLevel()) const;

    /**
     * Build the INT8 encode bank (idempotent, thread-safe): per-subspace
     * affine-quantized transposed codebooks on a shared 7-bit grid,
     * precomputed integer centroid norms, and — when int8EncodeLevel()
     * is a SIMD tier — the quad-interleaved signed mirror the VNNI/AVX2
     * kernels consume. Independent of the gather banks.
     * Requires the L2 metric (panics otherwise; callers gate on
     * int8EncodeSupported()).
     */
    void ensureInt8EncodeBank() const;

    /** True once ensureInt8EncodeBank() has built the encode bank. */
    bool int8EncodeBankReady() const;

    /**
     * Bytes of the canonical INT8 encode bank (scalar codes + norms +
     * grid) — what the encode phase streams per sweep instead of the
     * float codebooks; 0 until ensureInt8EncodeBank(). Deliberately
     * capability-independent so the auto-tuner's byte accounting is
     * deterministic across hosts.
     */
    int64_t int8EncodeTableBytes() const;

    /**
     * Total RESIDENT bytes of the INT8 encode bank including the
     * capability-gated quad mirror; 0 until ensureInt8EncodeBank().
     * Separate from int8ResidentBytes(): the gather banks' accounting is
     * pinned by tests and must not absorb the encode bank.
     */
    int64_t int8EncodeResidentBytes() const;

    /** True when this arena can serve INT8 encode at all (L2 metric). */
    bool int8EncodeSupported() const;

    /**
     * Level the INT8 encode runs at under the cap `level`: for c <= 16
     * and v <= 128, Avx512Vnni (VPDPBUSD quad dots, "int8-dot-vnni") or
     * Avx2 (VPMADDUBSW + VPMADDWD, "int8-madd-avx2", also what a plain
     * AVX-512 cap runs), else Generic (the integer reference,
     * "int8-scalar"). Panics when `level` is above util::simdLevel().
     */
    util::SimdLevel int8EncodeLevel(
        util::SimdLevel level = util::simdLevel()) const;

    /**
     * Gather phase over the bit-exact float bank:
     * y[rows, N] = gather(codes) + bias, each output element's partial
     * sums accumulated in ascending subspace order into a zero-initialized
     * accumulator, in kRowBlock-row blocks. After a Float32 encode this is
     * bit-exact with eval-mode LutLinear::forward. Thread-safe with
     * distinct scratch; `y` must not alias the codes' source rows.
     */
    void gatherAccumulate(const vq::CodeBuffer &codes, float *y,
                          GatherScratch &scratch) const;

    /**
     * Gather phase over the INT8 bank (requires ensureInt8Bank() first;
     * panics otherwise). Accumulation is exact integer arithmetic per
     * scale group (kInt8ScaleGroup subspaces share one scale per
     * kInt8BlockCols-wide output block), dequantized with one mul + add
     * per group — so every tier, shuffle or scalar, produces
     * bit-identical output. NOT bit-exact vs the float bank; see
     * docs/SERVING.md for the error envelope. Runs at
     * int8GatherLevel(level).
     */
    void gatherAccumulateInt8(
        const vq::CodeBuffer &codes, float *y, GatherScratch &scratch,
        util::SimdLevel level = util::simdLevel()) const;

    /**
     * Build the INT8-quantized table bank (idempotent, thread-safe). The
     * planner calls this at lowering time so serving never pays the
     * quantization cost; the bank is cached for the arena's lifetime.
     */
    void ensureInt8Bank() const;

    /** True once ensureInt8Bank() has built the quantized bank. */
    bool int8BankReady() const;

    /**
     * Bytes of the canonical INT8 bank (row-major table + scales) — the
     * traffic number plans and benches report; 0 until ensureInt8Bank().
     * At the flagship c=16 the VNNI tier's quad-interleaved layout is
     * the same size, so this is exactly what either tier streams per
     * sweep; at c < 16 the 16-entry-padded layout streams up to 16/c x
     * more (still well under the float bank). Resident memory adds that
     * layout when this CPU built it — see int8ResidentBytes().
     */
    int64_t int8TableBytes() const;

    /**
     * Total RESIDENT bytes of the INT8 bank: the row-major table plus
     * the quad-interleaved mirror when this CPU built it (c <= 16 on an
     * AVX-512 VBMI+VNNI host, the only tier that reads it; AVX2 and
     * plain AVX-512 hosts never pay for it), so 1.0x the streamed size
     * there and at most ~2x on VNNI hosts. 0 until ensureInt8Bank().
     */
    int64_t int8ResidentBytes() const;

    /**
     * Level the INT8 gather runs at under the cap `level`: Avx512Vnni
     * (VPERMB + VPDPBUSD chunks, "shuffle-vnni") for c <= 16, else
     * Generic (the scalar group sweep, "scalar"). There is no VPSHUFB
     * tier: a 16-byte lookup that yields one INT8 byte per (subspace,
     * column) measured slower than the scalar sweep on AVX2 and AVX-512
     * alike (docs/SERVING.md, "Kernel tier audit"). Panics when `level`
     * is above util::simdLevel().
     */
    util::SimdLevel int8GatherLevel(
        util::SimdLevel level = util::simdLevel()) const;

    /**
     * Gather phase over the INT4 bank (requires ensureInt4Bank() first;
     * panics otherwise). Entries are symmetric 4-bit codes under the same
     * per-(kInt4ScaleGroup subspaces, kInt4BlockCols columns) scale
     * geometry as the INT8 bank, packed two adjacent output columns per
     * byte. Accumulation is exact integer arithmetic over bias-shifted
     * nibbles with one bias-correcting subtract and one dequantizing
     * mul + add per (group, column), so every tier — shuffle or scalar
     * — produces bit-identical output. NOT bit-exact vs the float or
     * INT8 banks; see docs/SERVING.md for the error envelope. Runs at
     * int4GatherLevel(level).
     */
    void gatherAccumulateInt4(
        const vq::CodeBuffer &codes, float *y, GatherScratch &scratch,
        util::SimdLevel level = util::simdLevel()) const;

    /**
     * Build the INT4-quantized table bank (idempotent, thread-safe).
     * Independent of the INT8 bank — a plan that only serves INT4 never
     * materializes INT8 layouts.
     */
    void ensureInt4Bank() const;

    /** True once ensureInt4Bank() has built the packed bank. */
    bool int4BankReady() const;

    /**
     * Bytes of the canonical packed INT4 bank (row-major nibble pairs +
     * scales) — what plans and benches report; 0 until ensureInt4Bank().
     */
    int64_t int4TableBytes() const;

    /**
     * Total RESIDENT bytes of the INT4 bank: the packed row-major table
     * plus the interleaved shuffle mirror when this CPU built it
     * (capability-gated exactly like the INT8 mirror). 0 until
     * ensureInt4Bank().
     */
    int64_t int4ResidentBytes() const;

    /**
     * Level the INT4 gather runs at under the cap `level`: for c <= 16,
     * Avx512 (64-row VPSHUFB + nibble-unpack chunks, "shuffle-avx512")
     * or Avx2 (32-row chunks, "shuffle-avx2"), each sweeping its row
     * tails with the SIMD row sweep; else Generic (the scalar packed
     * sweep, "scalar"). No VNNI tier: VPDPBUSD folds raw bytes, which
     * would mix the two nibble planes. Panics when `level` is above
     * util::simdLevel().
     */
    util::SimdLevel int4GatherLevel(
        util::SimdLevel level = util::simdLevel()) const;

    /**
     * Rows per block of the gather sweeps: within a block the float
     * gather walks kSubspaceGroup subspaces at a time so their table
     * banks stay cache-resident across the whole block, and the
     * quantized gathers transpose and bias one block at a time.
     */
    static constexpr int64_t kRowBlock = 256;

    /**
     * Quantized-gather row tails, in rows per 64-row shuffle chunk (a
     * 32-row AVX2 chunk halves them): a tail of at least this many rows
     * runs padded through one more chunk, a shorter one through the
     * bank's row sweep. Each is its bank's measured crossover of sweep
     * against padded chunk (docs/SERVING.md, "Kernel tier audit"): the
     * INT8 scalar sweep ties the VNNI chunk at ~20 rows, and the INT4
     * SIMD row sweep ties the shuffle chunk at ~32 (AVX-512) and ~16
     * (AVX2) rows.
     */
    static constexpr int64_t kInt8PadTailRows = 20;
    static constexpr int64_t kInt4PadTailRows = 32;

    /** Subspace banks folded per output-slab sweep in the grouped path. */
    static constexpr int64_t kSubspaceGroup = 8;

    /**
     * Output columns sharing one INT8 dequantization scale. Wide enough
     * that the per-block scale handling amortizes over many vector
     * iterations of the gather inner loop — at 32 the broadcasts
     * dominated the pre-shuffle sweep and the INT8 path measured ~0.7x
     * the float sweep; at 128 it wins even when the float bank is
     * LLC-resident.
     */
    static constexpr int64_t kInt8BlockCols = 128;

    /**
     * Subspaces sharing one INT8 scale (per output block). Grouping is
     * what lets both gather paths accumulate exact int16/int32 partial
     * sums across the group before a single dequantizing mul + add: 16
     * entries of |q| <= 127 sum to <= 2032, comfortably inside int16.
     */
    static constexpr int64_t kInt8ScaleGroup = 16;

    /**
     * Output columns sharing one INT4 scale. Same geometry as the INT8
     * bank — kept even so a packed column pair never straddles a scale
     * block (2p and 2p+1 always share a block when the width is even),
     * which lets every kernel dequantize a whole pair with one scale.
     */
    static constexpr int64_t kInt4BlockCols = kInt8BlockCols;

    /**
     * Subspaces sharing one INT4 scale (per output block). 16 bias-
     * shifted nibbles of <= 15 sum to <= 240, comfortably inside the
     * int16 lanes both gather paths accumulate in before the single
     * bias-correcting subtract + dequantizing mul + add per group.
     */
    static constexpr int64_t kInt4ScaleGroup = kInt8ScaleGroup;

    /**
     * Symmetric INT4 range: entries clamp to [-7, 7] (scale =
     * max_abs / 7) and are stored bias-shifted by +8 as unsigned
     * nibbles 1..15; nibble 8 is the exact zero the padding uses.
     */
    static constexpr int64_t kInt4MaxLevel = 7;

  private:
    /**
     * INT8 mirror of the PSum table in at most two layouts: `q` row-major
     * [Nc, c, N] for the scalar group sweep, and (c <= 16 on an AVX-512
     * VBMI+VNNI host) `q_quad` quad-interleaved [ceil(Nc/4), N, 64] —
     * the 16 centroid entries of subspace s, column col at ((s/4) * N +
     * col) * 64 + 16 * (s % 4), zero padded past c and past Nc — which
     * the VNNI tier loads as one 64-byte VPERMB table. `q` stays beside
     * the mirror because the scalar sweep serves row tails and tiny
     * batches: a 1-row gather reads Nc * N / 64 cache lines row-major
     * but Nc / 4 * N 64-byte blocks interleaved, 16x more (arithmetic
     * from the layouts, not a measurement). One symmetric scale per
     * (kInt8ScaleGroup-subspace group, kInt8BlockCols-wide output block).
     */
    struct Int8Bank
    {
        std::vector<int8_t> q;       ///< [Nc, c, N] row-major entries
        std::vector<int8_t> q_quad;  ///< [ceil(Nc/4), N, 64] (c <= 16)
        std::vector<float> scales;  ///< [numGroups, num_blocks] scales
        int64_t num_blocks = 0;
        int64_t num_groups = 0;
    };

    /**
     * INT4 mirror of the PSum table, packed two adjacent output columns
     * per byte (column-pair bit-plane split: low nibble = even column,
     * high nibble = odd column, both bias-shifted by +8). Codes are per
     * (row, subspace) and identical across columns, so one looked-up
     * byte serves BOTH columns of a pair — the shuffle kernels unpack
     * the two nibble planes with one AND + one shift per lookup. `q4`
     * row-major [Nc, c, ceil(N/2)] for the row sweeps, scalar and SIMD
     * (kept beside the mirror for row tails and tiny batches, as `q` is
     * in Int8Bank);
     * `q4_il` interleaved [Nc, ceil(N/2), 16] (c <= 16 on an AVX2+ host)
     * so each (subspace, column pair) is one vector-register LUT. Odd N leaves
     * the last pair's high nibble at the bias value 8 (exact zero):
     * computed, never copied out. Scale geometry matches the INT8 bank.
     */
    struct Int4Bank
    {
        std::vector<uint8_t> q4;    ///< [Nc, c, ceil(N/2)] packed pairs
        std::vector<uint8_t> q4_il; ///< [Nc, ceil(N/2), 16] interleaved
        std::vector<float> scales;  ///< [numGroups, num_blocks] scales
        int64_t num_blocks = 0;
        int64_t num_groups = 0;
        int64_t half_n = 0;         ///< ceil(N/2) packed column pairs
    };

    /**
     * INT8 encode bank: the quantized twin of the transposed codebooks.
     * One shared 7-bit affine grid per subspace (lo + inverse step)
     * quantizes BOTH the stored centroids and, at encode time, the input
     * subvectors, which is what collapses argmin ||x - c||^2 to the
     * integer argmin over (||c_u||^2 - 2 * x_u . c_s) with c_s = c_u -
     * 128 (the shift makes centroids signed for VPDPBUSD/VPMADDUBSW; the
     * dropped ||x_u||^2 and -256 * sum(x_u) terms are centroid-
     * independent). `cs` row-major [Nc, c, v] for the scalar reference;
     * `cs_quad` quad-interleaved [Nc, ceil(v/4), 16, 4] (byte
     * ((s-local quad * 16) + j) * 4 + k = c_s[j][4q + k], zero past v
     * and past c) for the SIMD tiers, built only when c <= 16, v <= 128
     * and the CPU has a tier. `norms` [Nc, norm_stride] int32 centroid
     * norms with INT32_MAX pads so pad lanes never win the argmin.
     */
    struct Int8EncodeBank
    {
        std::vector<int8_t> cs;       ///< [Nc, c, v] shifted codes
        std::vector<int8_t> cs_quad;  ///< [Nc, vq4 * 64] quad mirror
        std::vector<int32_t> norms;   ///< [Nc, norm_stride] ||c_u||^2
        std::vector<float> lo;        ///< [Nc] grid offsets
        std::vector<float> inv;       ///< [Nc] inverse grid steps
        int64_t vq4 = 0;              ///< ceil(v / 4) dim quads
        int64_t norm_stride = 0;      ///< max(c, 16)
    };

    /** Subspace-outer encode driver shared by every encode path: resets
     * `codes` for [rows, Nc] at this arena's code width, calls
     * `kernel(xs, stride, s, out)` once per subspace to write `rows`
     * codes into `out` (in place at stride `width` when the subspace
     * lies in one input period, else from a zero-padded [rows, v] plane
     * at stride v), then stores that subspace's whole code block into
     * plane `s` of `codes`. Works out of `scratch.block` /
     * `scratch.padded`. */
    template <typename Kernel>
    void encodeBySubspace(const float *x, int64_t rows, int64_t width,
                          EncodeScratch &scratch, vq::CodeBuffer &codes,
                          Kernel &&kernel) const;

    /** Float encode at the resolved `level` (the SIMD L2 tier unless
     * Generic); encodeBatch picks M from the arena's metric. */
    template <vq::Metric M>
    void encodeRowsImpl(const float *x, int64_t rows, int64_t width,
                        util::SimdLevel level, EncodeScratch &scratch,
                        vq::CodeBuffer &codes) const;

    /** BF16-round `rows` rows of `width` floats into `staging` when the
     * arena demands it; returns the rows the encode should read. */
    const float *stageRows(const float *x, int64_t rows, int64_t width,
                           std::vector<float> &staging) const;

    /** Grouped-subspace accumulate over one row block of row-major
     * codes: the float gather at every batch size. */
    void sweepBlockGrouped(const int32_t *codes, int64_t bn,
                           float *yb) const;

    /** Panic unless `codes` carries this arena's subspace count. */
    void checkCodes(const vq::CodeBuffer &codes) const;

    /**
     * Block -> full-chunk -> padded-tail -> scalar-tail driver shared by
     * the INT8 and INT4 gathers. Per kRowBlock block, rows run through
     * `run_chunk(codes, code_stride, colmajor)` in shuffle chunks of
     * simd::shuffleGatherChunkRows(level) rows (Generic = scalar only),
     * reading the code planes in place from row 0; a tail of at least
     * `pad_tail_rows` per 64 chunk rows (kInt8PadTailRows /
     * kInt4PadTailRows) runs padded through one more chunk (its extra
     * lanes read the plane's zero pad), and a smaller tail through
     * `sweep(codes, rows, y)` over a zeroed output. Chunk partials reach
     * the output through the SIMD transpose at `level`. Both paths share
     * the bank's exact integer accumulation, so every seam is
     * bit-invisible.
     */
    template <typename Chunk, typename Sweep>
    void gatherQuantized(const vq::CodeBuffer &codes, float *y,
                         GatherScratch &scratch, util::SimdLevel level,
                         int64_t pad_tail_rows, Chunk &&run_chunk,
                         Sweep &&sweep) const;

    /** Add the packed bias row to `bn` output rows (no-op without bias). */
    void addBias(float *yb, int64_t bn) const;

    /**
     * Codebook of subspace `s`, stored TRANSPOSED as [v, c] so the encode
     * kernel's inner loop runs contiguously over centroids (SIMD-friendly)
     * instead of strided over subvector elements.
     */
    const float *
    codebookT(int64_t s) const
    {
        return data_.data() + s * num_centroids_ * subvector_len_;
    }
    const float *
    entry(int64_t s, int64_t j) const
    {
        return data_.data() + table_offset_ +
               (s * num_centroids_ + j) * out_features_;
    }
    const float *biasPtr() const { return data_.data() + bias_offset_; }

    int64_t in_features_;
    int64_t out_features_;
    int64_t subvector_len_;
    int64_t num_centroids_;
    int64_t num_subspaces_;
    vq::Metric metric_;
    bool bf16_inputs_;
    bool has_bias_;
    size_t table_offset_;
    size_t bias_offset_;
    std::vector<float> data_;  ///< [codebooks | psum table | bias]

    // Lazily-built quantized mirrors of the table: logically-immutable
    // caches, each built at most once under its flag (planner triggers
    // them eagerly). Independent — a plan serving only one precision
    // never materializes the other bank.
    mutable std::once_flag int8_once_;
    mutable std::unique_ptr<Int8Bank> int8_bank_;
    mutable std::once_flag int4_once_;
    mutable std::unique_ptr<Int4Bank> int4_bank_;
    mutable std::once_flag int8_encode_once_;
    mutable std::unique_ptr<Int8EncodeBank> int8_encode_bank_;
};

} // namespace lutdla::lutboost

#endif // LUTDLA_LUTBOOST_TABLE_ARENA_H
