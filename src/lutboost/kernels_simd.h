#ifndef LUTDLA_LUTBOOST_KERNELS_SIMD_H
#define LUTDLA_LUTBOOST_KERNELS_SIMD_H

/**
 * @file
 * Runtime-dispatched SIMD kernels for the serving data plane.
 *
 * Every function here is compiled with a per-function target attribute
 * (AVX-512BW, AVX2) in a TU built WITHOUT -march=native, so a single
 * binary carries every tier. Each kernel takes the util::SimdLevel to run
 * at; LutTableArena's per-family resolvers pick it from the arena shape
 * and a cap that defaults to util::simdLevel() (cpuid at first use). See docs/SERVING.md for the full
 * dispatch matrix (ISA x code width x table precision).
 *
 * Kernel families:
 *
 *  - float encode: fused L2 distance + argmin for any 2 <= c <= 64.
 *    Whole blocks of 16 (AVX-512) / 8 (AVX2) rows with v <= 16 run
 *    row-lane, like the INT8 encode: the subvectors' dim-quads are
 *    transposed into one register per dimension, each centroid's
 *    coordinates are broadcast in ascending order, and every lane runs
 *    the scalar scan on its own row (sub, mul, add per ascending t, then
 *    a strict-< compare and two masked moves against the running best),
 *    so there is no horizontal reduction and no NaN special case. The
 *    leftover rows and v > 16 run per row with the centroids in the
 *    lanes (blocks of 16 / 8, pad lanes of a ragged last block parked
 *    at +inf, NaN rows falling back to the scalar scan). Both are
 *    bit-exact with the scalar distance + ascending argmin scan
 *    (explicit mul + add, never FMA; lowest-index tie-break).
 *
 *  - INT8 encode: integer argmin over the quantized encode bank.
 *    Input subvectors are quantized onto the SAME per-subspace 7-bit
 *    affine grid as the bank's centroids (x_u = clamp(round((x - lo) *
 *    inv), 0, 127)), so argmin ||x - c||^2 collapses to an integer
 *    argmin over (||c_u||^2 - 2 * x_u . c_s) with c_s = c_u - 128 —
 *    the dropped ||x_u||^2 and -256 * sum(x_u) terms are constant
 *    across centroids. Both SIMD tiers run whole blocks of rows
 *    row-lane — one row per int32 lane, one VPDPBUSD (VNNI) or
 *    VPMADDUBSW + VPMADDWD (AVX2) per (centroid, dim-quad) against a
 *    broadcast bank dword, then a vertical strict-compare scan over the
 *    centroids — and the leftover rows per row (4 dims x 16 centroids
 *    per instruction). The 7-bit x grid caps a VPMADDUBSW pair sum at
 *    127 * 128 * 2 = 32512, so the int16 lanes can never saturate.
 *    Every tier computes the identical int32 scores (up to sign), so the
 *    result is bit-identical to the scalar integer reference by
 *    construction.
 *
 *  - INT8 shuffle gather (c <= 16, AVX-512 VBMI+VNNI only): the
 *    in-register table lookup the paper's DPE performs in hardware.
 *    Codes are read in place from the vq::CodeBuffer planes (one byte
 *    lane per row, one plane per subspace); the bank's quad-interleaved
 *    mirror packs four subspaces' 16 centroid entries per (column,
 *    64-byte block), so one VPERMB resolves 16 rows x 4 subspaces and
 *    one VPDPBUSD folds them into int32 lanes. Partial sums accumulate
 *    exactly across a scale group and spill to float once per group, so
 *    the result is bit-identical to the scalar group sweep by
 *    construction. There is no VPSHUFB INT8 tier: one 16-byte lookup
 *    per (subspace, column) yields one INT8 byte and measured slower
 *    than the scalar sweep, so AVX2 and plain AVX-512 hosts run the
 *    scalar sweep (docs/SERVING.md, "Kernel tier audit").
 *
 *  - INT4 shuffle gather (nibble-packed bank, c <= 16, AVX2+): VPSHUFB
 *    resolves 64 (AVX-512) / 32 (AVX2) rows' lookups per instruction
 *    from one 16-byte LUT of the packed interleaved layout, where each
 *    looked-up byte carries TWO adjacent output columns (low/high nibble plane,
 *    both bias-shifted by +8). One AND + one shift per lookup split the
 *    planes; biased nibbles accumulate in u8 lanes across the scale
 *    group (16 * 15 = 240 fits a byte), widen to int16 once per (group,
 *    column pair), and one bias-correcting subtract precedes the
 *    per-group dequantizing mul + add — again bit-identical to the
 *    scalar packed sweep.
 *
 *  - INT4 row sweep (AVX2+): the SIMD twin of the scalar packed sweep
 *    for row tails too short for a shuffle chunk. It reads the
 *    row-major bank one 64-byte (32 at AVX2) slice per looked-up entry,
 *    sums both nibble planes in u8 lanes across the scale group as the
 *    shuffle gathers do, and widens once per (group, 128 columns)
 *    instead of once per byte — bit-identical to the scalar sweep.
 *
 *  - transpose-out: moves a chunk's column-major partial sums into the
 *    row-major output through 16 x 16 (AVX-512) / 8 x 8 (AVX2) register
 *    transposes, ragged edges scalar. Pure data movement, so bit-exact by
 *    construction.
 */

#include <cstdint>

#include "util/cpu_features.h"

namespace lutdla::lutboost::simd {

/**
 * Fused L2 distance + argmin: encode `rows` subvectors (row i at x + i *
 * stride, `v` floats each) against one transposed [v, c] codebook for any
 * 2 <= c <= 64, writing one code per row, at `level` (Avx2 or above).
 *
 * When v <= 16, every whole block of 16 rows (AVX-512) or 8 rows (AVX2)
 * runs row-lane: each dim-quad of the block is read with one 128-bit load
 * per row (the last quad masked, so nothing past the subvector is read)
 * and transposed in-lane so one register holds one dimension of every
 * row; each centroid j in ascending order is then scored in all lanes
 * with the scalar op sequence and kept by a strict _CMP_LT_OQ compare and
 * two masked moves, j = 0 seeding the best. v = 3, 4 and 8 run
 * compile-time-unrolled kernels. The leftover rows, and every row when
 * v > 16, run per row with the centroids in masked blocks of 16 / 8
 * lanes, pad lanes parked at +inf, ascending block scan and NaN rows
 * falling back to the scalar scan. Both paths give the codes of the
 * scalar distance + ascending argmin scan bit for bit, on NaN, +/-Inf,
 * overflow and -0 too.
 */
void encodeL2GenericRows(util::SimdLevel level, const float *x,
                         int64_t rows, int64_t stride, const float *cbt,
                         int64_t v, int64_t c, int32_t *codes);

/**
 * INT8 integer argmin-encode of `rows` subvectors (row i at x + i *
 * stride, `v` floats each, v <= 128) against one subspace's quantized
 * encode bank at `level` (Avx2 or above; Avx512Vnni runs the VNNI tier).
 *
 * Each subvector is quantized onto the bank's 7-bit grid (x_u =
 * clamp(round((x - lo) * inv), 0, 127), NaN -> 0) and scored against all
 * 16 centroid lanes as score_j = norms[j] - 2 * dot(x_u, cs_quad[j]) in
 * exact int32 arithmetic; pad centroids carry norms = INT32_MAX and
 * all-zero bank bytes so they never win. Lowest-index tie-break.
 *
 * @param cs_quad  quad-interleaved signed bank for this subspace: byte
 *                 (q * 16 + j) * 4 + k holds c_s[j][4q + k] = c_u - 128
 *                 (zero past v and past c), q < vq4 = ceil(v / 4).
 * @param norms    16 int32 centroid norms ||c_u||^2 (INT32_MAX pads).
 * @param lo, inv  the subspace's affine grid (inv = 1 / step).
 *
 * Whole blocks of 16 rows (SimdLevel::Avx512Vnni) or 8 rows (AVX2 /
 * plain AVX-512) run row-lane: one row per int32 lane, the quantized
 * dim-quads transposed into the lanes, one VPDPBUSD (or VPMADDUBSW +
 * VPMADDWD) per (centroid, quad) against a broadcast bank dword, and a
 * vertical strict-compare scan over the centroids. The VNNI tier scores
 * key_j = 2 * dot - norms[j] with a doubled x_u (<= 254, still u8) and
 * takes the strict-> argmax; the AVX2 tier keeps norms[j] - 2 * dot
 * (a doubled x_u would saturate VPMADDUBSW) and takes the strict-<
 * argmin. Fewer leftover rows than one block use the per-row kernel: one
 * VPDPBUSD (or VPMADDUBSW + VPMADDWD over two 8-centroid halves) per
 * quad and a horizontal min. Every path produces the scalar reference's
 * int32 scores up to sign, so codes match bit-for-bit.
 */
void encodeInt8C16Rows(util::SimdLevel level, const float *x, int64_t rows,
                       int64_t stride, const int8_t *cs_quad,
                       const int32_t *norms, float lo, float inv,
                       int64_t v, int32_t *codes);

/** Rows one shuffle-gather chunk covers at `level` (64 AVX-512, 32 AVX2;
 * 0 when unsupported). Callers hand short tails to a row sweep. */
int64_t shuffleGatherChunkRows(util::SimdLevel level);

/**
 * Shuffle-gather one 64-row chunk over the quad-interleaved INT8 bank,
 * writing column-major partial sums: one VPERMB resolves 16 rows x 4
 * subspaces and one VPDPBUSD folds each row's four looked-up bytes into
 * its int32 lane. `level` must be at least SimdLevel::Avx512Vnni and
 * scale_group a multiple of 4.
 *
 * @param q_quad     quad-interleaved bank: entry (s, col, j) at
 *                   ((s / 4) * n + col) * 64 + 16 * (s % 4) + j, zero
 *                   padded past c and past the last subspace.
 * @param scales     dequant scales, one per (scale group, column block):
 *                   scales[g * num_blocks + block].
 * @param codes      code planes for the chunk: code (s, row r) at
 *                   codes[s * code_stride + r], values < 16 — a
 *                   vq::CodeBuffer's planes, read in place.
 * @param code_stride bytes between two subspaces' lanes (at least one
 *                   chunk).
 * @param num_subspaces / n / num_blocks / scale_group / block_cols
 *                   bank geometry (see LutTableArena).
 * @param colmajor   [n, chunk] output, overwritten: colmajor[col * chunk
 *                   + r] = sum over groups of scale * int-sum. The caller
 *                   transposes into the row-major output block.
 */
void shuffleGatherChunk(util::SimdLevel level, const int8_t *q_quad,
                        const float *scales, const uint8_t *codes,
                        int64_t code_stride, int64_t num_subspaces,
                        int64_t n, int64_t num_blocks, int64_t scale_group,
                        int64_t block_cols, float *colmajor);

/**
 * INT4 twin of shuffleGatherChunk over the nibble-packed interleaved
 * bank: one chunk of exactly shuffleGatherChunkRows(level) rows, writing
 * column-major partial sums for ALL n output columns.
 *
 * @param q4_il      packed interleaved bank: the byte at
 *                   ((s * half_n + p) * 16 + j) carries entry (s, col
 *                   2p, j) in its low nibble and entry (s, col 2p+1, j)
 *                   in its high nibble, both bias-shifted by +8 (pad
 *                   nibbles hold 8, the exact zero), where half_n =
 *                   ceil(n / 2).
 * @param scales     dequant scales as in shuffleGatherChunk; block_cols
 *                   must be even so a column pair never straddles a
 *                   scale block.
 * Other parameters and the colmajor output contract match
 * shuffleGatherChunk (an odd n's final column is still written; the
 * missing odd partner is simply never stored). Both nibble planes sum in
 * u8 lanes across a scale group and widen once per (group, column
 * pair); that is exact because scale_group <= 16 and 16 * 15 = 240 fits
 * a byte.
 */
void shuffleGatherChunkInt4(util::SimdLevel level, const uint8_t *q4_il,
                            const float *scales, const uint8_t *codes,
                            int64_t code_stride, int64_t num_subspaces,
                            int64_t n, int64_t num_blocks,
                            int64_t scale_group, int64_t block_cols,
                            float *colmajor);

/**
 * Row-sweep twin of the arena's scalar INT4 packed group sweep, for row
 * tails too short for a shuffle chunk: reads the same row-major bank and
 * the same unpacked codes, and adds into `y` the same float values in
 * the same order, so the output is bit-identical to the scalar sweep.
 * Per (row, scale group, 128-column block) it loads 64 bytes (AVX-512;
 * two 32-byte halves at AVX2) from each of up to 16 subspace rows, sums
 * both nibble planes in u8 lanes (at most 16 * 15 = 240, exact),
 * re-interleaves them into column order, subtracts 8 * gs in int32 and
 * issues one mul + add per (group, column). `level` must be Avx2 or
 * above.
 *
 * @param q4      row-major packed bank: the ceil(n / 2) bytes of entry
 *                (s, j) start at q4 + (s * c + j) * ceil(n / 2); low
 *                nibble = even column, both planes biased by +8.
 * @param codes   [rows, num_subspaces] codes, row-major.
 * @param y       [rows, n] row-major output, accumulated into.
 * Other parameters as in shuffleGatherChunkInt4; block_cols must be a
 * multiple of 128 so a vector block never straddles a scale block.
 */
void sweepInt4Rows(util::SimdLevel level, const uint8_t *q4,
                   const float *scales, const int32_t *codes, int64_t rows,
                   int64_t n, int64_t num_subspaces, int64_t c,
                   int64_t num_blocks, int64_t scale_group,
                   int64_t block_cols, float *y);

/**
 * Copy the first `rows` lanes of a shuffle chunk's column-major partials
 * into the row-major output: y[r * n + col] = colmajor[col * chunk + r]
 * for r < rows, col < n. Whole 16 x 16 tiles run as AVX-512 register
 * transposes at level >= Avx512, 8 x 8 tiles as AVX2 transposes at Avx2;
 * ragged edges (and Generic) run scalar. `colmajor` may point into a
 * chunk at a lane offset; `chunk` is its column stride.
 */
void transposeChunkOut(util::SimdLevel level, const float *colmajor,
                       int64_t chunk, int64_t rows, int64_t n, float *y);

} // namespace lutdla::lutboost::simd

#endif // LUTDLA_LUTBOOST_KERNELS_SIMD_H
