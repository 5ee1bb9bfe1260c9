#ifndef LUTDLA_LUTBOOST_KERNELS_SIMD_H
#define LUTDLA_LUTBOOST_KERNELS_SIMD_H

/**
 * @file
 * Runtime-dispatched SIMD kernels for the serving data plane.
 *
 * Every function here is compiled with a per-function target attribute
 * (AVX-512BW, AVX2) in a TU built WITHOUT -march=native, so a single
 * binary carries every variant; callers pick one with util::simdLevel()
 * (cpuid at first use) instead of the compile-time #ifdef guards the
 * arena kernels used to rely on. See docs/SERVING.md for the full
 * dispatch matrix (ISA x code width x table precision).
 *
 * Three kernel families:
 *
 *  - float encode: fused L2 distance + argmin for the flagship c == 16
 *    shape, keeping all 16 per-centroid accumulators in one register
 *    file, plus a masked generic-c tier for any c <= 64 (centroid
 *    blocks of 16/8 lanes, pad lanes parked at +inf). Bit-exact with
 *    the scalar distance + ascending argmin scan (explicit mul + add,
 *    never FMA; lowest-index tie-break; NaN rows fall back to the
 *    scalar scan).
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
 *  - shuffle gather (INT8 bank, c <= 16): the in-register table lookup
 *    the paper's DPE performs in hardware. Codes for a block of rows are
 *    laid out planar (one byte lane per row), each (subspace, column)'s
 *    16 centroid entries are one vector-register LUT (the interleaved
 *    bank layout), and VPSHUFB resolves 64 (AVX-512) / 32 (AVX2) rows'
 *    lookups per instruction. Partial sums accumulate in int16 lanes
 *    across a scale group and spill through int32 to float once per
 *    group — exact integer arithmetic, so the result is bit-identical
 *    to the scalar group sweep by construction.
 *
 *  - INT4 shuffle gather (nibble-packed bank, c <= 16): same VPSHUFB
 *    machinery over the packed interleaved layout, where each looked-up
 *    byte carries TWO adjacent output columns (low/high nibble plane,
 *    both bias-shifted by +8). One AND + one shift per lookup split the
 *    planes; biased nibbles accumulate in u8 lanes across the scale
 *    group (16 * 15 = 240 fits a byte), widen to int16 once per (group,
 *    column pair), and one bias-correcting subtract precedes the
 *    per-group dequantizing mul + add — again bit-identical to the
 *    scalar packed sweep.
 */

#include <cstdint>

#include "util/cpu_features.h"

namespace lutdla::lutboost::simd {

/** True when `level` provides the c==16 L2 encode fast path. */
bool encodeL2C16Supported(util::SimdLevel level);

/**
 * Fused L2 distance + argmin of one `v`-float subvector against a
 * transposed [v, 16] codebook at `level` (which must satisfy
 * encodeL2C16Supported). Bit-exact with the scalar reference.
 */
int32_t argminL2C16(util::SimdLevel level, const float *sub,
                    const float *cbt, int64_t v);

/**
 * Batched variant of argminL2C16: encode `rows` subvectors (row i at
 * x + i * stride, `v` floats each) against one transposed [v, 16]
 * codebook, writing one code per row. One call per (subspace, batch), so
 * the per-row argmin stays inlined inside the attributed loop.
 */
void encodeL2C16Rows(util::SimdLevel level, const float *x, int64_t rows,
                     int64_t stride, const float *cbt, int64_t v,
                     int32_t *codes);

/** True when `level` provides the masked generic-c (c <= 64) L2 encode
 * tier for centroid counts without a dedicated fast path. */
bool encodeL2GenericSupported(util::SimdLevel level, int64_t c);

/**
 * Generic-c twin of encodeL2C16Rows: encode `rows` subvectors against one
 * transposed [v, c] codebook for any 2 <= c <= 64. Centroids are
 * processed in masked blocks of 16 (AVX-512) / 8 (AVX2) lanes with pad
 * lanes parked at +inf; the cross-block argmin scans blocks in ascending
 * order and breaks ties toward the lowest index, so the result is
 * bit-exact with the scalar distance + ascending argmin scan (NaN rows
 * fall back to the scalar scan).
 */
void encodeL2GenericRows(util::SimdLevel level, const float *x,
                         int64_t rows, int64_t stride, const float *cbt,
                         int64_t v, int64_t c, int32_t *codes);

/** True when `level` provides an INT8 integer argmin-encode tier
 * (requires AVX2; the VNNI tier additionally requires
 * SimdLevel::Avx512Vnni). */
bool int8EncodeSupported(util::SimdLevel level);

/**
 * INT8 integer argmin-encode of `rows` subvectors (row i at x + i *
 * stride, `v` floats each, v <= 128) against one subspace's quantized
 * encode bank at `level` (which must satisfy int8EncodeSupported).
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

/** True when `level` provides the shuffle-based INT8 gather. */
bool shuffleGatherSupported(util::SimdLevel level);

/** Rows one shuffle-gather chunk covers at `level` (64 AVX-512, 32 AVX2;
 * 0 when unsupported). Callers hand tails to the scalar sweep. */
int64_t shuffleGatherChunkRows(util::SimdLevel level);

/**
 * Shuffle-gather one chunk of exactly shuffleGatherChunkRows(level) rows
 * over the interleaved INT8 bank, writing column-major partial sums.
 *
 * @param q_il       interleaved bank: entry (s, col, j) at
 *                   ((s * n + col) * 16 + j), j padded to 16 with zeros.
 * @param scales     dequant scales, one per (scale group, column block):
 *                   scales[g * num_blocks + block].
 * @param planar     planar codes for the chunk: code (s, row r) at
 *                   (s * chunk + r); values < 16.
 * @param num_subspaces / n / num_blocks / scale_group / block_cols
 *                   bank geometry (see LutTableArena).
 * @param colmajor   [n, chunk] output, overwritten: colmajor[col * chunk
 *                   + r] = sum over groups of scale * int-sum. The caller
 *                   transposes into the row-major output block.
 */
void shuffleGatherChunk(util::SimdLevel level, const int8_t *q_il,
                        const float *scales, const uint8_t *planar,
                        int64_t num_subspaces, int64_t n,
                        int64_t num_blocks, int64_t scale_group,
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
                            const float *scales, const uint8_t *planar,
                            int64_t num_subspaces, int64_t n,
                            int64_t num_blocks, int64_t scale_group,
                            int64_t block_cols, float *colmajor);

/** True when `level` provides the VPERMB/VPDPBUSD dot-accumulate gather
 * (requires SimdLevel::Avx512Vnni). */
bool vnniGatherSupported(util::SimdLevel level);

/**
 * Dot-accumulate gather for one 64-row chunk over the QUAD-interleaved
 * INT8 bank: entries of four consecutive subspaces live in one 64-byte
 * LUT (`q_quad[(quad * n + col) * 64 + 16 * j + e]` = entry e of
 * subspace 4*quad+j, zero-padded past c and past the last subspace), so
 * one VPERMB resolves 16 rows x 4 subspaces of lookups and one VPDPBUSD
 * folds each row's four looked-up bytes into its int32 lane — no
 * widening chain at all, which is what the plain shuffle kernel spends
 * most of its shuffle-port budget on (~2.5x faster at c=16). Same
 * contract as shuffleGatherChunk otherwise: exact integer accumulation
 * per scale group, one dequantizing mul + add per group, column-major
 * output — bit-identical to every other variant.
 */
void vnniGatherChunk(const int8_t *q_quad, const float *scales,
                     const uint8_t *planar, int64_t num_subspaces,
                     int64_t n, int64_t num_blocks, int64_t scale_group,
                     int64_t block_cols, float *colmajor);

} // namespace lutdla::lutboost::simd

#endif // LUTDLA_LUTBOOST_KERNELS_SIMD_H
