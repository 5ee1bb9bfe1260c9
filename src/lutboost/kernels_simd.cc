// Runtime-dispatched SIMD kernel variants. This TU is compiled WITHOUT
// -march flags; every vector function carries a target attribute instead,
// so the binary always contains all variants and util::simdLevel() picks
// one at run time. Keep intrinsics inside attributed functions only.
//
// Numerics: encode kernels use explicit mul + add (never FMA) and exact
// min/tie-break reductions or strict-compare scans, so they are bit-exact
// with the scalar encode.
// Gather kernels accumulate in integer lanes and dequantize with one
// mul + add per (scale group, column) — the identical float op sequence
// the scalar group sweep performs, so shuffle and scalar paths agree bit
// for bit (integer addition is associative; tests enforce the match).

#include "lutboost/kernels_simd.h"

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>

#include "lutboost/table_arena.h"
#include "util/logging.h"

namespace lutdla::lutboost::simd {

namespace {

/** Scalar distance + argmin scan for generic c (NaN fallback). Same op
 * sequence as the arena's distanceAll + argminScan: zeroed accumulators,
 * ascending t, explicit mul + add (this TU builds with -ffp-contract=off
 * so no FMA contraction), strict-< scan for lowest-index ties. */
int32_t
argminScanL2Generic(const float *sub, const float *cbt, int64_t v,
                    int64_t c)
{
    float d[64];
    for (int64_t j = 0; j < c; ++j)
        d[j] = 0.0f;
    for (int64_t t = 0; t < v; ++t) {
        const float a = sub[t];
        const float *row = cbt + t * c;
        for (int64_t j = 0; j < c; ++j) {
            const float diff = a - row[j];
            d[j] += diff * diff;
        }
    }
    int32_t best = 0;
    float best_dist = d[0];
    for (int64_t j = 1; j < c; ++j) {
        if (d[j] < best_dist) {
            best_dist = d[j];
            best = static_cast<int32_t>(j);
        }
    }
    return best;
}

/**
 * Fused L2 distance + argmin over NB blocks of 16 centroid lanes (c <=
 * 16 * NB). NB and kFull (c == 16 * NB) are template parameters so the
 * block loops unroll, the accumulators stay in registers, and every full
 * block runs plain loads with no mask work. Pad lanes of a ragged last
 * block read zeros through the maskz loads and are parked at +inf before
 * the reduction, so they can never win nor steal a tie.
 */
template <int NB, bool kFull>
__attribute__((target("avx512f"), always_inline)) inline int32_t
argminL2GenericAvx512(const float *__restrict__ sub,
                      const float *__restrict__ cbt, int64_t v, int64_t c)
{
    const __mmask16 last = static_cast<__mmask16>(
        kFull ? 0xFFFFu : (1u << (c - 16 * (NB - 1))) - 1u);
    const auto ragged = [](int b) { return !kFull && b == NB - 1; };
    __m512 d[NB];
    for (int b = 0; b < NB; ++b)
        d[b] = _mm512_setzero_ps();
    for (int64_t t = 0; t < v; ++t) {
        const __m512 a = _mm512_set1_ps(sub[t]);
        const float *row = cbt + t * c;
        for (int b = 0; b < NB; ++b) {
            const __m512 r = ragged(b)
                                 ? _mm512_maskz_loadu_ps(last, row + 16 * b)
                                 : _mm512_loadu_ps(row + 16 * b);
            const __m512 diff = _mm512_sub_ps(a, r);
            d[b] = _mm512_add_ps(d[b], _mm512_mul_ps(diff, diff));
        }
    }
    __mmask16 unord = 0;
    for (int b = 0; b < NB; ++b)
        unord |= _mm512_cmp_ps_mask(d[b], d[b], _CMP_UNORD_Q) &
                 (ragged(b) ? last : 0xFFFF);
    if (unord != 0)
        return argminScanL2Generic(sub, cbt, v, c);
    if (!kFull)
        d[NB - 1] = _mm512_mask_blend_ps(last, _mm512_set1_ps(__builtin_inff()),
                                         d[NB - 1]);
    __m512 m = d[0];
    for (int b = 1; b < NB; ++b)
        m = _mm512_min_ps(m, d[b]);
    m = _mm512_min_ps(m, _mm512_shuffle_f32x4(m, m, 0x4E));
    m = _mm512_min_ps(m, _mm512_shuffle_f32x4(m, m, 0xB1));
    m = _mm512_min_ps(m, _mm512_shuffle_ps(m, m, 0x4E));
    m = _mm512_min_ps(m, _mm512_shuffle_ps(m, m, 0xB1));
    // Ascending block scan + ctz keeps the lowest-index tie-break of the
    // scalar argmin scan; a parked pad lane (+inf) can only tie a minimum
    // that a lower real lane already holds. Without NaNs the minimum is
    // some lane's exact value, so the last block matches whenever no
    // earlier block did.
    for (int b = 0; b + 1 < NB; ++b) {
        const __mmask16 eq = _mm512_cmp_ps_mask(d[b], m, _CMP_EQ_OQ);
        if (eq != 0)
            return static_cast<int32_t>(16 * b + __builtin_ctz(eq));
    }
    return static_cast<int32_t>(
        16 * (NB - 1) +
        __builtin_ctz(_mm512_cmp_ps_mask(d[NB - 1], m, _CMP_EQ_OQ)));
}

/** AVX2 twin of argminL2GenericAvx512 over NB blocks of 8 lanes. */
template <int NB, bool kFull>
__attribute__((target("avx2"), always_inline)) inline int32_t
argminL2GenericAvx2(const float *__restrict__ sub,
                    const float *__restrict__ cbt, int64_t v, int64_t c)
{
    static const int32_t kLaneMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                          0,  0,  0,  0,  0,  0,  0,  0};
    const int64_t lanes = kFull ? 8 : c - 8 * (NB - 1);
    const __m256i last = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(kLaneMask + 8 - lanes));
    const unsigned last_bits = (1u << lanes) - 1u;
    const auto ragged = [](int b) { return !kFull && b == NB - 1; };
    __m256 d[NB];
    for (int b = 0; b < NB; ++b)
        d[b] = _mm256_setzero_ps();
    for (int64_t t = 0; t < v; ++t) {
        const __m256 a = _mm256_set1_ps(sub[t]);
        const float *row = cbt + t * c;
        for (int b = 0; b < NB; ++b) {
            const __m256 r = ragged(b) ? _mm256_maskload_ps(row + 8 * b, last)
                                       : _mm256_loadu_ps(row + 8 * b);
            const __m256 diff = _mm256_sub_ps(a, r);
            d[b] = _mm256_add_ps(d[b], _mm256_mul_ps(diff, diff));
        }
    }
    unsigned unord = 0;
    for (int b = 0; b < NB; ++b)
        unord |= static_cast<unsigned>(_mm256_movemask_ps(
                     _mm256_cmp_ps(d[b], d[b], _CMP_UNORD_Q))) &
                 (ragged(b) ? last_bits : 0xFFu);
    if (unord != 0)
        return argminScanL2Generic(sub, cbt, v, c);
    if (!kFull)
        d[NB - 1] = _mm256_blendv_ps(_mm256_set1_ps(__builtin_inff()),
                                     d[NB - 1], _mm256_castsi256_ps(last));
    __m256 m = d[0];
    for (int b = 1; b < NB; ++b)
        m = _mm256_min_ps(m, d[b]);
    m = _mm256_min_ps(m, _mm256_permute2f128_ps(m, m, 0x01));
    m = _mm256_min_ps(m, _mm256_shuffle_ps(m, m, 0x4E));
    m = _mm256_min_ps(m, _mm256_shuffle_ps(m, m, 0xB1));
    for (int b = 0; b + 1 < NB; ++b) {
        const unsigned eq = static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_cmp_ps(d[b], m, _CMP_EQ_OQ)));
        if (eq != 0)
            return static_cast<int32_t>(8 * b + __builtin_ctz(eq));
    }
    return static_cast<int32_t>(
        8 * (NB - 1) + __builtin_ctz(static_cast<unsigned>(_mm256_movemask_ps(
                           _mm256_cmp_ps(d[NB - 1], m, _CMP_EQ_OQ)))));
}

/** Subvector lengths the row-lane float kernels hold in registers. */
constexpr int64_t kRowLaneMaxV = 16;

/** One dim-quad of a subvector: `lanes` (1..4) floats at p, zeros above.
 * A partial quad is a VMASKMOVPS load, so no float past the subvector is
 * read. */
__attribute__((target("avx2"), always_inline)) inline __m128
loadQuad(const float *p, int64_t lanes)
{
    static const int32_t kQuadMask[8] = {-1, -1, -1, -1, 0, 0, 0, 0};
    if (lanes == 4)
        return _mm_loadu_ps(p);
    return _mm_maskload_ps(
        p, _mm_loadu_si128(
               reinterpret_cast<const __m128i *>(kQuadMask + 4 - lanes)));
}

/** Squared L2 distance of the rows held in `d` (one register per
 * dimension) to centroid j of a transposed [v, c] codebook: the scalar
 * op sequence, per lane. */
__attribute__((target("avx512f"), always_inline)) inline __m512
distanceLanesAvx512(const __m512 *d, const float *cbt, int64_t v, int64_t c,
                    int64_t j)
{
    __m512 diff = _mm512_sub_ps(d[0], _mm512_set1_ps(cbt[j]));
    __m512 acc = _mm512_mul_ps(diff, diff);
    for (int64_t t = 1; t < v; ++t) {
        diff = _mm512_sub_ps(d[t], _mm512_set1_ps(cbt[t * c + j]));
        acc = _mm512_add_ps(acc, _mm512_mul_ps(diff, diff));
    }
    return acc;
}

/** AVX2 twin of distanceLanesAvx512. */
__attribute__((target("avx2"), always_inline)) inline __m256
distanceLanesAvx2(const __m256 *d, const float *cbt, int64_t v, int64_t c,
                  int64_t j)
{
    __m256 diff = _mm256_sub_ps(d[0], _mm256_set1_ps(cbt[j]));
    __m256 acc = _mm256_mul_ps(diff, diff);
    for (int64_t t = 1; t < v; ++t) {
        diff = _mm256_sub_ps(d[t], _mm256_set1_ps(cbt[t * c + j]));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
    }
    return acc;
}

/**
 * Float L2 argmin of ONE 16-row block, rows in lanes: lane r of every
 * vector belongs to row r. Each dim-quad of the 16 subvectors is read as
 * 16 128-bit loads (row 4L + i into 128-bit lane L of r[i]) and turned by
 * an in-lane 4 x 4 transpose into four registers that each hold one
 * dimension of all 16 rows. Then, for each centroid j in ascending order,
 * every lane runs the scalar scan's op sequence on its own row: sub, mul
 * and add per ascending t (seeding with the t = 0 square equals the
 * scalar's zeroed accumulator bit for bit, since 0 + s == s for every
 * square s, NaN included, and no square is -0), then a strict
 * _CMP_LT_OQ compare against the running best and two masked moves, with
 * j = 0 seeding best and code. A NaN distance never compares below and
 * never gets beaten, exactly as in the scalar scan, so there is no
 * horizontal reduction and no NaN fallback. kV > 0 fixes v at compile
 * time (the dims unroll and stay in registers); kV == 0 reads v at run
 * time (v <= kRowLaneMaxV).
 */
template <int kV>
__attribute__((target("avx512f"))) void
encodeL2LanesAvx512(const float *x, int64_t stride, const float *cbt,
                    int64_t v_rt, int64_t c, int32_t *codes)
{
    const int64_t v = kV > 0 ? kV : v_rt;
    __m512 d[kRowLaneMaxV];
    for (int64_t q = 0; 4 * q < v; ++q) {
        const int64_t lanes = std::min<int64_t>(4, v - 4 * q);
        __m512 r[4];
        for (int64_t i = 0; i < 4; ++i) {
            const float *p = x + i * stride + 4 * q;
            __m512 g = _mm512_castps128_ps512(loadQuad(p, lanes));
            g = _mm512_insertf32x4(g, loadQuad(p + 4 * stride, lanes), 1);
            g = _mm512_insertf32x4(g, loadQuad(p + 8 * stride, lanes), 2);
            r[i] = _mm512_insertf32x4(g, loadQuad(p + 12 * stride, lanes),
                                      3);
        }
        const __m512 lo01 = _mm512_shuffle_ps(r[0], r[1], 0x44);
        const __m512 hi01 = _mm512_shuffle_ps(r[0], r[1], 0xEE);
        const __m512 lo23 = _mm512_shuffle_ps(r[2], r[3], 0x44);
        const __m512 hi23 = _mm512_shuffle_ps(r[2], r[3], 0xEE);
        d[4 * q] = _mm512_shuffle_ps(lo01, lo23, 0x88);
        d[4 * q + 1] = _mm512_shuffle_ps(lo01, lo23, 0xDD);
        d[4 * q + 2] = _mm512_shuffle_ps(hi01, hi23, 0x88);
        d[4 * q + 3] = _mm512_shuffle_ps(hi01, hi23, 0xDD);
    }
    __m512 best = distanceLanesAvx512(d, cbt, v, c, 0);
    __m512i code = _mm512_setzero_si512();
    for (int64_t j = 1; j < c; ++j) {
        const __m512 acc = distanceLanesAvx512(d, cbt, v, c, j);
        const __mmask16 lt = _mm512_cmp_ps_mask(acc, best, _CMP_LT_OQ);
        best = _mm512_mask_mov_ps(best, lt, acc);
        code = _mm512_mask_set1_epi32(code, lt, static_cast<int>(j));
    }
    _mm512_storeu_si512(codes, code);
}

/** AVX2 twin of encodeL2LanesAvx512: ONE 8-row block, 128-bit lane L of
 * r[i] holding row 4L + i, and VBLENDVPS/VPBLENDVB as the masked moves. */
template <int kV>
__attribute__((target("avx2"))) void
encodeL2LanesAvx2(const float *x, int64_t stride, const float *cbt,
                  int64_t v_rt, int64_t c, int32_t *codes)
{
    const int64_t v = kV > 0 ? kV : v_rt;
    __m256 d[kRowLaneMaxV];
    for (int64_t q = 0; 4 * q < v; ++q) {
        const int64_t lanes = std::min<int64_t>(4, v - 4 * q);
        __m256 r[4];
        for (int64_t i = 0; i < 4; ++i) {
            const float *p = x + i * stride + 4 * q;
            r[i] = _mm256_insertf128_ps(
                _mm256_castps128_ps256(loadQuad(p, lanes)),
                loadQuad(p + 4 * stride, lanes), 1);
        }
        const __m256 lo01 = _mm256_shuffle_ps(r[0], r[1], 0x44);
        const __m256 hi01 = _mm256_shuffle_ps(r[0], r[1], 0xEE);
        const __m256 lo23 = _mm256_shuffle_ps(r[2], r[3], 0x44);
        const __m256 hi23 = _mm256_shuffle_ps(r[2], r[3], 0xEE);
        d[4 * q] = _mm256_shuffle_ps(lo01, lo23, 0x88);
        d[4 * q + 1] = _mm256_shuffle_ps(lo01, lo23, 0xDD);
        d[4 * q + 2] = _mm256_shuffle_ps(hi01, hi23, 0x88);
        d[4 * q + 3] = _mm256_shuffle_ps(hi01, hi23, 0xDD);
    }
    __m256 best = distanceLanesAvx2(d, cbt, v, c, 0);
    __m256i code = _mm256_setzero_si256();
    for (int64_t j = 1; j < c; ++j) {
        const __m256 acc = distanceLanesAvx2(d, cbt, v, c, j);
        const __m256 lt = _mm256_cmp_ps(acc, best, _CMP_LT_OQ);
        best = _mm256_blendv_ps(best, acc, lt);
        code = _mm256_blendv_epi8(code, _mm256_set1_epi32(static_cast<int>(j)),
                                  _mm256_castps_si256(lt));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(codes), code);
}

/** Call `lanes(std::integral_constant<int, kV>{}, xi, codes_i)` on every
 * whole Block-row block of `rows` (row i at x + i * stride), with v a
 * compile-time kV at the common 3, 4 and 8 and kV = 0 otherwise; returns
 * the rows encoded (0 when v > kRowLaneMaxV, which the per-row kernel
 * keeps). */
template <int64_t Block, typename Lanes>
int64_t
encodeL2RowLanes(const float *x, int64_t rows, int64_t stride, int64_t v,
                 int32_t *codes, Lanes &&lanes)
{
    if (v > kRowLaneMaxV)
        return 0;
    const int64_t whole = rows - rows % Block;
    for (int64_t i = 0; i < whole; i += Block) {
        const float *xi = x + i * stride;
        switch (v) {
          case 3:
            lanes(std::integral_constant<int, 3>{}, xi, codes + i);
            break;
          case 4:
            lanes(std::integral_constant<int, 4>{}, xi, codes + i);
            break;
          case 8:
            lanes(std::integral_constant<int, 8>{}, xi, codes + i);
            break;
          default:
            lanes(std::integral_constant<int, 0>{}, xi, codes + i);
            break;
        }
    }
    return whole;
}

/** Encode `rows` subvectors one row at a time (the per-row tail of
 * encodeL2GenericRows) with the fewest 16-lane blocks that cover c (at
 * most NB), all-full blocks taking the mask-free kernel. */
template <int NB, bool kFull = false>
__attribute__((target("avx512f"))) void
encodeL2GenericRowsAvx512(const float *x, int64_t rows, int64_t stride,
                          const float *cbt, int64_t v, int64_t c,
                          int32_t *codes)
{
    if constexpr (NB > 1 && !kFull) {
        if (c <= 16 * (NB - 1)) {
            encodeL2GenericRowsAvx512<NB - 1>(x, rows, stride, cbt, v, c,
                                              codes);
            return;
        }
    }
    if constexpr (!kFull) {
        if (c == 16 * NB) {
            encodeL2GenericRowsAvx512<NB, true>(x, rows, stride, cbt, v, c,
                                                codes);
            return;
        }
    }
    for (int64_t i = 0; i < rows; ++i)
        codes[i] =
            argminL2GenericAvx512<NB, kFull>(x + i * stride, cbt, v, c);
}

/** AVX2 twin of encodeL2GenericRowsAvx512 (blocks of 8 lanes). */
template <int NB, bool kFull = false>
__attribute__((target("avx2"))) void
encodeL2GenericRowsAvx2(const float *x, int64_t rows, int64_t stride,
                        const float *cbt, int64_t v, int64_t c,
                        int32_t *codes)
{
    if constexpr (NB > 1 && !kFull) {
        if (c <= 8 * (NB - 1)) {
            encodeL2GenericRowsAvx2<NB - 1>(x, rows, stride, cbt, v, c,
                                            codes);
            return;
        }
    }
    if constexpr (!kFull) {
        if (c == 8 * NB) {
            encodeL2GenericRowsAvx2<NB, true>(x, rows, stride, cbt, v, c,
                                              codes);
            return;
        }
    }
    for (int64_t i = 0; i < rows; ++i)
        codes[i] = argminL2GenericAvx2<NB, kFull>(x + i * stride, cbt, v, c);
}

/**
 * Quantize 16 floats onto the encode bank's 7-bit grid: sub, mul, clamp
 * via max/min — MAXPS(t, 0) returns 0 for NaN, matching the scalar
 * reference's `t > 0 ? t : 0` — then CVTPS2DQ under the default
 * round-to-nearest-even mode, matching std::nearbyint. Returns 16 int32
 * levels in [0, 127].
 */
__attribute__((target("avx512f"), always_inline)) inline __m512i
quantizeChunkAvx512(__m512 t, __m512 vlo, __m512 vinv)
{
    t = _mm512_mul_ps(_mm512_sub_ps(t, vlo), vinv);
    t = _mm512_min_ps(_mm512_max_ps(t, _mm512_setzero_ps()),
                      _mm512_set1_ps(127.0f));
    return _mm512_cvtps_epi32(t);
}

/** AVX2 twin of quantizeChunkAvx512 over 8 floats. */
__attribute__((target("avx2"), always_inline)) inline __m256i
quantizeChunkAvx2(__m256 t, __m256 vlo, __m256 vinv)
{
    t = _mm256_mul_ps(_mm256_sub_ps(t, vlo), vinv);
    t = _mm256_min_ps(_mm256_max_ps(t, _mm256_setzero_ps()),
                      _mm256_set1_ps(127.0f));
    return _mm256_cvtps_epi32(t);
}

/** Bank dword `i` of a quad-interleaved cs_quad line (the 4 bytes of one
 * centroid's dim-quad), read without type-punning the int8 bank. */
inline int32_t
bankDword(const int8_t *cs_quad, int64_t i)
{
    int32_t w;
    std::memcpy(&w, cs_quad + 4 * i, 4);
    return w;
}

/**
 * INT8 argmin-encode of ONE 16-row block, VNNI tier, rows in lanes: int32
 * lane r of acc[j] holds row r's key for centroid j,
 *
 *     key_j = 2 * dot(x_u, c_s[j]) - ||c_u[j]||^2 = -score_j,
 *
 * so the scalar reference's strict-< argmin over score_j is a strict->
 * argmax over key_j (identical int32 values up to sign, lowest index on
 * ties). x_u is doubled before the dot (2 * 127 = 254 still fits the u8
 * operand), and the accumulators start at -norm_j, so each (centroid,
 * quad) costs exactly one VPDPBUSD against a broadcast bank dword and the
 * reduction is a 15-step vertical compare/select — no horizontal shuffles.
 * Pad centroids start at -INT32_MAX against an all-zero bank and can never
 * win. The rows are quantized exactly like the per-row path, in 8-dim
 * chunks with two rows per register (so v = 8 wastes no lanes); PACKSSDW
 * + PACKUSWB turn four such registers into bytes, and one 128-bit lane
 * shuffle per quad gathers that quad of all 16 rows into one register.
 */
__attribute__((target("avx512f,avx512bw,avx512vnni"))) void
encodeInt8LanesVnni(const float *x, int64_t stride, const int8_t *cs_quad,
                    const int32_t *norms, float lo, float inv, int64_t v,
                    int32_t *codes)
{
    const int64_t vq4 = (v + 3) / 4;
    const __m512 vlo = _mm512_set1_ps(lo);
    const __m512 vinv = _mm512_set1_ps(inv);
    __m512i acc[16];
    for (int64_t j = 0; j < 16; ++j)
        acc[j] = _mm512_set1_epi32(-norms[j]);
    for (int64_t t0 = 0; t0 < v; t0 += 8) {
        const int64_t lanes = std::min<int64_t>(8, v - t0);
        const __mmask16 lm = static_cast<__mmask16>((1u << lanes) - 1u);
        __m512i u[2];
        for (int64_t h = 0; h < 2; ++h) {
            // Two rows per register: row 8h + k in lanes 0..7, row
            // 8h + 4 + k in lanes 8..15.
            __m512i q[4];
            for (int64_t k = 0; k < 4; ++k) {
                const float *r = x + (8 * h + k) * stride + t0;
                q[k] = quantizeChunkAvx512(
                    _mm512_shuffle_f32x4(
                        _mm512_maskz_loadu_ps(lm, r),
                        _mm512_maskz_loadu_ps(lm, r + 4 * stride), 0x44),
                    vlo, vinv);
            }
            // Levels are <= 127, so neither pack saturates. 128-bit lane
            // L of u[h] is quad t0 / 4 + (L & 1) of rows 8h + 4 * (L >> 1)
            // .. + 3.
            u[h] = _mm512_packus_epi16(_mm512_packs_epi32(q[0], q[1]),
                                       _mm512_packs_epi32(q[2], q[3]));
        }
        const __m512i xl[2] = {_mm512_shuffle_i32x4(u[0], u[1], 0x88),
                               _mm512_shuffle_i32x4(u[0], u[1], 0xDD)};
        // A quad past vq4 holds garbage and is never read; dims past v
        // inside the last quad meet zero bank bytes.
        const int64_t quads = std::min<int64_t>(2, vq4 - t0 / 4);
        for (int64_t q = 0; q < quads; ++q) {
            const __m512i x2 = _mm512_add_epi8(xl[q], xl[q]);
            const int64_t line = (t0 / 4 + q) * 16;
            for (int64_t j = 0; j < 16; ++j)
                acc[j] = _mm512_dpbusd_epi32(
                    acc[j], x2,
                    _mm512_set1_epi32(bankDword(cs_quad, line + j)));
        }
    }
    __m512i best = acc[0];
    __m512i code = _mm512_setzero_si512();
    for (int64_t j = 1; j < 16; ++j) {
        const __mmask16 gt = _mm512_cmpgt_epi32_mask(acc[j], best);
        best = _mm512_mask_mov_epi32(best, gt, acc[j]);
        code = _mm512_mask_mov_epi32(code, gt,
                                     _mm512_set1_epi32(static_cast<int>(j)));
    }
    _mm512_storeu_si512(codes, code);
}

/**
 * INT8 argmin-encode, VNNI tier: whole 16-row blocks run row-lane
 * (encodeInt8LanesVnni); the remainder of fewer than 16 rows keeps the
 * per-row kernel, which wins at such small counts. Per row: quantize in
 * 16-float chunks, one VPDPBUSD per dim-quad folds x_u (unsigned) against
 * c_s (signed) for all 16 centroid lanes, and a shuffle/min tree finds the
 * lowest-index minimum of score = norm - 2 * dot. Bytes past v in the
 * last chunk hold the quantization of 0.0f; the bank's quad layout stores
 * 0 there, so they contribute nothing — the scalar reference simply never
 * reads them.
 */
__attribute__((target("avx512f,avx512bw,avx512vnni"))) void
encodeInt8RowsVnni(const float *x, int64_t rows, int64_t stride,
                   const int8_t *cs_quad, const int32_t *norms, float lo,
                   float inv, int64_t v, int32_t *codes)
{
    int64_t i = 0;
    for (; i + 16 <= rows; i += 16)
        encodeInt8LanesVnni(x + i * stride, stride, cs_quad, norms, lo, inv,
                            v, codes + i);
    const int64_t vq4 = (v + 3) / 4;
    const __m512 vlo = _mm512_set1_ps(lo);
    const __m512 vinv = _mm512_set1_ps(inv);
    const __m512i vnorm = _mm512_loadu_si512(norms);
    alignas(64) uint8_t xq[128];
    for (; i < rows; ++i) {
        const float *sub = x + i * stride;
        for (int64_t t0 = 0; t0 < v; t0 += 16) {
            const int64_t lanes = std::min<int64_t>(16, v - t0);
            const __mmask16 lm =
                static_cast<__mmask16>((1u << lanes) - 1u);
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(xq + t0),
                _mm512_cvtepi32_epi8(quantizeChunkAvx512(
                    _mm512_maskz_loadu_ps(lm, sub + t0), vlo, vinv)));
        }
        __m512i acc = _mm512_setzero_si512();
        for (int64_t qd = 0; qd < vq4; ++qd) {
            uint32_t xw;
            std::memcpy(&xw, xq + 4 * qd, 4);
            const __m512i xb = _mm512_set1_epi32(static_cast<int>(xw));
            const __m512i cb = _mm512_loadu_si512(cs_quad + qd * 64);
            acc = _mm512_dpbusd_epi32(acc, xb, cb);
        }
        // score_j = ||c_u_j||^2 - 2 * dot; pad centroids hold INT32_MAX
        // norms and zero bank bytes, so they never win the min.
        const __m512i score =
            _mm512_sub_epi32(vnorm, _mm512_slli_epi32(acc, 1));
        __m512i m = _mm512_min_epi32(
            score, _mm512_shuffle_i32x4(score, score, 0x4E));
        m = _mm512_min_epi32(m, _mm512_shuffle_i32x4(m, m, 0xB1));
        m = _mm512_min_epi32(
            m, _mm512_shuffle_epi32(m, static_cast<_MM_PERM_ENUM>(0x4E)));
        m = _mm512_min_epi32(
            m, _mm512_shuffle_epi32(m, static_cast<_MM_PERM_ENUM>(0xB1)));
        const __mmask16 eq = _mm512_cmpeq_epi32_mask(score, m);
        codes[i] = static_cast<int32_t>(__builtin_ctz(eq));
    }
}

/**
 * INT8 argmin-encode of ONE 8-row block, AVX2 tier, rows in lanes. Unlike
 * the VNNI tier this keeps score = norm - 2 * dot: VPMADDUBSW pair sums of
 * a doubled x_u would reach 2 * 254 * 128 = 65024 and saturate int16, so
 * the doubling rides on VPMADDWD instead (pairs times 2, exact in int32)
 * and each accumulator starts at norm_j and subtracts. AVX2 has only 16
 * ymm registers, so the 16 centroids run as two halves of 8 accumulators.
 * The quantized rows are transposed once into xt (quad-major, one dword
 * lane per row) and re-read by both halves.
 */
__attribute__((target("avx2"))) void
encodeInt8LanesAvx2(const float *x, int64_t stride, const int8_t *cs_quad,
                    const int32_t *norms, float lo, float inv, int64_t v,
                    int32_t *codes)
{
    static const int32_t kLaneMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                          0,  0,  0,  0,  0,  0,  0,  0};
    const int64_t vq4 = (v + 3) / 4;
    const __m256 vlo = _mm256_set1_ps(lo);
    const __m256 vinv = _mm256_set1_ps(inv);
    // Quad-major transposed levels; an odd vq4's last chunk also writes
    // a garbage quad vq4, which stays inside the array and is never read.
    alignas(32) int32_t xt[32][8];
    for (int64_t t0 = 0; t0 < v; t0 += 8) {
        const int64_t lanes = std::min<int64_t>(8, v - t0);
        const __m256i lm = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(kLaneMask + 8 - lanes));
        __m256i u[2];
        for (int64_t b = 0; b < 2; ++b) {
            __m256i q[4];
            for (int64_t k = 0; k < 4; ++k)
                q[k] = quantizeChunkAvx2(
                    _mm256_maskload_ps(x + (4 * b + k) * stride + t0, lm),
                    vlo, vinv);
            // 128-bit lane L = quad (t0 / 4 + L) of rows 4b..4b+3.
            u[b] = _mm256_packus_epi16(_mm256_packs_epi32(q[0], q[1]),
                                       _mm256_packs_epi32(q[2], q[3]));
        }
        _mm256_store_si256(reinterpret_cast<__m256i *>(xt[t0 / 4]),
                           _mm256_permute2x128_si256(u[0], u[1], 0x20));
        _mm256_store_si256(reinterpret_cast<__m256i *>(xt[t0 / 4 + 1]),
                           _mm256_permute2x128_si256(u[0], u[1], 0x31));
    }
    const __m256i twos = _mm256_set1_epi16(2);
    __m256i best = _mm256_set1_epi32(std::numeric_limits<int32_t>::max());
    __m256i code = _mm256_setzero_si256();
    for (int64_t h = 0; h < 2; ++h) {
        __m256i acc[8];
        for (int64_t j = 0; j < 8; ++j)
            acc[j] = _mm256_set1_epi32(norms[8 * h + j]);
        for (int64_t qd = 0; qd < vq4; ++qd) {
            const __m256i xq = _mm256_load_si256(
                reinterpret_cast<const __m256i *>(xt[qd]));
            const int64_t line = qd * 16 + 8 * h;
            for (int64_t j = 0; j < 8; ++j)
                acc[j] = _mm256_sub_epi32(
                    acc[j],
                    _mm256_madd_epi16(
                        _mm256_maddubs_epi16(
                            xq, _mm256_set1_epi32(
                                    bankDword(cs_quad, line + j))),
                        twos));
        }
        // Strict < over ascending j: the lowest index keeps a tie. Every
        // real score is far below the INT32_MAX seed, so centroid 0
        // always takes the first compare.
        for (int64_t j = 0; j < 8; ++j) {
            const __m256i lt = _mm256_cmpgt_epi32(best, acc[j]);
            best = _mm256_min_epi32(best, acc[j]);
            code = _mm256_blendv_epi8(
                code, _mm256_set1_epi32(static_cast<int>(8 * h + j)), lt);
        }
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(codes), code);
}

/**
 * INT8 argmin-encode, AVX2 tier (also serves plain AVX-512 hosts): whole
 * 8-row blocks run row-lane (encodeInt8LanesAvx2), the remainder keeps
 * the per-row kernel. VPMADDUBSW pairs x_u (unsigned, <= 127) with c_s
 * (signed, >= -128): a pair sum is bounded by 127 * 128 * 2 = 32512 <
 * 32767, so the int16 lanes never saturate; VPMADDWD against ones widens
 * the pairs into the same exact int32 quad-dots VPDPBUSD produces.
 */
__attribute__((target("avx2"))) void
encodeInt8RowsAvx2(const float *x, int64_t rows, int64_t stride,
                   const int8_t *cs_quad, const int32_t *norms, float lo,
                   float inv, int64_t v, int32_t *codes)
{
    int64_t i = 0;
    for (; i + 8 <= rows; i += 8)
        encodeInt8LanesAvx2(x + i * stride, stride, cs_quad, norms, lo, inv,
                            v, codes + i);
    static const int32_t kLaneMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                          0,  0,  0,  0,  0,  0,  0,  0};
    const int64_t vq4 = (v + 3) / 4;
    const __m256 vlo = _mm256_set1_ps(lo);
    const __m256 vinv = _mm256_set1_ps(inv);
    const __m256i ones16 = _mm256_set1_epi16(1);
    const __m256i norm0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(norms));
    const __m256i norm1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(norms + 8));
    alignas(32) int32_t qtmp[8];
    alignas(32) uint8_t xq[128];
    for (; i < rows; ++i) {
        const float *sub = x + i * stride;
        for (int64_t t0 = 0; t0 < v; t0 += 8) {
            const int64_t lanes = std::min<int64_t>(8, v - t0);
            const __m256i lm = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(kLaneMask + 8 - lanes));
            _mm256_store_si256(
                reinterpret_cast<__m256i *>(qtmp),
                quantizeChunkAvx2(_mm256_maskload_ps(sub + t0, lm), vlo,
                                  vinv));
            for (int64_t k = 0; k < 8 && t0 + k < 4 * vq4; ++k)
                xq[t0 + k] = static_cast<uint8_t>(qtmp[k]);
        }
        __m256i acc0 = _mm256_setzero_si256();
        __m256i acc1 = _mm256_setzero_si256();
        for (int64_t qd = 0; qd < vq4; ++qd) {
            uint32_t xw;
            std::memcpy(&xw, xq + 4 * qd, 4);
            const __m256i xb = _mm256_set1_epi32(static_cast<int>(xw));
            const __m256i cb0 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(cs_quad + qd * 64));
            const __m256i cb1 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(cs_quad + qd * 64 + 32));
            acc0 = _mm256_add_epi32(
                acc0,
                _mm256_madd_epi16(_mm256_maddubs_epi16(xb, cb0), ones16));
            acc1 = _mm256_add_epi32(
                acc1,
                _mm256_madd_epi16(_mm256_maddubs_epi16(xb, cb1), ones16));
        }
        const __m256i s0 =
            _mm256_sub_epi32(norm0, _mm256_slli_epi32(acc0, 1));
        const __m256i s1 =
            _mm256_sub_epi32(norm1, _mm256_slli_epi32(acc1, 1));
        __m256i m = _mm256_min_epi32(s0, s1);
        m = _mm256_min_epi32(m, _mm256_permute2x128_si256(m, m, 0x01));
        m = _mm256_min_epi32(m, _mm256_shuffle_epi32(m, 0x4E));
        m = _mm256_min_epi32(m, _mm256_shuffle_epi32(m, 0xB1));
        const unsigned eq0 = static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(s0, m))));
        const unsigned eq1 = static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(s1, m))));
        codes[i] = static_cast<int32_t>(__builtin_ctz(eq0 | (eq1 << 8)));
    }
}

// The INT4 shuffle gathers sum up to one scale group of biased nibbles
// (each <= 15) in u8 lanes before widening; that is exact only while the
// group sum fits a byte.
static_assert(LutTableArena::kInt4ScaleGroup * 15 <= 255,
              "INT4 group sums must fit the u8 accumulator lanes");

/**
 * Dequantize one nibble plane's u8 group sums (64 rows) into the
 * column-major output: widen to int16, remove the +8 bias of every summed
 * nibble (`bias` = 8 * group size), spill through int32, then one mul +
 * add per group — the scalar sweep's exact float ops. The first group
 * stores instead of adding.
 */
__attribute__((target("avx512f,avx512bw"), always_inline)) inline void
spillNibblePlaneAvx512(float *out, __m512i sums, __m512i bias, __m512 vs,
                       bool first)
{
    const __m512i lo = _mm512_sub_epi16(
        _mm512_cvtepu8_epi16(_mm512_castsi512_si256(sums)), bias);
    const __m512i hi = _mm512_sub_epi16(
        _mm512_cvtepu8_epi16(_mm512_extracti64x4_epi64(sums, 1)), bias);
    const __m256i parts[4] = {
        _mm512_castsi512_si256(lo), _mm512_extracti64x4_epi64(lo, 1),
        _mm512_castsi512_si256(hi), _mm512_extracti64x4_epi64(hi, 1)};
    for (int64_t k = 0; k < 4; ++k) {
        const __m512 f = _mm512_mul_ps(
            _mm512_cvtepi32_ps(_mm512_cvtepi16_epi32(parts[k])), vs);
        float *o = out + 16 * k;
        _mm512_storeu_ps(o, first ? f : _mm512_add_ps(_mm512_loadu_ps(o), f));
    }
}

/** AVX2 twin of spillNibblePlaneAvx512 (32 rows). */
__attribute__((target("avx2"), always_inline)) inline void
spillNibblePlaneAvx2(float *out, __m256i sums, __m256i bias, __m256 vs,
                     bool first)
{
    const __m256i lo = _mm256_sub_epi16(
        _mm256_cvtepu8_epi16(_mm256_castsi256_si128(sums)), bias);
    const __m256i hi = _mm256_sub_epi16(
        _mm256_cvtepu8_epi16(_mm256_extracti128_si256(sums, 1)), bias);
    const __m128i parts[4] = {
        _mm256_castsi256_si128(lo), _mm256_extracti128_si256(lo, 1),
        _mm256_castsi256_si128(hi), _mm256_extracti128_si256(hi, 1)};
    for (int64_t k = 0; k < 4; ++k) {
        const __m256 f = _mm256_mul_ps(
            _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(parts[k])), vs);
        float *o = out + 8 * k;
        _mm256_storeu_ps(o, first ? f : _mm256_add_ps(_mm256_loadu_ps(o), f));
    }
}

/**
 * INT4 shuffle gather, AVX-512 tier: each (subspace, column pair) LUT is
 * one 16-byte row of the interleaved bank, broadcast to every 128-bit
 * lane, and each looked-up byte packs TWO adjacent output columns (low
 * nibble = even column, high nibble = odd column, both bias-shifted by
 * +8), so one VPSHUFB + one AND + one shift resolve 64 rows of BOTH
 * columns of a pair — the reuse that makes a byte shuffle beat the
 * scalar sweep (an INT8 lookup serves one column and loses to it).
 * Biased nibbles (0..15) accumulate in u8 lanes across the whole scale
 * group — at most 16 * 15 = 240, exact — so the subspace loop is 6 byte
 * ops with no widening. Once per (group,
 * pair) each plane zero-extends to int16, one subtract of 8 * gs recovers
 * the signed sum, and the per-group dequantizing mul + add follows: the
 * same float op sequence the scalar packed sweep emits.
 */
__attribute__((target("avx512f,avx512bw"))) void
gatherChunkInt4Avx512(const uint8_t *__restrict__ q4_il,
                      const float *__restrict__ scales,
                      const uint8_t *__restrict__ codes,
                      int64_t code_stride, int64_t num_subspaces, int64_t n,
                      int64_t num_blocks, int64_t scale_group,
                      int64_t block_cols, float *__restrict__ colmajor)
{
    constexpr int64_t kChunk = 64;
    const int64_t half_n = (n + 1) / 2;
    const int64_t num_groups =
        (num_subspaces + scale_group - 1) / scale_group;
    const __m512i nib_mask = _mm512_set1_epi8(0x0F);
    for (int64_t g = 0; g < num_groups; ++g) {
        const int64_t s0 = g * scale_group;
        const int64_t gs =
            std::min<int64_t>(scale_group, num_subspaces - s0);
        __m512i idx[16];
        for (int64_t i = 0; i < gs; ++i)
            idx[i] = _mm512_loadu_si512(codes + (s0 + i) * code_stride);
        const float *srow = scales + g * num_blocks;
        const __m512i bias =
            _mm512_set1_epi16(static_cast<short>(8 * gs));
        for (int64_t p = 0; p < half_n; ++p) {
            __m512i even = _mm512_setzero_si512();
            __m512i odd = _mm512_setzero_si512();
            for (int64_t i = 0; i < gs; ++i) {
                const __m512i lut = _mm512_broadcast_i32x4(
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                        q4_il + ((s0 + i) * half_n + p) * 16)));
                const __m512i v = _mm512_shuffle_epi8(lut, idx[i]);
                even = _mm512_add_epi8(even, _mm512_and_si512(v, nib_mask));
                odd = _mm512_add_epi8(
                    odd, _mm512_and_si512(_mm512_srli_epi16(v, 4), nib_mask));
            }
            // block_cols is even, so both columns of the pair live in
            // one scale block: a single broadcast serves the pair.
            const __m512 vs = _mm512_set1_ps(srow[(2 * p) / block_cols]);
            spillNibblePlaneAvx512(colmajor + (2 * p) * kChunk, even, bias,
                                   vs, g == 0);
            if (2 * p + 1 >= n)
                continue;  // odd N: the high plane has no partner column
            spillNibblePlaneAvx512(colmajor + (2 * p + 1) * kChunk, odd,
                                   bias, vs, g == 0);
        }
    }
}

/** INT4 shuffle gather, AVX2 tier (32-row chunks); see the AVX-512
 * variant for the nibble-plane and u8-accumulation contract. */
__attribute__((target("avx2"))) void
gatherChunkInt4Avx2(const uint8_t *__restrict__ q4_il,
                    const float *__restrict__ scales,
                    const uint8_t *__restrict__ codes,
                    int64_t code_stride, int64_t num_subspaces, int64_t n,
                    int64_t num_blocks, int64_t scale_group,
                    int64_t block_cols, float *__restrict__ colmajor)
{
    constexpr int64_t kChunk = 32;
    const int64_t half_n = (n + 1) / 2;
    const int64_t num_groups =
        (num_subspaces + scale_group - 1) / scale_group;
    const __m256i nib_mask = _mm256_set1_epi8(0x0F);
    for (int64_t g = 0; g < num_groups; ++g) {
        const int64_t s0 = g * scale_group;
        const int64_t gs =
            std::min<int64_t>(scale_group, num_subspaces - s0);
        __m256i idx[16];
        for (int64_t i = 0; i < gs; ++i)
            idx[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                codes + (s0 + i) * code_stride));
        const float *srow = scales + g * num_blocks;
        const __m256i bias =
            _mm256_set1_epi16(static_cast<short>(8 * gs));
        for (int64_t p = 0; p < half_n; ++p) {
            __m256i even = _mm256_setzero_si256();
            __m256i odd = _mm256_setzero_si256();
            for (int64_t i = 0; i < gs; ++i) {
                const __m256i lut = _mm256_broadcastsi128_si256(
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                        q4_il + ((s0 + i) * half_n + p) * 16)));
                const __m256i v = _mm256_shuffle_epi8(lut, idx[i]);
                even = _mm256_add_epi8(even, _mm256_and_si256(v, nib_mask));
                odd = _mm256_add_epi8(
                    odd, _mm256_and_si256(_mm256_srli_epi16(v, 4), nib_mask));
            }
            const __m256 vs = _mm256_set1_ps(srow[(2 * p) / block_cols]);
            spillNibblePlaneAvx2(colmajor + (2 * p) * kChunk, even, bias, vs,
                                 g == 0);
            if (2 * p + 1 >= n)
                continue;
            spillNibblePlaneAvx2(colmajor + (2 * p + 1) * kChunk, odd, bias,
                                 vs, g == 0);
        }
    }
}

/**
 * Prefetch the bank rows of subspaces [s_begin, s_end) that one row's
 * codes select. The INT4 row sweeps call it for the next scale group
 * while they sum the current one: with the bank streamed from the LLC
 * (a served model's banks do not fit L2), each group's 16 scattered
 * rows would otherwise be fetched one dependent batch at a time.
 */
inline void
prefetchInt4Rows(const uint8_t *q4, const int32_t *rcodes, int64_t s_begin,
                 int64_t s_end, int64_t c, int64_t half_n)
{
    for (int64_t s = s_begin; s < s_end; ++s) {
        const char *row =
            reinterpret_cast<const char *>(q4 + (s * c + rcodes[s]) * half_n);
        for (int64_t b = 0; b < half_n; b += 64)
            _mm_prefetch(row + b, _MM_HINT_T0);
    }
}

/**
 * Row-sweep twin of the scalar INT4 packed group sweep, AVX-512 tier:
 * for row tails too short for a shuffle chunk. Per (row, scale group,
 * 128-column block), one (masked) 64-byte load per subspace row of the
 * row-major bank splits into its two nibble planes, which sum in u8
 * lanes (at most 16 * 15 = 240, exact). VPUNPCK{L,H}BW re-interleave
 * the planes into column order (even column = low nibble), VPMOVZXBD
 * widens 16 columns at a time to int32, one subtract of 8 * gs removes
 * the bias, and one mul + add per (group, column) accumulates into y —
 * the scalar sweep's float ops in its order, so bit-identical.
 */
__attribute__((target("avx512f,avx512bw"))) void
sweepInt4RowsAvx512(const uint8_t *__restrict__ q4,
                    const float *__restrict__ scales,
                    const int32_t *__restrict__ codes, int64_t rows,
                    int64_t n, int64_t num_subspaces, int64_t c,
                    int64_t num_blocks, int64_t scale_group,
                    int64_t block_cols, float *__restrict__ y)
{
    const int64_t half_n = (n + 1) / 2;
    const int64_t num_groups =
        (num_subspaces + scale_group - 1) / scale_group;
    const __m512i nib_mask = _mm512_set1_epi8(0x0F);
    for (int64_t r = 0; r < rows; ++r) {
        const int32_t *rcodes = codes + r * num_subspaces;
        float *yr = y + r * n;
        for (int64_t g = 0; g < num_groups; ++g) {
            const int64_t s0 = g * scale_group;
            const int64_t gs =
                std::min<int64_t>(scale_group, num_subspaces - s0);
            prefetchInt4Rows(
                q4, rcodes, s0 + gs,
                std::min(num_subspaces, s0 + gs + scale_group), c, half_n);
            const uint8_t *entry[16];
            for (int64_t i = 0; i < gs; ++i)
                entry[i] = q4 + ((s0 + i) * c + rcodes[s0 + i]) * half_n;
            const __m512i bias =
                _mm512_set1_epi32(static_cast<int32_t>(8 * gs));
            const float *srow = scales + g * num_blocks;
            for (int64_t c0 = 0; c0 < n; c0 += 128) {
                const int64_t bytes = std::min<int64_t>(64, half_n - c0 / 2);
                const __mmask64 load_mask =
                    bytes == 64 ? ~__mmask64{0}
                                : (__mmask64{1} << bytes) - 1;
                __m512i lo = _mm512_setzero_si512();
                __m512i hi = _mm512_setzero_si512();
                for (int64_t i = 0; i < gs; ++i) {
                    const __m512i v =
                        _mm512_maskz_loadu_epi8(load_mask, entry[i] + c0 / 2);
                    lo = _mm512_add_epi8(lo, _mm512_and_si512(v, nib_mask));
                    hi = _mm512_add_epi8(
                        hi,
                        _mm512_and_si512(_mm512_srli_epi16(v, 4), nib_mask));
                }
                // Per 128-bit lane L: unpacklo holds columns 32L..32L+15,
                // unpackhi columns 32L+16..32L+31.
                const __m512i even = _mm512_unpacklo_epi8(lo, hi);
                const __m512i odd = _mm512_unpackhi_epi8(lo, hi);
                const __m128i parts[8] = {
                    _mm512_castsi512_si128(even),
                    _mm512_castsi512_si128(odd),
                    _mm512_extracti32x4_epi32(even, 1),
                    _mm512_extracti32x4_epi32(odd, 1),
                    _mm512_extracti32x4_epi32(even, 2),
                    _mm512_extracti32x4_epi32(odd, 2),
                    _mm512_extracti32x4_epi32(even, 3),
                    _mm512_extracti32x4_epi32(odd, 3)};
                const __m512 vs = _mm512_set1_ps(srow[c0 / block_cols]);
                const int64_t cols = std::min<int64_t>(128, n - c0);
                for (int64_t k = 0; k < 8 && 16 * k < cols; ++k) {
                    const __mmask16 m = static_cast<__mmask16>(
                        (1u << std::min<int64_t>(16, cols - 16 * k)) - 1);
                    float *out = yr + c0 + 16 * k;
                    const __m512 f = _mm512_mul_ps(
                        vs, _mm512_cvtepi32_ps(_mm512_sub_epi32(
                                _mm512_cvtepu8_epi32(parts[k]), bias)));
                    _mm512_mask_storeu_ps(
                        out, m,
                        _mm512_add_ps(_mm512_maskz_loadu_ps(m, out), f));
                }
            }
        }
    }
}

/**
 * AVX2 twin of sweepInt4RowsAvx512 over 64-column blocks (one 32-byte
 * load per subspace row). A ragged last block is staged through a
 * 32-byte buffer: AVX2 has no byte-masked load, and a full load could
 * run past the bank's end.
 */
__attribute__((target("avx2"))) void
sweepInt4RowsAvx2(const uint8_t *__restrict__ q4,
                  const float *__restrict__ scales,
                  const int32_t *__restrict__ codes, int64_t rows,
                  int64_t n, int64_t num_subspaces, int64_t c,
                  int64_t num_blocks, int64_t scale_group,
                  int64_t block_cols, float *__restrict__ y)
{
    const int64_t half_n = (n + 1) / 2;
    const int64_t num_groups =
        (num_subspaces + scale_group - 1) / scale_group;
    const __m256i nib_mask = _mm256_set1_epi8(0x0F);
    const __m256i lane_idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    alignas(32) uint8_t staged[32] = {};
    for (int64_t r = 0; r < rows; ++r) {
        const int32_t *rcodes = codes + r * num_subspaces;
        float *yr = y + r * n;
        for (int64_t g = 0; g < num_groups; ++g) {
            const int64_t s0 = g * scale_group;
            const int64_t gs =
                std::min<int64_t>(scale_group, num_subspaces - s0);
            prefetchInt4Rows(
                q4, rcodes, s0 + gs,
                std::min(num_subspaces, s0 + gs + scale_group), c, half_n);
            const uint8_t *entry[16];
            for (int64_t i = 0; i < gs; ++i)
                entry[i] = q4 + ((s0 + i) * c + rcodes[s0 + i]) * half_n;
            const __m256i bias =
                _mm256_set1_epi32(static_cast<int32_t>(8 * gs));
            const float *srow = scales + g * num_blocks;
            for (int64_t c0 = 0; c0 < n; c0 += 64) {
                const int64_t bytes = std::min<int64_t>(32, half_n - c0 / 2);
                __m256i lo = _mm256_setzero_si256();
                __m256i hi = _mm256_setzero_si256();
                for (int64_t i = 0; i < gs; ++i) {
                    const uint8_t *src = entry[i] + c0 / 2;
                    if (bytes < 32) {
                        std::memcpy(staged, src, static_cast<size_t>(bytes));
                        src = staged;
                    }
                    const __m256i v = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(src));
                    lo = _mm256_add_epi8(lo, _mm256_and_si256(v, nib_mask));
                    hi = _mm256_add_epi8(
                        hi,
                        _mm256_and_si256(_mm256_srli_epi16(v, 4), nib_mask));
                }
                // Per 128-bit lane L: unpacklo holds columns 32L..32L+15,
                // unpackhi columns 32L+16..32L+31.
                const __m256i even = _mm256_unpacklo_epi8(lo, hi);
                const __m256i odd = _mm256_unpackhi_epi8(lo, hi);
                const __m128i quarters[4] = {
                    _mm256_castsi256_si128(even),
                    _mm256_castsi256_si128(odd),
                    _mm256_extracti128_si256(even, 1),
                    _mm256_extracti128_si256(odd, 1)};
                const __m256 vs = _mm256_set1_ps(srow[c0 / block_cols]);
                const int64_t cols = std::min<int64_t>(64, n - c0);
                for (int64_t k = 0; k < 8 && 8 * k < cols; ++k) {
                    const __m256i m = _mm256_cmpgt_epi32(
                        _mm256_set1_epi32(static_cast<int32_t>(cols - 8 * k)),
                        lane_idx);
                    const __m128i q = quarters[k / 2];
                    const __m256i wide = _mm256_cvtepu8_epi32(
                        k % 2 == 0 ? q : _mm_srli_si128(q, 8));
                    float *out = yr + c0 + 8 * k;
                    const __m256 f = _mm256_mul_ps(
                        vs,
                        _mm256_cvtepi32_ps(_mm256_sub_epi32(wide, bias)));
                    _mm256_maskstore_ps(
                        out, m, _mm256_add_ps(_mm256_maskload_ps(out, m), f));
                }
            }
        }
    }
}

/**
 * VPERMB + VPDPBUSD gather: one 64-byte LUT carries FOUR subspaces'
 * 16-entry tables; idx bytes are (code + 16 * j) so a single VPERMB
 * resolves 16 rows x 4 subspaces, laid out [row-quad interleaved] so
 * VPDPBUSD(acc, ones, v) folds each row's 4 looked-up bytes straight
 * into its int32 lane, with no int8->int16->int32 widening chain. The
 * only INT8 shuffle tier: a 16-byte VPSHUFB lookup per (subspace,
 * column) measured slower than the scalar group sweep (docs/SERVING.md,
 * "Kernel tier audit").
 */
__attribute__((target("avx512f,avx512bw,avx512vbmi,avx512vnni"))) void
gatherChunkVnni(const int8_t *__restrict__ q_quad,
                const float *__restrict__ scales,
                const uint8_t *__restrict__ codes, int64_t code_stride,
                int64_t num_subspaces, int64_t n, int64_t num_blocks,
                int64_t scale_group, int64_t block_cols,
                float *__restrict__ colmajor)
{
    constexpr int64_t kChunk = 64;
    const int64_t num_groups =
        (num_subspaces + scale_group - 1) / scale_group;
    const __m512i ones = _mm512_set1_epi8(1);
    for (int64_t g = 0; g < num_groups; ++g) {
        const int64_t s0 = g * scale_group;
        const int64_t gs =
            std::min<int64_t>(scale_group, num_subspaces - s0);
        const int64_t quads = (gs + 3) / 4;
        // Interleave this group's code lanes into VPERMB index vectors:
        // qidx[qd][b] covers rows 16b..16b+15, byte 4r+j = code(row,
        // subspace s0+4qd+j) + 16j (missing tail subspaces index the
        // LUT's zero padding via code 0).
        alignas(64) uint8_t qidx[4][4][64];
        for (int64_t qd = 0; qd < quads; ++qd)
            for (int64_t j = 0; j < 4; ++j) {
                const int64_t s = s0 + 4 * qd + j;
                const uint8_t base = static_cast<uint8_t>(16 * j);
                if (s < num_subspaces) {
                    const uint8_t *lane = codes + s * code_stride;
                    for (int64_t r = 0; r < kChunk; ++r)
                        qidx[qd][r >> 4][4 * (r & 15) + j] =
                            static_cast<uint8_t>(lane[r] + base);
                } else {
                    for (int64_t r = 0; r < kChunk; ++r)
                        qidx[qd][r >> 4][4 * (r & 15) + j] = base;
                }
            }
        __m512i idx[4][4];
        for (int64_t qd = 0; qd < quads; ++qd)
            for (int64_t b = 0; b < 4; ++b)
                idx[qd][b] = _mm512_load_si512(qidx[qd][b]);
        const float *srow = scales + g * num_blocks;
        const int64_t quad0 = s0 / 4;
        for (int64_t col = 0; col < n; ++col) {
            __m512i acc0 = _mm512_setzero_si512();
            __m512i acc1 = _mm512_setzero_si512();
            __m512i acc2 = _mm512_setzero_si512();
            __m512i acc3 = _mm512_setzero_si512();
            for (int64_t qd = 0; qd < quads; ++qd) {
                const __m512i lut = _mm512_loadu_si512(
                    q_quad + ((quad0 + qd) * n + col) * 64);
                acc0 = _mm512_dpbusd_epi32(
                    acc0, ones,
                    _mm512_permutexvar_epi8(idx[qd][0], lut));
                acc1 = _mm512_dpbusd_epi32(
                    acc1, ones,
                    _mm512_permutexvar_epi8(idx[qd][1], lut));
                acc2 = _mm512_dpbusd_epi32(
                    acc2, ones,
                    _mm512_permutexvar_epi8(idx[qd][2], lut));
                acc3 = _mm512_dpbusd_epi32(
                    acc3, ones,
                    _mm512_permutexvar_epi8(idx[qd][3], lut));
            }
            const __m512 vs = _mm512_set1_ps(srow[col / block_cols]);
            const __m512 f0 = _mm512_mul_ps(_mm512_cvtepi32_ps(acc0), vs);
            const __m512 f1 = _mm512_mul_ps(_mm512_cvtepi32_ps(acc1), vs);
            const __m512 f2 = _mm512_mul_ps(_mm512_cvtepi32_ps(acc2), vs);
            const __m512 f3 = _mm512_mul_ps(_mm512_cvtepi32_ps(acc3), vs);
            float *out = colmajor + col * kChunk;
            if (g == 0) {
                _mm512_storeu_ps(out, f0);
                _mm512_storeu_ps(out + 16, f1);
                _mm512_storeu_ps(out + 32, f2);
                _mm512_storeu_ps(out + 48, f3);
            } else {
                _mm512_storeu_ps(
                    out, _mm512_add_ps(_mm512_loadu_ps(out), f0));
                _mm512_storeu_ps(
                    out + 16,
                    _mm512_add_ps(_mm512_loadu_ps(out + 16), f1));
                _mm512_storeu_ps(
                    out + 32,
                    _mm512_add_ps(_mm512_loadu_ps(out + 32), f2));
                _mm512_storeu_ps(
                    out + 48,
                    _mm512_add_ps(_mm512_loadu_ps(out + 48), f3));
            }
        }
    }
}

/**
 * Scalar move of the rectangle rows [r0, r1) x columns [c0, c1) from the
 * column-major chunk (element (r, col) at colmajor[col * chunk + r]) into
 * the row-major output (y[r * n + col]): the ragged edges of the register
 * transposes, and the whole job on hosts without AVX2.
 */
inline void
transposeEdge(const float *__restrict__ colmajor, int64_t chunk, int64_t r0,
              int64_t r1, int64_t c0, int64_t c1, int64_t n,
              float *__restrict__ y)
{
    for (int64_t r = r0; r < r1; ++r)
        for (int64_t col = c0; col < c1; ++col)
            y[r * n + col] = colmajor[col * chunk + r];
}

/**
 * Column-major chunk -> row-major output, AVX-512 tier: whole 16 x 16
 * tiles go through registers (16 column loads, a four-stage
 * unpack/shuffle transpose, 16 row stores); ragged edges run scalar. Only
 * moves values, so the output is bit-identical to any other order.
 */
__attribute__((target("avx512f"))) void
transposeOutAvx512(const float *__restrict__ colmajor, int64_t chunk,
                   int64_t rows, int64_t n, float *__restrict__ y)
{
    const int64_t rows16 = rows / 16 * 16, cols16 = n / 16 * 16;
    for (int64_t r0 = 0; r0 < rows16; r0 += 16) {
        for (int64_t c0 = 0; c0 < cols16; c0 += 16) {
            // a[i] = column c0 + i, rows r0 .. r0 + 15.
            __m512 a[16], b[16];
            for (int64_t i = 0; i < 16; ++i)
                a[i] = _mm512_loadu_ps(colmajor + (c0 + i) * chunk + r0);
            // Interleave pairs, then quads: afterwards 128-bit lane L of
            // a[4q + k] holds row 4L + k, columns 4q .. 4q + 3.
            for (int64_t i = 0; i < 16; i += 2) {
                b[i] = _mm512_unpacklo_ps(a[i], a[i + 1]);
                b[i + 1] = _mm512_unpackhi_ps(a[i], a[i + 1]);
            }
            for (int64_t i = 0; i < 16; i += 4) {
                a[i] = _mm512_shuffle_ps(b[i], b[i + 2], 0x44);
                a[i + 1] = _mm512_shuffle_ps(b[i], b[i + 2], 0xEE);
                a[i + 2] = _mm512_shuffle_ps(b[i + 1], b[i + 3], 0x44);
                a[i + 3] = _mm512_shuffle_ps(b[i + 1], b[i + 3], 0xEE);
            }
            // Two rounds of 128-bit lane shuffles gather the four column
            // quads of each row into one register: a[r] = row r.
            for (int64_t i = 0; i < 4; ++i) {
                b[i] = _mm512_shuffle_f32x4(a[i], a[i + 4], 0x88);
                b[i + 4] = _mm512_shuffle_f32x4(a[i], a[i + 4], 0xDD);
                b[i + 8] = _mm512_shuffle_f32x4(a[i + 8], a[i + 12], 0x88);
                b[i + 12] = _mm512_shuffle_f32x4(a[i + 8], a[i + 12], 0xDD);
            }
            for (int64_t i = 0; i < 8; ++i) {
                a[i] = _mm512_shuffle_f32x4(b[i], b[i + 8], 0x88);
                a[i + 8] = _mm512_shuffle_f32x4(b[i], b[i + 8], 0xDD);
            }
            for (int64_t i = 0; i < 16; ++i)
                _mm512_storeu_ps(y + (r0 + i) * n + c0, a[i]);
        }
        transposeEdge(colmajor, chunk, r0, r0 + 16, cols16, n, n, y);
    }
    transposeEdge(colmajor, chunk, rows16, rows, 0, n, n, y);
}

/** AVX2 twin of transposeOutAvx512 over 8 x 8 tiles. */
__attribute__((target("avx2"))) void
transposeOutAvx2(const float *__restrict__ colmajor, int64_t chunk,
                 int64_t rows, int64_t n, float *__restrict__ y)
{
    const int64_t rows8 = rows / 8 * 8, cols8 = n / 8 * 8;
    for (int64_t r0 = 0; r0 < rows8; r0 += 8) {
        for (int64_t c0 = 0; c0 < cols8; c0 += 8) {
            __m256 a[8], b[8];
            for (int64_t i = 0; i < 8; ++i)
                a[i] = _mm256_loadu_ps(colmajor + (c0 + i) * chunk + r0);
            for (int64_t i = 0; i < 8; i += 2) {
                b[i] = _mm256_unpacklo_ps(a[i], a[i + 1]);
                b[i + 1] = _mm256_unpackhi_ps(a[i], a[i + 1]);
            }
            for (int64_t i = 0; i < 8; i += 4) {
                a[i] = _mm256_shuffle_ps(b[i], b[i + 2], 0x44);
                a[i + 1] = _mm256_shuffle_ps(b[i], b[i + 2], 0xEE);
                a[i + 2] = _mm256_shuffle_ps(b[i + 1], b[i + 3], 0x44);
                a[i + 3] = _mm256_shuffle_ps(b[i + 1], b[i + 3], 0xEE);
            }
            for (int64_t i = 0; i < 4; ++i) {
                b[i] = _mm256_permute2f128_ps(a[i], a[i + 4], 0x20);
                b[i + 4] = _mm256_permute2f128_ps(a[i], a[i + 4], 0x31);
            }
            for (int64_t i = 0; i < 8; ++i)
                _mm256_storeu_ps(y + (r0 + i) * n + c0, b[i]);
        }
        transposeEdge(colmajor, chunk, r0, r0 + 8, cols8, n, n, y);
    }
    transposeEdge(colmajor, chunk, rows8, rows, 0, n, n, y);
}

} // namespace

void
encodeL2GenericRows(util::SimdLevel level, const float *x, int64_t rows,
                    int64_t stride, const float *cbt, int64_t v, int64_t c,
                    int32_t *codes)
{
    LUTDLA_CHECK(c >= 2 && c <= 64,
                 "encodeL2GenericRows supports 2..64 centroids");
    if (level >= util::SimdLevel::Avx512) {
        const int64_t done = encodeL2RowLanes<16>(
            x, rows, stride, v, codes,
            [&](auto kv, const float *xi, int32_t *out) {
                encodeL2LanesAvx512<decltype(kv)::value>(xi, stride, cbt, v,
                                                         c, out);
            });
        encodeL2GenericRowsAvx512<4>(x + done * stride, rows - done, stride,
                                     cbt, v, c, codes + done);
        return;
    }
    LUTDLA_CHECK(level == util::SimdLevel::Avx2,
                 "encodeL2GenericRows requires AVX2 or AVX-512");
    const int64_t done = encodeL2RowLanes<8>(
        x, rows, stride, v, codes,
        [&](auto kv, const float *xi, int32_t *out) {
            encodeL2LanesAvx2<decltype(kv)::value>(xi, stride, cbt, v, c,
                                                   out);
        });
    encodeL2GenericRowsAvx2<8>(x + done * stride, rows - done, stride, cbt,
                               v, c, codes + done);
}

void
encodeInt8C16Rows(util::SimdLevel level, const float *x, int64_t rows,
                  int64_t stride, const int8_t *cs_quad,
                  const int32_t *norms, float lo, float inv, int64_t v,
                  int32_t *codes)
{
    LUTDLA_CHECK(v >= 1 && v <= 128,
                 "INT8 encode kernels support subvector lengths up to 128");
    if (level >= util::SimdLevel::Avx512Vnni) {
        encodeInt8RowsVnni(x, rows, stride, cs_quad, norms, lo, inv, v,
                           codes);
        return;
    }
    LUTDLA_CHECK(level >= util::SimdLevel::Avx2,
                 "encodeInt8C16Rows requires AVX2 or newer");
    encodeInt8RowsAvx2(x, rows, stride, cs_quad, norms, lo, inv, v, codes);
}

int64_t
shuffleGatherChunkRows(util::SimdLevel level)
{
    if (level >= util::SimdLevel::Avx512)
        return 64;
    if (level == util::SimdLevel::Avx2)
        return 32;
    return 0;
}

void
shuffleGatherChunk(util::SimdLevel level, const int8_t *q_quad,
                   const float *scales, const uint8_t *codes,
                   int64_t code_stride, int64_t num_subspaces, int64_t n,
                   int64_t num_blocks, int64_t scale_group,
                   int64_t block_cols, float *colmajor)
{
    LUTDLA_CHECK(scale_group >= 1 && scale_group <= 16,
                 "shuffle gather supports scale groups of 1..16 subspaces");
    LUTDLA_CHECK(code_stride >= shuffleGatherChunkRows(level),
                 "code plane stride ", code_stride, " is shorter than a chunk");
    LUTDLA_CHECK(level >= util::SimdLevel::Avx512Vnni,
                 "shuffleGatherChunk requires AVX-512 VBMI+VNNI");
    LUTDLA_CHECK(scale_group % 4 == 0,
                 "vnni gather needs a quad-aligned scale group");
    gatherChunkVnni(q_quad, scales, codes, code_stride, num_subspaces, n,
                    num_blocks, scale_group, block_cols, colmajor);
}

void
shuffleGatherChunkInt4(util::SimdLevel level, const uint8_t *q4_il,
                       const float *scales, const uint8_t *codes,
                       int64_t code_stride, int64_t num_subspaces, int64_t n,
                       int64_t num_blocks, int64_t scale_group,
                       int64_t block_cols, float *colmajor)
{
    LUTDLA_CHECK(scale_group >= 1 && scale_group <= 16,
                 "shuffle gather supports scale groups of 1..16 subspaces");
    LUTDLA_CHECK(block_cols % 2 == 0,
                 "INT4 shuffle gather needs an even scale block width so "
                 "a packed column pair never straddles a block");
    LUTDLA_CHECK(code_stride >= shuffleGatherChunkRows(level),
                 "code plane stride ", code_stride, " is shorter than a chunk");
    if (level >= util::SimdLevel::Avx512) {
        gatherChunkInt4Avx512(q4_il, scales, codes, code_stride,
                              num_subspaces, n, num_blocks, scale_group,
                              block_cols, colmajor);
        return;
    }
    LUTDLA_CHECK(level == util::SimdLevel::Avx2,
                 "shuffleGatherChunkInt4 requires AVX2 or AVX-512");
    gatherChunkInt4Avx2(q4_il, scales, codes, code_stride, num_subspaces, n,
                        num_blocks, scale_group, block_cols, colmajor);
}

void
sweepInt4Rows(util::SimdLevel level, const uint8_t *q4, const float *scales,
              const int32_t *codes, int64_t rows, int64_t n,
              int64_t num_subspaces, int64_t c, int64_t num_blocks,
              int64_t scale_group, int64_t block_cols, float *y)
{
    LUTDLA_CHECK(scale_group >= 1 && scale_group <= 16,
                 "INT4 row sweep supports scale groups of 1..16 subspaces");
    LUTDLA_CHECK(block_cols % 128 == 0,
                 "INT4 row sweep needs scale blocks of whole 128-column "
                 "vector blocks");
    if (level >= util::SimdLevel::Avx512) {
        sweepInt4RowsAvx512(q4, scales, codes, rows, n, num_subspaces, c,
                            num_blocks, scale_group, block_cols, y);
        return;
    }
    LUTDLA_CHECK(level == util::SimdLevel::Avx2,
                 "sweepInt4Rows requires AVX2 or AVX-512");
    sweepInt4RowsAvx2(q4, scales, codes, rows, n, num_subspaces, c,
                      num_blocks, scale_group, block_cols, y);
}

void
transposeChunkOut(util::SimdLevel level, const float *colmajor,
                  int64_t chunk, int64_t rows, int64_t n, float *y)
{
    if (level >= util::SimdLevel::Avx512) {
        transposeOutAvx512(colmajor, chunk, rows, n, y);
        return;
    }
    if (level == util::SimdLevel::Avx2) {
        transposeOutAvx2(colmajor, chunk, rows, n, y);
        return;
    }
    transposeEdge(colmajor, chunk, 0, rows, 0, n, n, y);
}

} // namespace lutdla::lutboost::simd
