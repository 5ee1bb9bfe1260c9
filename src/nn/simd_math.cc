// In-repo tanh/exp and the SIMD-tiered math built on them: GELU, its
// gradient, softmax and the attention core. This TU is compiled WITHOUT
// -march flags and WITH -ffp-contract=off: every AVX-512 function carries
// a target attribute, so one binary holds both tiers and
// util::simdLevel() picks at run time, and no mul + add pair may contract
// into an FMA, because each AVX-512 lane must repeat its scalar twin's
// float ops exactly. Keep intrinsics inside attributed functions only.
//
// Where a scalar twin writes a ternary (clamps, the tanh branch), the
// AVX-512 variant uses the op with the same result on non-NaN inputs;
// NaN inputs return early in the scalar twin and are blended back at the
// end of the vector one, so NaN lanes never reach those ops.
//
// NaN payloads: a one-input function (tanh, exp, GELU) returns its input
// NaN. Where two NaNs can meet in a commutative op, the compiler may put
// either one first and so pick either payload; the kernels with more
// than one input (GELU backward, softmax, attention) therefore write the
// default quiet NaN for every NaN result, so the tiers still agree bit
// for bit.

#include "nn/simd_math.h"

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "nn/activations.h"
#include "nn/attention.h"
#include "util/logging.h"

namespace lutdla::nn {

namespace {

// exp: clamp, Cody-Waite reduction x = n ln2 + r with |r| <= ln2 / 2, the
// Cephes degree-5 polynomial for e^r, then 2^n applied as two exact
// power-of-two factors so a result in the subnormal range rounds once.
constexpr float kExpLo = -104.0f;  // e^-104 < denorm_min / 2: rounds to 0
constexpr float kExpHi = 89.0f;    // e^89 > FLT_MAX: overflows to +inf
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kRoundMagic = 12582912.0f;  // 1.5 * 2^23: +m -m rounds
constexpr float kLn2Hi = 0.693359375f;      // ln 2 = kLn2Hi - kLn2Lo
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

// tanh: odd polynomial below |x| = 0.625, 1 - 2 / (e^2|x| + 1) above it
// with |x| clamped at 10 (tanh(10) rounds to 1), then the sign of x.
constexpr float kTanhSmall = 0.625f;
constexpr float kTanhSat = 10.0f;
constexpr float kTanhP0 = -5.70498872745e-3f;
constexpr float kTanhP1 = 2.06390887954e-2f;
constexpr float kTanhP2 = -5.37397155531e-2f;
constexpr float kTanhP3 = 1.33314422036e-1f;
constexpr float kTanhP4 = -3.33332819422e-1f;
constexpr uint32_t kSignBit = 0x80000000u;
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// GELU (tanh approximation, as in BERT).
constexpr float kGeluC = 0.7978845608f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;
constexpr float kGeluA3 = 3.0f * kGeluA;

uint32_t
floatBits(float x)
{
    uint32_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

float
bitsFloat(uint32_t b)
{
    float x;
    std::memcpy(&x, &b, sizeof x);
    return x;
}

/** 2^k for k in [-126, 127]. */
float
pow2(int32_t k)
{
    return bitsFloat(static_cast<uint32_t>(k + 127) << 23);
}

/** exp of a non-NaN x. */
float
expCore(float x)
{
    float c = x < kExpLo ? kExpLo : x;
    c = c > kExpHi ? kExpHi : c;
    const float n = (c * kLog2e + kRoundMagic) - kRoundMagic;
    const float r = (c - n * kLn2Hi) - n * kLn2Lo;
    float p = kExpP0;
    p = p * r + kExpP1;
    p = p * r + kExpP2;
    p = p * r + kExpP3;
    p = p * r + kExpP4;
    p = p * r + kExpP5;
    const float e = p * (r * r) + r + 1.0f;
    const int32_t ni = static_cast<int32_t>(n);
    const int32_t n1 = ni >> 1;
    return e * pow2(n1) * pow2(ni - n1);
}

/** The default quiet NaN for any NaN `x`, else `x`. */
float
canonicalNan(float x)
{
    return x != x ? kNaN : x;
}

/** d/dx GELU(x), scalar tier. */
float
geluGrad(float x)
{
    const float x3 = x * x * x;
    const float inner = kGeluC * (x + kGeluA * x3);
    const float t = tanhFloat(inner);
    const float sech2 = 1.0f - t * t;
    return 0.5f * (1.0f + t) +
           0.5f * x * sech2 * kGeluC * (1.0f + kGeluA3 * x * x);
}

/** One softmax row, scalar tier. */
void
softmaxRow(const float *x, int64_t n, float *y)
{
    float row_max = -INFINITY;
    for (int64_t j = 0; j < n; ++j)
        row_max = std::max(row_max, x[j]);
    float denom = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
        y[j] = expFloat(x[j] - row_max);
        denom += y[j];
    }
    if (denom != denom)
        return std::fill(y, y + n, kNaN);
    const float inv = 1.0f / denom;
    for (int64_t j = 0; j < n; ++j)
        y[j] *= inv;
}

/** attentionSequenceContext, scalar tier. */
void
attentionScalar(const float *q, const float *k, const float *v, int64_t T,
                int64_t heads, int64_t d_model, float scale, float *ctx,
                float *probs)
{
    const int64_t d_head = d_model / heads;
    for (int64_t h = 0; h < heads; ++h) {
        float *p = probs + h * T * T;
        const int64_t col = h * d_head;
        for (int64_t t = 0; t < T; ++t) {
            const float *qrow = q + t * d_model + col;
            for (int64_t s = 0; s < T; ++s) {
                const float *krow = k + s * d_model + col;
                float dot = 0.0f;
                for (int64_t j = 0; j < d_head; ++j)
                    dot += qrow[j] * krow[j];
                p[t * T + s] = dot * scale;
            }
        }
        for (int64_t t = 0; t < T; ++t)
            softmaxRow(p + t * T, T, p + t * T);
        for (int64_t t = 0; t < T; ++t) {
            float *crow = ctx + t * d_model + col;
            for (int64_t s = 0; s < T; ++s) {
                const float w = p[t * T + s];
                const float *vrow = v + s * d_model + col;
                for (int64_t j = 0; j < d_head; ++j)
                    crow[j] += w * vrow[j];
            }
            for (int64_t j = 0; j < d_head; ++j)
                crow[j] = canonicalNan(crow[j]);
        }
    }
}

// ---- AVX-512 tier ----------------------------------------------------------

#define LUTDLA_AVX512 __attribute__((target("avx512f"), always_inline)) inline

/** Lanes [0, n) of a 16-lane block, n clamped to [0, 16]. */
LUTDLA_AVX512 __mmask16
laneMask(int64_t n)
{
    return n >= 16 ? static_cast<__mmask16>(0xFFFF)
                   : static_cast<__mmask16>(n <= 0 ? 0u : (1u << n) - 1u);
}

LUTDLA_AVX512 __m512
pow2Avx512(__m512i k)
{
    return _mm512_castsi512_ps(_mm512_slli_epi32(
        _mm512_add_epi32(k, _mm512_set1_epi32(127)), 23));
}

/** expCore, lane by lane. */
LUTDLA_AVX512 __m512
expCoreAvx512(__m512 x)
{
    const __m512 c = _mm512_min_ps(_mm512_max_ps(x, _mm512_set1_ps(kExpLo)),
                                   _mm512_set1_ps(kExpHi));
    const __m512 magic = _mm512_set1_ps(kRoundMagic);
    const __m512 n = _mm512_sub_ps(
        _mm512_add_ps(_mm512_mul_ps(c, _mm512_set1_ps(kLog2e)), magic),
        magic);
    const __m512 r = _mm512_sub_ps(
        _mm512_sub_ps(c, _mm512_mul_ps(n, _mm512_set1_ps(kLn2Hi))),
        _mm512_mul_ps(n, _mm512_set1_ps(kLn2Lo)));
    __m512 p = _mm512_set1_ps(kExpP0);
    p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpP1));
    p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpP2));
    p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpP3));
    p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpP4));
    p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpP5));
    const __m512 e = _mm512_add_ps(
        _mm512_add_ps(_mm512_mul_ps(p, _mm512_mul_ps(r, r)), r),
        _mm512_set1_ps(1.0f));
    const __m512i ni = _mm512_cvttps_epi32(n);
    const __m512i n1 = _mm512_srai_epi32(ni, 1);
    return _mm512_mul_ps(_mm512_mul_ps(e, pow2Avx512(n1)),
                         pow2Avx512(_mm512_sub_epi32(ni, n1)));
}

/** canonicalNan, lane by lane. */
LUTDLA_AVX512 __m512
canonicalNanAvx512(__m512 x)
{
    return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(x, x, _CMP_UNORD_Q), x,
                                _mm512_set1_ps(kNaN));
}

/** NaN lanes of x pass through unchanged; the rest take `y`. */
LUTDLA_AVX512 __m512
keepNan(__m512 x, __m512 y)
{
    return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(x, x, _CMP_UNORD_Q), y,
                                x);
}

LUTDLA_AVX512 __m512
expAvx512(__m512 x)
{
    return keepNan(x, expCoreAvx512(x));
}

LUTDLA_AVX512 __m512
tanhAvx512(__m512 x)
{
    const __m512i bits = _mm512_castps_si512(x);
    const __m512i sign = _mm512_set1_epi32(static_cast<int32_t>(kSignBit));
    const __m512 z = _mm512_castsi512_ps(_mm512_andnot_si512(sign, bits));
    const __m512 z2 = _mm512_mul_ps(z, z);
    __m512 p = _mm512_set1_ps(kTanhP0);
    p = _mm512_add_ps(_mm512_mul_ps(p, z2), _mm512_set1_ps(kTanhP1));
    p = _mm512_add_ps(_mm512_mul_ps(p, z2), _mm512_set1_ps(kTanhP2));
    p = _mm512_add_ps(_mm512_mul_ps(p, z2), _mm512_set1_ps(kTanhP3));
    p = _mm512_add_ps(_mm512_mul_ps(p, z2), _mm512_set1_ps(kTanhP4));
    const __m512 small = _mm512_add_ps(_mm512_mul_ps(_mm512_mul_ps(p, z2), z),
                                       z);
    const __m512 zc = _mm512_min_ps(z, _mm512_set1_ps(kTanhSat));
    const __m512 one = _mm512_set1_ps(1.0f);
    const __m512 e = expCoreAvx512(_mm512_add_ps(zc, zc));
    const __m512 large = _mm512_sub_ps(
        one, _mm512_div_ps(_mm512_set1_ps(2.0f), _mm512_add_ps(e, one)));
    const __m512 t = _mm512_mask_blend_ps(
        _mm512_cmp_ps_mask(z, _mm512_set1_ps(kTanhSmall), _CMP_LT_OQ), large,
        small);
    return keepNan(x, _mm512_castsi512_ps(_mm512_or_si512(
                          _mm512_castps_si512(t),
                          _mm512_and_si512(bits, sign))));
}

LUTDLA_AVX512 __m512
geluAvx512(__m512 x)
{
    const __m512 x3a = _mm512_mul_ps(
        _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(kGeluA), x), x), x);
    const __m512 inner =
        _mm512_mul_ps(_mm512_set1_ps(kGeluC), _mm512_add_ps(x, x3a));
    return _mm512_mul_ps(
        _mm512_mul_ps(_mm512_set1_ps(0.5f), x),
        _mm512_add_ps(_mm512_set1_ps(1.0f), tanhAvx512(inner)));
}

LUTDLA_AVX512 __m512
geluGradAvx512(__m512 x)
{
    const __m512 half = _mm512_set1_ps(0.5f);
    const __m512 one = _mm512_set1_ps(1.0f);
    const __m512 c = _mm512_set1_ps(kGeluC);
    const __m512 x3 = _mm512_mul_ps(_mm512_mul_ps(x, x), x);
    const __m512 inner = _mm512_mul_ps(
        c, _mm512_add_ps(x, _mm512_mul_ps(_mm512_set1_ps(kGeluA), x3)));
    const __m512 t = tanhAvx512(inner);
    const __m512 sech2 = _mm512_sub_ps(one, _mm512_mul_ps(t, t));
    const __m512 poly = _mm512_add_ps(
        one,
        _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(kGeluA3), x), x));
    const __m512 tail = _mm512_mul_ps(
        _mm512_mul_ps(_mm512_mul_ps(_mm512_mul_ps(half, x), sech2), c), poly);
    return _mm512_add_ps(_mm512_mul_ps(half, _mm512_add_ps(one, t)), tail);
}

/** y[i] = Op(x[i]) over 16-lane blocks, the ragged last one masked. */
template <__m512 (*Op)(__m512)>
__attribute__((target("avx512f"))) void
mapAvx512(const float *x, int64_t n, float *y)
{
    for (int64_t i = 0; i < n; i += 16) {
        const __mmask16 m = laneMask(n - i);
        _mm512_mask_storeu_ps(y + i, m, Op(_mm512_maskz_loadu_ps(m, x + i)));
    }
}

/** grad[i] *= geluGrad(x[i]), AVX-512 tier. */
__attribute__((target("avx512f"))) void
geluBackwardAvx512(const float *x, int64_t n, float *grad)
{
    for (int64_t i = 0; i < n; i += 16) {
        const __mmask16 m = laneMask(n - i);
        const __m512 g = _mm512_maskz_loadu_ps(m, grad + i);
        _mm512_mask_storeu_ps(
            grad + i, m,
            canonicalNanAvx512(_mm512_mul_ps(
                g, geluGradAvx512(_mm512_maskz_loadu_ps(m, x + i)))));
    }
}

/**
 * The exp pass of softmaxRow, AVX-512 tier: y[j] = exp(x[j] - max). The
 * vector max can differ from the scalar scan only in the sign of a zero
 * maximum, and x - (+0) and x - (-0) differ only in the sign of a zero
 * difference, whose exp is 1 either way.
 */
LUTDLA_AVX512 void
softmaxExpAvx512(const float *x, int64_t n, float *y)
{
    const __m512 neg_inf = _mm512_set1_ps(-INFINITY);
    __m512 m = neg_inf;
    for (int64_t j = 0; j < n; j += 16)
        m = _mm512_max_ps(_mm512_mask_loadu_ps(neg_inf, laneMask(n - j), x + j),
                          m);
    const __m512 row_max = _mm512_set1_ps(_mm512_reduce_max_ps(m));
    for (int64_t j = 0; j < n; j += 16) {
        const __mmask16 lanes = laneMask(n - j);
        _mm512_mask_storeu_ps(
            y + j, lanes,
            expAvx512(_mm512_sub_ps(_mm512_maskz_loadu_ps(lanes, x + j),
                                    row_max)));
    }
}

/** The normalize pass of softmaxRow, AVX-512 tier. */
LUTDLA_AVX512 void
softmaxScaleAvx512(float *y, int64_t n, float denom)
{
    if (denom != denom)
        return std::fill(y, y + n, kNaN);
    const __m512 inv = _mm512_set1_ps(1.0f / denom);
    for (int64_t j = 0; j < n; j += 16) {
        const __mmask16 lanes = laneMask(n - j);
        _mm512_mask_storeu_ps(
            y + j, lanes,
            _mm512_mul_ps(_mm512_maskz_loadu_ps(lanes, y + j), inv));
    }
}

/** Rows whose serial denominators softmaxAvx512 sums side by side. */
constexpr int kSoftmaxRows = 8;

/**
 * softmaxRow over each row, AVX-512 tier. Each row's denominator is still
 * one serial left-to-right sum; kSoftmaxRows rows run their sums side by
 * side so the add latency of one chain overlaps the others.
 */
__attribute__((target("avx512f"))) void
softmaxAvx512(const float *x, int64_t rows, int64_t features, float *y)
{
    for (int64_t r0 = 0; r0 < rows; r0 += kSoftmaxRows) {
        const int64_t group = std::min<int64_t>(kSoftmaxRows, rows - r0);
        float *yg = y + r0 * features;
        for (int64_t i = 0; i < group; ++i)
            softmaxExpAvx512(x + (r0 + i) * features, features,
                             yg + i * features);
        float denom[kSoftmaxRows] = {};
        for (int64_t j = 0; j < features; ++j)
            for (int64_t i = 0; i < group; ++i)
                denom[i] += yg[i * features + j];
        for (int64_t i = 0; i < group; ++i)
            softmaxScaleAvx512(yg + i * features, features, denom[i]);
    }
}

/**
 * One query row's scores against nb <= NB 16-key vectors of kt ([d_head,
 * T], from the chunk's first key): dot = 0, then dot + q[j] * k[s][j] in
 * ascending j per lane, then * scale. Only the last vector is ragged
 * (lanes `last`), so the loop holds a single mask register.
 */
template <int NB>
__attribute__((target("avx512f"))) void
scoreVectors(int nb, const float *qrow, const float *kt, int64_t T,
             int64_t d_head, __m512 scale, __mmask16 last, float *prow)
{
    if constexpr (NB > 1) {
        if (nb < NB)
            return scoreVectors<NB - 1>(nb, qrow, kt, T, d_head, scale, last,
                                        prow);
    }
    __m512 acc[NB];
    for (int b = 0; b < NB; ++b)
        acc[b] = _mm512_setzero_ps();
    for (int64_t j = 0; j < d_head; ++j) {
        const __m512 qj = _mm512_set1_ps(qrow[j]);
        const float *krow = kt + j * T;
        for (int b = 0; b < NB; ++b) {
            const __m512 kv = b + 1 < NB
                                  ? _mm512_loadu_ps(krow + 16 * b)
                                  : _mm512_maskz_loadu_ps(last, krow + 16 * b);
            acc[b] = _mm512_add_ps(acc[b], _mm512_mul_ps(qj, kv));
        }
    }
    for (int b = 0; b + 1 < NB; ++b)
        _mm512_storeu_ps(prow + 16 * b, _mm512_mul_ps(acc[b], scale));
    _mm512_mask_storeu_ps(prow + 16 * (NB - 1), last,
                          _mm512_mul_ps(acc[NB - 1], scale));
}

/**
 * One query row's context over nb <= NB 16-column vectors of the head
 * slice: crow[j] + p[s] * v[s][j] in ascending s per lane, starting from
 * the caller's zeros. Only the last vector is ragged (lanes `last`).
 */
template <int NB>
__attribute__((target("avx512f"))) void
contextVectors(int nb, const float *prow, const float *v, int64_t T,
               int64_t d_model, __mmask16 last, float *crow)
{
    if constexpr (NB > 1) {
        if (nb < NB)
            return contextVectors<NB - 1>(nb, prow, v, T, d_model, last,
                                          crow);
    }
    __m512 acc[NB];
    for (int b = 0; b + 1 < NB; ++b)
        acc[b] = _mm512_loadu_ps(crow + 16 * b);
    acc[NB - 1] = _mm512_maskz_loadu_ps(last, crow + 16 * (NB - 1));
    for (int64_t s = 0; s < T; ++s) {
        const __m512 w = _mm512_set1_ps(prow[s]);
        const float *vrow = v + s * d_model;
        for (int b = 0; b < NB; ++b) {
            const __m512 vv = b + 1 < NB
                                  ? _mm512_loadu_ps(vrow + 16 * b)
                                  : _mm512_maskz_loadu_ps(last, vrow + 16 * b);
            acc[b] = _mm512_add_ps(acc[b], _mm512_mul_ps(w, vv));
        }
    }
    for (int b = 0; b + 1 < NB; ++b)
        _mm512_storeu_ps(crow + 16 * b, canonicalNanAvx512(acc[b]));
    _mm512_mask_storeu_ps(crow + 16 * (NB - 1), last,
                          canonicalNanAvx512(acc[NB - 1]));
}

/** Score and context chunk widths, in 16-lane vectors. */
constexpr int kScoreVecs = 8;
constexpr int kCtxVecs = 4;

/**
 * attentionScalar with K transposed into kt ([d_head, T]) per head:
 * scores 16 keys per vector in chunks of up to kScoreVecs vectors, and
 * the context 16 columns per vector in chunks of up to kCtxVecs, the
 * last vector of a ragged chunk masked.
 */
__attribute__((target("avx512f"))) void
attentionAvx512(const float *q, const float *k, const float *v, int64_t T,
                int64_t heads, int64_t d_model, float scale, float *ctx,
                float *probs, float *kt)
{
    const int64_t d_head = d_model / heads;
    const __m512 vscale = _mm512_set1_ps(scale);
    for (int64_t h = 0; h < heads; ++h) {
        float *p = probs + h * T * T;
        const int64_t col = h * d_head;
        for (int64_t s = 0; s < T; ++s)
            for (int64_t j = 0; j < d_head; ++j)
                kt[j * T + s] = k[s * d_model + col + j];
        for (int64_t t = 0; t < T; ++t) {
            for (int64_t s0 = 0; s0 < T; s0 += 16 * kScoreVecs) {
                const int64_t keys = std::min<int64_t>(T - s0, 16 * kScoreVecs);
                const int nb = static_cast<int>((keys + 15) / 16);
                scoreVectors<kScoreVecs>(nb, q + t * d_model + col, kt + s0,
                                         T, d_head, vscale,
                                         laneMask(keys - 16 * (nb - 1)),
                                         p + t * T + s0);
            }
        }
        softmaxAvx512(p, T, T, p);
        for (int64_t t = 0; t < T; ++t) {
            for (int64_t j0 = 0; j0 < d_head; j0 += 16 * kCtxVecs) {
                const int64_t cols =
                    std::min<int64_t>(d_head - j0, 16 * kCtxVecs);
                const int nb = static_cast<int>((cols + 15) / 16);
                contextVectors<kCtxVecs>(nb, p + t * T, v + col + j0, T,
                                         d_model,
                                         laneMask(cols - 16 * (nb - 1)),
                                         ctx + t * d_model + col + j0);
            }
        }
    }
}

#undef LUTDLA_AVX512

/** True when `level` selects the AVX-512 tier; a tier above the running
 * CPU's is a checked error. */
bool
useAvx512(util::SimdLevel level)
{
    if (level < util::SimdLevel::Avx512)
        return false;
    LUTDLA_CHECK(util::simdLevel() >= util::SimdLevel::Avx512,
                 "AVX-512 math tier requested, but this CPU provides ",
                 util::simdLevelName(util::simdLevel()));
    return true;
}

} // namespace

float
expFloat(float x)
{
    return x != x ? x : expCore(x);
}

float
tanhFloat(float x)
{
    if (x != x)
        return x;
    const uint32_t bits = floatBits(x);
    const float z = bitsFloat(bits & ~kSignBit);
    float t;
    if (z < kTanhSmall) {
        const float z2 = z * z;
        float p = kTanhP0;
        p = p * z2 + kTanhP1;
        p = p * z2 + kTanhP2;
        p = p * z2 + kTanhP3;
        p = p * z2 + kTanhP4;
        t = p * z2 * z + z;
    } else {
        const float zc = z > kTanhSat ? kTanhSat : z;
        t = 1.0f - 2.0f / (expCore(zc + zc) + 1.0f);
    }
    return bitsFloat(floatBits(t) | (bits & kSignBit));
}

void
tanhSpan(const float *x, int64_t n, float *y, util::SimdLevel level)
{
    if (useAvx512(level))
        return mapAvx512<tanhAvx512>(x, n, y);
    for (int64_t i = 0; i < n; ++i)
        y[i] = tanhFloat(x[i]);
}

void
expSpan(const float *x, int64_t n, float *y, util::SimdLevel level)
{
    if (useAvx512(level))
        return mapAvx512<expAvx512>(x, n, y);
    for (int64_t i = 0; i < n; ++i)
        y[i] = expFloat(x[i]);
}

float
geluForward(float x)
{
    const float inner = kGeluC * (x + kGeluA * x * x * x);
    return 0.5f * x * (1.0f + tanhFloat(inner));
}

void
geluForward(float *data, int64_t n, util::SimdLevel level)
{
    if (useAvx512(level))
        return mapAvx512<geluAvx512>(data, n, data);
    for (int64_t i = 0; i < n; ++i)
        data[i] = geluForward(data[i]);
}

void
geluBackward(const float *x, int64_t n, float *grad, util::SimdLevel level)
{
    if (useAvx512(level))
        return geluBackwardAvx512(x, n, grad);
    for (int64_t i = 0; i < n; ++i)
        grad[i] = canonicalNan(grad[i] * geluGrad(x[i]));
}

void
softmaxForward(const float *x, int64_t rows, int64_t features, float *y,
               util::SimdLevel level)
{
    if (useAvx512(level))
        return softmaxAvx512(x, rows, features, y);
    for (int64_t r = 0; r < rows; ++r)
        softmaxRow(x + r * features, features, y + r * features);
}

void
attentionSequenceContext(const float *q, const float *k, const float *v,
                         int64_t seq_len, int64_t heads, int64_t d_model,
                         float *ctx, float *probs, float *k_t,
                         util::SimdLevel level)
{
    const float scale =
        1.0f / std::sqrt(static_cast<float>(d_model / heads));
    if (useAvx512(level))
        return attentionAvx512(q, k, v, seq_len, heads, d_model, scale, ctx,
                               probs, k_t);
    attentionScalar(q, k, v, seq_len, heads, d_model, scale, ctx, probs);
}

} // namespace lutdla::nn
