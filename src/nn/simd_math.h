#ifndef LUTDLA_NN_SIMD_MATH_H
#define LUTDLA_NN_SIMD_MATH_H

/**
 * @file
 * In-repo float tanh and exp, the elementary functions under the
 * element-wise math that stays exact around the LUT-GEMMs (GELU and
 * softmax, the accelerator's IMM element-wise path; see activations.h).
 *
 * Each function is a fixed clamp or range reduction plus a polynomial or
 * rational form, evaluated in a fixed mul-then-add order with no libm
 * call. Each has two tiers: a scalar twin and an AVX-512 variant carrying
 * a per-function target attribute (src/nn/simd_math.cc is built with
 * -ffp-contract=off, so no mul + add pair contracts into an FMA). Every
 * AVX-512 lane repeats its scalar twin's float ops, so the two tiers
 * agree bit for bit and the tier util::simdLevel() picks never changes a
 * result. LUTDLA_SIMD=generic, and every level below AVX-512, runs the
 * scalar tier.
 *
 * The same translation unit holds the tiered GELU (geluForward),
 * softmax (softmaxForward) and attention core
 * (attentionSequenceContext) built on these functions; their
 * declarations stay with their layers in activations.h and attention.h.
 *
 * Accuracy against double-precision tanh/exp, measured on dense sweeps
 * (tests/nn_layers_test.cc asserts these bounds): tanhFloat is within
 * 1.3 ulp, expFloat within 1 ulp (one step of 2^-149 where the result
 * is subnormal). Against glibc's tanhf/expf they differ by at most 2
 * and 1 ulp. Special inputs: NaN returns the input NaN unchanged,
 * tanh rounds to +-1 from |x| of about 9.01 on (|x| is clamped at 10, so
 * +-inf gives +-1), exp overflows to +inf above ln(FLT_MAX) and
 * underflows to 0 below about -103.97, and tanh(-0) is -0. The tiered
 * kernels with more than one input (GELU backward, softmax, attention)
 * write the default quiet NaN for every NaN result, because a compiler
 * may pick either payload where two NaNs meet.
 */

#include <cstdint>

#include "util/cpu_features.h"

namespace lutdla::nn {

/** tanh(x), scalar tier (the per-element reference of tanhSpan). */
float tanhFloat(float x);

/** exp(x), scalar tier (the per-element reference of expSpan). */
float expFloat(float x);

/**
 * y[i] = tanhFloat(x[i]) for i < n, at the tier `level` selects (the
 * AVX-512 variant from util::SimdLevel::Avx512 up, else the scalar
 * twin; both give identical bits). `y == x` is allowed. Requesting a
 * tier above the running CPU's is a checked error.
 */
void tanhSpan(const float *x, int64_t n, float *y,
              util::SimdLevel level = util::simdLevel());

/** y[i] = expFloat(x[i]) for i < n; tiers and aliasing as tanhSpan. */
void expSpan(const float *x, int64_t n, float *y,
             util::SimdLevel level = util::simdLevel());

} // namespace lutdla::nn

#endif // LUTDLA_NN_SIMD_MATH_H
