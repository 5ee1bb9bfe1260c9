#include "lutboost/table_arena.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "lutboost/kernels_simd.h"
#include "util/cpu_features.h"
#include "util/logging.h"
#include "vq/quant.h"

namespace lutdla::lutboost {

LutTableArena::LutTableArena(const vq::ProductQuantizer &pq,
                             const vq::LookupTable &lut, const Tensor *bias,
                             bool bf16_inputs)
    : in_features_(pq.featureDim()),
      out_features_(lut.outDim()),
      subvector_len_(pq.config().v),
      num_centroids_(pq.config().c),
      num_subspaces_(pq.numSubspaces()),
      metric_(pq.config().metric),
      bf16_inputs_(bf16_inputs),
      has_bias_(bias != nullptr)
{
    LUTDLA_CHECK(pq.trained(), "arena needs a trained quantizer");
    LUTDLA_CHECK(lut.numSubspaces() == num_subspaces_ &&
                     lut.numCentroids() == num_centroids_,
                 "quantizer/table geometry mismatch in LutTableArena");
    if (bias)
        LUTDLA_CHECK(bias->numel() == out_features_,
                     "bias width ", bias->numel(), " != N ", out_features_);

    const size_t codebook_floats = static_cast<size_t>(
        num_subspaces_ * num_centroids_ * subvector_len_);
    const size_t table_floats = static_cast<size_t>(
        num_subspaces_ * num_centroids_ * out_features_);
    table_offset_ = codebook_floats;
    bias_offset_ = codebook_floats + table_floats;
    data_.resize(bias_offset_ +
                 (has_bias_ ? static_cast<size_t>(out_features_) : 0));

    // Codebooks land transposed ([v, c] per subspace): the encode kernel
    // walks centroids contiguously for a fixed subvector element.
    for (int64_t s = 0; s < num_subspaces_; ++s) {
        const Tensor &cb = pq.codebook(s);
        float *dst = data_.data() + s * num_centroids_ * subvector_len_;
        for (int64_t j = 0; j < num_centroids_; ++j)
            for (int64_t t = 0; t < subvector_len_; ++t)
                dst[t * num_centroids_ + j] = cb.at(j, t);
    }
    const Tensor &table = lut.table();
    std::copy(table.data(), table.data() + table.numel(),
              data_.data() + table_offset_);
    if (has_bias_)
        std::copy(bias->data(), bias->data() + out_features_,
                  data_.data() + bias_offset_);
}

namespace {

/**
 * Distances from one subvector to EVERY centroid of a transposed [v, c]
 * codebook, written into `d[c]`. For a fixed centroid j the elementwise
 * terms accumulate in ascending t order — exactly the order
 * vq::l2Squared / l1 / chebyshev use — so each d[j] is bit-identical to
 * the reference distance, and the ascending-j argmin scan below inherits
 * vq::argminCentroid's lower-index tie-break. The transposed layout makes
 * the inner loop contiguous over centroids, which is what lets it
 * vectorize; per-centroid scalar chains are latency-bound instead.
 */
template <vq::Metric M>
inline void
distanceAll(const float *__restrict__ sub, const float *__restrict__ cbt,
            int64_t c, int64_t v, float *__restrict__ d)
{
    for (int64_t j = 0; j < c; ++j)
        d[j] = 0.0f;
    for (int64_t t = 0; t < v; ++t) {
        const float a = sub[t];
        const float *__restrict__ row = cbt + t * c;
        if constexpr (M == vq::Metric::L2) {
            for (int64_t j = 0; j < c; ++j) {
                const float diff = a - row[j];
                d[j] += diff * diff;
            }
        } else if constexpr (M == vq::Metric::L1) {
            for (int64_t j = 0; j < c; ++j)
                d[j] += std::fabs(a - row[j]);
        } else {
            for (int64_t j = 0; j < c; ++j)
                d[j] = std::max(d[j], std::fabs(a - row[j]));
        }
    }
}

/**
 * Quantize one value onto a subspace's 7-bit encode grid. The exact op
 * sequence the SIMD tiers vectorize: (x - lo) * inv in float (this TU
 * builds with -ffp-contract=off, so sub and mul never contract), clamp
 * in the FLOAT domain with the MAXPS/MINPS select semantics (t > 0 ? t :
 * 0 maps NaN to 0, exactly like _mm*_max_ps(t, 0)), then
 * round-to-nearest-even (std::nearbyint under the default FP
 * environment == CVTPS2DQ). Used for BOTH the bank's centroids and the
 * encode-time inputs — sharing the grid is what makes the integer
 * argmin equivalent to the quantized L2 argmin.
 */
inline int32_t
quantizeEncodeLevel(float x, float lo, float inv)
{
    float t = (x - lo) * inv;
    t = t > 0.0f ? t : 0.0f;
    t = t < 127.0f ? t : 127.0f;
    return static_cast<int32_t>(std::nearbyint(t));
}

/**
 * Grow a scratch vector to at least `n` elements and return its data,
 * never shrinking it: one scratch serves stages of different widths, and
 * a shrink-then-grow would zero-fill the regrown part on every call.
 */
template <typename T>
T *
growScratch(std::vector<T> &v, int64_t n)
{
    if (v.size() < static_cast<size_t>(n))
        v.resize(static_cast<size_t>(n));
    return v.data();
}

/** Panic unless the running CPU provides `level`: a cap may lower the
 * tier a call runs, never raise it past what cpuid (and LUTDLA_SIMD)
 * allow. */
void
checkCap(util::SimdLevel level)
{
    LUTDLA_CHECK(level <= util::simdLevel(), "SIMD cap ",
                 util::simdLevelName(level), " is above this CPU's ",
                 util::simdLevelName(util::simdLevel()));
}

inline int32_t
argminScan(const float *__restrict__ d, int64_t c)
{
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
 * The scalar INT8 group sweep as a free function over raw restrict
 * pointers: in this exact shape GCC vectorizes the unrolled 16-deep
 * widen-add reduction; as a member-function body (q/scales reached
 * through the bank reference) it refuses and emits byte-scalar code
 * ~10x slower. noinline keeps this compilation context when the caller
 * inlines around it.
 */
__attribute__((noinline)) void
sweepInt8ColOuter(const int8_t *__restrict__ qbank,
                  const float *__restrict__ scales,
                  const int32_t *__restrict__ codes, int64_t bn,
                  int64_t n, int64_t num_subspaces, int64_t c,
                  int64_t num_blocks, int64_t num_groups,
                  float *__restrict__ yb)
{
    constexpr int64_t G = LutTableArena::kInt8ScaleGroup;
    constexpr int64_t B = LutTableArena::kInt8BlockCols;
    for (int64_t g = 0; g < num_groups; ++g) {
        const int64_t s0 = g * G;
        const int64_t gs = std::min<int64_t>(G, num_subspaces - s0);
        const float *srow = scales + g * num_blocks;
        for (int64_t r = 0; r < bn; ++r) {
            const int32_t *rcodes = codes + r * num_subspaces;
            float *__restrict__ yr = yb + r * n;
            const int8_t *__restrict__ q[G];
            for (int64_t gi = 0; gi < gs; ++gi) {
                const int64_t s = s0 + gi;
                q[gi] = qbank + (s * c + rcodes[s]) * n;
            }
            for (int64_t b = 0; b < num_blocks; ++b) {
                const int64_t c0 = b * B;
                const int64_t c1 = std::min(n, c0 + B);
                const float scale = srow[b];
                if (gs == G) {
                    for (int64_t col = c0; col < c1; ++col) {
                        int32_t acc = 0;
                        for (int64_t gi = 0; gi < G; ++gi)
                            acc += q[gi][col];
                        yr[col] += scale * static_cast<float>(acc);
                    }
                } else {
                    for (int64_t col = c0; col < c1; ++col) {
                        int32_t acc = 0;
                        for (int64_t gi = 0; gi < gs; ++gi)
                            acc += q[gi][col];
                        yr[col] += scale * static_cast<float>(acc);
                    }
                }
            }
        }
    }
}

/**
 * The scalar INT4 packed group sweep, a free function for the same
 * vectorization reason as sweepInt8ColOuter. Walks packed column PAIRS:
 * each byte yields both nibble planes with one AND + one shift, biased
 * sums accumulate exactly in int32, and the single bias-correcting
 * subtract + dequantizing mul + add per (group, column) matches the
 * shuffle kernels' float op sequence bit for bit.
 */
__attribute__((noinline)) void
sweepInt4ColOuter(const uint8_t *__restrict__ qbank,
                  const float *__restrict__ scales,
                  const int32_t *__restrict__ codes, int64_t bn,
                  int64_t n, int64_t half_n, int64_t num_subspaces,
                  int64_t c, int64_t num_blocks, int64_t num_groups,
                  float *__restrict__ yb)
{
    constexpr int64_t G = LutTableArena::kInt4ScaleGroup;
    constexpr int64_t B = LutTableArena::kInt4BlockCols;
    for (int64_t g = 0; g < num_groups; ++g) {
        const int64_t s0 = g * G;
        const int64_t gs = std::min<int64_t>(G, num_subspaces - s0);
        const int32_t bias = static_cast<int32_t>(8 * gs);
        const float *srow = scales + g * num_blocks;
        for (int64_t r = 0; r < bn; ++r) {
            const int32_t *rcodes = codes + r * num_subspaces;
            float *__restrict__ yr = yb + r * n;
            const uint8_t *__restrict__ q[G];
            for (int64_t gi = 0; gi < gs; ++gi) {
                const int64_t s = s0 + gi;
                q[gi] = qbank + (s * c + rcodes[s]) * half_n;
            }
            for (int64_t b = 0; b < num_blocks; ++b) {
                const int64_t c0 = b * B;
                const int64_t c1 = std::min(n, c0 + B);
                const float scale = srow[b];
                // B is even, so c0 is even and the block covers whole
                // pairs — except the final block of an odd N, whose
                // dangling low-plane column is handled after the loop.
                const int64_t p0 = c0 >> 1;
                const int64_t pairs = (c1 - c0) >> 1;
                if (gs == G) {
                    for (int64_t p = 0; p < pairs; ++p) {
                        int32_t alo = 0, ahi = 0;
                        for (int64_t gi = 0; gi < G; ++gi) {
                            const int32_t byte = q[gi][p0 + p];
                            alo += byte & 15;
                            ahi += byte >> 4;
                        }
                        yr[c0 + 2 * p] +=
                            scale * static_cast<float>(alo - bias);
                        yr[c0 + 2 * p + 1] +=
                            scale * static_cast<float>(ahi - bias);
                    }
                } else {
                    for (int64_t p = 0; p < pairs; ++p) {
                        int32_t alo = 0, ahi = 0;
                        for (int64_t gi = 0; gi < gs; ++gi) {
                            const int32_t byte = q[gi][p0 + p];
                            alo += byte & 15;
                            ahi += byte >> 4;
                        }
                        yr[c0 + 2 * p] +=
                            scale * static_cast<float>(alo - bias);
                        yr[c0 + 2 * p + 1] +=
                            scale * static_cast<float>(ahi - bias);
                    }
                }
                if ((c1 - c0) & 1) {
                    int32_t alo = 0;
                    for (int64_t gi = 0; gi < gs; ++gi)
                        alo += q[gi][half_n - 1] & 15;
                    yr[n - 1] += scale * static_cast<float>(alo - bias);
                }
            }
        }
    }
}

} // namespace

template <typename Kernel>
void
LutTableArena::encodeBySubspace(const float *x, int64_t rows, int64_t width,
                                EncodeScratch &scratch, vq::CodeBuffer &codes,
                                Kernel &&kernel) const
{
    // Subspace-outer: one subspace's codebook stays L1-resident across the
    // whole batch, and its codes come out as one contiguous block — the
    // shape of a CodeBuffer plane. Encoded column j is input column
    // j % width (the identity at width == K), zero past K. A subspace
    // inside one input period is read in place at row stride `width`;
    // one that wraps or runs past K is gathered into a zero-padded
    // [rows, v] plane, exactly like ProductQuantizer::extractSubvector.
    const int64_t v = subvector_len_;
    codes.reset(rows, num_subspaces_, num_centroids_);
    scratch.block.resize(static_cast<size_t>(rows));
    int32_t *block = scratch.block.data();
    for (int64_t s = 0, col = 0; s < num_subspaces_;
         ++s, col = (col + v) % width) {
        const int64_t valid = std::min(v, in_features_ - s * v);
        if (valid == v && col + v <= width) {
            kernel(x + col, width, s, block);
        } else {
            float *padded = growScratch(scratch.padded, rows * v);
            for (int64_t i = 0; i < rows; ++i) {
                float *dst = padded + i * v;
                for (int64_t t = 0; t < valid; ++t)
                    dst[t] = x[i * width + (col + t) % width];
                std::fill(dst + valid, dst + v, 0.0f);
            }
            kernel(static_cast<const float *>(padded), v, s, block);
        }
        codes.storeCodes(s, 0, block, rows);
    }
}

template <vq::Metric M>
void
LutTableArena::encodeRowsImpl(const float *x, int64_t rows, int64_t width,
                              util::SimdLevel level, EncodeScratch &scratch,
                              vq::CodeBuffer &codes) const
{
    const int64_t v = subvector_len_, c = num_centroids_;
    // Register-resident fast path, dispatched on the RUNNING CPU (cpuid,
    // not compile flags): the generic-c tier (row-lane blocks, per-row
    // tail).
    if constexpr (M == vq::Metric::L2) {
        if (level != util::SimdLevel::Generic) {
            encodeBySubspace(
                x, rows, width, scratch, codes,
                [&](const float *xs, int64_t stride, int64_t s,
                    int32_t *out) {
                    simd::encodeL2GenericRows(level, xs, rows, stride,
                                              codebookT(s), v, c, out);
                });
            return;
        }
    }
    scratch.dist.resize(static_cast<size_t>(c));
    float *dist = scratch.dist.data();
    encodeBySubspace(
        x, rows, width, scratch, codes,
        [&](const float *xs, int64_t stride, int64_t s, int32_t *out) {
            for (int64_t i = 0; i < rows; ++i) {
                distanceAll<M>(xs + i * stride, codebookT(s), c, v, dist);
                out[i] = argminScan(dist, c);
            }
        });
}

const float *
LutTableArena::stageRows(const float *x, int64_t rows, int64_t width,
                         std::vector<float> &staging) const
{
    if (!bf16_inputs_)
        return x;
    staging.assign(x, x + rows * width);
    for (float &value : staging)
        value = vq::toBf16(value);
    return staging.data();
}

void
LutTableArena::encodeBatch(const float *x, int64_t rows,
                           vq::CodeBuffer &codes, EncodeScratch &scratch,
                           int64_t width, util::SimdLevel level) const
{
    if (width <= 0)
        width = in_features_;
    const float *staged = stageRows(x, rows, width, scratch.staging);
    const util::SimdLevel tier = encodeLevel(level);
    switch (metric_) {
      case vq::Metric::L2:
        encodeRowsImpl<vq::Metric::L2>(staged, rows, width, tier, scratch,
                                       codes);
        return;
      case vq::Metric::L1:
        encodeRowsImpl<vq::Metric::L1>(staged, rows, width, tier, scratch,
                                       codes);
        return;
      case vq::Metric::Chebyshev:
        encodeRowsImpl<vq::Metric::Chebyshev>(staged, rows, width, tier,
                                              scratch, codes);
        return;
    }
}

util::SimdLevel
LutTableArena::encodeLevel(util::SimdLevel level) const
{
    checkCap(level);
    if (metric_ != vq::Metric::L2 || num_centroids_ < 2 ||
        num_centroids_ > 64 || level < util::SimdLevel::Avx2)
        return util::SimdLevel::Generic;
    return level >= util::SimdLevel::Avx512 ? util::SimdLevel::Avx512
                                            : util::SimdLevel::Avx2;
}

void
LutTableArena::encodeBatchInt8(const float *x, int64_t rows,
                               vq::CodeBuffer &codes,
                               EncodeScratch &scratch, int64_t width,
                               util::SimdLevel level) const
{
    LUTDLA_CHECK(int8_encode_bank_ != nullptr,
                 "encodeBatchInt8 requires ensureInt8EncodeBank() first");
    if (width <= 0)
        width = in_features_;
    const util::SimdLevel tier = int8EncodeLevel(level);
    const Int8EncodeBank &bank = *int8_encode_bank_;
    const int64_t v = subvector_len_, c = num_centroids_;
    // The scalar integer reference shares quantizeEncodeLevel, the int32
    // scores and the strict-< lowest-index argmin with the SIMD tiers, so
    // every tier selects bit-identical codes; the property tests pin it.
    scratch.xq.resize(static_cast<size_t>(v));
    int32_t *xq = scratch.xq.data();
    encodeBySubspace(
        stageRows(x, rows, width, scratch.staging), rows, width, scratch,
        codes,
        [&](const float *xs, int64_t stride, int64_t s, int32_t *out) {
            const int32_t *norms = bank.norms.data() + s * bank.norm_stride;
            const float lo = bank.lo[static_cast<size_t>(s)];
            const float inv = bank.inv[static_cast<size_t>(s)];
            if (tier != util::SimdLevel::Generic) {
                simd::encodeInt8C16Rows(
                    tier, xs, rows, stride,
                    bank.cs_quad.data() + s * bank.vq4 * 64, norms, lo,
                    inv, v, out);
                return;
            }
            const int8_t *cs = bank.cs.data() + s * c * v;
            for (int64_t i = 0; i < rows; ++i) {
                const float *sub = xs + i * stride;
                for (int64_t t = 0; t < v; ++t)
                    xq[t] = quantizeEncodeLevel(sub[t], lo, inv);
                int32_t best = 0;
                int32_t best_score = std::numeric_limits<int32_t>::max();
                for (int64_t j = 0; j < c; ++j) {
                    const int8_t *crow = cs + j * v;
                    int32_t dot = 0;
                    for (int64_t t = 0; t < v; ++t)
                        dot += xq[t] * static_cast<int32_t>(crow[t]);
                    const int32_t score = norms[j] - 2 * dot;
                    if (score < best_score) {
                        best_score = score;
                        best = static_cast<int32_t>(j);
                    }
                }
                out[i] = best;
            }
        });
}

void
LutTableArena::addBias(float *yb, int64_t bn) const
{
    if (!has_bias_)
        return;
    const int64_t n = out_features_;
    const float *__restrict__ bias = biasPtr();
    for (int64_t r = 0; r < bn; ++r) {
        float *__restrict__ yr = yb + r * n;
        for (int64_t col = 0; col < n; ++col)
            yr[col] += bias[col];
    }
}

void
LutTableArena::checkCodes(const vq::CodeBuffer &codes) const
{
    LUTDLA_CHECK(codes.subspaces() == num_subspaces_,
                 "code buffer carries ", codes.subspaces(),
                 " subspaces, arena has ", num_subspaces_);
}

void
LutTableArena::gatherAccumulate(const vq::CodeBuffer &codes, float *y,
                                GatherScratch &scratch) const
{
    checkCodes(codes);
    const int64_t n = out_features_;
    const int64_t rows = codes.rows();
    for (int64_t b0 = 0; b0 < rows; b0 += kRowBlock) {
        const int64_t bn = std::min(kRowBlock, rows - b0);
        int32_t *unpacked = growScratch(scratch.unpacked, bn * num_subspaces_);
        codes.unpackRows(b0, bn, unpacked);
        float *yb = y + b0 * n;
        std::fill(yb, yb + bn * n, 0.0f);
        // The grouped sweep accumulates each output element's partial
        // sums in ascending subspace order into a zero-initialized
        // accumulator, and the code buffer round-trips codes exactly, so
        // the result matches eval-mode LutLinear::forward bit for bit.
        sweepBlockGrouped(unpacked, bn, yb);
        addBias(yb, bn);
    }
}

template <typename Chunk, typename Sweep>
void
LutTableArena::gatherQuantized(const vq::CodeBuffer &codes, float *y,
                               GatherScratch &scratch,
                               util::SimdLevel level, int64_t pad_tail_rows,
                               Chunk &&run_chunk, Sweep &&sweep) const
{
    checkCodes(codes);
    const int64_t n = out_features_;
    const int64_t rows = codes.rows();
    const int64_t chunk = simd::shuffleGatherChunkRows(level);
    const int64_t pad_min = pad_tail_rows * chunk / 64;
    float *colmajor = nullptr;
    if (chunk > 0) {
        LUTDLA_CHECK(codes.bits() == 8,
                     "shuffle gather reads one byte per code");
        colmajor = growScratch(scratch.colmajor, n * chunk);
    }
    for (int64_t b0 = 0; b0 < rows; b0 += kRowBlock) {
        const int64_t bn = std::min(kRowBlock, rows - b0);
        float *yb = y + b0 * n;
        // Whole chunks run through the shuffle kernel straight off the
        // code planes. A row tail still worth a vector pass runs PADDED
        // through one more chunk — cheaper than the bank's row sweep from
        // pad_min rows on. Its extra lanes read the plane's zero pad (code
        // 0, a valid index); they are computed and never copied out, and
        // the valid lanes see identical math, so it is bit-exact. Chunks
        // start at multiples of the chunk width and a padded plane is a
        // multiple of kPlaneAlign, so every chunk lies inside the plane.
        // Planes shorter than a chunk (tiny batches, stored unpadded) take
        // the row sweep.
        int64_t done = 0;
        while (chunk > 0 && chunk <= codes.planeStride() &&
               bn - done >= pad_min) {
            const int64_t valid = std::min(chunk, bn - done);
            const int64_t first = b0 + done;
            LUTDLA_CHECK(first + chunk <= codes.planeStride(),
                         "shuffle chunk [", first, ", ", first + chunk,
                         ") leaves the ", codes.planeStride(),
                         "-lane code plane");
            run_chunk(codes.plane(0) + first, codes.planeStride(), colmajor);
            simd::transposeChunkOut(level, colmajor, chunk, valid, n,
                                    yb + done * n);
            done += valid;
        }
        if (done < bn) {
            // Short row tail (or the whole block for the scalar tier):
            // identical group scales and exact integer accumulation, so
            // the seam between paths is invisible in the output.
            const int64_t tail = bn - done;
            int32_t *unpacked =
                growScratch(scratch.unpacked, tail * num_subspaces_);
            codes.unpackRows(b0 + done, tail, unpacked);
            float *yt = yb + done * n;
            std::fill(yt, yt + tail * n, 0.0f);
            sweep(unpacked, tail, yt);
        }
        addBias(yb, bn);
    }
}

void
LutTableArena::gatherAccumulateInt8(const vq::CodeBuffer &codes, float *y,
                                    GatherScratch &scratch,
                                    util::SimdLevel level) const
{
    LUTDLA_CHECK(int8_bank_ != nullptr,
                 "gatherAccumulateInt8 requires ensureInt8Bank() first");
    const Int8Bank &bank = *int8_bank_;
    const util::SimdLevel tier = int8GatherLevel(level);
    gatherQuantized(
        codes, y, scratch, tier, kInt8PadTailRows,
        [&](const uint8_t *lanes, int64_t stride, float *colmajor) {
            simd::shuffleGatherChunk(tier, bank.q_quad.data(),
                                     bank.scales.data(), lanes, stride,
                                     num_subspaces_, out_features_,
                                     bank.num_blocks, kInt8ScaleGroup,
                                     kInt8BlockCols, colmajor);
        },
        [&](const int32_t *unpacked, int64_t bn, float *yb) {
            sweepInt8ColOuter(bank.q.data(), bank.scales.data(), unpacked,
                              bn, out_features_, num_subspaces_,
                              num_centroids_, bank.num_blocks,
                              bank.num_groups, yb);
        });
}

void
LutTableArena::gatherAccumulateInt4(const vq::CodeBuffer &codes, float *y,
                                    GatherScratch &scratch,
                                    util::SimdLevel level) const
{
    LUTDLA_CHECK(int4_bank_ != nullptr,
                 "gatherAccumulateInt4 requires ensureInt4Bank() first");
    const Int4Bank &bank = *int4_bank_;
    const util::SimdLevel tier = int4GatherLevel(level);
    gatherQuantized(
        codes, y, scratch, tier, kInt4PadTailRows,
        [&](const uint8_t *lanes, int64_t stride, float *colmajor) {
            simd::shuffleGatherChunkInt4(
                tier, bank.q4_il.data(), bank.scales.data(), lanes, stride,
                num_subspaces_, out_features_, bank.num_blocks,
                kInt4ScaleGroup, kInt4BlockCols, colmajor);
        },
        [&](const int32_t *unpacked, int64_t bn, float *yb) {
            // The shuffle tiers sweep their row tails with the SIMD twin
            // of the scalar sweep; the scalar tier keeps the reference.
            if (tier == util::SimdLevel::Generic)
                sweepInt4ColOuter(bank.q4.data(), bank.scales.data(),
                                  unpacked, bn, out_features_, bank.half_n,
                                  num_subspaces_, num_centroids_,
                                  bank.num_blocks, bank.num_groups, yb);
            else
                simd::sweepInt4Rows(tier, bank.q4.data(),
                                    bank.scales.data(), unpacked, bn,
                                    out_features_, num_subspaces_,
                                    num_centroids_, bank.num_blocks,
                                    kInt4ScaleGroup, kInt4BlockCols, yb);
        });
}

void
LutTableArena::ensureInt8Bank() const
{
    std::call_once(int8_once_, [this] {
        auto bank = std::make_unique<Int8Bank>();
        const int64_t n = out_features_;
        const int64_t c = num_centroids_;
        bank->num_blocks = (n + kInt8BlockCols - 1) / kInt8BlockCols;
        bank->num_groups =
            (num_subspaces_ + kInt8ScaleGroup - 1) / kInt8ScaleGroup;
        bank->q.resize(static_cast<size_t>(num_subspaces_ * c * n));
        bank->scales.resize(
            static_cast<size_t>(bank->num_groups * bank->num_blocks));
        for (int64_t g = 0; g < bank->num_groups; ++g) {
            const int64_t s0 = g * kInt8ScaleGroup;
            const int64_t s1 = std::min(num_subspaces_,
                                        s0 + kInt8ScaleGroup);
            for (int64_t b = 0; b < bank->num_blocks; ++b) {
                const int64_t c0 = b * kInt8BlockCols;
                const int64_t c1 = std::min(n, c0 + kInt8BlockCols);
                // One symmetric scale covers every centroid entry of the
                // whole subspace GROUP in this output block: sharing the
                // scale across the group is what lets both gather paths
                // accumulate exact integer partial sums before a single
                // dequantizing mul + add per group.
                float max_abs = 0.0f;
                for (int64_t s = s0; s < s1; ++s)
                    for (int64_t j = 0; j < c; ++j) {
                        const float *row = entry(s, j);
                        for (int64_t col = c0; col < c1; ++col)
                            max_abs =
                                std::max(max_abs, std::fabs(row[col]));
                    }
                const float scale =
                    max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
                bank->scales[static_cast<size_t>(g * bank->num_blocks +
                                                 b)] = scale;
                for (int64_t s = s0; s < s1; ++s)
                    for (int64_t j = 0; j < c; ++j) {
                        const float *row = entry(s, j);
                        int8_t *qrow = bank->q.data() + (s * c + j) * n;
                        for (int64_t col = c0; col < c1; ++col) {
                            const float q =
                                std::nearbyint(row[col] / scale);
                            qrow[col] = static_cast<int8_t>(std::max(
                                -127.0f, std::min(127.0f, q)));
                        }
                    }
            }
        }
        // The quad mirror is built only when the RUNNING CPU can execute
        // the VNNI tier, the one tier that reads it — INT8 tables
        // dominate this data plane's memory, so AVX2 and plain AVX-512
        // hosts (scalar sweep) must not pay for the layout. Four
        // consecutive subspaces' LUTs share one 64-byte block per column
        // (zero padded past c and past Nc), one VPERMB table.
        const bool shuffle = int8GatherLevel() != util::SimdLevel::Generic;
        if (shuffle) {
            const int64_t quads = (num_subspaces_ + 3) / 4;
            bank->q_quad.assign(static_cast<size_t>(quads * n * 64), 0);
            for (int64_t s = 0; s < num_subspaces_; ++s) {
                const int64_t qd = s / 4, j = s % 4;
                for (int64_t e = 0; e < c; ++e) {
                    const int8_t *qrow = bank->q.data() + (s * c + e) * n;
                    for (int64_t col = 0; col < n; ++col)
                        bank->q_quad[static_cast<size_t>(
                            (qd * n + col) * 64 + 16 * j + e)] = qrow[col];
                }
            }
        }
        // Resident-accounting invariant int8ResidentBytes() relies on: the
        // mirror is either fully materialized because this host can run a
        // kernel that reads it, or left empty.
        LUTDLA_CHECK(bank->q_quad.empty() == !shuffle,
                     "q_quad must be materialized exactly when the VNNI "
                     "gather can run on this host");
        int8_bank_ = std::move(bank);
    });
}

void
LutTableArena::ensureInt4Bank() const
{
    std::call_once(int4_once_, [this] {
        auto bank = std::make_unique<Int4Bank>();
        const int64_t n = out_features_;
        const int64_t c = num_centroids_;
        bank->half_n = (n + 1) / 2;
        bank->num_blocks = (n + kInt4BlockCols - 1) / kInt4BlockCols;
        bank->num_groups =
            (num_subspaces_ + kInt4ScaleGroup - 1) / kInt4ScaleGroup;
        // 0x88 = bias nibble 8 in both planes, the exact packed zero:
        // odd-N dangling high nibbles and never-indexed pad entries all
        // decode to 0 by construction.
        bank->q4.assign(
            static_cast<size_t>(num_subspaces_ * c * bank->half_n), 0x88);
        bank->scales.resize(
            static_cast<size_t>(bank->num_groups * bank->num_blocks));
        const float max_level = static_cast<float>(kInt4MaxLevel);
        for (int64_t g = 0; g < bank->num_groups; ++g) {
            const int64_t s0 = g * kInt4ScaleGroup;
            const int64_t s1 =
                std::min(num_subspaces_, s0 + kInt4ScaleGroup);
            for (int64_t b = 0; b < bank->num_blocks; ++b) {
                const int64_t c0 = b * kInt4BlockCols;
                const int64_t c1 = std::min(n, c0 + kInt4BlockCols);
                // Same shared symmetric scale per (group, block) as the
                // INT8 bank, over the 15-level nibble range.
                float max_abs = 0.0f;
                for (int64_t s = s0; s < s1; ++s)
                    for (int64_t j = 0; j < c; ++j) {
                        const float *row = entry(s, j);
                        for (int64_t col = c0; col < c1; ++col)
                            max_abs =
                                std::max(max_abs, std::fabs(row[col]));
                    }
                const float scale =
                    max_abs > 0.0f ? max_abs / max_level : 1.0f;
                bank->scales[static_cast<size_t>(g * bank->num_blocks +
                                                 b)] = scale;
                for (int64_t s = s0; s < s1; ++s)
                    for (int64_t j = 0; j < c; ++j) {
                        const float *row = entry(s, j);
                        uint8_t *qrow = bank->q4.data() +
                                        (s * c + j) * bank->half_n;
                        for (int64_t col = c0; col < c1; ++col) {
                            const float q =
                                std::nearbyint(row[col] / scale);
                            const int32_t nib =
                                static_cast<int32_t>(std::max(
                                    -max_level,
                                    std::min(max_level, q))) +
                                8;
                            uint8_t &byte = qrow[col >> 1];
                            if (col & 1)
                                byte = static_cast<uint8_t>(
                                    (byte & 0x0F) | (nib << 4));
                            else
                                byte = static_cast<uint8_t>(
                                    (byte & 0xF0) | nib);
                        }
                    }
            }
        }
        // Interleaved shuffle mirror, capability-gated like the INT8
        // mirrors: each (subspace, column pair) packs its 16 centroid
        // bytes contiguously so one 128-bit load is the whole LUT.
        const bool shuffle = int4GatherLevel() != util::SimdLevel::Generic;
        if (shuffle) {
            bank->q4_il.assign(
                static_cast<size_t>(num_subspaces_ * bank->half_n * 16),
                0x88);
            for (int64_t s = 0; s < num_subspaces_; ++s)
                for (int64_t j = 0; j < c; ++j) {
                    const uint8_t *qrow =
                        bank->q4.data() + (s * c + j) * bank->half_n;
                    for (int64_t p = 0; p < bank->half_n; ++p)
                        bank->q4_il[static_cast<size_t>(
                            (s * bank->half_n + p) * 16 + j)] = qrow[p];
                }
        }
        LUTDLA_CHECK(bank->q4_il.empty() == !shuffle,
                     "q4_il must be materialized exactly when the shuffle "
                     "gather can run on this host");
        int4_bank_ = std::move(bank);
    });
}

bool
LutTableArena::int8BankReady() const
{
    return int8_bank_ != nullptr;
}

int64_t
LutTableArena::int8TableBytes() const
{
    if (!int8_bank_)
        return 0;
    return static_cast<int64_t>(int8_bank_->q.size() * sizeof(int8_t) +
                                int8_bank_->scales.size() * sizeof(float));
}

int64_t
LutTableArena::int8ResidentBytes() const
{
    if (!int8_bank_)
        return 0;
    const Int8Bank &bank = *int8_bank_;
    return static_cast<int64_t>(
        (bank.q.size() + bank.q_quad.size()) * sizeof(int8_t) +
        bank.scales.size() * sizeof(float));
}

util::SimdLevel
LutTableArena::int8GatherLevel(util::SimdLevel level) const
{
    checkCap(level);
    return num_centroids_ <= 16 && level >= util::SimdLevel::Avx512Vnni
               ? util::SimdLevel::Avx512Vnni
               : util::SimdLevel::Generic;
}

bool
LutTableArena::int4BankReady() const
{
    return int4_bank_ != nullptr;
}

int64_t
LutTableArena::int4TableBytes() const
{
    if (!int4_bank_)
        return 0;
    return static_cast<int64_t>(int4_bank_->q4.size() * sizeof(uint8_t) +
                                int4_bank_->scales.size() * sizeof(float));
}

int64_t
LutTableArena::int4ResidentBytes() const
{
    if (!int4_bank_)
        return 0;
    const Int4Bank &bank = *int4_bank_;
    return static_cast<int64_t>(
        (bank.q4.size() + bank.q4_il.size()) * sizeof(uint8_t) +
        bank.scales.size() * sizeof(float));
}

util::SimdLevel
LutTableArena::int4GatherLevel(util::SimdLevel level) const
{
    checkCap(level);
    if (num_centroids_ > 16 || level < util::SimdLevel::Avx2)
        return util::SimdLevel::Generic;
    return level >= util::SimdLevel::Avx512 ? util::SimdLevel::Avx512
                                            : util::SimdLevel::Avx2;
}

void
LutTableArena::ensureInt8EncodeBank() const
{
    std::call_once(int8_encode_once_, [this] {
        // The integer score norm - 2 * dot is bounded by
        // v * (127^2 + 2 * 127 * 128); cap v so it can never leave
        // int32 — every realistic PQ subvector is orders of magnitude
        // shorter.
        LUTDLA_CHECK(metric_ == vq::Metric::L2,
                     "the INT8 encode bank requires the L2 metric");
        LUTDLA_CHECK(subvector_len_ <= 32768,
                     "INT8 encode supports subvector lengths up to 32768");
        auto bank = std::make_unique<Int8EncodeBank>();
        const int64_t v = subvector_len_, c = num_centroids_;
        bank->vq4 = (v + 3) / 4;
        bank->norm_stride = std::max<int64_t>(c, 16);
        bank->cs.resize(static_cast<size_t>(num_subspaces_ * c * v));
        bank->norms.assign(
            static_cast<size_t>(num_subspaces_ * bank->norm_stride),
            std::numeric_limits<int32_t>::max());
        bank->lo.resize(static_cast<size_t>(num_subspaces_));
        bank->inv.resize(static_cast<size_t>(num_subspaces_));
        for (int64_t s = 0; s < num_subspaces_; ++s) {
            // One shared 7-bit affine grid per subspace, spanning the
            // codebook's value range; encode-time inputs are clamped
            // onto the same grid, so the integer argmin is exactly the
            // L2 argmin over the quantized values.
            const float *cbt = codebookT(s);
            float mn = cbt[0], mx = cbt[0];
            for (int64_t k = 1; k < c * v; ++k) {
                mn = std::min(mn, cbt[k]);
                mx = std::max(mx, cbt[k]);
            }
            const float step = mx > mn ? (mx - mn) / 127.0f : 1.0f;
            bank->lo[static_cast<size_t>(s)] = mn;
            bank->inv[static_cast<size_t>(s)] = 1.0f / step;
            for (int64_t j = 0; j < c; ++j) {
                int8_t *crow = bank->cs.data() + (s * c + j) * v;
                int32_t norm = 0;
                for (int64_t t = 0; t < v; ++t) {
                    const int32_t cu = quantizeEncodeLevel(
                        cbt[t * c + j], mn,
                        bank->inv[static_cast<size_t>(s)]);
                    // c_u - 128 lands in [-128, -1]: signed for the
                    // VPDPBUSD/VPMADDUBSW operand, and never 0, so the
                    // quad mirror's zero padding is unambiguous.
                    crow[t] = static_cast<int8_t>(cu - 128);
                    norm += cu * cu;
                }
                bank->norms[static_cast<size_t>(
                    s * bank->norm_stride + j)] = norm;
            }
        }
        // Quad-interleaved mirror for the SIMD tiers, capability-gated
        // like the gather mirrors: byte ((q * 16) + j) * 4 + k holds
        // c_s[j][4q + k], zero past v and past c.
        const bool simd = int8EncodeLevel() != util::SimdLevel::Generic;
        if (simd) {
            bank->cs_quad.assign(
                static_cast<size_t>(num_subspaces_ * bank->vq4 * 64), 0);
            for (int64_t s = 0; s < num_subspaces_; ++s)
                for (int64_t j = 0; j < c; ++j) {
                    const int8_t *crow =
                        bank->cs.data() + (s * c + j) * v;
                    for (int64_t t = 0; t < v; ++t)
                        bank->cs_quad[static_cast<size_t>(
                            (s * bank->vq4 + t / 4) * 64 + j * 4 +
                            t % 4)] = crow[t];
                }
        }
        LUTDLA_CHECK(bank->cs_quad.empty() == !simd,
                     "cs_quad must be materialized exactly when a SIMD "
                     "encode tier can run on this host");
        int8_encode_bank_ = std::move(bank);
    });
}

bool
LutTableArena::int8EncodeBankReady() const
{
    return int8_encode_bank_ != nullptr;
}

int64_t
LutTableArena::int8EncodeTableBytes() const
{
    if (!int8_encode_bank_)
        return 0;
    const Int8EncodeBank &bank = *int8_encode_bank_;
    return static_cast<int64_t>(
        bank.cs.size() * sizeof(int8_t) +
        bank.norms.size() * sizeof(int32_t) +
        (bank.lo.size() + bank.inv.size()) * sizeof(float));
}

int64_t
LutTableArena::int8EncodeResidentBytes() const
{
    if (!int8_encode_bank_)
        return 0;
    return int8EncodeTableBytes() +
           static_cast<int64_t>(int8_encode_bank_->cs_quad.size() *
                                sizeof(int8_t));
}

bool
LutTableArena::int8EncodeSupported() const
{
    return metric_ == vq::Metric::L2 && subvector_len_ <= 32768;
}

util::SimdLevel
LutTableArena::int8EncodeLevel(util::SimdLevel level) const
{
    checkCap(level);
    if (num_centroids_ > 16 || subvector_len_ > 128 ||
        level < util::SimdLevel::Avx2)
        return util::SimdLevel::Generic;
    return level >= util::SimdLevel::Avx512Vnni ? util::SimdLevel::Avx512Vnni
                                                : util::SimdLevel::Avx2;
}

void
LutTableArena::sweepBlockGrouped(const int32_t *codes, int64_t bn,
                                 float *yb) const
{
    // Subspace-group-major: kSubspaceGroup table banks stay hot across the
    // whole row block, and each group folds its partial sums into the
    // output slab in ONE sweep, dividing y-slab read/write traffic by the
    // group size. Entry rows are read contiguously (prefetch-friendly
    // 4*N-byte streams) — column-tiled variants defeat the hardware
    // prefetcher and measure far slower despite touching fewer bytes.
    const int64_t n = out_features_;
    constexpr int64_t G = kSubspaceGroup;
    for (int64_t s0 = 0; s0 < num_subspaces_; s0 += G) {
        const int64_t g = std::min<int64_t>(G, num_subspaces_ - s0);
        for (int64_t r = 0; r < bn; ++r) {
            const int32_t *rcodes = codes + r * num_subspaces_;
            float *__restrict__ yr = yb + r * n;
            if (g == G) {
                const float *__restrict__ p[G];
                for (int64_t gi = 0; gi < G; ++gi)
                    p[gi] = entry(s0 + gi, rcodes[s0 + gi]);
                for (int64_t col = 0; col < n; ++col) {
                    float acc = yr[col];
                    for (int64_t gi = 0; gi < G; ++gi)
                        acc += p[gi][col];
                    yr[col] = acc;
                }
            } else {
                for (int64_t gi = 0; gi < g; ++gi) {
                    const float *__restrict__ psum =
                        entry(s0 + gi, rcodes[s0 + gi]);
                    for (int64_t col = 0; col < n; ++col)
                        yr[col] += psum[col];
                }
            }
        }
    }
}

} // namespace lutdla::lutboost
