/**
 * @file
 * Parameterized property sweeps over the library's core invariants:
 * approximation error trends over (v, c), simulator monotonicity,
 * dataflow memory dominance, code-buffer round-trips, and the serving
 * data plane's bit-exactness across awkward shapes (K not divisible by
 * v, centroid counts that are not powers of two, single-row batches).
 */

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>

#include "hw/dataflow.h"
#include "lutboost/kernels.h"
#include "lutboost/kernels_simd.h"
#include "lutboost/lut_linear.h"
#include "sim/lutdla_sim.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "vq/code_buffer.h"
#include "vq/lut.h"

namespace lutdla {
namespace {

Tensor
randomMatrix(int64_t r, int64_t c, uint64_t seed)
{
    Tensor t(Shape{r, c});
    Rng rng(seed);
    for (int64_t i = 0; i < t.numel(); ++i)
        t.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
    return t;
}

// ---- Property: LUT-GEMM error shrinks as c grows, for every metric ----

class ErrorVsCentroids
    : public ::testing::TestWithParam<std::tuple<vq::Metric, int64_t>>
{
};

TEST_P(ErrorVsCentroids, MoreCentroidsNeverMuchWorse)
{
    const auto [metric, v] = GetParam();
    Tensor samples = randomMatrix(384, 16, 31);
    Tensor eval = randomMatrix(96, 16, 32);
    Tensor w = randomMatrix(16, 8, 33);
    double prev = 1e9;
    for (int64_t c : {4, 16, 64}) {
        vq::PQConfig cfg;
        cfg.v = v;
        cfg.c = c;
        cfg.metric = metric;
        vq::LutGemmEngine engine(cfg, w, samples);
        const double err = engine.approximationError(eval);
        EXPECT_LT(err, prev * 1.10)
            << vq::metricName(metric) << " v=" << v << " c=" << c;
        prev = err;
    }
}

INSTANTIATE_TEST_SUITE_P(
    MetricSweep, ErrorVsCentroids,
    ::testing::Combine(::testing::Values(vq::Metric::L2, vq::Metric::L1,
                                         vq::Metric::Chebyshev),
                       ::testing::Values<int64_t>(2, 4, 8)));

// ---- Property: longer subvectors raise error at fixed c ---------------

class ErrorVsVectorLength : public ::testing::TestWithParam<vq::Metric>
{
};

TEST_P(ErrorVsVectorLength, LongerVectorsLoseAccuracy)
{
    const vq::Metric metric = GetParam();
    Tensor samples = randomMatrix(384, 16, 41);
    Tensor eval = randomMatrix(96, 16, 42);
    Tensor w = randomMatrix(16, 8, 43);
    std::vector<double> errs;
    for (int64_t v : {2, 4, 8}) {
        vq::PQConfig cfg;
        cfg.v = v;
        cfg.c = 16;
        cfg.metric = metric;
        vq::LutGemmEngine engine(cfg, w, samples);
        errs.push_back(engine.approximationError(eval));
    }
    EXPECT_LT(errs.front(), errs.back())
        << "error should grow from v=2 to v=8";
}

INSTANTIATE_TEST_SUITE_P(MetricSweep, ErrorVsVectorLength,
                         ::testing::Values(vq::Metric::L2, vq::Metric::L1,
                                           vq::Metric::Chebyshev));

// ---- Property: simulator cycles scale down with parallel hardware -----

class SimMonotonicity : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(SimMonotonicity, MoreImmsNeverSlower)
{
    const int64_t n = GetParam();
    sim::GemmShape g{256, 128, 64 * n, "g"};
    sim::SimConfig cfg;
    cfg.v = 4;
    cfg.c = 16;
    cfg.tn = 64;
    cfg.m_tile = 256;
    bool first = true;
    uint64_t prev = 0;
    for (int64_t imm : {1, 2, 4}) {
        cfg.n_imm = imm;
        const uint64_t cycles =
            sim::LutDlaSimulator(cfg).simulateGemm(g).total_cycles;
        if (!first) {
            EXPECT_LE(cycles, prev + 64) << "imm=" << imm << " n=" << n;
        }
        first = false;
        prev = cycles;
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, SimMonotonicity,
                         ::testing::Values<int64_t>(1, 2, 4, 8));

// ---- Property: bigger GEMMs take proportionally longer ----------------

class SimLinearity : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(SimLinearity, CyclesScaleWithK)
{
    const int64_t k = GetParam();
    sim::SimConfig cfg;
    cfg.v = 4;
    cfg.c = 16;
    cfg.tn = 32;
    cfg.m_tile = 128;
    cfg.n_imm = 2;
    const uint64_t base =
        sim::LutDlaSimulator(cfg)
            .simulateGemm({128, k, 64, "g"})
            .total_cycles;
    const uint64_t twice =
        sim::LutDlaSimulator(cfg)
            .simulateGemm({128, 2 * k, 64, "g"})
            .total_cycles;
    EXPECT_NEAR(static_cast<double>(twice) / base, 2.0, 0.25);
}

INSTANTIATE_TEST_SUITE_P(Depths, SimLinearity,
                         ::testing::Values<int64_t>(64, 128, 256));

// ---- Property: LS dataflow dominance holds across shapes --------------

class DataflowDominance
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>>
{
};

TEST_P(DataflowDominance, LsTotalIsMinimal)
{
    const auto [mk, n] = GetParam();
    hw::DataflowParams p;
    p.m = mk;
    p.k = mk;
    p.n = n;
    p.v = 4;
    p.c = 32;
    p.tn = 32;
    const double ls =
        dataflowMemory(hw::Dataflow::LutStationary, p).totalBytes();
    for (hw::Dataflow df : hw::allDataflows()) {
        if (df == hw::Dataflow::LutStationary)
            continue;
        EXPECT_LE(ls, dataflowMemory(df, p).totalBytes() * 1.001)
            << hw::dataflowName(df) << " mk=" << mk << " n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DataflowDominance,
    ::testing::Combine(::testing::Values<int64_t>(128, 512, 1024),
                       ::testing::Values<int64_t>(256, 768, 2048)));

// ---- Property: CodeBuffer round-trips codes exactly --------------------

/** Codes of every subspace's plane at or past rows() (the pad lanes up to
 * planeStride()) must read 0. */
void
expectZeroPadLanes(const vq::CodeBuffer &buffer, const std::string &what)
{
    for (int64_t s = 0; s < buffer.subspaces(); ++s)
        for (int64_t r = buffer.rows(); r < buffer.planeStride(); ++r)
            ASSERT_EQ(buffer.get(r, s), 0)
                << what << ": pad lane r=" << r << " s=" << s;
}

/** Leave `buffer` as a bigger earlier batch would: reset for `rows` + 70
 * rows with every code at `centroids` - 1, so any lane a later reset
 * fails to zero (or an encode fails to write) shows up. */
void
dirtyCodeBuffer(vq::CodeBuffer &buffer, int64_t rows, int64_t subspaces,
                int64_t centroids)
{
    buffer.reset(rows + 70, subspaces, centroids);
    const std::vector<int32_t> top(static_cast<size_t>(rows + 70),
                                   static_cast<int32_t>(centroids - 1));
    for (int64_t s = 0; s < subspaces; ++s)
        buffer.storeCodes(s, 0, top.data(), rows + 70);
}

class CodeBufferRoundTrip
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>>
{
};

TEST_P(CodeBufferRoundTrip, StoreReadIsLossless)
{
    const auto [rows, subspaces, centroids] = GetParam();
    vq::CodeBuffer buffer;
    buffer.reset(rows, subspaces, centroids);

    // One byte per code through c = 256, two above; every plane padded
    // to a whole number of 64-row chunks, except below 8 rows, where no
    // shuffle chunk ever runs.
    const int want_bits = centroids <= 256 ? 8 : 16;
    const int64_t want_stride = rows < 8 ? rows : (rows + 63) / 64 * 64;
    EXPECT_EQ(buffer.bits(), want_bits);
    EXPECT_EQ(buffer.planeStride(), want_stride);
    EXPECT_EQ(buffer.sizeBytes(), subspaces * want_stride * want_bits / 8);

    // Store each subspace in ragged 7-row blocks, so stores at unaligned
    // row offsets are covered too.
    Rng rng(17 + static_cast<uint64_t>(centroids));
    std::vector<int32_t> expected(static_cast<size_t>(rows * subspaces));
    std::vector<int32_t> column(static_cast<size_t>(rows));
    for (int64_t s = 0; s < subspaces; ++s) {
        for (int64_t r = 0; r < rows; ++r) {
            column[static_cast<size_t>(r)] = static_cast<int32_t>(
                rng.uniformInt(0, centroids - 1));
            expected[static_cast<size_t>(r * subspaces + s)] =
                column[static_cast<size_t>(r)];
        }
        for (int64_t r0 = 0; r0 < rows; r0 += 7)
            buffer.storeCodes(s, r0, column.data() + r0,
                              std::min<int64_t>(7, rows - r0));
    }
    std::vector<int32_t> unpacked(expected.size());
    buffer.unpackRows(0, rows, unpacked.data());
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t s = 0; s < subspaces; ++s) {
            const size_t i = static_cast<size_t>(r * subspaces + s);
            EXPECT_EQ(buffer.get(r, s), expected[i])
                << "r=" << r << " s=" << s;
            EXPECT_EQ(unpacked[i], expected[i]) << "r=" << r << " s=" << s;
        }
    expectZeroPadLanes(buffer, "round trip");
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, CodeBufferRoundTrip,
    ::testing::Combine(
        ::testing::Values<int64_t>(1, 3, 300),          // rows (1 = single)
        ::testing::Values<int64_t>(1, 5, 8),            // subspaces (odd!)
        ::testing::Values<int64_t>(5, 16, 100, 257)));  // c, some non-pow2

// ---- Property: the planes are the subspace-major layout the gather reads

TEST(CodeBufferPlanes, SubspaceMajorLayoutOnAwkwardShapes)
{
    for (const int64_t centroids : {4, 16, 200, 300}) {
        for (const int64_t rows : {1, 7, 64, 65}) {
            for (const int64_t subspaces : {1, 5, 12}) {
                const std::string what =
                    "c=" + std::to_string(centroids) +
                    " rows=" + std::to_string(rows) +
                    " Nc=" + std::to_string(subspaces);
                vq::CodeBuffer buffer;
                dirtyCodeBuffer(buffer, rows, subspaces, centroids);
                buffer.reset(rows, subspaces, centroids);
                expectZeroPadLanes(buffer, what);
                Rng rng(3 + static_cast<uint64_t>(centroids * rows));
                std::vector<int32_t> column(static_cast<size_t>(rows));
                for (int64_t s = 0; s < subspaces; ++s) {
                    for (int32_t &code : column)
                        code = static_cast<int32_t>(
                            rng.uniformInt(0, centroids - 1));
                    buffer.storeCodes(s, 0, column.data(), rows);
                }
                // Code (row, s) at plane(s)[row], little-endian when two
                // bytes wide; planes sit planeStride() codes apart.
                const int bytes = buffer.bits() / 8;
                for (int64_t s = 0; s < subspaces; ++s) {
                    const uint8_t *plane = buffer.plane(s);
                    EXPECT_EQ(plane - buffer.plane(0),
                              s * buffer.planeStride() * bytes)
                        << what;
                    for (int64_t r = 0; r < rows; ++r) {
                        const int32_t stored =
                            bytes == 1 ? plane[r]
                                       : plane[2 * r] | (plane[2 * r + 1] << 8);
                        EXPECT_EQ(stored, buffer.get(r, s))
                            << what << " r=" << r << " s=" << s;
                    }
                }
                // A row span off row 0 unpacks to the same codes.
                const int64_t row0 = rows > 2 ? 1 : 0;
                const int64_t n = rows - row0;
                std::vector<int32_t> unpacked(
                    static_cast<size_t>(n * subspaces));
                buffer.unpackRows(row0, n, unpacked.data());
                for (int64_t i = 0; i < n; ++i)
                    for (int64_t s = 0; s < subspaces; ++s)
                        EXPECT_EQ(
                            unpacked[static_cast<size_t>(i * subspaces + s)],
                            buffer.get(row0 + i, s))
                            << what << " row=" << row0 + i << " s=" << s;
            }
        }
    }
}

// ---- Property: block-by-block encode matches the whole batch ----------

/**
 * The serving runtime splits a batch into row blocks, and each block
 * encodes its own input rows (x + r0 * K) into its worker's own
 * CodeBuffer. Blocks of 13 rows (never chunk-aligned) followed by a final
 * 1-row block, encoded one after another into ONE reused buffer that
 * first held a bigger dirty batch, must each carry exactly the codes the
 * whole-batch encode writes for the same rows, for the float encode and
 * every INT8 encode tier this host runs, and each block's pad lanes must
 * read 0. Shapes straddle the 64-row plane alignment; c covers
 * nibble-sized, byte-sized and two-byte codes, on both the SIMD and the
 * scalar encode paths.
 */
class EncodeShardSeams
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>>
{
};

/** Run `fn(row0, n)` over `rows` rows as 13-row blocks from row 0 and
 * then one final 1-row block. */
template <typename Fn>
void
forEachUnalignedBlock(int64_t rows, Fn &&fn)
{
    const int64_t last = rows - 1;
    for (int64_t r0 = 0; r0 < last; r0 += 13)
        fn(r0, std::min<int64_t>(13, last - r0));
    fn(last, 1);
}

/** `block` must hold exactly rows [r0, r0 + block.rows()) of `whole`, and
 * its pad lanes must read 0. */
void
expectBlockCodes(const vq::CodeBuffer &block, const vq::CodeBuffer &whole,
                 int64_t r0, const std::string &what)
{
    ASSERT_EQ(block.subspaces(), whole.subspaces()) << what;
    ASSERT_LE(r0 + block.rows(), whole.rows()) << what;
    for (int64_t s = 0; s < whole.subspaces(); ++s)
        for (int64_t r = 0; r < block.rows(); ++r)
            ASSERT_EQ(block.get(r, s), whole.get(r0 + r, s))
                << what << " r=" << r0 + r << " s=" << s;
    expectZeroPadLanes(block, what);
}

/** One encode tier of an arena: `encode(x, rows, width, codes)`. */
struct EncodeTier
{
    std::string name;
    std::function<void(const float *, int64_t, int64_t, vq::CodeBuffer &)>
        encode;
};

/** The levels at or below this host's whose cap `resolve` maps to
 * themselves: the tiers a family really runs on one arena, each once. */
template <typename Resolve>
std::vector<util::SimdLevel>
tierLevels(Resolve &&resolve)
{
    std::vector<util::SimdLevel> levels;
    for (const util::SimdLevel level :
         {util::SimdLevel::Generic, util::SimdLevel::Avx2,
          util::SimdLevel::Avx512, util::SimdLevel::Avx512Vnni})
        if (level <= util::simdLevel() && resolve(level) == level)
            levels.push_back(level);
    return levels;
}

/** The float encode plus every INT8 encode tier this host runs on
 * `arena` (the SIMD tiers need c <= 16 and v <= 128; the scalar
 * reference runs all c), each working out of `scratch`. The arena's INT8
 * encode bank must be built. */
std::vector<EncodeTier>
encodeTiers(const lutboost::LutTableArena &arena,
            lutboost::EncodeScratch &scratch)
{
    std::vector<EncodeTier> tiers{
        {"float encode",
         [&arena, &scratch](const float *x, int64_t rows, int64_t width,
                            vq::CodeBuffer &codes) {
             arena.encodeBatch(x, rows, codes, scratch, width);
         }}};
    const auto levels = tierLevels([&arena](util::SimdLevel level) {
        return arena.int8EncodeLevel(level);
    });
    for (const util::SimdLevel level : levels)
        tiers.push_back(
            {std::string("int8 ") + util::simdLevelName(level),
             [&arena, &scratch, level](const float *x, int64_t rows,
                                       int64_t width,
                                       vq::CodeBuffer &codes) {
                 arena.encodeBatchInt8(x, rows, codes, scratch, width,
                                       level);
             }});
    return tiers;
}

TEST_P(EncodeShardSeams, UnalignedBlocksMatchWholeBatch)
{
    const auto [rows, c] = GetParam();
    const int64_t k = 23, v = 4;  // ragged zero-padded tail subspace
    vq::PQConfig pq;
    pq.v = v;
    pq.c = c;
    lutboost::LutLinear layer(k, 10, pq, /*bias=*/false,
                              /*seed=*/static_cast<uint64_t>(rows + c));
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    arena->ensureInt8EncodeBank();
    const int64_t nc = arena->numSubspaces();

    Rng rng(29 + static_cast<uint64_t>(rows * c));
    Tensor x(Shape{rows, k});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
    const std::string what =
        "rows=" + std::to_string(rows) + " c=" + std::to_string(c);

    lutboost::EncodeScratch scratch;
    vq::CodeBuffer whole, block;
    // The whole batch and every block go through each tier.
    for (const EncodeTier &tier : encodeTiers(*arena, scratch)) {
        tier.encode(x.data(), rows, k, whole);
        dirtyCodeBuffer(block, rows, nc, c);
        forEachUnalignedBlock(rows, [&](int64_t r0, int64_t n) {
            tier.encode(x.data() + r0 * k, n, k, block);
            expectBlockCodes(block, whole, r0,
                             tier.name + " " + what +
                                 " block r0=" + std::to_string(r0));
        });
    }
}

INSTANTIATE_TEST_SUITE_P(
    PlaneSeams, EncodeShardSeams,
    ::testing::Combine(::testing::Values<int64_t>(1, 15, 17, 63, 64, 65,
                                                  130),
                       ::testing::Values<int64_t>(4, 16, 17, 256, 300)));

// ---- Property: the strided cyclic encode equals the replicated copy ---

/** The [rows, K] rows a width-adapted stage encodes: column j of row r
 * is column j % w of `x`'s row r ([rows, w]). */
std::vector<float>
replicateCyclic(const std::vector<float> &x, int64_t rows, int64_t w,
                int64_t k)
{
    std::vector<float> out(static_cast<size_t>(rows * k));
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t j = 0; j < k; ++j)
            out[static_cast<size_t>(r * k + j)] =
                x[static_cast<size_t>(r * w + j % w)];
    return out;
}

/**
 * Encode `x` ([rows, w]) through every encode tier of `arena` with row
 * width w — the whole batch, then unaligned 13-row blocks read at
 * x + r0 * w into one reused dirty buffer — and require the codes of
 * encoding the hand-replicated [rows, K] copy.
 */
void
expectStridedEncodeMatchesReplicated(const lutboost::LutTableArena &arena,
                                     const std::vector<float> &x,
                                     int64_t rows, int64_t w,
                                     const std::string &what)
{
    const int64_t k = arena.inFeatures();
    const std::vector<float> copy = replicateCyclic(x, rows, w, k);
    lutboost::EncodeScratch scratch;
    vq::CodeBuffer want, whole, block;
    for (const EncodeTier &tier : encodeTiers(arena, scratch)) {
        const std::string at = tier.name + " " + what;
        tier.encode(copy.data(), rows, k, want);
        tier.encode(x.data(), rows, w, whole);
        expectBlockCodes(whole, want, 0, at + " whole batch");
        dirtyCodeBuffer(block, rows, arena.numSubspaces(),
                        arena.numCentroids());
        forEachUnalignedBlock(rows, [&](int64_t r0, int64_t n) {
            tier.encode(x.data() + r0 * w, n, w, block);
            expectBlockCodes(block, want, r0,
                             at + " block r0=" + std::to_string(r0));
        });
    }
}

/**
 * A width-adapted stage's encode reads its w-wide input rows in place:
 * column j of the K-wide row it encodes is input column j mod w, zero
 * past K. The codes must equal those of encoding a replicated [rows, K]
 * copy bit for bit, for the float encode and every INT8 tier, on plain
 * and BF16-input arenas. K = 23, v = 4 (a ragged tail subspace), with w
 * covering widening where subspaces straddle the wrap (w = 6: 4..7 reads
 * columns 4, 5, 0, 1), v | w (8), truncation (30), the identity (23) and
 * a period shorter than one subvector (3).
 */
class StridedCyclicEncode
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, bool, int64_t>>
{
};

TEST_P(StridedCyclicEncode, MatchesReplicatedCopy)
{
    const auto [w, c, bf16, rows] = GetParam();
    const int64_t k = 23;
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = c;
    lutboost::LutLinear layer(k, 10, pq, /*bias=*/false,
                              /*seed=*/static_cast<uint64_t>(w * 5 + c));
    vq::LutPrecision precision;
    precision.bf16_similarity = bf16;
    layer.setPrecision(precision);
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    ASSERT_EQ(arena->bf16Inputs(), bf16);
    arena->ensureInt8EncodeBank();

    Rng rng(43 + static_cast<uint64_t>(w * rows));
    std::vector<float> x(static_cast<size_t>(rows * w));
    for (float &e : x)
        e = static_cast<float>(rng.gaussian(0.0, 1.0));
    expectStridedEncodeMatchesReplicated(
        *arena, x, rows, w,
        "w=" + std::to_string(w) + " c=" + std::to_string(c) +
            " bf16=" + std::to_string(bf16) +
            " rows=" + std::to_string(rows));
}

INSTANTIATE_TEST_SUITE_P(
    AdaptWidths, StridedCyclicEncode,
    ::testing::Combine(::testing::Values<int64_t>(6, 8, 30, 23, 3),
                       ::testing::Values<int64_t>(4, 16, 17, 256),
                       ::testing::Bool(),
                       ::testing::Values<int64_t>(1, 65)));

// ---- Property: hostile floats never split a tier from its reference ---

/** NaN, both infinities, both smallest denormals, both largest finite
 * floats and negative zero. */
const float kHostileFloats[] = {
    std::numeric_limits<float>::quiet_NaN(),
    std::numeric_limits<float>::infinity(),
    -std::numeric_limits<float>::infinity(),
    std::numeric_limits<float>::denorm_min(),
    -std::numeric_limits<float>::denorm_min(),
    std::numeric_limits<float>::max(),
    -std::numeric_limits<float>::max(),
    -0.0f};
constexpr int64_t kNumHostileFloats =
    sizeof(kHostileFloats) / sizeof(kHostileFloats[0]);

/** `rows` rows `width` floats apart, cycling by row through three
 * patterns: one hostile value in an otherwise Gaussian row, hostile
 * values everywhere, and a whole row of one hostile value. */
std::vector<float>
hostileRows(int64_t rows, int64_t width, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> x(static_cast<size_t>(rows * width));
    for (int64_t r = 0; r < rows; ++r) {
        const float pick = kHostileFloats[(r / 3) % kNumHostileFloats];
        for (int64_t i = 0; i < width; ++i) {
            float &e = x[static_cast<size_t>(r * width + i)];
            switch (r % 3) {
              case 0:
                e = i == r % width
                        ? pick
                        : static_cast<float>(rng.gaussian(0.0, 1.0));
                break;
              case 1:
                e = kHostileFloats[(r + i) % kNumHostileFloats];
                break;
              default:
                e = pick;
                break;
            }
        }
    }
    return x;
}

/**
 * Codes of the scalar distance + ascending argmin scan the float encode
 * tiers must reproduce: zeroed accumulators, ascending t, explicit mul +
 * add (this TU builds without -march, so no FMA contraction), and a
 * strict-< scan seeded with centroid 0, so the lowest index keeps a tie
 * and a NaN distance at centroid 0 is never beaten. Row r is at x + r *
 * stride; cbt is the transposed [v, c] codebook.
 */
std::vector<int32_t>
scalarL2Codes(const std::vector<float> &x, int64_t rows, int64_t stride,
              const std::vector<float> &cbt, int64_t v, int64_t c)
{
    std::vector<int32_t> codes(static_cast<size_t>(rows));
    std::vector<float> d(static_cast<size_t>(c));
    for (int64_t r = 0; r < rows; ++r) {
        const float *sub = x.data() + r * stride;
        for (int64_t j = 0; j < c; ++j) {
            float dist = 0.0f;
            for (int64_t t = 0; t < v; ++t) {
                const float diff =
                    sub[t] - cbt[static_cast<size_t>(t * c + j)];
                dist += diff * diff;
            }
            d[static_cast<size_t>(j)] = dist;
        }
        int32_t best = 0;
        for (int64_t j = 1; j < c; ++j)
            if (d[static_cast<size_t>(j)] < d[static_cast<size_t>(best)])
                best = static_cast<int32_t>(j);
        codes[static_cast<size_t>(r)] = best;
    }
    return codes;
}

/**
 * The generic-c float encode must select the code of the scalar scan
 * (scalarL2Codes) at every SIMD level this host runs, on row counts on
 * both sides of the 8- (AVX2) and 16-row (AVX-512) row-lane blocks, so
 * whole blocks and per-row tails both run, and on every subvector length
 * shape the row-lane kernel reads: v = 1, 3, 5 and 9 end in a masked
 * dim-quad, v = 3, 4 and 8 take the compile-time kernels, v = 16 is its
 * largest and v = 17 runs per-row at any row count. Two inputs per
 * shape:
 *  - hostile rows (NaN, +/-Inf, +/-FLT_MAX, denormals, -0): overflowed
 *    (+inf) distances tie to the lowest index, -0 and denormals score as
 *    the finite values they are, and an all-NaN distance row keeps code
 *    0 in a lane exactly as in the scalar scan;
 *  - Gaussian rows over a codebook whose last centroid duplicates
 *    centroid 1: row 0 sits exactly on both, so the exact tie must go to
 *    index 1; row 6 carries one NaN in its last dimension inside an
 *    otherwise finite block; and row 21 is all NaN.
 */
TEST(HostileInputs, GenericCFloatEncodeMatchesScalarScan)
{
    const util::SimdLevel host = util::simdLevel();
    std::vector<util::SimdLevel> levels;
    if (host >= util::SimdLevel::Avx2)
        levels.push_back(util::SimdLevel::Avx2);
    if (host >= util::SimdLevel::Avx512)
        levels.push_back(util::SimdLevel::Avx512);
    if (levels.empty())
        GTEST_SKIP() << "no SIMD level on this host; scalar-only";

    const float nan = std::numeric_limits<float>::quiet_NaN();
    int64_t checked = 0;
    for (const int64_t c : {4, 11, 16, 33, 64}) {
        for (const int64_t v : {1, 3, 4, 5, 8, 9, 16, 17}) {
            const int64_t stride = v + 2;
            Rng rng(3 + static_cast<uint64_t>(c * 100 + v));
            std::vector<float> cbt(static_cast<size_t>(v * c));
            for (float &e : cbt)
                e = static_cast<float>(rng.gaussian(0.0, 1.0));
            for (int64_t t = 0; t < v; ++t)
                cbt[static_cast<size_t>(t * c + c - 1)] =
                    cbt[static_cast<size_t>(t * c + 1)];
            for (const int64_t rows : {1, 5, 8, 15, 16, 17, 31, 48, 65}) {
                std::vector<float> tie(static_cast<size_t>(rows * stride));
                for (float &e : tie)
                    e = static_cast<float>(rng.gaussian(0.0, 1.0));
                for (int64_t t = 0; t < v; ++t)
                    tie[static_cast<size_t>(t)] =
                        cbt[static_cast<size_t>(t * c + 1)];
                if (rows > 6)
                    tie[static_cast<size_t>(6 * stride + v - 1)] = nan;
                if (rows > 21)
                    std::fill_n(tie.begin() + 21 * stride, v, nan);
                const std::vector<float> inputs[2] = {
                    hostileRows(rows, stride,
                                static_cast<uint64_t>(c + v + rows)),
                    tie};
                for (int64_t in = 0; in < 2; ++in) {
                    const std::vector<float> &x = inputs[in];
                    const std::vector<int32_t> want =
                        scalarL2Codes(x, rows, stride, cbt, v, c);
                    if (in == 1) {
                        ASSERT_EQ(want[0], 1) << "c=" << c << " v=" << v;
                    }
                    for (const util::SimdLevel level : levels) {
                        std::vector<int32_t> got(static_cast<size_t>(rows),
                                                 -1);
                        lutboost::simd::encodeL2GenericRows(
                            level, x.data(), rows, stride, cbt.data(), v, c,
                            got.data());
                        for (int64_t r = 0; r < rows; ++r)
                            ASSERT_EQ(got[static_cast<size_t>(r)],
                                      want[static_cast<size_t>(r)])
                                << util::simdLevelName(level)
                                << (in == 0 ? " hostile" : " tie")
                                << " c=" << c << " v=" << v
                                << " rows=" << rows << " r=" << r;
                        checked += rows;
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 0);
}

/** Hostile rows through the strided width-adapt encode, every tier, on
 * plain and BF16-input arenas: still the codes of the replicated copy. */
TEST(HostileInputs, StridedAdaptEncodeMatchesReplicatedCopy)
{
    for (const bool bf16 : {false, true}) {
        for (const int64_t c : {16, 17}) {
            vq::PQConfig pq;
            pq.v = 4;
            pq.c = c;
            lutboost::LutLinear layer(23, 10, pq, /*bias=*/false,
                                      /*seed=*/static_cast<uint64_t>(c));
            vq::LutPrecision precision;
            precision.bf16_similarity = bf16;
            layer.setPrecision(precision);
            layer.refreshInferenceLut();
            const auto arena = layer.inferenceArena();
            arena->ensureInt8EncodeBank();
            for (const int64_t w : {6, 30}) {
                constexpr int64_t kRows = 65;
                expectStridedEncodeMatchesReplicated(
                    *arena, hostileRows(kRows, w, static_cast<uint64_t>(w)),
                    kRows, w,
                    "hostile w=" + std::to_string(w) + " c=" +
                        std::to_string(c) + " bf16=" + std::to_string(bf16));
            }
        }
    }
}

// ---- Property: every INT8 gather tier is bit-identical -----------------

/**
 * The INT8 gather contract: the VNNI shuffle and scalar tiers share
 * exact integer accumulation under group scales, so their float outputs
 * must match BIT FOR BIT across awkward shapes — c in {4, 16},
 * K % v != 0, row counts around the 32/64-row chunk boundaries, single
 * rows, and multi-block batches with ragged tails. The output widths
 * cover the transpose-out: 64 is whole 16-wide tiles only, 7 is edges
 * only, 70 is both.
 */
class Int8GatherTiers
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t>>
{
};

TEST_P(Int8GatherTiers, ShuffleBitExactVsScalar)
{
    const auto [k, v, c, rows, n] = GetParam();
    vq::PQConfig pq;
    pq.v = v;
    pq.c = c;
    lutboost::LutLinear layer(k, n, pq, /*bias=*/true,
                              /*seed=*/static_cast<uint64_t>(k + c + rows));
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    arena->ensureInt8Bank();

    Rng rng(55 + static_cast<uint64_t>(rows));
    Tensor x(Shape{rows, k});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));

    lutboost::KernelScratch scratch;
    lutboost::KernelBackend::of(lutboost::TablePrecision::Float32)
        .encodeBatch(*arena, x.data(), rows, scratch);

    Tensor scalar(Shape{rows, n});
    arena->gatherAccumulateInt8(scratch.codes, scalar.data(),
                                scratch.gather, util::SimdLevel::Generic);

    // Block-by-block sweep (what the serving runtime's row blocks run):
    // each block encodes its own rows into one reused scratch and gathers
    // them into its slice of the output; the seams must be invisible.
    Tensor blocks(Shape{rows, n});
    lutboost::KernelScratch local;
    forEachUnalignedBlock(rows, [&](int64_t r0, int64_t bn) {
        lutboost::KernelBackend::of(lutboost::TablePrecision::Int8)
            .forwardTile(*arena, x.data() + r0 * k, bn,
                         blocks.data() + r0 * n, local, nullptr, nullptr);
    });
    EXPECT_TRUE(blocks.equals(scalar))
        << "block seams changed the INT8 gather result";

    // The default cap resolves to scalar or shuffle-vnni; either must
    // match.
    Tensor autod(Shape{rows, n});
    arena->gatherAccumulateInt8(scratch.codes, autod.data(),
                                scratch.gather);
    EXPECT_TRUE(autod.equals(scalar));

    if (util::simdLevel() < util::SimdLevel::Avx512Vnni)
        GTEST_SKIP() << "no VBMI+VNNI on this host; scalar-only";
    ASSERT_EQ(arena->int8GatherLevel(util::SimdLevel::Avx512Vnni),
              util::SimdLevel::Avx512Vnni);
    Tensor shuffled(Shape{rows, n});
    arena->gatherAccumulateInt8(scratch.codes, shuffled.data(),
                                scratch.gather,
                                util::SimdLevel::Avx512Vnni);
    EXPECT_TRUE(shuffled.equals(scalar))
        << "shuffle-vnni diverged: k=" << k << " v=" << v << " c=" << c
        << " rows=" << rows << " n=" << n
        << " maxdiff=" << Tensor::maxAbsDiff(shuffled, scalar);

}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, Int8GatherTiers,
    ::testing::Combine(::testing::Values<int64_t>(23, 52),  // K % v != 0
                       ::testing::Values<int64_t>(3, 8),
                       ::testing::Values<int64_t>(4, 16),
                       // chunk-boundary row counts: single, sub-chunk,
                       // one AVX2 chunk, one AVX-512 chunk +/- 1, ragged
                       ::testing::Values<int64_t>(1, 31, 32, 63, 64, 65,
                                                  130),
                       // output widths: tiles and edges, tiles only,
                       // edges only
                       ::testing::Values<int64_t>(70, 64, 7)));

// ---- Property: every INT4 gather tier is bit-identical -----------------

/**
 * The INT4 twin of the Int8GatherTiers contract: the nibble-packed
 * shuffle kernels and the scalar packed sweep share exact biased-nibble
 * accumulation under the same group scales, so their float outputs must
 * match BIT FOR BIT across the same awkward-shape grid. The ODD output
 * widths (71, 7) exercise the dangling low-plane column of the last
 * packed pair; 64 and 7 also put whole transpose tiles only and edges
 * only under test.
 */
class Int4GatherTiers
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t>>
{
};

/**
 * Encode `x`, gather it through the scalar packed sweep into `scalar`,
 * and require every INT4 shuffle tier this host runs (at a forced level
 * and at the default cap, whole-buffer and block by block) to match it
 * bit for bit.
 */
void
expectInt4TiersMatchScalar(const lutboost::LutTableArena &arena,
                           const Tensor &x, const std::string &what,
                           Tensor &scalar)
{
    const int64_t rows = x.dim(0), n = arena.outFeatures();
    lutboost::KernelScratch scratch;
    lutboost::KernelBackend::of(lutboost::TablePrecision::Float32)
        .encodeBatch(arena, x.data(), rows, scratch);
    scalar = Tensor(Shape{rows, n});
    arena.gatherAccumulateInt4(scratch.codes, scalar.data(), scratch.gather,
                               util::SimdLevel::Generic);

    // Block-by-block sweep (what the serving runtime's row blocks run).
    Tensor blocks(Shape{rows, n});
    lutboost::KernelScratch local;
    const int64_t k = arena.inFeatures();
    forEachUnalignedBlock(rows, [&](int64_t r0, int64_t bn) {
        lutboost::KernelBackend::of(lutboost::TablePrecision::Int4)
            .forwardTile(arena, x.data() + r0 * k, bn,
                         blocks.data() + r0 * n, local, nullptr, nullptr);
    });
    EXPECT_TRUE(blocks.equals(scalar))
        << "block seams changed the INT4 gather result: " << what;

    const util::SimdLevel host = util::simdLevel();
    std::vector<util::SimdLevel> levels;
    if (host >= util::SimdLevel::Avx2)
        levels.push_back(util::SimdLevel::Avx2);
    if (host >= util::SimdLevel::Avx512)
        levels.push_back(util::SimdLevel::Avx512);
    if (levels.empty())
        GTEST_SKIP() << "no SIMD level on this host; scalar-only";
    for (const util::SimdLevel level : levels) {
        ASSERT_EQ(arena.int4GatherLevel(level), level) << what;
        Tensor shuffled(Shape{rows, n});
        arena.gatherAccumulateInt4(scratch.codes, shuffled.data(),
                                   scratch.gather, level);
        EXPECT_TRUE(shuffled.equals(scalar))
            << util::simdLevelName(level) << " diverged: " << what
            << " maxdiff=" << Tensor::maxAbsDiff(shuffled, scalar);
        Tensor autod(Shape{rows, n});
        arena.gatherAccumulateInt4(scratch.codes, autod.data(),
                                   scratch.gather);
        EXPECT_TRUE(autod.equals(scalar));
    }

}

TEST_P(Int4GatherTiers, ShuffleBitExactVsScalar)
{
    const auto [k, v, c, rows, n] = GetParam();
    vq::PQConfig pq;
    pq.v = v;
    pq.c = c;
    lutboost::LutLinear layer(k, n, pq, /*bias=*/true,
                              /*seed=*/static_cast<uint64_t>(k + c + rows));
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    arena->ensureInt4Bank();

    Rng rng(56 + static_cast<uint64_t>(rows));
    Tensor x(Shape{rows, k});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
    Tensor scalar;
    expectInt4TiersMatchScalar(
        *arena, x,
        "k=" + std::to_string(k) + " v=" + std::to_string(v) +
            " c=" + std::to_string(c) + " rows=" + std::to_string(rows) +
            " n=" + std::to_string(n),
        scalar);
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, Int4GatherTiers,
    ::testing::Combine(::testing::Values<int64_t>(23, 52),  // K % v != 0
                       ::testing::Values<int64_t>(3, 8),
                       ::testing::Values<int64_t>(4, 16),
                       ::testing::Values<int64_t>(1, 31, 32, 63, 64, 65,
                                                  130),
                       ::testing::Values<int64_t>(71, 64, 7)));

// The row tails of the SIMD sweep at widths that reach whole 128-column
// vector blocks (130: one block and a 2-column ragged block; 257: two
// blocks and a dangling odd column) and depths with whole scale groups:
// K = 280 is 35 subspaces at v = 8 (two full 16-subspace groups and a
// 3-subspace tail) and 94 at v = 3 (K % v != 0). 3 and 15 rows are
// whole-batch tails, 79 = 64 + 15 a tail behind a full chunk.
INSTANTIATE_TEST_SUITE_P(
    WideShapes, Int4GatherTiers,
    ::testing::Combine(::testing::Values<int64_t>(23, 280),
                       ::testing::Values<int64_t>(3, 8),
                       ::testing::Values<int64_t>(4, 16),
                       ::testing::Values<int64_t>(3, 15, 79),
                       ::testing::Values<int64_t>(130, 257)));

/**
 * The u8 bound of the shuffle tiers, hit exactly: every centroid and
 * weight is 1, so every LUT entry is v, every entry quantizes to the top
 * level and every biased nibble is 15. K = 16 * v fills one whole
 * 16-subspace scale group, so each u8 accumulator lane reaches 16 * 15 =
 * 240 before the widen — and the dequantized sum must be exactly K.
 */
TEST(Int4GatherSaturatedGroup, NibblesOfFifteenReach240BitExact)
{
    const int64_t v = 4, k = 16 * v;
    vq::PQConfig pq;
    pq.v = v;
    pq.c = 16;
    // 71 columns stay inside one vector block; 257 fill two whole
    // 128-column blocks of the row sweep and dangle one odd column.
    for (const int64_t n : {71, 257}) {
        lutboost::LutLinear layer(k, n, pq, /*bias=*/false, /*seed=*/3);
        layer.centroids().value.fill(1.0f);
        layer.weight().value.fill(1.0f);
        layer.refreshInferenceLut();
        const auto arena = layer.inferenceArena();
        arena->ensureInt4Bank();
        ASSERT_EQ(arena->numSubspaces(),
                  lutboost::LutTableArena::kInt4ScaleGroup);
        // 3 rows run the row sweep alone; 16, 64 and 130 the shuffle
        // chunks and their tails.
        for (const int64_t rows : {3, 16, 64, 130}) {
            Rng rng(7 + static_cast<uint64_t>(rows));
            Tensor x(Shape{rows, k});
            for (int64_t i = 0; i < x.numel(); ++i)
                x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
            Tensor scalar;
            expectInt4TiersMatchScalar(
                *arena, x,
                "saturated rows=" + std::to_string(rows) +
                    " n=" + std::to_string(n),
                scalar);
            for (int64_t i = 0; i < scalar.numel(); ++i)
                ASSERT_NEAR(scalar.at(i), static_cast<float>(k), 1e-4f)
                    << "a nibble missed the top level at flat index " << i;
        }
    }
}

// ---- Property: every INT8 encode tier is bit-identical -----------------

/**
 * Encode `x` with the scalar integer reference and require every INT8
 * encode tier this host runs (at a forced level and at the default cap,
 * whole-buffer and block by block) to select the same code for every
 * (row, subspace).
 */
void
expectInt8EncodeTiersMatchScalar(const lutboost::LutTableArena &arena,
                                 const Tensor &x, const std::string &what)
{
    const int64_t rows = x.dim(0);
    const int64_t nc = arena.numSubspaces();
    lutboost::EncodeScratch scratch;
    vq::CodeBuffer scalar;
    arena.encodeBatchInt8(x.data(), rows, scalar, scratch, 0,
                          util::SimdLevel::Generic);
    ASSERT_EQ(scalar.rows(), rows);
    ASSERT_EQ(scalar.subspaces(), nc);

    // Block-by-block encode (what the serving runtime's row blocks run):
    // each block's codes must equal the same rows of the whole batch.
    const int64_t k = arena.inFeatures();
    vq::CodeBuffer block;
    forEachUnalignedBlock(rows, [&](int64_t r0, int64_t n) {
        arena.encodeBatchInt8(x.data() + r0 * k, n, block, scratch);
        expectBlockCodes(block, scalar, r0,
                         "block seam changed the INT8 encode: " + what);
    });

    const util::SimdLevel host = util::simdLevel();
    std::vector<util::SimdLevel> levels;
    if (host >= util::SimdLevel::Avx2)
        levels.push_back(util::SimdLevel::Avx2);
    if (host >= util::SimdLevel::Avx512Vnni)
        levels.push_back(util::SimdLevel::Avx512Vnni);
    if (levels.empty())
        GTEST_SKIP() << "no SIMD level on this host; scalar-only";
    for (const util::SimdLevel level : levels) {
        ASSERT_EQ(arena.int8EncodeLevel(level), level) << what;
        vq::CodeBuffer simd;
        arena.encodeBatchInt8(x.data(), rows, simd, scratch, 0, level);
        for (int64_t r = 0; r < rows; ++r)
            for (int64_t s = 0; s < nc; ++s)
                ASSERT_EQ(simd.get(r, s), scalar.get(r, s))
                    << util::simdLevelName(level) << " diverged: " << what
                    << " r=" << r << " s=" << s;
    }

    // The default cap must resolve to one of the tiers just proven
    // identical.
    vq::CodeBuffer autod;
    arena.encodeBatchInt8(x.data(), rows, autod, scratch);
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t s = 0; s < nc; ++s)
            ASSERT_EQ(autod.get(r, s), scalar.get(r, s)) << what;

}

/**
 * The INT8 encode contract: the VNNI and AVX2 tiers quantize inputs onto
 * the same 7-bit grid and score centroids in the same exact int32
 * arithmetic as the scalar integer reference, so the SELECTED CODES must
 * match BIT FOR BIT across awkward shapes — c in {4, 16}, v up to 16,
 * K % v != 0 (zero-padded ragged tail subspace), attention-shaped arenas
 * (K = 64, v | K), and row counts around the SIMD chunk boundaries.
 * Agreement with the float encode is a separate, statistical contract
 * (see the serve tests); THIS test is about exactness across kernels.
 */
class Int8EncodeTiers
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t>>
{
};

TEST_P(Int8EncodeTiers, SimdTiersBitIdenticalToScalarReference)
{
    const auto [k, v, c, rows] = GetParam();
    vq::PQConfig pq;
    pq.v = v;
    pq.c = c;
    lutboost::LutLinear layer(k, 10, pq, /*bias=*/false,
                              /*seed=*/static_cast<uint64_t>(k * 3 + c + rows));
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    ASSERT_TRUE(arena->int8EncodeSupported());
    arena->ensureInt8EncodeBank();
    EXPECT_TRUE(arena->int8EncodeBankReady());

    Rng rng(91 + static_cast<uint64_t>(rows));
    Tensor x(Shape{rows, k});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
    expectInt8EncodeTiersMatchScalar(
        *arena, x,
        "k=" + std::to_string(k) + " v=" + std::to_string(v) +
            " c=" + std::to_string(c) + " rows=" + std::to_string(rows));
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, Int8EncodeTiers,
    ::testing::Combine(
        // K % v != 0 plus the attention-shaped d_model 64 (v | K)
        ::testing::Values<int64_t>(23, 52, 64),
        ::testing::Values<int64_t>(3, 8, 16),
        ::testing::Values<int64_t>(4, 16),
        // chunk-boundary row counts: single, sub-chunk, one AVX2 chunk,
        // one AVX-512 chunk +/- 1, ragged multi-chunk
        ::testing::Values<int64_t>(1, 31, 32, 63, 64, 65, 130)));

// Long subvectors up to the SIMD tiers' v <= 128 bound: many 8-dim
// chunks per row-lane block, odd quad counts, and a ragged tail.
INSTANTIATE_TEST_SUITE_P(
    LongSubvectors, Int8EncodeTiers,
    ::testing::Combine(::testing::Values<int64_t>(300),
                       ::testing::Values<int64_t>(37, 128),
                       ::testing::Values<int64_t>(4, 16),
                       ::testing::Values<int64_t>(16, 17, 48)));

/**
 * Hostile inputs for the same contract. Rows mix NaN, +/-Inf, denormals
 * and values far outside the bank's grid (all of which the clamp must
 * map exactly like the scalar reference), plus rows that reproduce
 * centroid 0 exactly. Centroid 1 duplicates centroid 0 in every subspace,
 * so those rows force a score tie that only the lowest-index rule
 * resolves. Batches of 15, 16, 17 and 48 rows put the row-lane blocks
 * (16 rows VNNI, 8 rows AVX2), the per-row remainder and the seam between
 * them all under test.
 */
class Int8EncodeHostile
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t>>
{
};

TEST_P(Int8EncodeHostile, SimdTiersMatchScalarOnHostileRows)
{
    const auto [v, c, rows] = GetParam();
    const int64_t k = 52;  // ragged tail for every v here
    vq::PQConfig pq;
    pq.v = v;
    pq.c = c;
    lutboost::LutLinear layer(k, 10, pq, /*bias=*/false,
                              /*seed=*/static_cast<uint64_t>(v * 7 + c));
    Tensor &cent = layer.centroids().value;  // [Nc, c, v]
    const int64_t nc = cent.dim(0);
    for (int64_t s = 0; s < nc; ++s)
        for (int64_t t = 0; t < v; ++t)
            cent.at((s * c + 1) * v + t) = cent.at((s * c) * v + t);
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    arena->ensureInt8EncodeBank();

    const float kHostile[] = {
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::denorm_min(),
        -1e-40f,  // denormal
        1e30f,
        -1e30f,
        std::numeric_limits<float>::max(),
        -std::numeric_limits<float>::max(),
        1000.0f,
        -1000.0f};
    constexpr int64_t kNumHostile = sizeof(kHostile) / sizeof(kHostile[0]);
    Rng rng(17 + static_cast<uint64_t>(rows));
    Tensor x(Shape{rows, k});
    for (int64_t r = 0; r < rows; ++r) {
        float *row = x.data() + r * k;
        for (int64_t i = 0; i < k; ++i) {
            switch (r % 4) {
              case 0:  // one hostile value per row, the rest Gaussian
                row[i] = i == r % k ? kHostile[r % kNumHostile]
                                    : static_cast<float>(
                                          rng.gaussian(0.0, 1.0));
                break;
              case 1:  // hostile values everywhere
                row[i] = kHostile[(r + i) % kNumHostile];
                break;
              case 2: {  // centroid 0 of each subspace: a forced tie
                const int64_t s = i / v, t = i % v;
                row[i] = cent.at((s * c) * v + t);
                break;
              }
              default:  // Gaussian with occasional far-off-grid spikes
                row[i] = static_cast<float>(rng.gaussian(0.0, 1.0)) *
                         (i % 5 == 0 ? 1e4f : 1.0f);
                break;
            }
        }
    }
    expectInt8EncodeTiersMatchScalar(
        *arena, x,
        "hostile v=" + std::to_string(v) + " c=" + std::to_string(c) +
            " rows=" + std::to_string(rows));

    // The tie rows really are ties, and they resolve to centroid 0.
    lutboost::EncodeScratch scratch;
    vq::CodeBuffer codes;
    arena->encodeBatchInt8(x.data(), rows, codes, scratch, 0,
                           util::SimdLevel::Generic);
    for (int64_t r = 2; r < rows; r += 4)
        for (int64_t s = 0; s < nc; ++s)
            EXPECT_NE(codes.get(r, s), 1)
                << "duplicated centroid 1 beat centroid 0 at r=" << r;
}

INSTANTIATE_TEST_SUITE_P(
    HostileRows, Int8EncodeHostile,
    ::testing::Combine(::testing::Values<int64_t>(3, 8, 16),
                       ::testing::Values<int64_t>(4, 16),
                       ::testing::Values<int64_t>(15, 16, 17, 48)));

// ---- Property: generic-c float SIMD encode is bit-exact vs scalar ------

/**
 * The generic-c float encode tier (c <= 64, any v) must select
 * bit-identical codes to the scalar distance + ascending argmin scan:
 * row-lane blocks and per-row tails both break ties to the lowest index
 * and keep code 0 on a NaN row, as the scalar scan does. Exercised
 * at every SIMD level this host can run, over ragged row strides, from
 * ragged masks (4, 11) through the full-block shapes (8, 16, 32) to the
 * upper edge c = 64.
 */
TEST(GenericCFloatEncode, MaskedSimdBitExactVsScalarScan)
{
    const util::SimdLevel host = util::simdLevel();
    std::vector<util::SimdLevel> levels;
    if (host >= util::SimdLevel::Avx2)
        levels.push_back(util::SimdLevel::Avx2);
    if (host >= util::SimdLevel::Avx512)
        levels.push_back(util::SimdLevel::Avx512);
    if (levels.empty())
        GTEST_SKIP() << "no SIMD level on this host; scalar-only";

    for (const int64_t c : {4, 8, 16, 32, 64, 11}) { // 11: odd mask
        for (const int64_t v : {3, 8, 11}) {
            for (const int64_t rows : {1, 7, 33}) {
                const int64_t stride = v + 2;    // ragged row stride
                Rng rng(7 + static_cast<uint64_t>(c * 100 + v * 10 + rows));
                std::vector<float> cbt(static_cast<size_t>(v * c));
                for (float &e : cbt)
                    e = static_cast<float>(rng.gaussian(0.0, 1.0));
                std::vector<float> x(static_cast<size_t>(rows * stride));
                for (float &e : x)
                    e = static_cast<float>(rng.gaussian(0.0, 1.0));
                // Force a tie: centroid c/2 duplicates centroid 0, and
                // row 0 sits exactly on it — index 0 must win.
                for (int64_t d = 0; d < v; ++d) {
                    cbt[static_cast<size_t>(d * c + c / 2)] =
                        cbt[static_cast<size_t>(d * c)];
                    x[static_cast<size_t>(d)] =
                        cbt[static_cast<size_t>(d * c)];
                }
                // A NaN row keeps code 0, as in the scalar scan.
                if (rows > 2)
                    x[static_cast<size_t>(2 * stride + 1)] =
                        std::numeric_limits<float>::quiet_NaN();

                const std::vector<int32_t> want =
                    scalarL2Codes(x, rows, stride, cbt, v, c);

                for (const util::SimdLevel level : levels) {
                    std::vector<int32_t> got(static_cast<size_t>(rows), -1);
                    lutboost::simd::encodeL2GenericRows(
                        level, x.data(), rows, stride, cbt.data(), v, c,
                        got.data());
                    for (int64_t r = 0; r < rows; ++r)
                        ASSERT_EQ(got[static_cast<size_t>(r)],
                                  want[static_cast<size_t>(r)])
                            << util::simdLevelName(level) << " c=" << c
                            << " v=" << v << " rows=" << rows
                            << " r=" << r;
                }
            }
        }
    }
}

/** With no dedicated c = 16 kernel, an L2 arena at the flagship c = 16
 * dispatches its float encode to the generic-c tier. */
TEST(GenericCFloatEncode, ArenaAtSixteenCentroidsUsesGenericTier)
{
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    lutboost::LutLinear layer(32, 24, pq, /*bias=*/false, /*seed=*/16);
    layer.refreshInferenceLut();
    const util::SimdLevel host = util::simdLevel();
    const util::SimdLevel want = host >= util::SimdLevel::Avx512
                                     ? util::SimdLevel::Avx512
                                 : host >= util::SimdLevel::Avx2
                                     ? util::SimdLevel::Avx2
                                     : util::SimdLevel::Generic;
    EXPECT_EQ(layer.inferenceArena()->encodeLevel(), want);
}

// ---- Property: every float encode tier matches the scalar scan --------

/** Every SIMD level at or below this host's, Generic first. */
std::vector<util::SimdLevel>
levelsUpToHost()
{
    return tierLevels([](util::SimdLevel level) { return level; });
}

/**
 * The arena's float encode at every level cap this host allows must
 * select the codes of the Generic scalar scan, bit for bit: c from 2
 * (the masked tier's low edge) through 64 to 65 (above its limit, where
 * every cap runs the scalar scan), K % v != 0 (a zero-padded ragged
 * tail subspace), K-wide rows and width-adapted reads (w = 6 and 30,
 * where subspaces wrap and the period truncates), plain and BF16-input
 * arenas, Gaussian and hostile rows (NaN, +/-Inf, +/-FLT_MAX,
 * denormals, -0), and 15, 16, 17 and 65 rows (under, at and over one
 * 16-row row-lane block, and several blocks plus a tail).
 */
class FloatEncodeTiers
    : public ::testing::TestWithParam<std::tuple<int64_t, bool, int64_t>>
{
};

TEST_P(FloatEncodeTiers, EveryLevelMatchesGenericCodes)
{
    const auto [c, bf16, rows] = GetParam();
    const int64_t k = 23;
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = c;
    lutboost::LutLinear layer(k, 10, pq, /*bias=*/false,
                              /*seed=*/static_cast<uint64_t>(c * 2 + bf16));
    vq::LutPrecision precision;
    precision.bf16_similarity = bf16;
    layer.setPrecision(precision);
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    ASSERT_EQ(arena->bf16Inputs(), bf16);
    const util::SimdLevel host = util::simdLevel();
    if (c > 64 || host < util::SimdLevel::Avx2)
        EXPECT_EQ(arena->encodeLevel(), util::SimdLevel::Generic);
    else
        EXPECT_NE(arena->encodeLevel(), util::SimdLevel::Generic);

    lutboost::EncodeScratch scratch;
    for (const int64_t w : {k, int64_t{6}, int64_t{30}}) {
        for (const bool hostile : {false, true}) {
            const uint64_t seed = static_cast<uint64_t>(w * 100 + c);
            std::vector<float> x = hostileRows(rows, w, seed);
            if (!hostile) {
                Rng rng(seed);
                for (float &e : x)
                    e = static_cast<float>(rng.gaussian(0.0, 1.0));
            }
            vq::CodeBuffer want, got;
            arena->encodeBatch(x.data(), rows, want, scratch, w,
                               util::SimdLevel::Generic);
            for (const util::SimdLevel level : levelsUpToHost()) {
                arena->encodeBatch(x.data(), rows, got, scratch, w, level);
                expectBlockCodes(
                    got, want, 0,
                    std::string(util::simdLevelName(level)) +
                        " c=" + std::to_string(c) +
                        " bf16=" + std::to_string(bf16) +
                        " w=" + std::to_string(w) +
                        " rows=" + std::to_string(rows) +
                        " hostile=" + std::to_string(hostile));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    CentroidCounts, FloatEncodeTiers,
    ::testing::Combine(::testing::Values<int64_t>(2, 5, 16, 17, 64, 65),
                       ::testing::Bool(),
                       ::testing::Values<int64_t>(15, 16, 17, 65)));

// ---- Property: a level cap is a ceiling, not a demand ------------------

/**
 * On shapes with no SIMD tier, every cap up to the host's runs the
 * scalar reference and matches the Generic output bit for bit: c = 32
 * for both quantized gathers (their shuffle layouts hold 16 entries per
 * lookup) and v = 129 for the INT8 encode (its SIMD tiers stop at
 * v = 128).
 */
TEST(TierCaps, SimdCapOnShapeWithoutSimdTierRunsScalar)
{
    {
        vq::PQConfig pq;
        pq.v = 4;
        pq.c = 32;
        const int64_t k = 52, n = 70, rows = 130;
        lutboost::LutLinear layer(k, n, pq, /*bias=*/true, /*seed=*/32);
        layer.refreshInferenceLut();
        const auto arena = layer.inferenceArena();
        arena->ensureInt8Bank();
        arena->ensureInt4Bank();
        Rng rng(33);
        Tensor x(Shape{rows, k});
        for (int64_t i = 0; i < x.numel(); ++i)
            x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
        lutboost::KernelScratch scratch;
        lutboost::KernelBackend::of(lutboost::TablePrecision::Float32)
            .encodeBatch(*arena, x.data(), rows, scratch);
        Tensor want8(Shape{rows, n}), want4(Shape{rows, n});
        arena->gatherAccumulateInt8(scratch.codes, want8.data(),
                                    scratch.gather, util::SimdLevel::Generic);
        arena->gatherAccumulateInt4(scratch.codes, want4.data(),
                                    scratch.gather, util::SimdLevel::Generic);
        for (const util::SimdLevel level : levelsUpToHost()) {
            const std::string at = util::simdLevelName(level);
            EXPECT_EQ(arena->int8GatherLevel(level), util::SimdLevel::Generic)
                << at;
            EXPECT_EQ(arena->int4GatherLevel(level), util::SimdLevel::Generic)
                << at;
            Tensor got8(Shape{rows, n}), got4(Shape{rows, n});
            arena->gatherAccumulateInt8(scratch.codes, got8.data(),
                                        scratch.gather, level);
            arena->gatherAccumulateInt4(scratch.codes, got4.data(),
                                        scratch.gather, level);
            EXPECT_TRUE(got8.equals(want8)) << "int8 gather at " << at;
            EXPECT_TRUE(got4.equals(want4)) << "int4 gather at " << at;
        }
    }
    {
        vq::PQConfig pq;
        pq.v = 129;
        pq.c = 16;
        const int64_t k = 300, rows = 65;  // a ragged third subspace
        lutboost::LutLinear layer(k, 10, pq, /*bias=*/false, /*seed=*/129);
        layer.refreshInferenceLut();
        const auto arena = layer.inferenceArena();
        arena->ensureInt8EncodeBank();
        Rng rng(130);
        Tensor x(Shape{rows, k});
        for (int64_t i = 0; i < x.numel(); ++i)
            x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
        lutboost::EncodeScratch scratch;
        vq::CodeBuffer want, got;
        arena->encodeBatchInt8(x.data(), rows, want, scratch, 0,
                               util::SimdLevel::Generic);
        for (const util::SimdLevel level : levelsUpToHost()) {
            const std::string at = util::simdLevelName(level);
            EXPECT_EQ(arena->int8EncodeLevel(level), util::SimdLevel::Generic)
                << at;
            arena->encodeBatchInt8(x.data(), rows, got, scratch, 0, level);
            expectBlockCodes(got, want, 0, "int8 encode v=129 at " + at);
        }
    }
}

/** A cap above the running CPU's level is a checked error, never a
 * silent clamp. Runs only where some level lies above the host's (for
 * example under LUTDLA_SIMD=avx2). */
TEST(TierCapsDeathTest, CapAboveHostPanics)
{
    if (util::simdLevel() == util::SimdLevel::Avx512Vnni)
        GTEST_SKIP() << "no level above this host's";
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    lutboost::LutLinear layer(16, 8, pq, /*bias=*/false, /*seed=*/34);
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    arena->ensureInt4Bank();
    lutboost::KernelScratch scratch;
    Tensor x(Shape{4, 16}, 0.5f);
    lutboost::KernelBackend::of(lutboost::TablePrecision::Float32)
        .encodeBatch(*arena, x.data(), 4, scratch);
    Tensor y(Shape{4, 8});
    EXPECT_DEATH(arena->gatherAccumulateInt4(scratch.codes, y.data(),
                                             scratch.gather,
                                             util::SimdLevel::Avx512Vnni),
                 "above this CPU");
    EXPECT_DEATH(arena->encodeLevel(util::SimdLevel::Avx512Vnni),
                 "above this CPU");
}

// ---- Property: quantized banks account exactly for resident layouts ----

/**
 * int8ResidentBytes() / int4ResidentBytes() must equal the sum of the
 * layouts THIS host actually materialized (row-major plus whichever
 * capability-gated mirrors its SIMD level unlocks: the INT8 quad mirror
 * at VBMI+VNNI, the INT4 interleaved mirror at AVX2+) — never an
 * unconditional all-layouts total. Also pins the INT4 bank's headline
 * footprint win: at c = 16 it streams at most 0.55x the INT8 bank's
 * bytes, and where both banks carry their mirror (or neither does) its
 * resident bytes stay at or under 0.55x too.
 */
TEST(QuantizedBankAccounting, ResidentBytesMatchMaterializedLayouts)
{
    const int64_t k = 52, n = 70, c = 16;
    vq::PQConfig pq;
    pq.v = 8;
    pq.c = c;
    lutboost::LutLinear layer(k, n, pq, /*bias=*/true, /*seed=*/77);
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    EXPECT_EQ(arena->int8ResidentBytes(), 0);
    EXPECT_EQ(arena->int4ResidentBytes(), 0);
    arena->ensureInt8Bank();
    arena->ensureInt4Bank();

    const int64_t nc = arena->numSubspaces();
    const int64_t groups =
        (nc + lutboost::LutTableArena::kInt8ScaleGroup - 1) /
        lutboost::LutTableArena::kInt8ScaleGroup;
    const int64_t blocks =
        (n + lutboost::LutTableArena::kInt8BlockCols - 1) /
        lutboost::LutTableArena::kInt8BlockCols;
    const int64_t scale_bytes =
        groups * blocks * static_cast<int64_t>(sizeof(float));
    const bool quad = util::simdLevel() >= util::SimdLevel::Avx512Vnni;
    const bool shuffle4 = util::simdLevel() >= util::SimdLevel::Avx2;

    // Two-layout rule: row-major plus, when the VNNI tier can run, the
    // quad-interleaved mirror it reads (the only INT8 tier that does).
    const int64_t quad_bytes = ((nc + 3) / 4) * n * 64;
    int64_t expect8 = nc * c * n + scale_bytes;    // row-major + scales
    if (quad)
        expect8 += quad_bytes;                     // q_quad mirror
    EXPECT_EQ(arena->int8ResidentBytes(), expect8);
    EXPECT_EQ(arena->int8TableBytes(), nc * c * n + scale_bytes);
    // No third mirror can come back unnoticed.
    EXPECT_LE(arena->int8ResidentBytes(),
              arena->int8TableBytes() + quad_bytes);

    const int64_t half_n = (n + 1) / 2;
    int64_t expect4 = nc * c * half_n + scale_bytes;
    if (shuffle4)
        expect4 += nc * half_n * 16;               // q4_il mirror
    EXPECT_EQ(arena->int4ResidentBytes(), expect4);
    EXPECT_EQ(arena->int4TableBytes(), nc * c * half_n + scale_bytes);

    // The acceptance headline: INT4 streams <= 0.55x the INT8 bytes, and
    // holds <= 0.55x resident when the two banks mirror alike. On AVX2
    // and plain AVX-512 only INT4 keeps a mirror, so there INT4 resident
    // must merely not exceed INT8 resident.
    EXPECT_LE(static_cast<double>(arena->int4TableBytes()),
              0.55 * static_cast<double>(arena->int8TableBytes()));
    const double resident_cap = quad == shuffle4 ? 0.55 : 1.0;
    EXPECT_LE(static_cast<double>(arena->int4ResidentBytes()),
              resident_cap *
                  static_cast<double>(arena->int8ResidentBytes()));
}

/** Same accounting with c > 16: no shuffle mirrors on any host, so both
 * banks are row-major + scales only. */
TEST(QuantizedBankAccounting, NoMirrorLayoutsAboveSixteenCentroids)
{
    const int64_t k = 24, n = 33, c = 20;
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = c;
    lutboost::LutLinear layer(k, n, pq, /*bias=*/false, /*seed=*/78);
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    arena->ensureInt8Bank();
    arena->ensureInt4Bank();
    const int64_t nc = arena->numSubspaces();
    const int64_t scale_bytes = static_cast<int64_t>(sizeof(float));
    EXPECT_EQ(arena->int8ResidentBytes(), nc * c * n + scale_bytes);
    EXPECT_EQ(arena->int4ResidentBytes(),
              nc * c * ((n + 1) / 2) + scale_bytes);
}

/**
 * The INT8 ENCODE bank has its own accounting, strictly separate from
 * the gather banks': int8EncodeTableBytes() counts the
 * capability-independent scalar layout (shifted codes + padded norms +
 * grid), int8EncodeResidentBytes() adds the capability-gated quad
 * mirror, and neither ever leaks into int8ResidentBytes() /
 * int4ResidentBytes() (whose exact values other tests pin).
 */
TEST(QuantizedBankAccounting, EncodeBankSeparateFromGatherBanks)
{
    const int64_t k = 52, c = 16;
    vq::PQConfig pq;
    pq.v = 8;
    pq.c = c;
    lutboost::LutLinear layer(k, 70, pq, /*bias=*/true, /*seed=*/79);
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    EXPECT_TRUE(arena->int8EncodeSupported());
    EXPECT_FALSE(arena->int8EncodeBankReady());
    EXPECT_EQ(arena->int8EncodeTableBytes(), 0);
    EXPECT_EQ(arena->int8EncodeResidentBytes(), 0);
    arena->ensureInt8EncodeBank();
    EXPECT_TRUE(arena->int8EncodeBankReady());

    const int64_t nc = arena->numSubspaces();
    const int64_t v = arena->subvectorLen();
    const int64_t norm_stride = std::max<int64_t>(c, 16);
    const int64_t table =
        nc * c * v +                                         // cs codes
        nc * norm_stride * static_cast<int64_t>(sizeof(int32_t)) +
        2 * nc * static_cast<int64_t>(sizeof(float));        // lo + inv
    EXPECT_EQ(arena->int8EncodeTableBytes(), table);

    int64_t resident = table;
    if (util::simdLevel() >= util::SimdLevel::Avx2)
        resident += nc * ((v + 3) / 4) * 64;                 // quad mirror
    EXPECT_EQ(arena->int8EncodeResidentBytes(), resident);

    // The encode sweep streams a fraction of the float transposed
    // codebooks it replaces (4 bytes/entry -> 1 + norm/grid overhead).
    EXPECT_LT(table, nc * c * v * 4);

    // Building the ENCODE bank must not materialize (or be charged to)
    // any GATHER bank.
    EXPECT_EQ(arena->int8ResidentBytes(), 0);
    EXPECT_EQ(arena->int4ResidentBytes(), 0);
    EXPECT_FALSE(arena->int8BankReady());
    EXPECT_FALSE(arena->int4BankReady());
}

// ---- Property: reference backend bit-exact on awkward shapes -----------

class AwkwardShapeServing
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t>>
{
};

TEST_P(AwkwardShapeServing, ReferenceBackendMatchesEvalForward)
{
    const auto [k, v, c, rows] = GetParam();
    vq::PQConfig pq;
    pq.v = v;
    pq.c = c;
    lutboost::LutLinear layer(k, 9, pq, /*bias=*/true,
                              /*seed=*/static_cast<uint64_t>(k * 7 + c));
    layer.refreshInferenceLut();

    Rng rng(101);
    Tensor x(Shape{rows, k});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
    const Tensor reference = layer.forward(x, /*train=*/false);

    // Drive the split encode -> gather pair exactly like a planned
    // ArenaStage does.
    const auto arena = layer.inferenceArena();
    lutboost::KernelScratch scratch;
    Tensor y(Shape{rows, 9});
    lutboost::KernelBackend::of(lutboost::TablePrecision::Float32)
        .encodeBatch(*arena, x.data(), rows, scratch);
    EXPECT_EQ(scratch.codes.rows(), rows);
    EXPECT_EQ(scratch.codes.subspaces(), arena->numSubspaces());
    lutboost::KernelBackend::of(lutboost::TablePrecision::Float32)
        .gatherAccumulate(*arena, scratch, y.data());
    EXPECT_TRUE(y.equals(reference))
        << "k=" << k << " v=" << v << " c=" << c << " rows=" << rows
        << " maxdiff=" << Tensor::maxAbsDiff(y, reference);

    // The quantized backend must stay finite and within the INT8 error
    // envelope on the same shapes (exactness is not required).
    const lutboost::KernelBackend &int8 =
        lutboost::KernelBackend::of(lutboost::TablePrecision::Int8);
    int8.prepare(*arena);
    Tensor q(Shape{rows, 9});
    int8.gatherAccumulate(*arena, scratch, q.data());
    double worst = 0.0, scale = 0.0;
    for (int64_t i = 0; i < q.numel(); ++i) {
        ASSERT_TRUE(std::isfinite(q.at(i)));
        worst = std::max(
            worst, static_cast<double>(std::fabs(q.at(i) - reference.at(i))));
        scale = std::max(scale,
                         static_cast<double>(std::fabs(reference.at(i))));
    }
    EXPECT_LE(worst, 0.05 * scale + 1e-3)
        << "k=" << k << " v=" << v << " c=" << c << " rows=" << rows;
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, AwkwardShapeServing,
    ::testing::Combine(::testing::Values<int64_t>(7, 17),  // K % v != 0
                       ::testing::Values<int64_t>(3, 4),
                       ::testing::Values<int64_t>(6, 8),   // c = 6: non-pow2
                       ::testing::Values<int64_t>(1, 5))); // single-row too

// ---- Property: INT4 gather stays inside its error envelope -------------

/**
 * The INT4 twin of AwkwardShapeServing's quantized-envelope check. The
 * nibble step is max_abs / 7 — 127/7 ~ 18x coarser than INT8 — so the
 * envelope is proportionally looser: per column the absolute error is
 * bounded by the per-entry rounding (half a step) summed over the
 * subspaces, with `scale` the reference output magnitude standing in
 * for the table magnitude. Exactness is never required; finiteness and
 * the bound are.
 */
class Int4ErrorEnvelope
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t>>
{
};

TEST_P(Int4ErrorEnvelope, QuantizationErrorBounded)
{
    const auto [k, v, c, rows] = GetParam();
    vq::PQConfig pq;
    pq.v = v;
    pq.c = c;
    lutboost::LutLinear layer(k, 9, pq, /*bias=*/true,
                              /*seed=*/static_cast<uint64_t>(k * 7 + c));
    layer.refreshInferenceLut();
    const auto arena = layer.inferenceArena();
    arena->ensureInt4Bank();

    Rng rng(101);
    Tensor x(Shape{rows, k});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
    const Tensor reference = layer.forward(x, /*train=*/false);

    lutboost::KernelScratch scratch;
    lutboost::KernelBackend::of(lutboost::TablePrecision::Float32)
        .encodeBatch(*arena, x.data(), rows, scratch);
    Tensor q(Shape{rows, 9});
    arena->gatherAccumulateInt4(scratch.codes, q.data(), scratch.gather);
    double worst = 0.0, scale = 0.0;
    for (int64_t i = 0; i < q.numel(); ++i) {
        ASSERT_TRUE(std::isfinite(q.at(i)));
        worst = std::max(worst, static_cast<double>(
                                    std::fabs(q.at(i) - reference.at(i))));
        scale = std::max(scale,
                         static_cast<double>(std::fabs(reference.at(i))));
    }
    EXPECT_LE(worst, 0.5 * scale + 2e-2)
        << "k=" << k << " v=" << v << " c=" << c << " rows=" << rows;
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, Int4ErrorEnvelope,
    ::testing::Combine(::testing::Values<int64_t>(7, 17),
                       ::testing::Values<int64_t>(3, 4),
                       ::testing::Values<int64_t>(6, 8),
                       ::testing::Values<int64_t>(1, 5)));

// ---- Property: equivalent bits track (v, c) as in Table V -------------

TEST(EquivalentBits, MatchesTableVGrid)
{
    const struct
    {
        int64_t v, c;
        double bits;
    } rows[] = {{9, 8, 3.0 / 9}, {9, 16, 4.0 / 9}, {6, 8, 0.5},
                {6, 16, 4.0 / 6}, {3, 8, 1.0},     {3, 16, 4.0 / 3}};
    for (const auto &row : rows) {
        vq::PQConfig cfg;
        cfg.v = row.v;
        cfg.c = row.c;
        EXPECT_NEAR(cfg.equivalentBits(), row.bits, 1e-12)
            << "v=" << row.v << " c=" << row.c;
    }
}

} // namespace
} // namespace lutdla
