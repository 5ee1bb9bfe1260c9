#include "serve/stage.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "lutboost/kernels_simd.h"
#include "nn/activations.h"
#include "nn/norm.h"
#include "util/cpu_features.h"
#include "util/logging.h"
#include "vq/code_buffer.h"

namespace lutdla::serve {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t
nanosSince(Clock::time_point start)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
}

} // namespace

float *
growPlane(std::vector<float> &plane, int64_t floats)
{
    if (plane.size() < static_cast<size_t>(floats))
        plane.resize(static_cast<size_t>(floats));
    return plane.data();
}

int64_t
intraBatchBlockRows()
{
    const int64_t chunk =
        lutboost::simd::shuffleGatherChunkRows(util::simdLevel());
    return chunk > 0 ? chunk : 32;
}

void
applyPointwiseOps(const std::vector<PointwiseOp> &ops, float *data,
                  int64_t total)
{
    for (PointwiseOp op : ops) {
        if (op == PointwiseOp::Relu) {
            for (int64_t i = 0; i < total; ++i)
                data[i] = nn::reluForward(data[i]);
        } else {
            nn::geluForward(data, total);
        }
    }
}

void
FrozenStage::forward(const float *in, int64_t rows, float *out,
                     StageScratch &scratch) const
{
    // Adapter for in-place stages driven through the out-of-place entry
    // point (e.g. by callers without a reusable buffer chain).
    LUTDLA_CHECK(inPlace(), "stage '", kind(),
                 "' implements neither forward nor forwardInPlace");
    std::memcpy(out, in,
                static_cast<size_t>(rows * inWidth()) * sizeof(float));
    forwardInPlace(out, rows, scratch);
}

void
FrozenStage::forwardInPlace(float *, int64_t, StageScratch &) const
{
    panic("stage '", kind(), "' is not an in-place stage");
}

template <size_t N>
LutStage<N>::LutStage(ArenaArray arenas,
                      const lutboost::KernelBackend *backend,
                      std::vector<PointwiseOp> epilogue,
                      lutboost::EncodePrecision encode)
    : arenas_(std::move(arenas)),
      backend_(backend != nullptr
                   ? backend
                   : &lutboost::KernelBackend::of(
                         lutboost::TablePrecision::Float32)),
      epilogue_(std::move(epilogue)), encode_(encode)
{
    // One plan unit, one encode choice: Int8 survives only if every
    // arena honors it (Float32 resolves to itself).
    for (const auto &arena : arenas_) {
        LUTDLA_CHECK(arena != nullptr, "a LUT stage arena is null");
        encode_ = lutboost::resolveEncode(*arena, encode_);
    }
    for (const auto &arena : arenas_)
        backend_->prepare(*arena, encode_);
}

template <size_t N>
std::string
LutStage<N>::describe(std::string base) const
{
    if (!backend_->bitExact())
        base += "[" + backend_->name() + "]";
    if (encode_ == lutboost::EncodePrecision::Int8)
        base += "[enc:int8]";
    for (PointwiseOp op : epilogue_)
        base += op == PointwiseOp::Relu ? "+relu" : "+gelu";
    return base;
}

template <size_t N>
std::vector<PointwiseOp>
LutStage<N>::epilogueWith(const std::vector<PointwiseOp> &appended) const
{
    std::vector<PointwiseOp> ops = epilogue_;
    ops.insert(ops.end(), appended.begin(), appended.end());
    return ops;
}

template <size_t N>
int64_t
LutStage<N>::tableBytes() const
{
    int64_t bytes = 0;
    for (const auto &arena : arenas_)
        bytes += backend_->tableBytes(*arena);
    return bytes;
}

template <size_t N>
int64_t
LutStage<N>::encodeBytes() const
{
    // One full encode sweep streams the transposed float codebooks, or
    // the INT8 encode bank in their place.
    int64_t bytes = 0;
    for (const auto &arena : arenas_)
        bytes += encode_ == lutboost::EncodePrecision::Int8
                     ? arena->int8EncodeTableBytes()
                     : arena->inFeatures() * arena->numCentroids() *
                           static_cast<int64_t>(sizeof(float));
    return bytes;
}

template <size_t N>
int64_t
LutStage<N>::residentBytes() const
{
    int64_t bytes = 0;
    for (const auto &arena : arenas_) {
        bytes += backend_->residentBytes(*arena);
        if (encode_ == lutboost::EncodePrecision::Int8)
            bytes += arena->int8EncodeResidentBytes();
    }
    return bytes;
}

template class LutStage<1>;
template class LutStage<4>;

ArenaStage::ArenaStage(std::shared_ptr<const lutboost::LutTableArena> arena,
                       const lutboost::KernelBackend *backend,
                       std::vector<PointwiseOp> epilogue,
                       int64_t adapt_in_width,
                       lutboost::EncodePrecision encode)
    : LutStage({std::move(arena)}, backend, std::move(epilogue), encode),
      adapt_in_(adapt_in_width)
{
}

std::string
ArenaStage::description() const
{
    return describe(adapt_in_ > 0 ? "adapt+lut-gemm" : "lut-gemm");
}

StagePtr
ArenaStage::rebind(const lutboost::KernelBackend &backend,
                   lutboost::EncodePrecision encode,
                   const std::vector<PointwiseOp> &epilogue) const
{
    return std::make_shared<ArenaStage>(arena(), &backend,
                                        epilogueWith(epilogue), adapt_in_,
                                        encode);
}

int64_t
ArenaStage::tileGranuleRows() const
{
    return backend_->gatherGranuleRows(*arena());
}

int64_t
ArenaStage::tileScratchBytesPerRow() const
{
    // Centroid codes the tile carries between encode and gather (one
    // plane byte per code, two above 256 centroids). A width-adapted
    // stage adds nothing: its encode reads the in-plane in place.
    return arena()->numSubspaces() *
           (vq::codeBitsFor(arena()->numCentroids()) / 8);
}

void
forEachBlock(StageScratch &scratch, int64_t blocks, const ShardFn &fn)
{
    // A block IS the work-stealing unit: the pool is null inside it so
    // nothing fans out again (a nested parallelFor would also deadlock
    // the caller-participates pool).
    IntraBatchPool *const pool = scratch.pool;
    if (pool == nullptr || blocks < 2) {
        scratch.pool = nullptr;
        for (int64_t b = 0; b < blocks; ++b)
            fn(b, scratch);
        scratch.pool = pool;
        return;
    }
    // Each block records its phase deltas in its own slot and leaves the
    // executing worker's counters as it found them; the initiator then
    // credits every block, stolen or not, to its batch.
    if (scratch.block_ns.size() < static_cast<size_t>(2 * blocks))
        scratch.block_ns.resize(static_cast<size_t>(2 * blocks));
    uint64_t *const slots = scratch.block_ns.data();
    pool->parallelFor(
        blocks,
        [&](int64_t block, StageScratch &local) {
            IntraBatchPool *const saved_pool = local.pool;
            local.pool = nullptr;
            const uint64_t encode0 = local.encode_ns;
            const uint64_t gather0 = local.gather_ns;
            fn(block, local);
            slots[2 * block] = local.encode_ns - encode0;
            slots[2 * block + 1] = local.gather_ns - gather0;
            local.encode_ns = encode0;
            local.gather_ns = gather0;
            local.pool = saved_pool;
        },
        scratch);
    for (int64_t b = 0; b < blocks; ++b) {
        scratch.encode_ns += slots[2 * b];
        scratch.gather_ns += slots[2 * b + 1];
    }
}

void
arenaGemmForward(const lutboost::LutTableArena &arena,
                 const lutboost::KernelBackend &backend, const float *in,
                 int64_t rows, float *out,
                 const std::vector<PointwiseOp> &epilogue,
                 StageScratch &scratch, lutboost::EncodePrecision encode,
                 int64_t in_width)
{
    // One pass per row block: the fused encode -> gather tile, then the
    // epilogue while the slab is cache-hot, all on the executing
    // worker's own KernelScratch. Rows are independent, so any blocking
    // is bit-exact with the single-block sweep. Without a pool or with a
    // batch of fewer than two blocks this is one whole-batch tile.
    if (in_width <= 0)
        in_width = arena.inFeatures();
    const int64_t out_width = arena.outFeatures();
    const int64_t chunk_rows = intraBatchBlockRows();
    const bool sharded = scratch.pool != nullptr && rows >= 2 * chunk_rows;
    const int64_t block_rows = sharded ? chunk_rows : rows;
    const int64_t blocks = sharded ? (rows + block_rows - 1) / block_rows : 1;
    forEachBlock(scratch, blocks, [&](int64_t block, StageScratch &local) {
        const int64_t r0 = block * block_rows;
        const int64_t rn = std::min(block_rows, rows - r0);
        float *y = out + r0 * out_width;
        backend.forwardTile(arena, in + r0 * in_width, rn, y, local.kernel,
                            &local.encode_ns, &local.gather_ns, encode,
                            in_width);
        const auto t0 = Clock::now();
        applyPointwiseOps(epilogue, y, rn * out_width);
        local.gather_ns += nanosSince(t0);
    });
}

void
ArenaStage::forward(const float *in, int64_t rows, float *out,
                    StageScratch &scratch) const
{
    // A width-adapted stage's rows are inWidth() wide; the encode reads
    // them through the cyclic adapt in place.
    arenaGemmForward(*arena(), *backend_, in, rows, out, epilogue_, scratch,
                     encode_, inWidth());
}

ConvStage::ConvStage(ConvGeometry geom, int64_t height, int64_t width,
                     std::shared_ptr<const lutboost::LutTableArena> arena,
                     const lutboost::KernelBackend *backend,
                     std::vector<PointwiseOp> epilogue,
                     lutboost::EncodePrecision encode)
    : LutStage({std::move(arena)}, backend, std::move(epilogue), encode),
      geom_(geom), h_(height), w_(width)
{
    LUTDLA_CHECK(geom_.outSize(h_) > 0 && geom_.outSize(w_) > 0,
                 "conv output collapsed to zero");
    LUTDLA_CHECK(arenas_.front()->inFeatures() == geom_.patchSize(),
                 "arena width ", arenas_.front()->inFeatures(),
                 " != conv patch size ", geom_.patchSize());
}

StagePtr
ConvStage::rebind(const lutboost::KernelBackend &backend,
                  lutboost::EncodePrecision encode,
                  const std::vector<PointwiseOp> &epilogue) const
{
    return std::make_shared<ConvStage>(geom_, h_, w_, arenas_.front(),
                                       &backend, epilogueWith(epilogue),
                                       encode);
}

std::string
ConvStage::description() const
{
    return describe("conv");
}

void
ConvStage::forward(const float *in, int64_t rows, float *out,
                   StageScratch &scratch) const
{
    // One fused tile over the whole batch's patch rows, between the
    // im2col (credited to encode) and the NCHW reshape plus epilogue
    // (credited to gather). im2colInto writes every element, padding
    // included, so the grow-only planes need no zeroing.
    const lutboost::LutTableArena &arena = *arenas_.front();
    const int64_t pixels = geom_.outSize(h_) * geom_.outSize(w_);
    const int64_t patch_rows = rows * pixels;
    const int64_t co_dim = arena.outFeatures();
    const auto t0 = Clock::now();
    float *cols =
        growPlane(scratch.conv_cols, patch_rows * geom_.patchSize());
    float *flat = growPlane(scratch.conv_flat, patch_rows * co_dim);
    im2colInto(in, rows, h_, w_, geom_, cols);
    scratch.encode_ns += nanosSince(t0);
    backend_->forwardTile(arena, cols, patch_rows, flat, scratch.kernel,
                          &scratch.encode_ns, &scratch.gather_ns, encode_);

    // [rows * Ho * Wo, C_out] -> NCHW, same traversal as
    // LutConv2d::forward. The epilogue is elementwise, so it commutes
    // with the reshape; applying it on the final plane keeps it a single
    // cache-hot sweep.
    const auto t1 = Clock::now();
    for (int64_t b = 0, row = 0; b < rows; ++b)
        for (int64_t p = 0; p < pixels; ++p, ++row)
            for (int64_t co = 0; co < co_dim; ++co)
                out[(b * co_dim + co) * pixels + p] = flat[row * co_dim + co];
    applyPointwiseOps(epilogue_, out, rows * outWidth());
    scratch.gather_ns += nanosSince(t1);
}

void
PointwiseStage::forwardInPlace(float *data, int64_t rows,
                               StageScratch &) const
{
    applyPointwiseOps({op_}, data, rows * width_);
}

void
MaxPoolStage::forward(const float *in, int64_t rows, float *out,
                      StageScratch &) const
{
    nn::maxPool2dForward(in, rows, c_, h_, w_, k_, out, nullptr);
}

void
GlobalAvgPoolStage::forward(const float *in, int64_t rows, float *out,
                            StageScratch &) const
{
    nn::globalAvgPoolForward(in, rows, c_, h_, w_, out);
}

void
BatchNormStage::forwardInPlace(float *data, int64_t rows,
                               StageScratch &) const
{
    nn::batchNorm2dEval(data, rows, static_cast<int64_t>(mean_.size()),
                        h_ * w_, mean_.data(), var_.data(), gamma_.data(),
                        beta_.data(), eps_, data);
}

void
LayerNormStage::forwardInPlace(float *data, int64_t rows,
                               StageScratch &) const
{
    nn::layerNormForward(data, rows, inWidth(), gamma_.data(), beta_.data(),
                         eps_, data, nullptr, nullptr);
}

} // namespace lutdla::serve
