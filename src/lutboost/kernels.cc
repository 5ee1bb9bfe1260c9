#include "lutboost/kernels.h"

#include <chrono>

#include "lutboost/kernels_simd.h"
#include "util/cpu_features.h"

namespace lutdla::lutboost {

namespace {

uint64_t
nanosSince(std::chrono::steady_clock::time_point start)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

/** Shuffle chunk of the quantized gather's resolved `level`, or the
 * scalar sweeps' row-block granularity at Generic. */
int64_t
chunkOrRowBlock(util::SimdLevel level)
{
    const int64_t chunk = simd::shuffleGatherChunkRows(level);
    return chunk > 0 ? chunk : LutTableArena::kRowBlock;
}

/** True when the arena can honor an Int8 encode request; unsupported
 * arenas (non-L2 metric, oversized subvectors) fall back to the exact
 * float argmin rather than faulting — the planner resolves the same
 * predicate, so the fallback only fires for hand-built configurations. */
bool
useInt8Encode(const LutTableArena &arena, EncodePrecision encode)
{
    return encode == EncodePrecision::Int8 && arena.int8EncodeSupported();
}

} // namespace

const char *
encodePrecisionName(EncodePrecision precision)
{
    return precision == EncodePrecision::Int8 ? "int8" : "float32";
}

void
KernelBackend::encodeBatch(const LutTableArena &arena, const float *x,
                           int64_t rows, KernelScratch &scratch,
                           EncodePrecision encode, int64_t width) const
{
    // Every backend shares the arena's encode phase; `encode` picks the
    // argmin arithmetic (exact float scan vs integer scan over the INT8
    // encode bank), independent of the gather-side table precision.
    if (useInt8Encode(arena, encode)) {
        arena.ensureInt8EncodeBank();
        arena.encodeBatchInt8(x, rows, scratch.codes, scratch.encode,
                              width);
        return;
    }
    arena.encodeBatch(x, rows, scratch.codes, scratch.encode, width);
}

void
KernelBackend::forwardTile(const LutTableArena &arena, const float *x,
                           int64_t rows, float *y, KernelScratch &scratch,
                           uint64_t *encode_ns, uint64_t *gather_ns,
                           EncodePrecision encode, int64_t width) const
{
    const auto t0 = std::chrono::steady_clock::now();
    encodeBatch(arena, x, rows, scratch, encode, width);
    if (encode_ns != nullptr)
        *encode_ns += nanosSince(t0);
    const auto t1 = std::chrono::steady_clock::now();
    gatherAccumulate(arena, scratch, y);
    if (gather_ns != nullptr)
        *gather_ns += nanosSince(t1);
}

int64_t
KernelBackend::gatherGranuleRows(const LutTableArena &) const
{
    // Float grouped sweep: one table pass per kRowBlock rows.
    return LutTableArena::kRowBlock;
}

void
KernelBackend::prepare(const LutTableArena &) const
{
}

namespace {

/** Float-bank gather: bit-exact with LutTableArena::forwardBatch. */
class ReferenceBackend final : public KernelBackend
{
  public:
    std::string name() const override { return "float32"; }
    bool bitExact() const override { return true; }

    void
    gatherAccumulate(const LutTableArena &arena, KernelScratch &scratch,
                     float *y) const override
    {
        arena.gatherAccumulate(scratch.codes, y, scratch.gather);
    }

    int64_t
    tableBytes(const LutTableArena &arena) const override
    {
        return arena.sizeBytes();
    }
};

/** INT8-bank gather: ~4x less table traffic, approximate. The tier
 * (shuffle vs scalar) resolves per arena + CPU at run time. */
class QuantizedBackend final : public KernelBackend
{
  public:
    std::string name() const override { return "int8"; }
    bool bitExact() const override { return false; }

    void
    gatherAccumulate(const LutTableArena &arena, KernelScratch &scratch,
                     float *y) const override
    {
        arena.gatherAccumulateInt8(scratch.codes, y, scratch.gather);
    }

    int64_t
    tableBytes(const LutTableArena &arena) const override
    {
        return arena.int8TableBytes();
    }

    int64_t
    gatherGranuleRows(const LutTableArena &arena) const override
    {
        return chunkOrRowBlock(arena.int8GatherLevel());
    }

    int64_t
    residentBytes(const LutTableArena &arena) const override
    {
        return arena.int8ResidentBytes();
    }

    void
    prepare(const LutTableArena &arena) const override
    {
        arena.ensureInt8Bank();
    }
};

/** INT4-bank gather: nibble-packed tables, ~8x less traffic than float
 * and half the INT8 bank; coarser quantization (see docs/SERVING.md). */
class Int4Backend final : public KernelBackend
{
  public:
    std::string name() const override { return "int4"; }
    bool bitExact() const override { return false; }

    void
    gatherAccumulate(const LutTableArena &arena, KernelScratch &scratch,
                     float *y) const override
    {
        arena.gatherAccumulateInt4(scratch.codes, y, scratch.gather);
    }

    int64_t
    tableBytes(const LutTableArena &arena) const override
    {
        return arena.int4TableBytes();
    }

    int64_t
    gatherGranuleRows(const LutTableArena &arena) const override
    {
        return chunkOrRowBlock(arena.int4GatherLevel());
    }

    int64_t
    residentBytes(const LutTableArena &arena) const override
    {
        return arena.int4ResidentBytes();
    }

    void
    prepare(const LutTableArena &arena) const override
    {
        arena.ensureInt4Bank();
    }
};

} // namespace

const KernelBackend &
referenceBackend()
{
    static const ReferenceBackend backend;
    return backend;
}

const KernelBackend &
quantizedBackend()
{
    static const QuantizedBackend backend;
    return backend;
}

const KernelBackend &
int4Backend()
{
    static const Int4Backend backend;
    return backend;
}

} // namespace lutdla::lutboost
