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

} // namespace

const char *
encodePrecisionName(EncodePrecision precision)
{
    return precision == EncodePrecision::Int8 ? "int8" : "float32";
}

const char *
tablePrecisionName(TablePrecision precision)
{
    switch (precision) {
      case TablePrecision::Int8:
        return "int8";
      case TablePrecision::Int4:
        return "int4";
      default:
        return "float32";
    }
}

EncodePrecision
resolveEncode(const LutTableArena &arena, EncodePrecision requested)
{
    return requested == EncodePrecision::Int8 && arena.int8EncodeSupported()
               ? EncodePrecision::Int8
               : EncodePrecision::Float32;
}

const KernelBackend &
KernelBackend::of(TablePrecision precision)
{
    static const KernelBackend backends[] = {
        KernelBackend(TablePrecision::Float32),
        KernelBackend(TablePrecision::Int8),
        KernelBackend(TablePrecision::Int4)};
    return backends[static_cast<int>(precision)];
}

void
KernelBackend::encodeBatch(const LutTableArena &arena, const float *x,
                           int64_t rows, KernelScratch &scratch,
                           EncodePrecision encode, int64_t width) const
{
    // Every table precision shares the arena's encode phase; `encode`
    // picks the argmin arithmetic (exact float scan vs integer scan over
    // the INT8 encode bank), independent of the gather-side bank.
    if (resolveEncode(arena, encode) == EncodePrecision::Int8) {
        arena.ensureInt8EncodeBank();
        arena.encodeBatchInt8(x, rows, scratch.codes, scratch.encode,
                              width);
        return;
    }
    arena.encodeBatch(x, rows, scratch.codes, scratch.encode, width);
}

void
KernelBackend::gatherAccumulate(const LutTableArena &arena,
                                KernelScratch &scratch, float *y) const
{
    switch (precision_) {
      case TablePrecision::Int8:
        arena.gatherAccumulateInt8(scratch.codes, y, scratch.gather);
        return;
      case TablePrecision::Int4:
        arena.gatherAccumulateInt4(scratch.codes, y, scratch.gather);
        return;
      default:
        arena.gatherAccumulate(scratch.codes, y, scratch.gather);
    }
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
KernelBackend::gatherGranuleRows(const LutTableArena &arena) const
{
    // The float bank's grouped sweep makes one table pass per kRowBlock
    // rows; the quantized banks one per shuffle chunk of their tier.
    switch (precision_) {
      case TablePrecision::Int8:
        return chunkOrRowBlock(arena.int8GatherLevel());
      case TablePrecision::Int4:
        return chunkOrRowBlock(arena.int4GatherLevel());
      default:
        return LutTableArena::kRowBlock;
    }
}

int64_t
KernelBackend::tableBytes(const LutTableArena &arena) const
{
    switch (precision_) {
      case TablePrecision::Int8:
        return arena.int8TableBytes();
      case TablePrecision::Int4:
        return arena.int4TableBytes();
      default:
        return arena.sizeBytes();
    }
}

int64_t
KernelBackend::residentBytes(const LutTableArena &arena) const
{
    switch (precision_) {
      case TablePrecision::Int8:
        return arena.int8ResidentBytes();
      case TablePrecision::Int4:
        return arena.int4ResidentBytes();
      default:
        return arena.sizeBytes();
    }
}

void
KernelBackend::prepare(const LutTableArena &arena,
                       EncodePrecision encode) const
{
    if (resolveEncode(arena, encode) == EncodePrecision::Int8)
        arena.ensureInt8EncodeBank();
    if (precision_ == TablePrecision::Int8)
        arena.ensureInt8Bank();
    if (precision_ == TablePrecision::Int4)
        arena.ensureInt4Bank();
}

} // namespace lutdla::lutboost
