#include "serve/plan.h"

#include <algorithm>
#include <cstdio>

#include "util/cpu_features.h"
#include "vq/code_buffer.h"

namespace lutdla::serve {

namespace {

/** Precision of the `lut_index`-th LUT stage in chain order: explicit
 * per-stage binding when present, else the global default. */
TablePrecision
stagePrecisionAt(const PlanOptions &options, size_t lut_index)
{
    if (lut_index < options.stage_precision.size())
        return options.stage_precision[lut_index];
    return options.table_precision;
}

/** Encode precision REQUESTED for the `lut_index`-th LUT stage; the
 * stage itself resolves it against its arena's capability. */
EncodePrecision
stageEncodePrecisionAt(const PlanOptions &options, size_t lut_index)
{
    if (lut_index < options.stage_encode_precision.size())
        return options.stage_encode_precision[lut_index];
    return options.encode_precision;
}

/** Collect the run of PointwiseStages starting at `j`; returns one past
 * the last fused stage. */
size_t
collectEpilogue(const std::vector<StagePtr> &stages, size_t j,
                std::vector<PointwiseOp> &epilogue,
                std::vector<std::string> &fused)
{
    while (j < stages.size()) {
        const auto *pw =
            dynamic_cast<const PointwiseStage *>(stages[j].get());
        if (pw == nullptr)
            break;
        epilogue.push_back(pw->op());
        fused.push_back(pw->kind());
        ++j;
    }
    return j;
}

/** Stable tag of the encode kernel `arena` runs at `encode` precision,
 * from the level its tier resolver picks on this host. */
const char *
encodeKernelTag(const lutboost::LutTableArena &arena,
                EncodePrecision encode)
{
    if (encode == EncodePrecision::Int8) {
        switch (arena.int8EncodeLevel()) {
          case util::SimdLevel::Avx512Vnni:
            return "int8-dot-vnni";
          case util::SimdLevel::Avx2:
            return "int8-madd-avx2";
          default:
            return "int8-scalar";
        }
    }
    switch (arena.encodeLevel()) {
      case util::SimdLevel::Avx512:
        return "avx512-genc";
      case util::SimdLevel::Avx2:
        return "avx2-genc";
      default:
        return "generic";
    }
}

/** Stable tag of the gather kernel `arena` runs at `precision`, from the
 * level its tier resolver picks on this host. */
const char *
gatherKernelTag(const lutboost::LutTableArena &arena,
                TablePrecision precision)
{
    switch (precision) {
      case TablePrecision::Int8:
        return arena.int8GatherLevel() == util::SimdLevel::Generic
                   ? "scalar"
                   : "shuffle-vnni";
      case TablePrecision::Int4:
        switch (arena.int4GatherLevel()) {
          case util::SimdLevel::Avx512:
            return "shuffle-avx512";
          case util::SimdLevel::Avx2:
            return "shuffle-avx2";
          default:
            return "scalar";
        }
      default:
        return "grouped-sweep";
    }
}

/** The StagePlan of a rebound LUT stage: code width and kernel tags
 * come from the arena it reports, the encode precision is the one it
 * resolved. */
StagePlan
lutPlan(const FrozenStage &stage, std::vector<std::string> fused,
        TablePrecision precision)
{
    const lutboost::LutTableArena &arena = *stage.planArena();
    const EncodePrecision encode = stage.encodePrecision();
    StagePlan plan;
    plan.kind = stage.kind();
    plan.description = stage.description();
    plan.fused = std::move(fused);
    plan.code_bits = vq::codeBitsFor(arena.numCentroids());
    plan.precision = precision;
    plan.encode_precision = encode;
    plan.table_bytes = stage.tableBytes();
    plan.encode_bytes = stage.encodeBytes();
    plan.encode_kernel = encodeKernelTag(arena, encode);
    plan.gather_kernel = gatherKernelTag(arena, precision);
    plan.shard_rows = stage.blockRows();
    return plan;
}

StagePlan
passthroughPlan(const FrozenStage &stage)
{
    StagePlan plan;
    plan.kind = stage.kind();
    plan.description = stage.description();
    plan.table_bytes = stage.tableBytes();
    return plan;
}

/** Auto tile-size target: ~half a contemporary L2, the other half left
 * for the table stream the gather pulls through the cache. */
constexpr int64_t kTileCacheBytes = 1 << 20;

/**
 * Partition the planned chain into row-tiled segments and pick each
 * segment's tile size (see TilePlan). A segment is a maximal run of
 * rowTileable() stages holding at least one LUT stage; its tile is the
 * largest multiple of the run's gather granule whose streamed working
 * set fits the cache budget, floored at one granule so the vector
 * gather kernels always see full chunks. Also fills the StagePlan
 * segment/tile fields and the scratch-plane accounting.
 */
void
planTiles(const std::vector<StagePtr> &stages, const PlanOptions &options,
          std::vector<StagePlan> &plan, TileExecPlan &tiles)
{
    tiles = {};
    const bool disabled = options.tile_rows < 0;

    int64_t chain_max_width = 0;   // widest plane the untiled chain holds
    int64_t barrier_max_width = 0; // widest plane still full-batch, tiled
    int64_t tile_interior_max = 0; // widest tile-local plane, in bytes/2
    // The runner writes the last out-of-place stage's output straight
    // into the result tensor (FrozenModel::runStages).
    size_t last_oop = 0;
    for (size_t s = 0; s < stages.size(); ++s)
        if (!stages[s]->inPlace())
            last_oop = s;

    size_t i = 0;
    while (i < stages.size()) {
        chain_max_width = std::max(
            {chain_max_width, stages[i]->inWidth(), stages[i]->outWidth()});
        if (disabled || !stages[i]->rowTileable()) {
            barrier_max_width =
                std::max({barrier_max_width, stages[i]->inWidth(),
                          stages[i]->outWidth()});
            ++i;
            continue;
        }
        // Maximal tileable run [i, j).
        size_t j = i;
        bool has_lut = false;
        int64_t granule = 1;
        int64_t row_bytes = 0;
        int64_t interior = 0;
        while (j < stages.size() && stages[j]->rowTileable()) {
            const FrozenStage &s = *stages[j];
            has_lut = has_lut || s.planArena() != nullptr;
            granule = std::max(granule, s.tileGranuleRows());
            row_bytes = std::max(
                row_bytes,
                (s.inWidth() + s.outWidth()) *
                        static_cast<int64_t>(sizeof(float)) +
                    s.tileScratchBytesPerRow());
            interior = std::max({interior, s.inWidth(), s.outWidth()});
            chain_max_width =
                std::max({chain_max_width, s.inWidth(), s.outWidth()});
            ++j;
        }
        // Glue-only runs (no table stream to overlap with) stay untiled:
        // their planes still ping-pong full-batch.
        if (!has_lut) {
            for (size_t k = i; k < j; ++k)
                barrier_max_width =
                    std::max({barrier_max_width, stages[k]->inWidth(),
                              stages[k]->outWidth()});
            i = j;
            continue;
        }

        TilePlan seg;
        seg.begin = static_cast<int64_t>(i);
        seg.end = static_cast<int64_t>(j);
        seg.granule = granule;
        seg.row_bytes = row_bytes;
        if (options.tile_rows > 0) {
            seg.tile_rows = options.tile_rows;
        } else {
            const int64_t fit =
                kTileCacheBytes / std::max<int64_t>(1, row_bytes);
            seg.tile_rows = std::max(granule, (fit / granule) * granule);
        }
        // Only the segment's boundary planes stay full-batch, and not
        // even those where the segment reads the request tensor (it
        // starts the chain) or writes the result tensor (it holds the
        // last out-of-place stage).
        if (i > 0)
            barrier_max_width =
                std::max(barrier_max_width, stages[i]->inWidth());
        if (j <= last_oop)
            barrier_max_width =
                std::max(barrier_max_width, stages[j - 1]->outWidth());
        tile_interior_max = std::max(
            tile_interior_max,
            seg.tile_rows * interior *
                static_cast<int64_t>(sizeof(float)));

        for (size_t k = i; k < j; ++k) {
            plan[k].segment = static_cast<int64_t>(tiles.segments.size());
            plan[k].tile_rows = seg.tile_rows;
        }
        tiles.segments.push_back(seg);
        i = j;
    }

    tiles.untiled_plane_bytes_per_row =
        2 * chain_max_width * static_cast<int64_t>(sizeof(float));
    tiles.tiled_plane_bytes_per_row =
        2 * barrier_max_width * static_cast<int64_t>(sizeof(float));
    tiles.tile_plane_bytes = 2 * tile_interior_max;
}

} // namespace

void
planStages(std::vector<StagePtr> &stages, const PlanOptions &options,
           std::vector<StagePlan> &plan, TileExecPlan *tiles)
{
    std::vector<StagePtr> out;
    out.reserve(stages.size());
    plan.clear();

    // One path: a LUT stage is rebound with the pointwise run after it
    // folded into its epilogue; a glue stage passes through. LUT stages
    // are counted in chain order so PlanOptions::stage_precision lines up
    // across replans (fusion never changes the LUT stage count).
    size_t lut_index = 0;
    size_t i = 0;
    while (i < stages.size()) {
        const FrozenStage &stage = *stages[i];
        if (stage.planArena() == nullptr) {
            plan.push_back(passthroughPlan(stage));
            out.push_back(stages[i]);
            ++i;
            continue;
        }
        std::vector<PointwiseOp> epilogue;
        std::vector<std::string> fused;
        const size_t next = collectEpilogue(stages, i + 1, epilogue, fused);
        const TablePrecision prec = stagePrecisionAt(options, lut_index);
        StagePtr planned =
            stage.rebind(lutboost::KernelBackend::of(prec),
                         stageEncodePrecisionAt(options, lut_index), epilogue);
        ++lut_index;
        plan.push_back(lutPlan(*planned, std::move(fused), prec));
        out.push_back(std::move(planned));
        i = next;
    }
    stages = std::move(out);

    if (tiles != nullptr)
        planTiles(stages, options, plan, *tiles);
}

std::string
planSummary(const std::vector<StagePlan> &plan, const TileExecPlan *tiles)
{
    std::string out = "isa: ";
    out += util::simdLevelName(util::simdLevel());
    out += " (runtime kernel dispatch)\n";
    char line[320];
    for (size_t i = 0; i < plan.size(); ++i) {
        const StagePlan &p = plan[i];
        if (p.code_bits > 0) {
            std::snprintf(line, sizeof(line),
                          "%2zu: %-24s codes %d-bit, tables %s, %.1f KB, "
                          "enc %s, gat %s, shard %lld",
                          i, p.description.c_str(), p.code_bits,
                          tablePrecisionName(p.precision),
                          static_cast<double>(p.table_bytes) / 1024.0,
                          p.encode_kernel.c_str(),
                          p.gather_kernel.c_str(),
                          static_cast<long long>(p.shard_rows));
        } else {
            std::snprintf(line, sizeof(line), "%2zu: %s", i,
                          p.description.c_str());
        }
        out += line;
        if (p.segment >= 0) {
            std::snprintf(line, sizeof(line), "  [seg %lld, tile %lld]",
                          static_cast<long long>(p.segment),
                          static_cast<long long>(p.tile_rows));
            out += line;
        }
        if (!p.fused.empty()) {
            out += "  (folded:";
            for (const std::string &kind : p.fused)
                out += " " + kind;
            out += ")";
        }
        out += "\n";
    }
    if (tiles != nullptr) {
        if (tiles->segments.empty()) {
            out += "tiled executor: off (no tileable LUT segment)\n";
            return out;
        }
        std::snprintf(line, sizeof(line), "tiled executor: %zu segment%s",
                      tiles->segments.size(),
                      tiles->segments.size() == 1 ? "" : "s");
        out += line;
        for (const TilePlan &seg : tiles->segments) {
            std::snprintf(line, sizeof(line),
                          "  [%lld,%lld) tile %lld (granule %lld, "
                          "%.1f KB/row)",
                          static_cast<long long>(seg.begin),
                          static_cast<long long>(seg.end),
                          static_cast<long long>(seg.tile_rows),
                          static_cast<long long>(seg.granule),
                          static_cast<double>(seg.row_bytes) / 1024.0);
            out += line;
        }
        out += "\n";
        // Per-worker steady-state plane accounting at a reference
        // 256-row batch: the per-row planes scale with the batch, the
        // tile planes do not.
        constexpr int64_t kRefRows = 256;
        std::snprintf(
            line, sizeof(line),
            "scratch planes/worker: %.1f KB/row full-batch -> %.1f KB/row"
            " + %.1f KB tile planes (at %lld rows: %.1f MB -> %.1f MB)\n",
            static_cast<double>(tiles->untiled_plane_bytes_per_row) /
                1024.0,
            static_cast<double>(tiles->tiled_plane_bytes_per_row) / 1024.0,
            static_cast<double>(tiles->tile_plane_bytes) / 1024.0,
            static_cast<long long>(kRefRows),
            static_cast<double>(
                tiles->scratchBytesPerWorker(kRefRows, false)) /
                (1024.0 * 1024.0),
            static_cast<double>(
                tiles->scratchBytesPerWorker(kRefRows, true)) /
                (1024.0 * 1024.0));
        out += line;
    }
    return out;
}

} // namespace lutdla::serve
