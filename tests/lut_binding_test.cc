// The LUT binding every planned LUT stage carries, pinned per stage kind:
// lut-gemm, adapt+lut-gemm, conv and attention, each bound through
// serve::planStages to every (table precision, encode precision) pair
// with a fused ReLU. For each bound stage the test checks the planned
// description() string, and that tableBytes(), encodeBytes() and
// residentBytes() equal the sums taken directly from the stage's arenas'
// own byte accessors.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lutboost/lut_linear.h"
#include "lutboost/table_arena.h"
#include "serve/plan.h"
#include "serve/stage.h"
#include "serve/stage_transformer.h"

namespace lutdla {
namespace {

using ArenaPtr = std::shared_ptr<const lutboost::LutTableArena>;

ArenaPtr
frozenArena(int64_t in, int64_t out, vq::Metric metric, uint64_t seed)
{
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    pq.metric = metric;
    lutboost::LutLinear layer(in, out, pq, /*bias=*/true, seed);
    layer.refreshInferenceLut();
    return layer.inferenceArena();
}

/** One stage kind under test: how to build its unplanned stage, the
 * arenas it gathers from, and its description before the binding
 * suffix. */
struct KindCase
{
    std::string label;
    std::vector<ArenaPtr> arenas;
    serve::StagePtr stage;
};

std::vector<KindCase>
kindCases(vq::Metric metric)
{
    std::vector<KindCase> cases;

    const ArenaPtr gemm = frozenArena(32, 24, metric, 11);
    cases.push_back(
        {"lut-gemm", {gemm}, std::make_shared<serve::ArenaStage>(gemm)});
    cases.push_back({"adapt+lut-gemm",
                     {gemm},
                     std::make_shared<serve::ArenaStage>(
                         gemm, nullptr, std::vector<serve::PointwiseOp>{},
                         20)});

    ConvGeometry geom;
    geom.in_channels = 4;
    geom.out_channels = 8;
    geom.kernel = 2;
    const ArenaPtr conv =
        frozenArena(geom.patchSize(), geom.out_channels, metric, 13);
    cases.push_back({"conv",
                     {conv},
                     std::make_shared<serve::ConvStage>(geom, 5, 5, conv)});

    const serve::AttentionStage::Arenas proj{
        frozenArena(16, 16, metric, 17), frozenArena(16, 16, metric, 19),
        frozenArena(16, 16, metric, 23), frozenArena(16, 16, metric, 29)};
    cases.push_back({"attention(h2,t4)",
                     {proj.q, proj.k, proj.v, proj.o},
                     std::make_shared<serve::AttentionStage>(proj, 4, 2)});
    return cases;
}

/** One (table, encode) binding and the tag its table precision adds to
 * a stage description. */
struct BindCase
{
    serve::TablePrecision table;
    serve::EncodePrecision encode;
    std::string table_tag;
};

const std::vector<BindCase> kBindings = {
    {serve::TablePrecision::Float32, serve::EncodePrecision::Float32, ""},
    {serve::TablePrecision::Float32, serve::EncodePrecision::Int8, ""},
    {serve::TablePrecision::Int8, serve::EncodePrecision::Float32, "[int8]"},
    {serve::TablePrecision::Int8, serve::EncodePrecision::Int8, "[int8]"},
    {serve::TablePrecision::Int4, serve::EncodePrecision::Float32, "[int4]"},
    {serve::TablePrecision::Int4, serve::EncodePrecision::Int8, "[int4]"},
};

int64_t
arenaTableBytes(const lutboost::LutTableArena &arena,
                serve::TablePrecision table)
{
    switch (table) {
      case serve::TablePrecision::Int8:
        return arena.int8TableBytes();
      case serve::TablePrecision::Int4:
        return arena.int4TableBytes();
      default:
        return arena.sizeBytes();
    }
}

int64_t
arenaResidentBytes(const lutboost::LutTableArena &arena,
                   serve::TablePrecision table, serve::EncodePrecision encode)
{
    int64_t bytes = arena.sizeBytes();
    if (table == serve::TablePrecision::Int8)
        bytes = arena.int8ResidentBytes();
    if (table == serve::TablePrecision::Int4)
        bytes = arena.int4ResidentBytes();
    if (encode == serve::EncodePrecision::Int8)
        bytes += arena.int8EncodeResidentBytes();
    return bytes;
}

int64_t
arenaEncodeBytes(const lutboost::LutTableArena &arena,
                 serve::EncodePrecision encode)
{
    if (encode == serve::EncodePrecision::Int8)
        return arena.int8EncodeTableBytes();
    return arena.inFeatures() * arena.numCentroids() *
           static_cast<int64_t>(sizeof(float));
}

/** Plan [stage, relu] under `bind` and check the one planned stage. The
 * encode request resolves to Int8 only when `int8_encode_supported`. */
void
checkBinding(const KindCase &kind, const BindCase &bind,
             bool int8_encode_supported)
{
    const std::string where = kind.label + " tables " +
                              serve::tablePrecisionName(bind.table) +
                              " encode " +
                              serve::encodePrecisionName(bind.encode);
    std::vector<serve::StagePtr> stages{
        kind.stage, std::make_shared<serve::PointwiseStage>(
                        serve::PointwiseOp::Relu, kind.stage->outWidth())};
    serve::PlanOptions options;
    options.table_precision = bind.table;
    options.encode_precision = bind.encode;
    std::vector<serve::StagePlan> plan;
    serve::planStages(stages, options, plan);
    ASSERT_EQ(stages.size(), 1u) << where;
    const serve::FrozenStage &stage = *stages[0];

    const serve::EncodePrecision resolved =
        int8_encode_supported ? bind.encode
                              : serve::EncodePrecision::Float32;
    const std::string encode_tag =
        resolved == serve::EncodePrecision::Int8 ? "[enc:int8]" : "";
    EXPECT_EQ(stage.description(),
              kind.label + bind.table_tag + encode_tag + "+relu")
        << where;
    EXPECT_EQ(plan[0].description, stage.description()) << where;
    EXPECT_EQ(stage.encodePrecision(), resolved) << where;

    int64_t table = 0, encode = 0, resident = 0;
    for (const ArenaPtr &arena : kind.arenas) {
        table += arenaTableBytes(*arena, bind.table);
        encode += arenaEncodeBytes(*arena, resolved);
        resident += arenaResidentBytes(*arena, bind.table, resolved);
    }
    EXPECT_GT(table, 0) << where;
    EXPECT_GT(encode, 0) << where;
    EXPECT_EQ(stage.tableBytes(), table) << where;
    EXPECT_EQ(stage.encodeBytes(), encode) << where;
    EXPECT_EQ(stage.residentBytes(), resident) << where;
    EXPECT_EQ(plan[0].table_bytes, table) << where;
    EXPECT_EQ(plan[0].encode_bytes, encode) << where;
}

TEST(LutBinding, EveryKindDescribesAndAccountsEveryBinding)
{
    for (const KindCase &kind : kindCases(vq::Metric::L2))
        for (const BindCase &bind : kBindings)
            checkBinding(kind, bind, /*int8_encode_supported=*/true);
}

TEST(LutBinding, Int8EncodeFallsBackToFloatOffTheL2Metric)
{
    for (const KindCase &kind : kindCases(vq::Metric::L1))
        for (const BindCase &bind : kBindings)
            checkBinding(kind, bind, /*int8_encode_supported=*/false);
}

} // namespace
} // namespace lutdla
