// Mixed-precision auto-tuner (serve/autotune.h): determinism, budget
// enforcement, greedy-revert behavior under a synthetic agreement
// landscape, the api::ServeOptions::autoTunePrecision facade hook, and
// the joint descent's byte savings on the trained mlp-mixture model.

#include <gtest/gtest.h>

#include <vector>

#include "api/pipeline.h"
#include "api/serving.h"
#include "api/workload_registry.h"
#include "lutboost/converter.h"
#include "lutboost/lut_linear.h"
#include "serve/autotune.h"
#include "serve/frozen_model.h"

namespace lutdla {
namespace {

/** First `max_gemms` layers of a registry workload's GEMM trace (the
 * full resnet trace is overkill for a unit test). */
std::vector<sim::GemmShape>
traceFor(const std::string &workload, size_t max_gemms)
{
    auto spec = api::findWorkload(workload);
    EXPECT_TRUE(spec.ok()) << spec.status().toString();
    std::vector<sim::GemmShape> gemms = spec->network().gemms;
    if (gemms.size() > max_gemms)
        gemms.resize(max_gemms);
    // Shrink the batch dimension: the tuner's probe supplies its own
    // rows, so only (k, n) matter for the arenas.
    for (sim::GemmShape &g : gemms)
        g.m = 8;
    return gemms;
}

serve::FrozenModel
traceModel(const std::vector<sim::GemmShape> &gemms)
{
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;
    auto frozen = serve::FrozenModel::fromTrace(gemms, pq);
    EXPECT_TRUE(frozen.ok()) << frozen.status().toString();
    return frozen.take();
}

serve::AutoTuneOptions
fastTune()
{
    serve::AutoTuneOptions tune;
    tune.probe_rows = 64;
    return tune;
}

TEST(AutoTune, DeterministicOnLenetTrace)
{
    const std::vector<sim::GemmShape> gemms = traceFor("lenet", 8);
    ASSERT_FALSE(gemms.empty());
    const serve::FrozenModel model = traceModel(gemms);
    ASSERT_GT(model.numLutStages(), 0);

    const serve::AutoTuneResult a =
        serve::autoTunePrecision(model, {}, fastTune());
    const serve::AutoTuneResult b =
        serve::autoTunePrecision(model, {}, fastTune());

    EXPECT_EQ(a.stage_precision, b.stage_precision);
    EXPECT_EQ(a.agreement, b.agreement);
    EXPECT_EQ(a.table_bytes, b.table_bytes);
    EXPECT_EQ(a.evals, b.evals);
    ASSERT_EQ(a.moves.size(), b.moves.size());
    for (size_t i = 0; i < a.moves.size(); ++i) {
        EXPECT_EQ(a.moves[i].lut_stage, b.moves[i].lut_stage);
        EXPECT_EQ(a.moves[i].precision, b.moves[i].precision);
        EXPECT_EQ(a.moves[i].applied, b.moves[i].applied);
    }
    EXPECT_EQ(a.assignmentString(), b.assignmentString());
}

TEST(AutoTune, BudgetRespectedAndBytesSavedOnRegistryTraces)
{
    for (const char *workload : {"lenet", "resnet18"}) {
        const serve::FrozenModel model = traceModel(traceFor(workload, 6));
        const int64_t num_lut = model.numLutStages();
        ASSERT_GT(num_lut, 0) << workload;
        const int64_t float_bytes = model.tableBytes();

        const serve::AutoTuneResult tuned =
            serve::autoTunePrecision(model, {}, fastTune());

        // The budget is a hard constraint on the FINAL assignment.
        EXPECT_GE(tuned.agreement, 0.90) << workload;
        ASSERT_EQ(tuned.stage_precision.size(),
                  static_cast<size_t>(num_lut))
            << workload;
        // Synthetic Gaussian traces quantize gracefully: the tuner must
        // find at least one byte-saving move within budget.
        EXPECT_LT(tuned.table_bytes, float_bytes) << workload;

        // The assignment reproduces: replanning with it yields exactly
        // the byte count the tuner reported.
        serve::PlanOptions plan;
        plan.stage_precision = tuned.stage_precision;
        EXPECT_EQ(model.withPlan(plan).tableBytes(), tuned.table_bytes)
            << workload;
    }
}

TEST(AutoTune, SyntheticProbeForcesRevertOfOverBudgetMoves)
{
    // Injected agreement landscape (the dse::AccuracyProbe pattern):
    // any INT4 stage tanks agreement, INT8 is free. The tuner must keep
    // every byte-saving INT8 move and revert every INT4 one, even
    // though INT4 saves more bytes per stage.
    const serve::FrozenModel model = traceModel(traceFor("lenet", 4));
    const int64_t num_lut = model.numLutStages();
    ASSERT_GT(num_lut, 0);

    serve::AgreementProbe probe =
        [](const serve::PlanOptions &plan) {
            for (serve::TablePrecision p : plan.stage_precision)
                if (p == serve::TablePrecision::Int4)
                    return 0.50;
            return 1.0;
        };
    const serve::AutoTuneResult tuned =
        serve::autoTunePrecision(model, {}, fastTune(), probe);

    ASSERT_EQ(tuned.stage_precision.size(), static_cast<size_t>(num_lut));
    for (serve::TablePrecision p : tuned.stage_precision)
        EXPECT_EQ(p, serve::TablePrecision::Int8);
    EXPECT_EQ(tuned.agreement, 1.0);
    for (const serve::AutoTuneMove &move : tuned.moves) {
        if (move.precision == serve::TablePrecision::Int4) {
            EXPECT_FALSE(move.applied);
        }
    }

    // allow_int4=false must reach the same assignment without ever
    // scoring an INT4 move.
    serve::AutoTuneOptions no_int4 = fastTune();
    no_int4.allow_int4 = false;
    const serve::AutoTuneResult int8_only =
        serve::autoTunePrecision(model, {}, no_int4, probe);
    EXPECT_EQ(int8_only.stage_precision, tuned.stage_precision);
    for (const serve::AutoTuneMove &move : int8_only.moves)
        EXPECT_NE(move.precision, serve::TablePrecision::Int4);
}

TEST(AutoTune, FacadeServesAutoTunedMixedPrecisionPlan)
{
    const std::vector<sim::GemmShape> gemms = traceFor("lenet", 6);
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;

    api::ServeOptions options;
    options.engine.threads = 1;
    options.autoTunePrecision(0.90);
    options.auto_tune_options.probe_rows = 64;
    auto engine = api::makeTraceEngine(gemms, pq, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();

    // The tuned assignment is recorded in the plan: at least one stage
    // left float-reference semantics behind, and the summary names the
    // per-stage precisions.
    const serve::FrozenModel &model = engine.value()->model();
    bool any_quantized = false;
    for (const serve::StagePlan &plan : model.plan())
        any_quantized |= plan.code_bits > 0 &&
                         plan.precision != serve::TablePrecision::Float32;
    EXPECT_TRUE(any_quantized) << model.planSummary();

    // Same options, same trace -> identical plan (end-to-end
    // determinism through the facade).
    auto again = api::makeTraceEngine(gemms, pq, options);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value()->model().describe(), model.describe());
    EXPECT_EQ(again.value()->model().tableBytes(), model.tableBytes());

    // And it serves.
    Tensor x(Shape{8, model.inputWidth()});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>((i % 13) - 6) / 6.0f;
    auto result = engine.value()->submit(x);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    engine.value()->shutdown();
}

// ---------------------------------------------------------------------------
// Joint (table, encode) search: the same four contracts over the second
// precision axis.

TEST(AutoTuneJoint, DeterministicEncodeAssignment)
{
    const serve::FrozenModel model = traceModel(traceFor("lenet", 8));
    ASSERT_GT(model.numLutStages(), 0);

    const serve::AutoTuneResult a =
        serve::autoTunePrecision(model, {}, fastTune());
    const serve::AutoTuneResult b =
        serve::autoTunePrecision(model, {}, fastTune());

    EXPECT_EQ(a.stage_encode_precision, b.stage_encode_precision);
    EXPECT_EQ(a.encode_bytes, b.encode_bytes);
    EXPECT_EQ(a.encodeAssignmentString(), b.encodeAssignmentString());
    ASSERT_EQ(a.moves.size(), b.moves.size());
    for (size_t i = 0; i < a.moves.size(); ++i) {
        EXPECT_EQ(a.moves[i].encode_move, b.moves[i].encode_move);
        EXPECT_EQ(a.moves[i].applied, b.moves[i].applied);
    }
    // assignmentString stays table-only (benches pin its alphabet) — the
    // encode axis has its own string.
    EXPECT_EQ(a.assignmentString().find("enc"), std::string::npos);
}

TEST(AutoTuneJoint, BudgetRespectedAndAssignmentReproduces)
{
    const serve::FrozenModel model = traceModel(traceFor("lenet", 6));
    const int64_t num_lut = model.numLutStages();
    ASSERT_GT(num_lut, 0);

    const serve::AutoTuneResult joint =
        serve::autoTunePrecision(model, {}, fastTune());
    EXPECT_GE(joint.agreement, 0.90);
    ASSERT_EQ(joint.stage_encode_precision.size(),
              static_cast<size_t>(num_lut));

    // Replanning with BOTH emitted vectors reproduces both byte streams
    // the tuner reported.
    serve::PlanOptions plan;
    plan.stage_precision = joint.stage_precision;
    plan.stage_encode_precision = joint.stage_encode_precision;
    const serve::FrozenModel replanned = model.withPlan(plan);
    EXPECT_EQ(replanned.tableBytes(), joint.table_bytes);
    EXPECT_EQ(replanned.encodeBytes(), joint.encode_bytes);

    // Encode moves were scored: the joint search probes strictly more
    // than the table-only walk at equal settings.
    serve::AutoTuneOptions table_only = fastTune();
    table_only.allow_int8_encode = false;
    const serve::AutoTuneResult tonly =
        serve::autoTunePrecision(model, {}, table_only);
    EXPECT_GT(joint.evals, tonly.evals);
    for (const serve::AutoTuneMove &move : tonly.moves)
        EXPECT_FALSE(move.encode_move);
    // The joint optimum never streams more total bytes than table-only.
    EXPECT_LE(joint.table_bytes + joint.encode_bytes,
              tonly.table_bytes + tonly.encode_bytes);
}

TEST(AutoTuneJoint, SyntheticProbeRevertsEncodeMovesIndependently)
{
    // Injected landscape: INT8 ENCODE on any stage tanks agreement,
    // table moves are free. The tuner must apply every byte-saving table
    // move and revert every encode move — the axes fail independently.
    const serve::FrozenModel model = traceModel(traceFor("lenet", 4));
    const int64_t num_lut = model.numLutStages();
    ASSERT_GT(num_lut, 0);

    serve::AgreementProbe probe =
        [](const serve::PlanOptions &plan) {
            for (serve::EncodePrecision e : plan.stage_encode_precision)
                if (e == serve::EncodePrecision::Int8)
                    return 0.50;
            return 1.0;
        };
    const serve::AutoTuneResult tuned =
        serve::autoTunePrecision(model, {}, fastTune(), probe);

    ASSERT_EQ(tuned.stage_encode_precision.size(),
              static_cast<size_t>(num_lut));
    for (serve::EncodePrecision e : tuned.stage_encode_precision)
        EXPECT_EQ(e, serve::EncodePrecision::Float32);
    for (serve::TablePrecision p : tuned.stage_precision)
        EXPECT_NE(p, serve::TablePrecision::Float32)
            << "free table moves must all apply";
    EXPECT_EQ(tuned.agreement, 1.0);
    for (const serve::AutoTuneMove &move : tuned.moves) {
        if (move.encode_move) {
            EXPECT_FALSE(move.applied);
        }
    }

    // The mirror landscape: encode is free, INT4 tables tank. Encode
    // moves must survive alongside the INT8 table moves.
    serve::AgreementProbe mirror =
        [](const serve::PlanOptions &plan) {
            for (serve::TablePrecision p : plan.stage_precision)
                if (p == serve::TablePrecision::Int4)
                    return 0.50;
            return 1.0;
        };
    const serve::AutoTuneResult both =
        serve::autoTunePrecision(model, {}, fastTune(), mirror);
    for (serve::EncodePrecision e : both.stage_encode_precision)
        EXPECT_EQ(e, serve::EncodePrecision::Int8)
            << "free encode moves must all apply";
    for (serve::TablePrecision p : both.stage_precision)
        EXPECT_EQ(p, serve::TablePrecision::Int8);
}

TEST(AutoTuneJoint, FacadeAppliesJointAssignmentDeterministically)
{
    const std::vector<sim::GemmShape> gemms = traceFor("lenet", 6);
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 16;

    api::ServeOptions options;
    options.engine.threads = 1;
    options.autoTunePrecision(0.90);
    options.auto_tune_options.probe_rows = 64;
    auto engine = api::makeTraceEngine(gemms, pq, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();

    // The plan records a resolved encode precision for every LUT stage;
    // whatever the search chose must reproduce exactly across builds.
    const serve::FrozenModel &model = engine.value()->model();
    for (const serve::StagePlan &plan : model.plan()) {
        if (plan.code_bits > 0) {
            EXPECT_GT(plan.encode_bytes, 0) << model.planSummary();
        }
    }

    auto again = api::makeTraceEngine(gemms, pq, options);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value()->model().describe(), model.describe());
    EXPECT_EQ(again.value()->model().encodeBytes(), model.encodeBytes());
    EXPECT_EQ(again.value()->model().tableBytes(), model.tableBytes());

    // And it serves.
    Tensor x(Shape{8, model.inputWidth()});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>((i % 13) - 6) / 6.0f;
    auto result = engine.value()->submit(x);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    engine.value()->shutdown();
    again.value()->shutdown();
}

TEST(AutoTuneJoint, TrainedMixtureJointPlanStreamsFewerBytes)
{
    // The trained mlp-mixture model (two 16-wide stages): unlike the
    // random-codebook traces, its argmin decisions have real margins, so
    // the descent has room to move within the 90% agreement budget.
    lutboost::ConvertOptions opts;
    opts.pq.v = 4;
    opts.pq.c = 16;
    auto builder = api::Pipeline::forWorkload("mlp-mixture")
                       .pretrain()
                       .convert(opts)
                       .deployPrecision(vq::LutPrecision{true, false});
    auto run = builder.report();
    ASSERT_TRUE(run.ok()) << run.status().toString();
    const nn::LayerPtr mix = builder.convertedModel();
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(mix))
        if (!layer->inferenceLutReady())
            layer->refreshInferenceLut();
    auto model = serve::FrozenModel::fromModel(mix);
    ASSERT_TRUE(model.ok()) << model.status().toString();

    const serve::AutoTuneResult joint =
        serve::autoTunePrecision(*model, {}, {});
    serve::AutoTuneOptions table_only;
    table_only.allow_int8_encode = false;
    const serve::AutoTuneResult tonly =
        serve::autoTunePrecision(*model, {}, table_only);
    EXPECT_GE(joint.agreement, 0.90);
    EXPECT_GE(tonly.agreement, 0.90);

    serve::PlanOptions joint_plan;
    joint_plan.stage_precision = joint.stage_precision;
    joint_plan.stage_encode_precision = joint.stage_encode_precision;
    serve::PlanOptions tonly_plan;
    tonly_plan.stage_precision = tonly.stage_precision;
    serve::PlanOptions int8_plan;
    int8_plan.table_precision = serve::TablePrecision::Int8;
    const serve::FrozenModel joint_model = model->withPlan(joint_plan);
    const serve::FrozenModel tonly_model = model->withPlan(tonly_plan);
    const serve::FrozenModel int8_model = model->withPlan(int8_plan);
    const auto streamed = [](const serve::FrozenModel &m) {
        return m.tableBytes() + m.encodeBytes();
    };

    // Streamed bytes, not resident bytes: residency also counts the
    // CPU-gated gather mirrors, which differ by host tier.
    EXPECT_LT(joint_model.tableBytes(), int8_model.tableBytes())
        << joint_model.planSummary();
    EXPECT_LT(streamed(joint_model), streamed(int8_model))
        << joint_model.planSummary();
    EXPECT_LT(streamed(joint_model), streamed(tonly_model))
        << joint_model.planSummary() << tonly_model.planSummary();
}

} // namespace
} // namespace lutdla
