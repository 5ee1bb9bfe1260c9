#include "api/serving.h"

#include <utility>

#include "api/pipeline.h"
#include "api/workload_registry.h"
#include "lutboost/converter.h"
#include "serve/frozen_model.h"

namespace lutdla::api {

namespace {

/** Apply the mixed-precision auto-tuner when options request it: run
 * the greedy descent on the lowered model and replan it with the
 * winning per-stage assignment (arenas shared, so the final replan is
 * cheap and every already-quantized bank is reused). */
serve::FrozenModel
maybeAutoTune(serve::FrozenModel model, const ServeOptions &options)
{
    if (!options.auto_tune)
        return model;
    const serve::AutoTuneResult tuned = serve::autoTunePrecision(
        model, options.plan, options.auto_tune_options);
    serve::PlanOptions plan = options.plan;
    plan.table_precision = serve::TablePrecision::Float32;
    plan.stage_precision = tuned.stage_precision;
    plan.encode_precision = serve::EncodePrecision::Float32;
    plan.stage_encode_precision = tuned.stage_encode_precision;
    return model.withPlan(plan);
}

/** The one lowering of a converted nn model: validate its topology
 * BEFORE freezing anything — a rejected model must come back to the
 * caller completely unmodified (freezing pins eval-mode forward() to
 * the inference LUT path) — then freeze, lower and auto-tune. */
Result<serve::FrozenModel>
lowerModel(const nn::LayerPtr &model, const ServeOptions &options)
{
    if (Status status =
            serve::FrozenModel::validateServable(model,
                                                 options.input_shape);
        !status.ok())
        return status;
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(model))
        if (!layer->inferenceLutReady())
            layer->refreshInferenceLut();
    Result<serve::FrozenModel> frozen = serve::FrozenModel::fromModel(
        model, options.input_shape, options.plan);
    if (!frozen.ok())
        return frozen.status();
    return maybeAutoTune(frozen.take(), options);
}

/** The one lowering of a GEMM trace: validate `pq`, synthesize the
 * model, auto-tune. */
Result<serve::FrozenModel>
lowerTrace(const std::vector<sim::GemmShape> &gemms, const vq::PQConfig &pq,
           const ServeOptions &options, vq::LutPrecision precision,
           uint64_t seed)
{
    if (Status status = validatePqConfig(pq); !status.ok())
        return status;
    Result<serve::FrozenModel> frozen = serve::FrozenModel::fromTrace(
        gemms, pq, precision, seed, options.plan);
    if (!frozen.ok())
        return frozen.status();
    return maybeAutoTune(frozen.take(), options);
}

} // namespace

Result<EngineHandle>
makeEngine(const nn::LayerPtr &model, const ServeOptions &options)
{
    Result<serve::FrozenModel> frozen = lowerModel(model, options);
    if (!frozen.ok())
        return frozen.status();
    return serve::InferenceEngine::create(frozen.take(), options.engine);
}

Result<EngineHandle>
makeEngine(const nn::LayerPtr &model, const serve::EngineOptions &options,
           serve::ServeInputShape input_shape)
{
    ServeOptions serve_options;
    serve_options.engine = options;
    serve_options.input_shape = input_shape;
    return makeEngine(model, serve_options);
}

Result<EngineHandle>
makeTraceEngine(const std::vector<sim::GemmShape> &gemms,
                const vq::PQConfig &pq, const ServeOptions &options,
                vq::LutPrecision precision, uint64_t seed)
{
    Result<serve::FrozenModel> frozen =
        lowerTrace(gemms, pq, options, precision, seed);
    if (!frozen.ok())
        return frozen.status();
    return serve::InferenceEngine::create(frozen.take(), options.engine);
}

Result<EngineHandle>
makeEngineForWorkload(const std::string &workload, const vq::PQConfig &pq,
                      const serve::EngineOptions &options)
{
    Result<WorkloadSpec> spec = findWorkload(workload);
    if (!spec.ok())
        return spec.status();
    if (!spec->network)
        return Status::failedPrecondition(
            "workload '" + workload +
            "' has no GEMM trace to serve; use makeEngine with its "
            "converted model instead");
    return makeTraceEngine(spec->network().gemms, pq, options);
}

Result<FrontDoorHandle>
makeFrontDoor(const serve::FrontDoorOptions &options)
{
    return serve::FrontDoor::create(options);
}

Result<uint64_t>
publishModel(const FrontDoorHandle &door, const std::string &name,
             const nn::LayerPtr &model, const ServeOptions &options)
{
    if (!door)
        return Status::invalidArgument(
            "publishModel needs a front door; call makeFrontDoor first");
    Result<serve::FrozenModel> frozen = lowerModel(model, options);
    if (!frozen.ok())
        return frozen.status();
    return door->publish(name, frozen.take(), options.slo);
}

Result<uint64_t>
publishTraceModel(const FrontDoorHandle &door, const std::string &name,
                  const std::vector<sim::GemmShape> &gemms,
                  const vq::PQConfig &pq, const ServeOptions &options,
                  vq::LutPrecision precision, uint64_t seed)
{
    if (!door)
        return Status::invalidArgument(
            "publishTraceModel needs a front door; call makeFrontDoor "
            "first");
    Result<serve::FrozenModel> frozen =
        lowerTrace(gemms, pq, options, precision, seed);
    if (!frozen.ok())
        return frozen.status();
    return door->publish(name, frozen.take(), options.slo);
}

Result<EngineHandle>
makeEngineForArtifacts(const RunArtifacts &artifacts,
                       const serve::EngineOptions &options)
{
    if (artifacts.gemms.empty())
        return Status::failedPrecondition(
            "artifacts carry no deployment trace; run a pipeline with "
            "gemms(), a workload trace, or a converted model first");
    return makeTraceEngine(artifacts.gemms, artifacts.pq, options);
}

} // namespace lutdla::api
