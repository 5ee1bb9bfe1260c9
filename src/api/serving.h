#ifndef LUTDLA_API_SERVING_H
#define LUTDLA_API_SERVING_H

/**
 * @file
 * Facade entry points into the serving layer (src/serve/): build a batched
 * multi-threaded serve::InferenceEngine from the three things a caller
 * typically holds — a LUTBoost-converted model, a named registry workload,
 * or the RunArtifacts of a previous pipeline run. `Pipeline::engine(...)`
 * and `PipelineBuilder::engine()` forward here; see docs/SERVING.md for the
 * queueing model and tuning guide.
 *
 * Both paths run on the same runtime: an engine is a one-model
 * serve::FrontDoor behind a single-model facade. Multi-tenant serving
 * goes through makeFrontDoor() directly: one serve::FrontDoor multiplexes
 * every model published into its registry over a single shared worker
 * pool, with per-request deadlines, priorities, cancellation, and typed
 * load shedding. publishModel() /
 * publishTraceModel() lower a model exactly like the makeEngine()
 * builders do and install the snapshot under a name + version; calling
 * either again with the same name is the zero-drain hot-swap.
 */

#include <memory>
#include <string>
#include <vector>

#include "api/artifacts.h"
#include "api/status.h"
#include "nn/layer.h"
#include "serve/autotune.h"
#include "serve/engine.h"
#include "serve/frontdoor.h"
#include "serve/plan.h"

namespace lutdla::api {

/** Shared-ownership handle every factory below returns. */
using EngineHandle = std::shared_ptr<serve::InferenceEngine>;

/**
 * Everything a caller can tune about a serving deployment in one bundle:
 * the engine's queueing/batching knobs, the data-plane plan (table and
 * encode precision, row tiling), and the input image shape for
 * spatial models. Default-constructed options serve bit-exactly.
 * Implicitly constructible from bare EngineOptions so every pre-existing
 * `makeEngine(model, engine_options)`-shaped call keeps compiling with
 * the default (bit-exact) plan.
 */
struct ServeOptions
{
    ServeOptions() = default;

    /** Engine knobs with the default plan and no input shape. */
    ServeOptions(serve::EngineOptions engine_options)
        : engine(engine_options)
    {
    }

    /** Worker pool / batching / queue knobs. */
    serve::EngineOptions engine;
    /**
     * Lowering plan: table precision, encode precision
     * (`plan.encode_precision = serve::EncodePrecision::Int8` runs the
     * integer argmin over the quantized encode bank on every supporting
     * stage — approximate, top-1-agreement-bounded; see docs/SERVING.md)
     * and the row-tiled executor override
     * (`plan.tile_rows`: 0 auto-sizes a cache-resident row tile, -1
     * forces the untiled phase-barrier executor, >0 forces a tile size —
     * all tile sizes bit-exact; see serve/plan.h).
     */
    serve::PlanOptions plan;
    /** Image height/width for models with spatial first layers. */
    serve::ServeInputShape input_shape;
    /**
     * SLO fields for multi-tenant deployments: batching window, priority
     * stratum, and default deadline the front-door scheduler applies to
     * this model. Read by publishModel()/publishTraceModel(). The
     * makeEngine() builders do not read it: an engine publishes its one
     * model with a ModelSlo built from `engine` (max_batch -> max_batch,
     * max_wait_us -> batch_window_us; no default deadline, and priority is
     * moot with one model).
     */
    serve::ModelSlo slo;
    /**
     * Run the joint mixed-precision auto-tuner (serve/autotune.h) after
     * lowering: each LUT stage is assigned float32 / INT8 / INT4 tables
     * AND float32 / INT8 encode arithmetic by greedy
     * bytes-saved-per-accuracy-lost descent under
     * `auto_tune_options.agreement_budget`, and the winning assignment
     * replaces plan.table_precision / plan.stage_precision /
     * plan.encode_precision / plan.stage_encode_precision. The chosen
     * per-stage precisions are visible in the engine's planSummary().
     */
    bool auto_tune = false;
    /** Tuner knobs when `auto_tune` is set (budget, probe rows, seed,
     * per-axis enables). */
    serve::AutoTuneOptions auto_tune_options;

    /** Fluent enable: tune per-stage (table, encode) precision to the
     * given top-1 agreement budget (e.g. 0.90 keeps >= 90% of probe-row
     * argmaxes identical to the all-float32 plan). */
    ServeOptions &
    autoTunePrecision(double budget)
    {
        auto_tune = true;
        auto_tune_options.agreement_budget = budget;
        return *this;
    }
};

/**
 * Build an engine that serves a LUTBoost-converted model (MLP or CNN
 * chains; see serve::FrozenModel::fromModel for the lowered layer set).
 * Layers that are not yet frozen are frozen in place with their current
 * precision (the same step deployPrecision() performs); the engine then
 * snapshots the frozen tables, so later mutation of `model` does not
 * affect it.
 *
 * `options` bundles the engine knobs with the data-plane plan (table
 * precision — how the quantized INT8 plane deploys through the
 * facade) and the input image shape for models that start with spatial
 * layers (conv/pool/norm; each request row is then a flattened NCHW
 * image). Bare serve::EngineOptions convert implicitly for the common
 * bit-exact case.
 *
 * @return FailedPrecondition when the model holds no LUT operators,
 *         InvalidArgument for unsupported topologies (the status names
 *         the first unlowerable layer) or bad options.
 */
Result<EngineHandle> makeEngine(const nn::LayerPtr &model,
                                const ServeOptions &options = {});

/**
 * Convenience overload keeping the PR-3 call shape for spatial models:
 * engine knobs + explicit image shape, default (bit-exact) plan. No
 * defaulted parameters, so it never competes with the ServeOptions
 * overload during overload resolution.
 */
Result<EngineHandle> makeEngine(const nn::LayerPtr &model,
                                const serve::EngineOptions &options,
                                serve::ServeInputShape input_shape);

/**
 * Build a load-testing engine from an explicit deployment GEMM trace:
 * one synthetic frozen LUT layer per traced GEMM (random codebooks and
 * weights, deterministic in `seed`).
 */
Result<EngineHandle>
makeTraceEngine(const std::vector<sim::GemmShape> &gemms,
                const vq::PQConfig &pq, const ServeOptions &options = {},
                vq::LutPrecision precision = {}, uint64_t seed = 91);

/**
 * Trace engine for a named registry workload ("resnet18", "bert-base",
 * ...). NotFound for unknown names; FailedPrecondition when the workload
 * carries no GEMM trace.
 */
Result<EngineHandle>
makeEngineForWorkload(const std::string &workload, const vq::PQConfig &pq,
                      const serve::EngineOptions &options = {});

/**
 * Trace engine replaying the deployment trace captured in a previous
 * run's artifacts, with the run's own PQ geometry. FailedPrecondition
 * when the artifacts hold no trace.
 */
Result<EngineHandle>
makeEngineForArtifacts(const RunArtifacts &artifacts,
                       const serve::EngineOptions &options = {});

/** Shared-ownership handle on a multi-tenant front door. */
using FrontDoorHandle = std::shared_ptr<serve::FrontDoor>;

/**
 * Build a multi-tenant serving front door: an empty model registry plus
 * one shared worker pool with deadline-aware, priority-stratified
 * scheduling (see serve/frontdoor.h for the scheduling, overload, and
 * hot-swap contracts). Publish models into it with publishModel() /
 * publishTraceModel(), or through handle->registry() directly; mint
 * per-tenant submission handles with handle->tenant().
 */
Result<FrontDoorHandle>
makeFrontDoor(const serve::FrontDoorOptions &options = {});

/**
 * Lower a LUTBoost-converted model (freezing unfrozen LUT layers in
 * place, exactly like makeEngine) and publish it into `door`'s registry
 * under `name`, returning the new version. Re-publishing an existing
 * name is the zero-drain hot-swap: in-flight and queued requests finish
 * on the version they resolved, new submissions ride this one.
 * `options` supplies the lowering plan, input shape, and the ModelSlo
 * (options.engine is ignored — the front door owns the pool).
 */
Result<uint64_t> publishModel(const FrontDoorHandle &door,
                              const std::string &name,
                              const nn::LayerPtr &model,
                              const ServeOptions &options = {});

/**
 * Publish a load-testing trace model (same synthesis as
 * makeTraceEngine: one frozen LUT stage per traced GEMM, deterministic
 * in `seed`) into `door`'s registry under `name`.
 */
Result<uint64_t>
publishTraceModel(const FrontDoorHandle &door, const std::string &name,
                  const std::vector<sim::GemmShape> &gemms,
                  const vq::PQConfig &pq, const ServeOptions &options = {},
                  vq::LutPrecision precision = {}, uint64_t seed = 91);

} // namespace lutdla::api

#endif // LUTDLA_API_SERVING_H
