#ifndef LUTDLA_API_PIPELINE_H
#define LUTDLA_API_PIPELINE_H

/**
 * @file
 * The unified LUT-DLA pipeline facade: one builder-style entry point that
 * composes the paper's whole flow — float model -> LUTBoost multistage
 * conversion (Sec. V) -> deployment-precision freeze -> LUT-Stationary
 * timing simulation (Algorithm 1) -> PPA/energy — and returns everything
 * as one RunArtifacts. Misconfiguration surfaces as typed Status errors,
 * never asserts.
 *
 *   auto run = Pipeline::builder()
 *                  .model(model).dataset(ds)
 *                  .convert(options)
 *                  .design(hw::design1Tiny())
 *                  .simulate()
 *                  .report();
 *   if (!run.ok()) { ... run.status() ... }
 *
 * Stages are optional and compose: a timing-only run needs just gemms() +
 * design(); an accuracy-only run needs model() + dataset() + convert().
 * Named workloads from the registry pre-wire all of it:
 *
 *   auto run = Pipeline::forWorkload("resnet18")
 *                  .design(hw::design2Large()).simulate().report();
 */

#include <string>
#include <vector>

#include "api/artifacts.h"
#include "api/serving.h"
#include "api/status.h"
#include "api/workload_registry.h"
#include "lutboost/converter.h"

namespace lutdla::api {

/** Validate VQ hyperparameters; Ok when a conversion may run with them. */
Status validatePqConfig(const vq::PQConfig &pq);

/** Validate simulator parameters; Ok when a timing run may use them. */
Status validateSimConfig(const sim::SimConfig &config);

/**
 * Extract the deployment GEMM trace from a converted model by running one
 * forward pass of `sample` (eval mode) and reading each LUT operator's
 * lowered shape. Convolutions report their post-im2col geometry.
 *
 * @return FailedPrecondition when the model has no LUT operators.
 */
Result<std::vector<sim::GemmShape>> extractGemmTrace(
    const nn::LayerPtr &model, const Tensor &sample);

/** Fluent assembler for one end-to-end run. Single-shot: build, then run. */
class PipelineBuilder
{
  public:
    // ---- Inputs ----
    /** Resolve model/dataset/trace defaults from the named workload. */
    PipelineBuilder &workload(const std::string &name);
    /** Float (or already-converted) model to operate on, shared in place. */
    PipelineBuilder &model(nn::LayerPtr model);
    /** Dataset for training/conversion/evaluation stages. */
    PipelineBuilder &dataset(nn::Dataset dataset);
    /** Explicit deployment GEMM trace (overrides workload/model traces). */
    PipelineBuilder &gemms(std::vector<sim::GemmShape> trace);
    /** Label recorded in the artifacts (defaults to the workload name). */
    PipelineBuilder &tag(std::string label);

    // ---- Stages ----
    /** Float pre-training before conversion, with an explicit recipe. */
    PipelineBuilder &pretrain(const nn::TrainConfig &config);
    /** Float pre-training with the workload's recommended recipe. */
    PipelineBuilder &pretrain();
    /** LUTBoost multistage conversion (replace -> calibrate -> joint). */
    PipelineBuilder &convert(const lutboost::ConvertOptions &options);
    /** Single-stage conversion baseline (PECAN/PQA-style). */
    PipelineBuilder &convertSingleStage(
        const lutboost::ConvertOptions &options,
        lutboost::SingleStageMode mode, int total_epochs);
    /** Freeze inference LUTs at this precision and record the accuracy. */
    PipelineBuilder &deployPrecision(vq::LutPrecision precision);
    /** Simulate on a full hardware design point (also enables PPA). */
    PipelineBuilder &design(const hw::LutDlaDesign &design);
    /** Simulate on bare timing parameters (no PPA model attached). */
    PipelineBuilder &design(const sim::SimConfig &config);
    /** Run the timing simulator over the deployment trace. */
    PipelineBuilder &simulate(bool enable = true);
    /** Rows forwarded when extracting a trace from the model (default 64). */
    PipelineBuilder &traceRows(int64_t rows);
    /** DRAM access energy used for the energy roll-up (default 20 pJ/B). */
    PipelineBuilder &dramEnergy(double pj_per_byte);

    // ---- Terminals ----
    /** Execute all configured stages. */
    Result<RunArtifacts> run();
    /** Fluent alias for run(), closing the builder chain. */
    Result<RunArtifacts> report() { return run(); }

    /**
     * Execute all configured stages, then stand up a serving engine (a
     * one-model serve::FrontDoor behind the InferenceEngine facade) on the
     * converted model (freezing any layer deployPrecision() did not already
     * freeze). `options` carries the engine knobs plus the data-plane plan
     * (table and encode precision, row tiling); bare serve::EngineOptions
     * convert implicitly. CNN workloads are served as flattened NCHW rows; the
     * image shape is inferred from the configured dataset's sample shape
     * unless options.input_shape is set explicitly. The artifacts of the
     * run are discarded; use run() + Pipeline::engine() to keep both.
     */
    Result<EngineHandle> engine(const ServeOptions &options = {});

    /** The model the run operated on (converted in place); null pre-run. */
    const nn::LayerPtr &convertedModel() const { return model_; }

  private:
    Status resolveWorkload();
    Status runModelStages(RunArtifacts &artifacts);
    Status resolveTrace(RunArtifacts &artifacts);
    Status runTimingStages(RunArtifacts &artifacts);

    std::string workload_name_;
    bool has_workload_ = false;

    nn::LayerPtr model_;
    nn::Dataset dataset_;
    bool has_dataset_ = false;
    std::vector<sim::GemmShape> gemms_;
    std::string tag_;

    bool want_pretrain_ = false;
    bool pretrain_from_workload_ = false;
    nn::TrainConfig pretrain_;

    bool want_convert_ = false;
    bool single_stage_ = false;
    lutboost::SingleStageMode single_stage_mode_ =
        lutboost::SingleStageMode::JointFromRandom;
    int single_stage_epochs_ = 0;
    lutboost::ConvertOptions convert_;

    bool want_deploy_ = false;
    vq::LutPrecision precision_;

    bool has_design_ = false;
    hw::LutDlaDesign design_;
    bool has_sim_config_ = false;
    sim::SimConfig sim_config_;
    bool want_simulate_ = false;
    int64_t trace_rows_ = 64;
    double dram_pj_per_byte_ = 20.0;
};

/** Entry point to the facade. */
class Pipeline
{
  public:
    /** Start an empty builder. */
    static PipelineBuilder builder() { return {}; }

    /** Start a builder pre-wired to a registry workload. */
    static PipelineBuilder
    forWorkload(const std::string &name)
    {
        return builder().workload(name);
    }

    // ---- Serving entry points (thin aliases over api/serving.h) ----

    /**
     * Serve a LUTBoost-converted model; see api::makeEngine. ServeOptions
     * carries engine knobs + data-plane plan + input shape; bare
     * serve::EngineOptions convert implicitly (bit-exact default plan).
     */
    static Result<EngineHandle>
    engine(const nn::LayerPtr &converted_model,
           const ServeOptions &options = {})
    {
        return makeEngine(converted_model, options);
    }

    /**
     * PR-3-shaped convenience: engine knobs + explicit image shape for
     * spatial models, default plan; see api::makeEngine.
     */
    static Result<EngineHandle>
    engine(const nn::LayerPtr &converted_model,
           const serve::EngineOptions &options,
           serve::ServeInputShape input_shape)
    {
        return makeEngine(converted_model, options, input_shape);
    }

    /** Load-test a named workload's trace; see api::makeEngineForWorkload. */
    static Result<EngineHandle>
    engineForWorkload(const std::string &name, const vq::PQConfig &pq,
                      const serve::EngineOptions &options = {})
    {
        return makeEngineForWorkload(name, pq, options);
    }

    /** Replay a previous run's trace; see api::makeEngineForArtifacts. */
    static Result<EngineHandle>
    engineForArtifacts(const RunArtifacts &artifacts,
                       const serve::EngineOptions &options = {})
    {
        return makeEngineForArtifacts(artifacts, options);
    }
};

} // namespace lutdla::api

#endif // LUTDLA_API_PIPELINE_H
