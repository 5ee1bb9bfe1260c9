#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "api/pipeline.h"
#include "lutboost/converter.h"
#include "nn/attention.h"
#include "nn/dataset.h"
#include "nn/sequential.h"
#include "serve/autotune.h"
#include "serve/engine.h"
#include "serve/frontdoor.h"
#include "serve/frozen_model.h"
#include "sweep.h"
#include "util/logging.h"
#include "util/table.h"

namespace lutdla::e2e {

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

namespace {

/** Set-up runs this many times per run; setup_s is the median. */
constexpr int kSetupReps = 3;
/** Serving threads: nproc - 1 on the 4-core reference host, leaving one
 * core to the load generator. */
constexpr int kWorkers = 3;
/** Model seeds are part of the workload definition, never --seed. */
constexpr uint64_t kResnetSeed = 91;
constexpr uint64_t kResnetSwapSeed = 92;
/**
 * Closed loops keep one full batch of requests in flight, so idle workers
 * are left to steal shards of it. (Keeping every worker saturated was
 * tried: it measured about 20% higher rows/s but swung twice as much
 * from run to run on a shared host.)
 */
constexpr int kInFlight = 4;
/** Single-thread time each timed sweep pass may take. */
constexpr double kSweepBudgetS = 0.25;

template <typename T>
T
orDie(api::Result<T> result, const char *what)
{
    if (!result.ok())
        fatal(what, ": ", result.status().toString());
    return result.take();
}

Tensor
gaussianRows(int64_t rows, int64_t width, uint64_t seed)
{
    Rng rng(seed);
    Tensor x(Shape{rows, width});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.data()[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
    return x;
}

/** First `rows` rows of `pool` as one batch. */
Tensor
firstRows(const Tensor &pool, int64_t rows)
{
    const int64_t width = pool.dim(1);
    return Tensor(Shape{rows, width},
                  std::vector<float>(pool.data(), pool.data() + rows * width));
}

std::vector<sim::GemmShape>
resnet18Gemms()
{
    return orDie(api::findWorkload("resnet18"), "resnet18 workload")
        .network()
        .gemms;
}

vq::PQConfig
resnet18Pq()
{
    vq::PQConfig pq;
    pq.v = 8;
    pq.c = 16;
    return pq;
}

serve::PlanOptions
int8TablePlan()
{
    serve::PlanOptions plan;
    plan.table_precision = serve::TablePrecision::Int8;
    return plan;
}

/** Accumulates one set-up repetition's phase times (and spans). */
class PhaseClock
{
  public:
    PhaseClock(Tracer &tracer, int64_t parent)
        : tracer_(tracer), parent_(parent), last_(nowNs())
    {
    }

    /** Close the phase that started at the previous mark. */
    void
    mark(const std::string &phase)
    {
        const int64_t now = nowNs();
        seconds[phase] += secondsBetween(last_, now);
        tracer_.add("setup." + phase, last_, now, parent_);
        last_ = now;
    }

    std::map<std::string, double> seconds;

  private:
    Tracer &tracer_;
    int64_t parent_;
    int64_t last_;
};

/**
 * Run `build` kSetupReps times, releasing each result before the next
 * repetition, and report the median total as setup_s and the median of
 * each phase as setup.<phase>_s. Returns the last repetition's result.
 */
template <typename Built, typename Build>
Built
timedSetup(Report &report, Tracer &tracer, Build &&build)
{
    std::vector<double> totals;
    std::map<std::string, std::vector<double>> phases;
    Built built;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        built = Built();
        const int64_t id = tracer.reserveId();
        PhaseClock clock(tracer, id);
        const int64_t t0 = nowNs();
        built = build(clock);
        const int64_t t1 = nowNs();
        tracer.add("setup", t0, t1, 0, -1, 0, id);
        totals.push_back(secondsBetween(t0, t1));
        for (const auto &[phase, s] : clock.seconds)
            phases[phase].push_back(s);
    }
    report.add("setup_s", median(totals), "s");
    for (const auto &[phase, s] : phases)
        report.add("setup." + phase + "_s", median(s), "s");
    return built;
}

/** A model served by a single-model InferenceEngine. */
struct EngineServed
{
    serve::FrozenModel model;
    serve::PlanOptions plan;
    std::shared_ptr<serve::InferenceEngine> engine;
};

Lane
engineLane(int id, const RequestPool &pool, int64_t rows,
           serve::InferenceEngine &engine)
{
    Lane lane;
    lane.id = id;
    lane.pool = &pool;
    lane.rows_per_request = rows;
    lane.submit = [&engine](Tensor x, int64_t &) {
        return engine.submitAsync(std::move(x));
    };
    lane.check = [&pool](const Tensor &out, int64_t start, int64_t) {
        return pool.matches(out, start, 0);
    };
    return lane;
}

void
addLatency(Report &r, const LatencySummary &s)
{
    r.add("rows_per_s", s.rows_per_s, "rows/s");
    r.add("latency_p50_us", s.p50_us, "us");
    r.add("latency_p90_us", s.p90_us, "us");
    r.add("latency_p99_us", s.p99_us, "us");
    r.add("latency_samples", static_cast<double>(s.samples), "count");
}

/** One line per quantity over 1-second slices of the window, so a stall
 * or a slow phase is visible next to the window-wide numbers. */
void
printSlices(const char *label, const std::vector<Completion> &done,
            int lane, int64_t begin_ns, int64_t end_ns)
{
    const std::vector<LatencySummary> s =
        slices(done, lane, begin_ns, end_ns, 1.0);
    std::printf("%s per second: rows/s", label);
    for (const LatencySummary &x : s)
        std::printf(" %.0f", x.rows_per_s);
    std::printf("\n%s per second: p50 us", label);
    for (const LatencySummary &x : s)
        std::printf(" %.0f", x.p50_us);
    std::printf("\n%s per second: p90 us", label);
    for (const LatencySummary &x : s)
        std::printf(" %.0f", x.p90_us);
    std::printf("\n");
}

void
addEngineStats(Report &r, const serve::EngineStats &s)
{
    r.add("runtime.queue_mean_us", s.mean_queue_us, "us");
    r.add("runtime.queue_p50_us", s.p50_queue_us, "us");
    r.add("runtime.queue_p99_us", s.p99_queue_us, "us");
    r.add("runtime.service_mean_us", s.mean_service_us, "us");
    r.add("runtime.service_p50_us", s.p50_service_us, "us");
    r.add("runtime.service_p99_us", s.p99_service_us, "us");
    r.add("runtime.batch_fill_mean", s.avgBatchFill(), "rows");
    r.add("runtime.batches", static_cast<double>(s.batches), "count");
    r.add("runtime.active_workers", s.active_workers, "count");
    r.add("runtime.encode_share", s.encodeFraction(), "ratio");
}

/** Per-layer metrics of a workload's primary-model sweep. */
void
addSweep(Report &r, const Sweep &sw, double read_model_gbs)
{
    const double rows = static_cast<double>(sw.rows);
    const double enc = sw.encodeUs(), gat = sw.gatherUs();
    const double gather_gbs =
        gat > 0 ? static_cast<double>(sw.gatherBytes()) / (gat * 1e3) : 0.0;
    r.add("kernel.encode_us_per_row", enc / rows, "us");
    r.add("kernel.gather_us_per_row", gat / rows, "us");
    r.add("kernel.encode_gbs",
          enc > 0 ? static_cast<double>(sw.encodeBytes()) / (enc * 1e3) : 0.0,
          "GB/s");
    r.add("kernel.gather_gbs", gather_gbs, "GB/s");
    r.add("kernel.gather_roofline_frac", gather_gbs / read_model_gbs, "ratio");
    r.add("kernel.encode_share", enc + gat > 0 ? enc / (enc + gat) : 0.0,
          "ratio");
    r.add("model.forward_us_per_row", sw.forward_us / rows, "us");
    r.add("model.untiled_us_per_row", sw.untiled_us / rows, "us");
    const double sum = sw.stageSumUs();
    const double lut_gemm = sw.kindUs("lut-gemm");
    const double attention = sw.kindUs("attention");
    const double conv = sw.kindUs("conv");
    r.add("stage.lut_gemm_us_per_row", lut_gemm / rows, "us");
    r.add("stage.attention_us_per_row", attention / rows, "us");
    r.add("stage.conv_us_per_row", conv / rows, "us");
    r.add("stage.glue_us_per_row", (sum - lut_gemm - attention - conv) / rows,
          "us");
    r.add("stage.sum_vs_untiled", sum / sw.untiled_us, "ratio");
}

/**
 * The traced-run tail every workload shares: layer sweep of the primary
 * model, engine overhead at the served batch fill, host read probes.
 */
Sweep
traceLayers(Report &r, Tracer &tracer, const serve::FrozenModel &model,
            const serve::PlanOptions &plan, const Tensor &pool,
            int64_t sweep_rows, int64_t fill_rows, double service_p50_us,
            const std::string &label)
{
    const Sweep sw = sweepModel(model, plan, firstRows(pool, sweep_rows),
                                label, kSweepBudgetS, tracer);
    printSweep(sw);
    const double l2 = readBandwidthGbs(int64_t{1} << 20);
    const double mdl = readBandwidthGbs(model.residentBytes());
    r.add("host.read_gbs_l2", l2, "GB/s");
    r.add("host.read_gbs_model", mdl, "GB/s");
    addSweep(r, sw, mdl);
    const double fwd = forwardUs(model, pool, fill_rows, kSweepBudgetS);
    r.add("model.forward_us_at_fill", fwd, "us");
    r.add("model.engine_overhead_us", service_p50_us - fwd, "us");
    return sw;
}

/** Engine service fill rounded to whole row groups (at least one). */
int64_t
fillRows(double fill, int64_t group)
{
    const int64_t groups =
        std::max<int64_t>(1, std::llround(fill / static_cast<double>(group)));
    return groups * group;
}

/** Bookkeeping every workload ends with. */
void
finish(const Options &o, Report &r, Tracer &tracer,
       const std::vector<double> &late_us, int64_t load_ns)
{
    const Tally &t = r.tally;
    r.add("error_ratio",
          t.attempted > 0 ? static_cast<double>(t.errors + t.mismatched) /
                                static_cast<double>(t.attempted)
                          : 0.0,
          "ratio");
    r.add("gen.late_p99_us", percentile(late_us, 99), "us");
    r.add("gen.late_max_us", percentile(late_us, 100), "us");
    if (o.trace) {
        r.add("trace.overhead_frac",
              static_cast<double>(tracer.size()) * Tracer::costPerSpanNs() /
                  static_cast<double>(std::max<int64_t>(load_ns, 1)),
              "ratio");
        r.trace_path = o.out_dir + "/trace-" + o.workload + ".json";
        if (!tracer.writeChrome(r.trace_path))
            fatal("cannot write ", r.trace_path);
    }
    r.add("peak_rss_mb", peakRssMb(), "MB");
}

// ---- resnet18-bulk / resnet18-online ---------------------------------------

EngineServed
buildResnet18(PhaseClock &clock, const serve::EngineOptions &engine_options)
{
    EngineServed s;
    const serve::FrozenModel base =
        orDie(serve::FrozenModel::fromTrace(resnet18Gemms(), resnet18Pq(), {},
                                            kResnetSeed),
              "resnet18 trace model");
    clock.mark("model");
    s.plan.table_precision = serve::TablePrecision::Int4;
    s.plan.encode_precision = serve::EncodePrecision::Int8;
    s.model = base.withPlan(s.plan);
    clock.mark("plan");
    s.engine = orDie(serve::InferenceEngine::create(s.model, engine_options),
                     "engine");
    clock.mark("start");
    return s;
}

RequestPool
resnet18Pool(const serve::FrozenModel &model, uint64_t seed)
{
    RequestPool pool;
    pool.rows = gaussianRows(2048, model.inputWidth(), seed);
    pool.refs.push_back(model.forwardBatch(pool.rows));
    return pool;
}

void
runResnet18Bulk(const Options &o, Report &r, Tracer &tracer)
{
    serve::EngineOptions eo;
    eo.threads = kWorkers;
    eo.max_batch = 256;
    eo.max_wait_us = 200;
    eo.queue_capacity = 1024;
    EngineServed s = timedSetup<EngineServed>(
        r, tracer, [&](PhaseClock &clock) { return buildResnet18(clock, eo); });
    const RequestPool pool = resnet18Pool(s.model, o.seed);

    Rng rng(o.seed);
    const Lane lane = engineLane(0, pool, 64, *s.engine);
    const LoadResult load = runLoad(rng, nullptr, {}, {{lane, kInFlight}},
                                    o.warmup + o.seconds, tracer);
    r.tally.merge(load.tally);
    const int64_t window = load.begin_ns + static_cast<int64_t>(o.warmup * 1e9);
    const LatencySummary m =
        summarizeSlices(load.done, 0, window, load.end_ns);
    addLatency(r, m);
    printSlices("resnet18-bulk", load.done, 0, window, load.end_ns);
    const serve::EngineStats stats = s.engine->stats();
    addEngineStats(r, stats);
    std::printf("resnet18-bulk: %lld LUT stages, %.1f MB resident, "
                "%.0f rows/s, batch fill %.1f\n",
                static_cast<long long>(s.model.numLutStages()),
                s.model.residentBytes() / 1048576.0, m.rows_per_s,
                stats.avgBatchFill());

    if (o.trace) {
        // Thread scaling: the same closed loop against a 1-worker engine.
        serve::EngineOptions one = eo;
        one.threads = 1;
        auto engine1 = orDie(serve::InferenceEngine::create(s.model, one),
                             "1-worker engine");
        const Lane lane1 = engineLane(1, pool, 64, *engine1);
        const double measure = std::min(5.0, o.seconds / 2);
        const double warm = std::min(1.0, o.warmup);
        const LoadResult load1 =
            runLoad(rng, nullptr, {}, {{lane1, kInFlight}}, warm + measure,
                    tracer);
        r.tally.merge(load1.tally);
        const LatencySummary m1 =
            summarizeSlices(load1.done, 1,
                            load1.begin_ns + int64_t(warm * 1e9),
                            load1.end_ns);
        r.add("engine.rows_per_s_1w", m1.rows_per_s, "rows/s");
        r.add("engine.scaling_eff", m.rows_per_s / (kWorkers * m1.rows_per_s),
              "ratio");
        const Sweep sw = traceLayers(
            r, tracer, s.model, s.plan, pool.rows, 256,
            fillRows(stats.avgBatchFill(), 1), stats.p50_service_us, "resnet18");
        r.add("sim.rank_corr", simRankCorrelation(resnet18Gemms(), sw),
              "ratio");
    }
    finish(o, r, tracer, load.late_us, load.end_ns - load.begin_ns);
}

void
runResnet18Online(const Options &o, Report &r, Tracer &tracer)
{
    serve::EngineOptions eo;
    eo.threads = kWorkers;
    eo.max_batch = 64;
    eo.max_wait_us = 200;
    eo.queue_capacity = 131072;  // admission never refuses
    EngineServed s = timedSetup<EngineServed>(
        r, tracer, [&](PhaseClock &clock) { return buildResnet18(clock, eo); });
    const RequestPool pool = resnet18Pool(s.model, o.seed);

    // The ladder: the 4000/s step is the measured one and gets the full
    // window; the other steps locate the SLO knee. (At 8000/s the engine
    // is past half its capacity and queueing turns a 10% host slowdown
    // into a 30-50% latency swing, too wide to gate on.)
    constexpr double kGatedRate = 4000, kLightRate = 2000;
    constexpr double kSloP90Us = 5000, kSloBacklogS = 0.05;
    const double side = std::max(2.0, o.seconds / 4);
    const std::vector<OpenStep> ladder = {
        {kLightRate, side}, {kGatedRate, o.seconds}, {8000, side},
        {16000, side}};
    std::vector<OpenStep> steps = {{kLightRate, o.warmup}};
    steps.insert(steps.end(), ladder.begin(), ladder.end());

    Rng rng(o.seed);
    const Lane lane = engineLane(0, pool, 1, *s.engine);
    const LoadResult load = runLoad(rng, &lane, steps, {}, 0, tracer);
    r.tally.merge(load.tally);

    Table t("resnet18-online ladder (open loop, Poisson single rows)",
            {"rate/s", "seconds", "samples", "p50 us", "p90 us", "p99 us",
             "backlog", "SLO"});
    int64_t step_begin =
        load.begin_ns + static_cast<int64_t>(o.warmup * 1e9);
    double slo_rate = 0;
    bool knee = false;
    for (const OpenStep &step : ladder) {
        const int64_t step_end =
            step_begin + static_cast<int64_t>(step.seconds * 1e9);
        const LatencySummary m =
            summarizeSlices(load.done, 0, step_begin, step_end);
        const int64_t backlog = backlogAt(load.done, 0, step_end);
        const bool pass = m.p90_us <= kSloP90Us &&
                          backlog <= step.rate_per_s * kSloBacklogS;
        if (!pass)
            knee = true;
        if (!knee)
            slo_rate = step.rate_per_s;
        if (step.rate_per_s == kGatedRate) {
            addLatency(r, m);
            printSlices("resnet18-online", load.done, 0, step_begin,
                        step_end);
        }
        if (step.rate_per_s == kLightRate)
            r.add("light_latency_p50_us", m.p50_us, "us");
        t.addRow({Table::fmt(step.rate_per_s, 0), Table::fmt(step.seconds, 1),
                  std::to_string(m.samples), Table::fmt(m.p50_us, 0),
                  Table::fmt(m.p90_us, 0), Table::fmt(m.p99_us, 0),
                  std::to_string(backlog), pass ? "met" : "missed"});
        step_begin = step_end;
    }
    t.addNote("SLO: p90 <= 5 ms and backlog at step end <= 50 ms of "
              "arrivals; latency runs from each request's due time");
    t.print();
    r.add("slo_rate_rps", slo_rate, "rows/s");
    const serve::EngineStats stats = s.engine->stats();
    addEngineStats(r, stats);
    if (o.trace)
        traceLayers(r, tracer, s.model, s.plan, pool.rows, 4,
                    fillRows(stats.avgBatchFill(), 1), stats.p50_service_us,
                    "resnet18");
    finish(o, r, tracer, load.late_us, load.end_ns - load.begin_ns);
}

// ---- bert-encoder -----------------------------------------------------------

constexpr int64_t kSeqLen = 128;

EngineServed
buildBert(PhaseClock &clock, const serve::EngineOptions &engine_options)
{
    constexpr int64_t kDModel = 256, kHeads = 4, kDff = 1024;
    EngineServed s;
    lutboost::ConvertOptions opts;
    opts.pq.v = 4;
    opts.pq.c = 16;
    opts.min_in_features = 0;
    auto net = std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
        std::make_shared<lutboost::LutLinear>(kDModel, kDModel, opts.pq,
                                              /*bias=*/true, 131),
        std::make_shared<nn::TransformerBlock>(kSeqLen, kDModel, kHeads, kDff,
                                               132),
        std::make_shared<nn::TransformerBlock>(kSeqLen, kDModel, kHeads, kDff,
                                               133)});
    lutboost::replaceOperators(net, opts);
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(net))
        layer->refreshInferenceLut();
    clock.mark("model");
    s.plan = int8TablePlan();
    s.model = orDie(serve::FrozenModel::fromModel(net, {}, s.plan),
                    "bert lowering");
    clock.mark("plan");
    s.engine = orDie(serve::InferenceEngine::create(s.model, engine_options),
                     "engine");
    clock.mark("start");
    return s;
}

void
runBert(const Options &o, Report &r, Tracer &tracer)
{
    serve::EngineOptions eo;
    eo.threads = kWorkers;
    eo.max_batch = 4 * kSeqLen;
    eo.max_wait_us = 200;
    eo.queue_capacity = 1024;
    EngineServed s = timedSetup<EngineServed>(
        r, tracer, [&](PhaseClock &clock) { return buildBert(clock, eo); });
    RequestPool pool;
    pool.group = kSeqLen;
    pool.rows = gaussianRows(16 * kSeqLen, s.model.inputWidth(), o.seed);
    pool.refs.push_back(s.model.forwardBatch(pool.rows));

    Rng rng(o.seed);
    const Lane lane = engineLane(0, pool, kSeqLen, *s.engine);
    const LoadResult load = runLoad(rng, nullptr, {}, {{lane, kInFlight}},
                                    o.warmup + o.seconds, tracer);
    r.tally.merge(load.tally);
    const int64_t window = load.begin_ns + static_cast<int64_t>(o.warmup * 1e9);
    const LatencySummary m =
        summarizeSlices(load.done, 0, window, load.end_ns);
    addLatency(r, m);
    printSlices("bert-encoder", load.done, 0, window, load.end_ns);
    const serve::EngineStats stats = s.engine->stats();
    addEngineStats(r, stats);
    std::printf("bert-encoder: %s\n%.1f MB tables, %.0f rows/s, batch fill "
                "%.1f\n",
                s.model.describe().c_str(), s.model.tableBytes() / 1048576.0,
                m.rows_per_s, stats.avgBatchFill());
    if (o.trace)
        traceLayers(r, tracer, s.model, s.plan, pool.rows, 4 * kSeqLen,
                    fillRows(stats.avgBatchFill(), kSeqLen),
                    stats.p50_service_us, "bert");
    finish(o, r, tracer, load.late_us, load.end_ns - load.begin_ns);
}

// ---- multitenant-swap -------------------------------------------------------

/** Interactive requests must finish this soon after they were due. */
constexpr double kInteractiveSloUs = 25'000;

serve::ModelSlo
interactiveSlo()
{
    serve::ModelSlo slo;
    slo.priority = 10;
    slo.max_batch = 32;
    slo.batch_window_us = 100;
    // The scheduler's own deadline is looser than the 25 ms SLO the
    // benchmark scores: a host stall must not turn into shed requests.
    slo.default_deadline_us = 100'000;
    return slo;
}

serve::ModelSlo
bulkSlo()
{
    serve::ModelSlo slo;
    slo.priority = 0;
    slo.max_batch = 64;
    slo.batch_window_us = 200;
    return slo;
}

struct DoorServed
{
    serve::FrozenModel interactive_f32;  ///< float32 plan (quality ref)
    serve::FrozenModel interactive;      ///< auto-tuned plan (served)
    serve::PlanOptions interactive_plan;
    std::string assignment;
    double tuned_agreement = 0;
    serve::FrozenModel bulk;
    std::shared_ptr<serve::FrontDoor> door;
};

serve::FrozenModel
buildBulk(uint64_t seed)
{
    return orDie(serve::FrozenModel::fromTrace(resnet18Gemms(), resnet18Pq(),
                                               {}, seed, int8TablePlan()),
                 "bulk model");
}

DoorServed
buildDoor(PhaseClock &clock)
{
    DoorServed s;
    lutboost::ConvertOptions convert;
    convert.pq.v = 3;
    convert.pq.c = 16;
    auto pipeline = api::Pipeline::forWorkload("lenet-shapes")
                        .pretrain()
                        .convert(convert);
    orDie(pipeline.run(), "lenet-shapes pipeline");
    const nn::LayerPtr lenet = pipeline.convertedModel();
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(lenet))
        layer->refreshInferenceLut();
    const serve::FrozenModel r18 =
        orDie(serve::FrozenModel::fromTrace(resnet18Gemms(), resnet18Pq(), {},
                                            kResnetSeed),
              "bulk model");
    clock.mark("model");
    s.interactive_f32 = orDie(
        serve::FrozenModel::fromModel(lenet, serve::ServeInputShape{12, 12}),
        "lenet lowering");
    s.bulk = r18.withPlan(int8TablePlan());
    clock.mark("plan");
    serve::AutoTuneOptions tune;
    tune.agreement_budget = 0.90;
    const serve::AutoTuneResult tuned =
        serve::autoTunePrecision(s.interactive_f32, {}, tune);
    s.interactive_plan.stage_precision = tuned.stage_precision;
    s.interactive_plan.stage_encode_precision = tuned.stage_encode_precision;
    s.interactive = s.interactive_f32.withPlan(s.interactive_plan);
    s.assignment =
        tuned.assignmentString() + " / enc " + tuned.encodeAssignmentString();
    s.tuned_agreement = tuned.agreement;
    clock.mark("autotune");
    serve::FrontDoorOptions fo;
    fo.threads = kWorkers;
    fo.queue_capacity = 1024;
    s.door = orDie(serve::FrontDoor::create(fo), "front door");
    orDie(s.door->publish("interactive", s.interactive, interactiveSlo()),
          "publish interactive");
    orDie(s.door->publish("bulk", s.bulk, bulkSlo()), "publish bulk");
    clock.mark("start");
    return s;
}

int64_t
argmax(const float *row, int64_t width)
{
    return std::max_element(row, row + width) - row;
}

void
runMultitenant(const Options &o, Report &r, Tracer &tracer)
{
    DoorServed s =
        timedSetup<DoorServed>(r, tracer, [](PhaseClock &c) { return buildDoor(c); });
    serve::FrontDoor &door = *s.door;

    // Interactive inputs: fresh shape images drawn from --seed.
    nn::ShapeImageConfig images;
    images.classes = 6;
    images.train_per_class = 170;
    images.test_per_class = 1;
    images.seed = 7919 + o.seed;
    const Tensor imgs = nn::makeShapeImages(images).train_x;
    RequestPool ipool;
    const int64_t n = imgs.dim(0), width = s.interactive.inputWidth();
    ipool.rows = Tensor(Shape{n, width},
                        std::vector<float>(imgs.data(), imgs.data() + n * width));
    ipool.refs.push_back(s.interactive.forwardBatch(ipool.rows));
    const Tensor f32_ref = s.interactive_f32.forwardBatch(ipool.rows);

    // Bulk inputs, with references for both model versions the
    // publisher alternates between (index 0: seed 91, index 1: seed 92).
    RequestPool bpool;
    bpool.rows = gaussianRows(1024, s.bulk.inputWidth(), o.seed + 1);
    bpool.refs.push_back(s.bulk.forwardBatch(bpool.rows));
    bpool.refs.push_back(
        buildBulk(kResnetSwapSeed).forwardBatch(bpool.rows));

    // Publish epoch: odd while a publish() call is in flight. A request
    // submitted entirely inside one even epoch is pinned to that epoch's
    // version; one that overlaps a publish may be served by either.
    std::atomic<int64_t> epoch{0};
    int64_t top1_same = 0, top1_total = 0;
    const int64_t out_w = s.interactive.outputWidth();

    Lane ilane;
    ilane.id = 0;
    ilane.pool = &ipool;
    ilane.rows_per_request = 1;
    ilane.submit = [&door](Tensor x, int64_t &) {
        serve::RequestOptions ro;
        ro.tenant = "web";
        return door.submitAsync("interactive", std::move(x), ro);
    };
    ilane.check = [&](const Tensor &out, int64_t start, int64_t) {
        if (!ipool.matches(out, start, 0))
            return false;
        ++top1_total;
        top1_same += argmax(out.data(), out_w) ==
                     argmax(f32_ref.data() + start * out_w, out_w);
        return true;
    };
    Lane blane;
    blane.id = 1;
    blane.pool = &bpool;
    blane.rows_per_request = 64;
    blane.submit = [&door, &epoch](Tensor x, int64_t &tag) {
        serve::RequestOptions ro;
        ro.tenant = "batch";
        const int64_t before = epoch.load();
        Future f = door.submitAsync("bulk", std::move(x), ro);
        const int64_t after = epoch.load();
        tag = before == after && before % 2 == 0 ? 1 + (before / 2) % 2 : 0;
        return f;
    };
    blane.check = [&bpool](const Tensor &out, int64_t start, int64_t tag) {
        if (tag > 0)
            return bpool.matches(out, start, static_cast<size_t>(tag - 1));
        return bpool.matches(out, start, 0) || bpool.matches(out, start, 1);
    };

    // Hot-swap publisher, driven from this thread while the load runs.
    const double interval_s = std::min(4.0, o.seconds / 2);
    const int64_t begin = nowNs();
    const int64_t window_begin = begin + static_cast<int64_t>(o.warmup * 1e9);
    const int64_t window_end =
        window_begin + static_cast<int64_t>(o.seconds * 1e9);
    int64_t next_publish =
        window_begin + static_cast<int64_t>(interval_s * 1e9);
    std::vector<double> build_ms, publish_us, swap_ms;
    auto publisher = [&](int64_t now) {
        if (now < next_publish || next_publish >= window_end)
            return;
        const uint64_t seed =
            build_ms.size() % 2 == 0 ? kResnetSwapSeed : kResnetSeed;
        const int64_t swap_id = tracer.reserveId();
        const int64_t t0 = nowNs();
        serve::FrozenModel next = buildBulk(seed);
        const int64_t t1 = nowNs();
        ++epoch;
        orDie(door.publish("bulk", std::move(next), bulkSlo()), "hot-swap");
        ++epoch;
        const int64_t t2 = nowNs();
        build_ms.push_back(secondsBetween(t0, t1) * 1e3);
        publish_us.push_back(secondsBetween(t1, t2) * 1e6);
        swap_ms.push_back(secondsBetween(t0, t2) * 1e3);
        tracer.add("registry.build", t0, t1, swap_id);
        tracer.add("registry.publish", t1, t2, swap_id);
        tracer.add("registry.swap", t0, t2, 0, -1, 0, swap_id);
        next_publish += static_cast<int64_t>(interval_s * 1e9);
    };

    // One bulk request in flight: with two, both spare workers were often
    // busy on bulk shards, and the interactive p90 swung 2x with host
    // speed; with one it holds within a few percent.
    Rng rng(o.seed);
    const std::vector<OpenStep> steps = {{4000, o.warmup}, {4000, o.seconds}};
    const LoadResult load =
        runLoad(rng, &ilane, steps, {{blane, 1}}, 0, tracer, publisher);
    r.tally.merge(load.tally);

    const LatencySummary inter =
        summarizeSlices(load.done, 0, window_begin, window_end);
    const LatencySummary bulk =
        summarizeSlices(load.done, 1, window_begin, window_end);
    printSlices("interactive", load.done, 0, window_begin, window_end);
    printSlices("bulk", load.done, 1, window_begin, window_end);
    r.add("rows_per_s", bulk.rows_per_s, "rows/s");
    r.add("latency_p50_us", inter.p50_us, "us");
    r.add("latency_p90_us", inter.p90_us, "us");
    r.add("latency_p99_us", inter.p99_us, "us");
    r.add("latency_samples", static_cast<double>(inter.samples), "count");
    int64_t met = 0, total = 0;
    for (const Completion &c : load.done) {
        if (c.lane != 0 || c.start_ns < window_begin || c.start_ns >= window_end)
            continue;
        ++total;
        met += c.ok && (c.done_ns - c.start_ns) * 1e-3 <= kInteractiveSloUs;
    }
    r.add("deadline_met_ratio",
          total > 0 ? static_cast<double>(met) / total : 0.0, "ratio");
    r.add("top1_agreement",
          top1_total > 0 ? static_cast<double>(top1_same) / top1_total : 0.0,
          "ratio");
    r.add("publish_ms", median(swap_ms), "ms");
    r.add("registry.build_ms", median(build_ms), "ms");
    r.add("registry.publish_us", median(publish_us), "us");
    r.add("registry.swaps", static_cast<double>(swap_ms.size()), "count");

    const serve::FrontDoorStats stats = door.stats();
    const serve::LaneStats &li = stats.models.at("interactive");
    const serve::LaneStats &lb = stats.models.at("bulk");
    r.add("runtime.queue_mean_us", li.mean_queue_us, "us");
    r.add("runtime.queue_p50_us", li.p50_queue_us, "us");
    r.add("runtime.queue_p99_us", li.p99_queue_us, "us");
    r.add("runtime.service_mean_us", li.mean_service_us, "us");
    r.add("runtime.service_p50_us", li.p50_service_us, "us");
    r.add("runtime.service_p99_us", li.p99_service_us, "us");
    r.add("runtime.batch_fill_mean",
          stats.batches > 0 ? static_cast<double>(stats.total.rows) /
                                  static_cast<double>(stats.batches)
                            : 0.0,
          "rows");
    r.add("runtime.batches", static_cast<double>(stats.batches), "count");
    r.add("frontdoor.bulk.service_p50_us", lb.p50_service_us, "us");
    r.add("frontdoor.shed", static_cast<double>(stats.total.shed()), "count");
    std::printf("multitenant-swap: interactive %s (tuned %s, agreement "
                "%.3f), bulk %.1f MB int8 resident; %zu hot-swaps\n",
                s.interactive.describe().c_str(), s.assignment.c_str(),
                s.tuned_agreement, s.bulk.residentBytes() / 1048576.0,
                swap_ms.size());

    if (o.trace) {
        traceLayers(r, tracer, s.interactive, s.interactive_plan, ipool.rows,
                    4, 1, li.p50_service_us, "interactive");
        printSweep(sweepModel(s.bulk, int8TablePlan(),
                              firstRows(bpool.rows, 64), "bulk",
                              kSweepBudgetS, tracer));
    }
    finish(o, r, tracer, load.late_us, load.end_ns - load.begin_ns);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "resnet18-bulk", "resnet18-online", "bert-encoder",
        "multitenant-swap"};
    return names;
}

bool
runWorkload(const Options &o, Report &report)
{
    Tracer tracer(o.trace);
    if (o.workload == "resnet18-bulk")
        runResnet18Bulk(o, report, tracer);
    else if (o.workload == "resnet18-online")
        runResnet18Online(o, report, tracer);
    else if (o.workload == "bert-encoder")
        runBert(o, report, tracer);
    else if (o.workload == "multitenant-swap")
        runMultitenant(o, report, tracer);
    else
        return false;
    return true;
}

} // namespace lutdla::e2e
