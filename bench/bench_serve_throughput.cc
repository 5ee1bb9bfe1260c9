/**
 * @file
 * Serving throughput sweep: threads x max_batch x kernel backend on the
 * resnet18 registry workload (trace-synthesized frozen LUT model),
 * against single-thread single-row baselines.
 *
 * Baselines reported:
 *   - "reference": single-row serving the way the repo did it before the
 *     serving engine existed — per-row ProductQuantizer::encode +
 *     LookupTable::lookupGemm per layer. The batched engine must beat it
 *     by >= 3x rows/s.
 *   - "arena 1-row": the row-blocked arena kernel driven one row at a
 *     time, isolating how much of the win comes from batching vs from the
 *     kernel itself.
 *
 * The sweep runs every engine configuration under FOUR data-plane plans:
 *   - float32: the bit-exact reference backend (the PR-3 stage-graph
 *     baseline this PR is measured against);
 *   - int8: the quantized backend — planar codes + INT8 table bank —
 *     which must beat the float32 plan on rows/s for this (MLP-class,
 *     memory-bound) arena config. The win is table traffic: the resnet18
 *     float bank streams ~91 MB per row-block sweep, the INT8 bank ~23;
 *   - int4: the nibble-packed bit-plane bank (two output columns per
 *     byte), halving the INT8 stream again;
 *   - int4+int8enc: the int4 gather plan with encode_precision = Int8 —
 *     the VNNI/AVX2 integer argmin-encode replaces the float32 encode
 *     prologue. With int4 gather already memory-lean, encode was ~49% of
 *     the hot path, so this plan is the headline rows/s config. Its
 *     top-1 agreement envelope is measured on the TRAINED mlp-mixture
 *     model (int8-encode vs float-encode, same float tables): on the
 *     random-codebook resnet18 trace any mid-chain argmin flip is
 *     chaotically amplified (same effect the auto-tune paragraph below
 *     describes), so end-to-end agreement there is noise, not signal.
 * Every config row also records the plan's RESIDENT arena bytes (gather
 * stream + CPU-gated mirror layouts), so byte savings are first-class in
 * the cross-PR trajectory.
 *
 * A separate "mixture" section runs the mixed-precision auto-tuner
 * (serve/autotune.h) on the TRAINED mlp-mixture model — the same model
 * serving_demo converts — and serves the tuned plan next to the all-int8
 * plan of the same model. The tuner needs real decision margins to have
 * room to move: on the random-codebook trace model any mid-chain
 * quantization error is chaotically amplified by downstream re-encoding
 * (PQ argmin flips), so end-to-end top-1 agreement collapses and the
 * tuner honestly refuses every move but the final stage. On the trained
 * model the descent assigns int8/int4 per stage within the 90% top-1
 * agreement budget and must beat all-int8 on rows/s or resident bytes
 * (the acceptance gate). The same section now runs the tuner TWICE —
 * the joint (table, encode) search vs table-only (allow_int8_encode =
 * false) — and serves both plans, so the joint assignment's rows/s win
 * at equal-or-better byte cost is a recorded, gated number.
 *
 * A second section tracks CNN serving: a frozen LeNet-style conv chain
 * lowered onto the serving stage graph and driven with flattened 12x12
 * image rows, so the im2col + arena conv path has a rows/s number from
 * day one.
 *
 * A "mlp-untiled" A/B section re-runs the single-thread resnet18 configs
 * with the row-tiled executor disabled (PlanOptions::tile_rows = -1, the
 * full-batch phase-barrier executor), so the streaming win is measured
 * directly instead of inferred across PR artifacts.
 *
 * Run: ./build/bench/bench_serve_throughput [--json out.json] [--rows N]
 *   --json <path>         write machine-readable results (configs, rows/s,
 *                         p50/p99, arena bytes, phase split) for the
 *                         cross-PR perf trajectory (BENCH_serve_throughput
 *                         .json)
 *   --rows N              rows per configuration (default 192; the
 *                         LUTDLA_SERVE_ROWS env var is the fallback)
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include <thread>

#include "api/pipeline.h"
#include "bench_common.h"
#include "lutboost/converter.h"
#include "nn/attention.h"
#include "nn/sequential.h"
#include "serve/autotune.h"
#include "serve/frozen_model.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "vq/lut.h"

using namespace lutdla;

namespace {

using Clock = std::chrono::steady_clock;

Tensor
randomRows(int64_t rows, int64_t width, uint64_t seed)
{
    Rng rng(seed);
    Tensor x(Shape{rows, width});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
    return x;
}

/**
 * The pre-engine serving stack: one ProductQuantizer + LookupTable per
 * traced layer, built from serve::synthesizeTraceLayer — the SAME
 * codebooks/weights FrozenModel::fromTrace uses — and driven row by row
 * through the vq:: reference kernels.
 */
struct ReferenceStack
{
    std::vector<vq::ProductQuantizer> pqs;
    std::vector<vq::LookupTable> luts;

    ReferenceStack(const std::vector<sim::GemmShape> &gemms,
                   const vq::PQConfig &pq, uint64_t seed)
    {
        int64_t index = 0;
        for (const sim::GemmShape &gemm : gemms) {
            serve::TraceLayer layer =
                serve::synthesizeTraceLayer(gemm, pq, seed, index++);
            luts.emplace_back(layer.quantizer, layer.weights);
            pqs.push_back(std::move(layer.quantizer));
        }
    }

    Tensor
    forwardRow(const Tensor &row) const
    {
        Tensor cur = row;
        for (size_t layer = 0; layer < luts.size(); ++layer) {
            const int64_t want = pqs[layer].featureDim();
            if (cur.dim(1) != want) {
                Tensor adapted(Shape{1, want});
                for (int64_t j = 0; j < want; ++j)
                    adapted.at(0, j) = cur.at(0, j % cur.dim(1));
                cur = adapted;
            }
            cur = luts[layer].lookupGemm(pqs[layer].encode(cur), 1);
        }
        return cur;
    }
};

/** Rows/s of a row-at-a-time loop over `forward`. */
template <typename Fn>
double
singleRowRate(const Tensor &rows, const Fn &forward)
{
    const int64_t n = rows.dim(0), width = rows.dim(1);
    Tensor row(Shape{1, width});
    const auto start = Clock::now();
    for (int64_t r = 0; r < n; ++r) {
        std::copy(rows.data() + r * width, rows.data() + (r + 1) * width,
                  row.data());
        const Tensor y = forward(row);
        if (y.dim(0) != 1)
            fatal("single-row forward produced wrong shape");
    }
    return static_cast<double>(n) /
           std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Serve `rows` through one engine configuration, `group` rows per
 * request (1 = single-row requests; attention models must submit whole
 * seq_len-row sequences, so their sections pass group = seq_len).
 */
serve::EngineStats
runConfig(const serve::FrozenModel &model, const Tensor &rows, int threads,
          int64_t max_batch, int64_t group = 1)
{
    serve::EngineOptions options;
    options.threads = threads;
    options.max_batch = max_batch;
    options.max_wait_us = 200;
    options.queue_capacity =
        static_cast<int64_t>(rows.dim(0)) + 1;  // room for every request
    auto engine = serve::InferenceEngine::create(model, options);
    if (!engine.ok())
        fatal("engine creation failed: ", engine.status().toString());

    const int64_t n = rows.dim(0), width = rows.dim(1);
    std::vector<std::future<api::Result<Tensor>>> futures;
    futures.reserve(static_cast<size_t>(n / group));
    for (int64_t r = 0; r + group <= n; r += group) {
        Tensor chunk(Shape{group, width});
        std::copy(rows.data() + r * width,
                  rows.data() + (r + group) * width, chunk.data());
        futures.push_back(engine.value()->submitAsync(std::move(chunk)));
    }
    for (auto &future : futures) {
        auto result = future.get();
        if (!result.ok())
            fatal("request failed: ", result.status().toString());
    }
    engine.value()->shutdown();
    return engine.value()->stats();
}

/** Fraction of rows where both models put their output argmax on the
 * same column (the same top-1 metric the auto-tuner probes with). */
double
topOneAgreement(const serve::FrozenModel &a, const serve::FrozenModel &b,
                const Tensor &rows)
{
    const Tensor ya = a.forwardBatch(rows);
    const Tensor yb = b.forwardBatch(rows);
    const int64_t n = ya.dim(0), width = ya.dim(1);
    int64_t same = 0;
    for (int64_t r = 0; r < n; ++r) {
        int64_t ia = 0, ib = 0;
        for (int64_t j = 1; j < width; ++j) {
            if (ya.at(r, j) > ya.at(r, ia))
                ia = j;
            if (yb.at(r, j) > yb.at(r, ib))
                ib = j;
        }
        same += ia == ib ? 1 : 0;
    }
    return n > 0 ? static_cast<double>(same) / static_cast<double>(n)
                 : 0.0;
}

/** One measured configuration for the JSON artifact. */
struct JsonRecord
{
    std::string section;
    std::string backend;
    int threads;
    int64_t max_batch;
    double rows_per_sec;
    double p50_us;
    double p99_us;
    double p50_queue_us;    ///< submit -> batch execution start
    double p99_queue_us;
    double p50_service_us;  ///< batch execution start -> done
    double p99_service_us;
    double avg_fill;
    int64_t arena_bytes;
    int64_t resident_bytes;
    double encode_s;  ///< per-active-worker average (LaneStats)
    double gather_s;  ///< per-active-worker average (LaneStats)
    int active_workers;
};

/** Rows/s of the matching threads=1 config, or 0 when absent. */
double
singleThreadRate(const std::vector<JsonRecord> &records,
                 const JsonRecord &config)
{
    for (const JsonRecord &r : records) {
        if (r.section == config.section && r.backend == config.backend &&
            r.max_batch == config.max_batch && r.threads == 1)
            return r.rows_per_sec;
    }
    return 0.0;
}

/** Headline numbers for the JSON "best" section. The float32/int8/int4
 * slots come from the resnet18 trace sweep; the auto_* slots come from
 * the trained-mixture section, where auto_int8 is the all-int8 plan of
 * the SAME model (the comparison the acceptance gate uses). */
struct BestStats
{
    double float32 = 0.0, int8 = 0.0, int4 = 0.0;
    double auto_plan = 0.0, auto_int8 = 0.0;
    double auto_agreement = 0.0;
    std::string auto_assignment;
    int64_t float_resident = 0, int8_resident = 0, int4_resident = 0,
            auto_resident = 0, auto_int8_resident = 0;
    /** Quantized encode plane: best rows/s of the int4-table plan with
     * encode_precision = Int8 and its resident bytes (gather banks + the
     * INT8 encode bank). The agreement slot is the int8-encode vs
     * float-encode top-1 agreement (same float tables) on the TRAINED
     * mlp-mixture model — the only harness where the number means
     * anything (see the file comment on trace-model chaos). */
    double int8enc = 0.0;
    double int8enc_agreement = 0.0;
    int64_t int8enc_resident = 0;
    /** Joint vs table-only auto-tune on the trained mixture model:
     * auto_* above IS the joint result (the facade default); these slots
     * hold the allow_int8_encode = false re-run it must beat. */
    double tableonly_plan = 0.0;
    double tableonly_agreement = 0.0;
    std::string joint_encode_assignment;
    /** Tiled-executor A/B: best single-thread int4 rows/s with tiling
     * disabled, and the tiled/untiled ratio at threads=1. */
    double int4_untiled = 0.0;
    double tiled_speedup_int4 = 0.0;
};

void
writeJson(const char *path, const vq::PQConfig &pq, int64_t rows,
          double reference_rate, double arena_rate,
          const std::vector<JsonRecord> &records, const BestStats &best)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f)
        fatal("cannot open ", path, " for writing");
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"serve_throughput\",\n");
    std::fprintf(f, "  \"workload\": \"resnet18\",\n");
    std::fprintf(f, "  \"isa\": \"%s\",\n",
                 util::simdLevelName(util::simdLevel()));
    std::fprintf(f, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f,
                 "  \"pq\": {\"v\": %lld, \"c\": %lld},\n",
                 static_cast<long long>(pq.v), static_cast<long long>(pq.c));
    std::fprintf(f, "  \"rows_per_config\": %lld,\n",
                 static_cast<long long>(rows));
    std::fprintf(f,
                 "  \"baselines\": {\"reference_1row_rows_per_sec\": %.1f, "
                 "\"arena_1row_rows_per_sec\": %.1f},\n",
                 reference_rate, arena_rate);
    std::fprintf(f, "  \"configs\": [\n");
    for (size_t i = 0; i < records.size(); ++i) {
        const JsonRecord &r = records[i];
        std::fprintf(
            f,
            "    {\"section\": \"%s\", \"backend\": \"%s\", "
            "\"threads\": %d, \"max_batch\": %lld, "
            "\"rows_per_sec\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
            "\"p50_queue_us\": %.1f, \"p99_queue_us\": %.1f, "
            "\"p50_service_us\": %.1f, \"p99_service_us\": %.1f, "
            "\"avg_fill\": %.2f, \"arena_bytes\": %lld, "
            "\"resident_bytes\": %lld, "
            "\"encode_s\": %.6f, \"gather_s\": %.6f, "
            "\"active_workers\": %d}%s\n",
            r.section.c_str(), r.backend.c_str(), r.threads,
            static_cast<long long>(r.max_batch), r.rows_per_sec, r.p50_us,
            r.p99_us, r.p50_queue_us, r.p99_queue_us, r.p50_service_us,
            r.p99_service_us, r.avg_fill,
            static_cast<long long>(r.arena_bytes),
            static_cast<long long>(r.resident_bytes), r.encode_s,
            r.gather_s, r.active_workers,
            i + 1 < records.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    // Thread-scaling section: every multi-thread config's speedup over
    // its own threads=1 twin (same backend + max_batch), so the perf
    // guard and the cross-PR trajectory can see scaling directly.
    std::fprintf(f, "  \"thread_scaling\": [\n");
    bool first_scaling = true;
    for (const JsonRecord &r : records) {
        if (r.threads == 1)
            continue;
        const double base = singleThreadRate(records, r);
        if (base <= 0.0)
            continue;
        std::fprintf(f,
                     "%s    {\"section\": \"%s\", \"backend\": \"%s\", "
                     "\"max_batch\": %lld, \"threads\": %d, "
                     "\"speedup_vs_1\": %.3f}",
                     first_scaling ? "" : ",\n", r.section.c_str(),
                     r.backend.c_str(),
                     static_cast<long long>(r.max_batch), r.threads,
                     r.rows_per_sec / base);
        first_scaling = false;
    }
    std::fprintf(f, "\n  ],\n");
    // auto_vs_int8 compares within the mixture section: the tuned plan
    // against the all-int8 plan of the same trained model.
    std::fprintf(
        f,
        "  \"best\": {\"float32_rows_per_sec\": %.1f, "
        "\"int8_rows_per_sec\": %.1f, "
        "\"int4_rows_per_sec\": %.1f, "
        "\"int8enc_rows_per_sec\": %.1f, "
        "\"auto_rows_per_sec\": %.1f, "
        "\"auto_int8_rows_per_sec\": %.1f, "
        "\"tableonly_rows_per_sec\": %.1f, "
        "\"int8_vs_float32\": %.3f, "
        "\"int4_vs_int8\": %.3f, "
        "\"int8enc_vs_int4\": %.3f, "
        "\"auto_vs_int8\": %.3f, "
        "\"joint_vs_tableonly\": %.3f, "
        "\"int8enc_agreement\": %.4f, "
        "\"auto_agreement\": %.4f, "
        "\"tableonly_agreement\": %.4f, "
        "\"auto_assignment\": \"%s\", "
        "\"auto_encode_assignment\": \"%s\", "
        "\"auto_workload\": \"mlp-mixture\", "
        "\"int4_untiled_rows_per_sec\": %.1f, "
        "\"tiled_speedup_int4\": %.3f, "
        "\"float32_resident_bytes\": %lld, "
        "\"int8_resident_bytes\": %lld, "
        "\"int4_resident_bytes\": %lld, "
        "\"int8enc_resident_bytes\": %lld, "
        "\"auto_resident_bytes\": %lld, "
        "\"auto_int8_resident_bytes\": %lld}\n",
        best.float32, best.int8, best.int4, best.int8enc, best.auto_plan,
        best.auto_int8, best.tableonly_plan,
        best.float32 > 0 ? best.int8 / best.float32 : 0.0,
        best.int8 > 0 ? best.int4 / best.int8 : 0.0,
        best.int4 > 0 ? best.int8enc / best.int4 : 0.0,
        best.auto_int8 > 0 ? best.auto_plan / best.auto_int8 : 0.0,
        best.tableonly_plan > 0 ? best.auto_plan / best.tableonly_plan
                                : 0.0,
        best.int8enc_agreement, best.auto_agreement,
        best.tableonly_agreement, best.auto_assignment.c_str(),
        best.joint_encode_assignment.c_str(),
        best.int4_untiled, best.tiled_speedup_int4,
        static_cast<long long>(best.float_resident),
        static_cast<long long>(best.int8_resident),
        static_cast<long long>(best.int4_resident),
        static_cast<long long>(best.int8enc_resident),
        static_cast<long long>(best.auto_resident),
        static_cast<long long>(best.auto_int8_resident));
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote JSON results to %s\n", path);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *json_path = nullptr;
    const char *rows_env = std::getenv("LUTDLA_SERVE_ROWS");
    int64_t arg_rows = rows_env ? std::atoll(rows_env) : 192;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc)
            arg_rows = std::atoll(argv[++i]);
    }
    if (arg_rows <= 0)
        fatal("--rows must be positive");
    const int64_t kRows = arg_rows;
    constexpr uint64_t kSeed = 91;  // FrozenModel::fromTrace default

    vq::PQConfig pq;
    pq.v = 8;
    pq.c = 16;

    auto spec = api::findWorkload("resnet18");
    if (!spec.ok())
        fatal(spec.status().toString());
    const std::vector<sim::GemmShape> gemms = spec->network().gemms;

    std::printf("Building resnet18 trace stacks (v=%lld, c=%lld) ...\n",
                static_cast<long long>(pq.v), static_cast<long long>(pq.c));
    const ReferenceStack reference(gemms, pq, kSeed);
    auto model = serve::FrozenModel::fromTrace(gemms, pq, {}, kSeed);
    if (!model.ok())
        fatal(model.status().toString());
    serve::PlanOptions int8_plan;
    int8_plan.table_precision = serve::TablePrecision::Int8;
    auto int8_model =
        serve::FrozenModel::fromTrace(gemms, pq, {}, kSeed, int8_plan);
    if (!int8_model.ok())
        fatal(int8_model.status().toString());
    serve::PlanOptions int4_plan;
    int4_plan.table_precision = serve::TablePrecision::Int4;
    const serve::FrozenModel int4_model = model->withPlan(int4_plan);
    // The headline plan: int4 gather + INT8 integer argmin-encode. Same
    // tables as int4_model, so their top-1 agreement isolates the encode
    // quantization alone.
    serve::PlanOptions int8enc_plan = int4_plan;
    int8enc_plan.encode_precision = serve::EncodePrecision::Int8;
    const serve::FrozenModel int8enc_model = model->withPlan(int8enc_plan);
    std::printf("%lld LUT stages, %.1f MB float arenas / %.1f MB int8 "
                "bank / %.1f MB int4 bank, %lld rows per config\n\n",
                static_cast<long long>(model->numLutStages()),
                static_cast<double>(model->tableBytes()) / (1024 * 1024),
                static_cast<double>(int8_model->tableBytes()) /
                    (1024 * 1024),
                static_cast<double>(int4_model.tableBytes()) /
                    (1024 * 1024),
                static_cast<long long>(kRows));

    const Tensor rows = randomRows(kRows, model->inputWidth(), 17);
    const int64_t kBaselineRows = std::min<int64_t>(kRows, 64);
    Tensor baseline_rows(Shape{kBaselineRows, rows.dim(1)});
    std::copy(rows.data(), rows.data() + kBaselineRows * rows.dim(1),
              baseline_rows.data());

    const double reference_rate = singleRowRate(
        baseline_rows,
        [&](const Tensor &row) { return reference.forwardRow(row); });
    const double arena_rate = singleRowRate(
        baseline_rows,
        [&](const Tensor &row) { return model->forwardBatch(row); });

    Table t("serving throughput on the resnet18 trace (reference 1-row: " +
                Table::fmt(reference_rate, 1) + " rows/s, arena 1-row: " +
                Table::fmt(arena_rate, 1) + " rows/s)",
            {"threads", "max_batch", "backend", "rows/s", "vs reference",
             "avg fill", "p50 us", "p99 us", "enc %"});

    struct PlanEntry
    {
        const char *backend;
        const serve::FrozenModel *model;
    };
    const PlanEntry plans[] = {{"float32", &*model},
                               {"int8", &*int8_model},
                               {"int4", &int4_model},
                               {"int4+int8enc", &int8enc_model}};

    std::vector<JsonRecord> records;
    double best_vs_reference = 0.0;
    BestStats best;
    best.float_resident = model->residentBytes();
    best.int8_resident = int8_model->residentBytes();
    best.int4_resident = int4_model.residentBytes();
    best.int8enc_resident = int8enc_model.residentBytes();
    for (int threads : {1, 2, 4}) {
        for (int64_t max_batch :
             {int64_t{1}, int64_t{16}, int64_t{64}, int64_t{256}}) {
            for (const PlanEntry &plan : plans) {
                const serve::FrozenModel &m = *plan.model;
                const serve::EngineStats stats =
                    runConfig(m, rows, threads, max_batch);
                const double rate = stats.rowsPerSec();
                double &slot = std::strcmp(plan.backend, "int8") == 0
                                   ? best.int8
                               : std::strcmp(plan.backend, "int4") == 0
                                   ? best.int4
                               : std::strcmp(plan.backend,
                                             "int4+int8enc") == 0
                                   ? best.int8enc
                                   : best.float32;
                slot = std::max(slot, rate);
                best_vs_reference =
                    std::max(best_vs_reference, rate / reference_rate);
                t.addRow({std::to_string(threads),
                          std::to_string(max_batch), plan.backend,
                          Table::fmt(rate, 1),
                          Table::fmtRatio(rate / reference_rate, 2),
                          Table::fmt(stats.avgBatchFill(), 1),
                          Table::fmt(stats.p50_latency_us, 0),
                          Table::fmt(stats.p99_latency_us, 0),
                          Table::fmt(stats.encodeFraction() * 100.0, 0)});
                records.push_back(
                    {"mlp", plan.backend, threads, max_batch, rate,
                     stats.p50_latency_us, stats.p99_latency_us,
                     stats.p50_queue_us, stats.p99_queue_us,
                     stats.p50_service_us, stats.p99_service_us,
                     stats.avgBatchFill(), m.tableBytes(),
                     m.residentBytes(), stats.encode_seconds,
                     stats.gather_seconds, stats.active_workers});
            }
        }
    }
    t.addNote("reference = pre-engine serving (per-row vq encode + "
              "lookupGemm); float32 = bit-exact plan (PR-3 baseline); "
              "int8 = planar codes + INT8 tables; int4 = nibble-packed "
              "bit-plane bank; int4+int8enc = int4 tables + INT8 "
              "VNNI/AVX2 argmin-encode");
    t.addNote("batching amortizes table-bank loads across the block; the "
              "int8 bank streams ~1/4 of the float bank's bytes");
    t.print();

    // Thread-scaling digest: each multi-thread config vs its threads=1
    // twin. On a single-core host these hover around 1.0x no matter how
    // well intra-batch sharding works — the JSON records the hardware
    // thread count so consumers can tell "can't scale" from "didn't".
    Table st("thread scaling (rows/s speedup vs threads=1; host has " +
                 std::to_string(std::thread::hardware_concurrency()) +
                 " hardware threads)",
             {"backend", "max_batch", "threads=2", "threads=4"});
    for (const char *backend :
         {"float32", "int8", "int4", "int4+int8enc"}) {
        for (int64_t max_batch :
             {int64_t{1}, int64_t{16}, int64_t{64}, int64_t{256}}) {
            double base = 0.0, t2 = 0.0, t4 = 0.0;
            for (const JsonRecord &r : records) {
                if (r.section != "mlp" || r.backend != backend ||
                    r.max_batch != max_batch)
                    continue;
                (r.threads == 1 ? base : r.threads == 2 ? t2 : t4) =
                    r.rows_per_sec;
            }
            if (base <= 0.0)
                continue;
            st.addRow({backend, std::to_string(max_batch),
                       Table::fmtRatio(t2 / base, 2),
                       Table::fmtRatio(t4 / base, 2)});
        }
    }
    st.print();

    // ---- Tiled vs untiled executor A/B ---------------------------------
    // The same resnet18 plans with the row-tiled segment executor
    // disabled (tile_rows = -1: full-batch phase barriers between
    // stages), single-thread so the comparison isolates cache residency
    // rather than work-stealing. The streamed executor must win on int4
    // — the narrowest table stream leaves activation-plane traffic as
    // the dominant cost, which is exactly what tiling removes.
    serve::PlanOptions untiled_float;
    untiled_float.tile_rows = -1;
    serve::PlanOptions untiled_int8 = int8_plan;
    untiled_int8.tile_rows = -1;
    serve::PlanOptions untiled_int4 = int4_plan;
    untiled_int4.tile_rows = -1;
    const serve::FrozenModel untiled_models[] = {
        model->withPlan(untiled_float), model->withPlan(untiled_int8),
        model->withPlan(untiled_int4)};
    Table at("tiled vs untiled executor (threads=1; tiled = streaming "
             "segment executor, untiled = full-batch phase barriers)",
             {"backend", "max_batch", "untiled rows/s", "tiled rows/s",
              "speedup"});
    // Enough rows that the max_batch=256 configs actually form 256-row
    // batches (several tiles each) instead of one sub-tile remainder.
    const int64_t ab_row_count = std::max<int64_t>(kRows, 1024);
    const Tensor ab_rows =
        randomRows(ab_row_count, model->inputWidth(), 19);
    double best_untiled_int4 = 0.0, best_tiled1_int4 = 0.0;
    for (size_t p = 0; p < 3; ++p) {
        const char *backend = plans[p].backend;
        for (int64_t max_batch : {int64_t{64}, int64_t{256}}) {
            // Both sides run FRESH and interleaved, best of 3, so the
            // ratio compares executors rather than where in the process
            // lifetime each side happened to run.
            double untiled_rate = 0.0, tiled_rate = 0.0;
            serve::EngineStats stats{};
            for (int rep = 0; rep < 3; ++rep) {
                const serve::EngineStats u =
                    runConfig(untiled_models[p], ab_rows, 1, max_batch);
                if (u.rowsPerSec() > untiled_rate) {
                    untiled_rate = u.rowsPerSec();
                    stats = u;
                }
                tiled_rate =
                    std::max(tiled_rate,
                             runConfig(*plans[p].model, ab_rows, 1,
                                       max_batch)
                                 .rowsPerSec());
            }
            at.addRow({backend, std::to_string(max_batch),
                       Table::fmt(untiled_rate, 1),
                       Table::fmt(tiled_rate, 1),
                       Table::fmtRatio(untiled_rate > 0
                                           ? tiled_rate / untiled_rate
                                           : 0.0,
                                       2)});
            if (std::strcmp(backend, "int4") == 0) {
                best_untiled_int4 =
                    std::max(best_untiled_int4, untiled_rate);
                best_tiled1_int4 = std::max(best_tiled1_int4, tiled_rate);
            }
            records.push_back(
                {"mlp-untiled", backend, 1, max_batch, untiled_rate,
                 stats.p50_latency_us, stats.p99_latency_us,
                 stats.p50_queue_us, stats.p99_queue_us,
                 stats.p50_service_us, stats.p99_service_us,
                 stats.avgBatchFill(), untiled_models[p].tableBytes(),
                 untiled_models[p].residentBytes(), stats.encode_seconds,
                 stats.gather_seconds, stats.active_workers});
        }
    }
    best.int4_untiled = best_untiled_int4;
    best.tiled_speedup_int4 = best_untiled_int4 > 0
                                  ? best_tiled1_int4 / best_untiled_int4
                                  : 0.0;
    at.addNote("tile plan (int4): " +
               [&] {
                   const serve::TileExecPlan &tp = int4_model.tilePlan();
                   if (tp.segments.empty())
                       return std::string("off");
                   return std::to_string(tp.segments.size()) +
                          " segment(s), tile " +
                          std::to_string(tp.segments[0].tile_rows) +
                          " rows (granule " +
                          std::to_string(tp.segments[0].granule) + ")";
               }());
    at.print();
    std::printf("\ntiled executor speedup (int4, threads=1): %.2fx\n",
                best.tiled_speedup_int4);

    std::printf("\nbest speedup vs single-thread single-row serving: "
                "%.2fx (target >= 3x)\n",
                best_vs_reference);
    std::printf("best rows/s: float32 %.1f, int8 %.1f, int4 %.1f "
                "(int8/float32 = %.2fx, target > 1x on this MLP arena "
                "config)\n",
                best.float32, best.int8, best.int4,
                best.float32 > 0 ? best.int8 / best.float32 : 0.0);
    std::printf("int8 encode plane: int4+int8enc %.1f rows/s "
                "(%.2fx vs float-encode int4, target > 1x)\n",
                best.int8enc,
                best.int4 > 0 ? best.int8enc / best.int4 : 0.0);
    std::printf("resident arena bytes: float32 %.1f MB, int8 %.1f MB, "
                "int4 %.1f MB, int4+int8enc %.1f MB (adds the INT8 "
                "encode bank)\n",
                static_cast<double>(best.float_resident) / (1024 * 1024),
                static_cast<double>(best.int8_resident) / (1024 * 1024),
                static_cast<double>(best.int4_resident) / (1024 * 1024),
                static_cast<double>(best.int8enc_resident) /
                    (1024 * 1024));

    // ---- Mixed-precision auto-tune: the trained mlp-mixture model ------
    // The tuner's acceptance story needs a model with real decision
    // margins (see the file comment): convert the trained mlp-mixture
    // workload exactly like serving_demo does, run the greedy descent,
    // and serve the tuned plan next to the all-int8 plan of the SAME
    // model. The tuned plan must beat all-int8 on rows/s or resident
    // bytes while holding >= 90% top-1 agreement against float32.
    lutboost::ConvertOptions mix_opts;
    mix_opts.pq.v = 4;
    mix_opts.pq.c = 16;
    auto mix_builder = api::Pipeline::forWorkload("mlp-mixture")
                           .pretrain()
                           .convert(mix_opts)
                           .deployPrecision(vq::LutPrecision{true, false});
    auto mix_run = mix_builder.report();
    if (!mix_run.ok())
        fatal("mixture pipeline failed: ", mix_run.status().toString());
    nn::LayerPtr mix = mix_builder.convertedModel();
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(mix))
        if (!layer->inferenceLutReady())
            layer->refreshInferenceLut();
    auto mix_model = serve::FrozenModel::fromModel(mix);
    if (!mix_model.ok())
        fatal("mixture lowering failed: ", mix_model.status().toString());

    // Joint (table, encode) descent — the facade default — next to a
    // table-only re-run (allow_int8_encode = false). The joint plan must
    // beat table-only on rows/s at equal-or-better agreement: encode
    // moves cost zero gather bytes and shrink the dominant encode phase.
    const serve::AutoTuneResult tuned =
        serve::autoTunePrecision(*mix_model, {}, {});
    serve::AutoTuneOptions tbl_opts;
    tbl_opts.allow_int8_encode = false;
    const serve::AutoTuneResult tuned_tbl =
        serve::autoTunePrecision(*mix_model, {}, tbl_opts);
    serve::PlanOptions mix_auto_plan;
    mix_auto_plan.stage_precision = tuned.stage_precision;
    mix_auto_plan.stage_encode_precision = tuned.stage_encode_precision;
    const serve::FrozenModel mix_auto = mix_model->withPlan(mix_auto_plan);
    serve::PlanOptions mix_tbl_plan;
    mix_tbl_plan.stage_precision = tuned_tbl.stage_precision;
    const serve::FrozenModel mix_tbl = mix_model->withPlan(mix_tbl_plan);
    const serve::FrozenModel mix_int8 = mix_model->withPlan(int8_plan);
    // The encode-envelope number: int8 encode vs float encode with the
    // SAME float tables, on the trained model where argmin flips are
    // decided by real margins instead of random-codebook chaos.
    serve::PlanOptions mix_enc_plan;
    mix_enc_plan.encode_precision = serve::EncodePrecision::Int8;
    const serve::FrozenModel mix_enc = mix_model->withPlan(mix_enc_plan);
    best.auto_agreement = tuned.agreement;
    best.auto_assignment = tuned.assignmentString();
    best.joint_encode_assignment = tuned.encodeAssignmentString();
    best.tableonly_agreement = tuned_tbl.agreement;
    best.auto_resident = mix_auto.residentBytes();
    best.auto_int8_resident = mix_int8.residentBytes();
    std::printf("\nauto-tuned mlp-mixture plan: tables %s, encode %s "
                "(top-1 agreement %.3f vs float32, %lld probe "
                "forwards)\n",
                tuned.assignmentString().c_str(),
                tuned.encodeAssignmentString().c_str(), tuned.agreement,
                static_cast<long long>(tuned.evals));
    std::printf("table-only re-run: tables %s (agreement %.3f, %lld "
                "probe forwards)\n",
                tuned_tbl.assignmentString().c_str(), tuned_tbl.agreement,
                static_cast<long long>(tuned_tbl.evals));

    // The mixture model is tiny (two 16-wide stages), so a kRows run
    // finishes in microseconds and its rows/s would be CI-gated noise;
    // use a much larger row count to stretch each config past the
    // timer's jitter floor.
    const int64_t mix_row_count = std::max<int64_t>(kRows * 16, 3072);
    const Tensor mix_rows =
        randomRows(mix_row_count, mix_model->inputWidth(), 31);
    best.int8enc_agreement = topOneAgreement(*mix_model, mix_enc, mix_rows);
    std::printf("int8-encode top-1 agreement vs float encode (same "
                "float tables, trained model): %.4f over %lld rows\n",
                best.int8enc_agreement,
                static_cast<long long>(mix_row_count));
    Table mt("auto-tuned serving throughput (trained mlp-mixture)",
             {"threads", "max_batch", "backend", "rows/s", "p50 us",
              "p99 us"});
    const PlanEntry mix_plans[] = {{"float32", &*mix_model},
                                   {"int8", &mix_int8},
                                   {"auto", &mix_auto},
                                   {"auto-tbl", &mix_tbl}};
    for (int threads : {1, 2}) {
        for (int64_t max_batch : {int64_t{16}, int64_t{64}}) {
            for (const PlanEntry &plan : mix_plans) {
                const serve::FrozenModel &m = *plan.model;
                const serve::EngineStats stats =
                    runConfig(m, mix_rows, threads, max_batch);
                const double rate = stats.rowsPerSec();
                if (std::strcmp(plan.backend, "auto") == 0)
                    best.auto_plan = std::max(best.auto_plan, rate);
                else if (std::strcmp(plan.backend, "auto-tbl") == 0)
                    best.tableonly_plan =
                        std::max(best.tableonly_plan, rate);
                else if (std::strcmp(plan.backend, "int8") == 0)
                    best.auto_int8 = std::max(best.auto_int8, rate);
                mt.addRow({std::to_string(threads),
                           std::to_string(max_batch), plan.backend,
                           Table::fmt(rate, 1),
                           Table::fmt(stats.p50_latency_us, 0),
                           Table::fmt(stats.p99_latency_us, 0)});
                records.push_back(
                    {"mixture", plan.backend, threads, max_batch, rate,
                     stats.p50_latency_us, stats.p99_latency_us,
                     stats.p50_queue_us, stats.p99_queue_us,
                     stats.p50_service_us, stats.p99_service_us,
                     stats.avgBatchFill(), m.tableBytes(),
                     m.residentBytes(), stats.encode_seconds,
                     stats.gather_seconds, stats.active_workers});
            }
        }
    }
    mt.addNote("auto = joint (table, encode) tuner assignment (" +
               tuned.assignmentString() + " / enc " +
               tuned.encodeAssignmentString() + "); auto-tbl = "
               "table-only descent; int8 = all-int8 plan of the same "
               "trained model (the acceptance comparison)");
    mt.print();
    std::printf("\njoint vs table-only tuner: %.1f vs %.1f rows/s "
                "(%.2fx), agreement %.3f vs %.3f\n",
                best.auto_plan, best.tableonly_plan,
                best.tableonly_plan > 0
                    ? best.auto_plan / best.tableonly_plan
                    : 0.0,
                tuned.agreement, tuned_tbl.agreement);
    std::printf("\nmixture resident arena bytes: int8 %lld, auto %lld "
                "(auto/int8 = %.2fx)\n",
                static_cast<long long>(best.auto_int8_resident),
                static_cast<long long>(best.auto_resident),
                best.auto_int8_resident > 0
                    ? static_cast<double>(best.auto_resident) /
                          static_cast<double>(best.auto_int8_resident)
                    : 0.0);

    // ---- CNN serving: the stage-graph conv path ------------------------
    // Convert the lenet-shapes workload model (replace only; random
    // centroids are fine for throughput) and freeze it, then serve
    // flattened 12x12 image rows through the engine. This tracks the
    // im2col + arena conv path, not just flat GEMM stages.
    nn::LayerPtr cnn = nn::makeLeNetStyle(6);
    lutboost::ConvertOptions convert_opts;
    convert_opts.pq.v = 3;
    convert_opts.pq.c = 16;
    lutboost::replaceOperators(cnn, convert_opts);
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(cnn))
        layer->refreshInferenceLut();
    auto cnn_model =
        serve::FrozenModel::fromModel(cnn, serve::ServeInputShape{12, 12});
    if (!cnn_model.ok())
        fatal("CNN lowering failed: ", cnn_model.status().toString());
    std::printf("\nCNN trace (lenet-shapes, 12x12 rows): %s, %.1f KB of "
                "tables\n",
                cnn_model->describe().c_str(),
                static_cast<double>(cnn_model->tableBytes()) / 1024.0);

    const Tensor cnn_rows = randomRows(kRows, cnn_model->inputWidth(), 23);
    Table ct("CNN serving throughput (lenet-shapes stage graph)",
             {"threads", "max_batch", "rows/s", "avg fill", "p50 us",
              "p99 us"});
    double cnn_best = 0.0;
    for (int threads : {1, 2}) {
        for (int64_t max_batch : {int64_t{16}, int64_t{64}}) {
            const serve::EngineStats stats =
                runConfig(*cnn_model, cnn_rows, threads, max_batch);
            const double rate = stats.rowsPerSec();
            cnn_best = std::max(cnn_best, rate);
            ct.addRow({std::to_string(threads), std::to_string(max_batch),
                       Table::fmt(rate, 1),
                       Table::fmt(stats.avgBatchFill(), 1),
                       Table::fmt(stats.p50_latency_us, 0),
                       Table::fmt(stats.p99_latency_us, 0)});
            records.push_back({"cnn", "float32", threads, max_batch, rate,
                               stats.p50_latency_us, stats.p99_latency_us,
                               stats.p50_queue_us, stats.p99_queue_us,
                               stats.p50_service_us, stats.p99_service_us,
                               stats.avgBatchFill(),
                               cnn_model->tableBytes(),
                               cnn_model->residentBytes(),
                               stats.encode_seconds,
                               stats.gather_seconds,
                               stats.active_workers});
        }
    }
    ct.addNote("each row is a flattened [1, 12, 12] image; conv stages "
               "run batched im2col into per-worker scratch");
    ct.print();
    std::printf("\nCNN serving best: %.1f rows/s\n", cnn_best);

    // ---- Transformer serving: the skip-edge stage graph ----------------
    // A BERT-style pre-LN encoder block (embedding LutLinear + attention
    // with LUT-converted Q/K/V/output projections + LUT FFN), served as
    // whole [B*seq_len, d_model] sequences under both table precisions.
    // This tracks the attention projections + sdpa + residual skip-edge
    // path end to end.
    const int64_t kSeqLen = 64, kHeads = 4, kDModel = 64, kDff = 128;
    lutboost::ConvertOptions tf_opts;
    tf_opts.pq.v = 4;
    tf_opts.pq.c = 16;
    tf_opts.min_in_features = 0;
    auto tf = std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
        std::make_shared<lutboost::LutLinear>(kDModel, kDModel, tf_opts.pq,
                                              /*bias=*/true, 131),
        std::make_shared<nn::TransformerBlock>(kSeqLen, kDModel, kHeads,
                                               kDff, 132)});
    lutboost::replaceOperators(tf, tf_opts);
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(tf))
        layer->refreshInferenceLut();
    auto tf_model = serve::FrozenModel::fromModel(tf);
    if (!tf_model.ok())
        fatal("transformer lowering failed: ",
              tf_model.status().toString());
    auto tf_int8 = serve::FrozenModel::fromModel(tf, {}, int8_plan);
    if (!tf_int8.ok())
        fatal("transformer int8 plan failed: ",
              tf_int8.status().toString());
    std::printf("\ntransformer block (h%lld, t%lld, d%lld): %s\n",
                static_cast<long long>(kHeads),
                static_cast<long long>(kSeqLen),
                static_cast<long long>(kDModel),
                tf_model->describe().c_str());

    // Whole sequences only: round the row budget down to full sequences.
    const int64_t tf_sequences = std::max<int64_t>(1, kRows / kSeqLen);
    const Tensor tf_rows =
        randomRows(tf_sequences * kSeqLen, tf_model->inputWidth(), 29);
    Table tt("transformer serving throughput (one request = one " +
                 std::to_string(kSeqLen) + "-row sequence)",
             {"threads", "max_batch", "backend", "rows/s", "avg fill",
              "p50 us", "p99 us", "enc %"});
    double tf_best_float = 0.0, tf_best_int8 = 0.0;
    for (int threads : {1, 2}) {
        for (int64_t max_batch : {kSeqLen, kSeqLen * 4}) {
            for (const bool int8 : {false, true}) {
                const serve::FrozenModel &m = int8 ? *tf_int8 : *tf_model;
                const serve::EngineStats stats = runConfig(
                    m, tf_rows, threads, max_batch, kSeqLen);
                const double rate = stats.rowsPerSec();
                (int8 ? tf_best_int8 : tf_best_float) =
                    std::max(int8 ? tf_best_int8 : tf_best_float, rate);
                tt.addRow({std::to_string(threads),
                           std::to_string(max_batch),
                           int8 ? "int8" : "float32", Table::fmt(rate, 1),
                           Table::fmt(stats.avgBatchFill(), 1),
                           Table::fmt(stats.p50_latency_us, 0),
                           Table::fmt(stats.p99_latency_us, 0),
                           Table::fmt(stats.encodeFraction() * 100.0, 0)});
                records.push_back(
                    {"transformer", int8 ? "int8" : "float32", threads,
                     max_batch, rate, stats.p50_latency_us,
                     stats.p99_latency_us, stats.p50_queue_us,
                     stats.p99_queue_us, stats.p50_service_us,
                     stats.p99_service_us, stats.avgBatchFill(),
                     m.tableBytes(), m.residentBytes(),
                     stats.encode_seconds, stats.gather_seconds,
                     stats.active_workers});
            }
        }
    }
    tt.addNote("four projection LUT-GEMMs + shared-softmax sdpa per "
               "sequence; skip edges ride per-worker scratch slots");
    tt.print();
    std::printf("\ntransformer serving best: float32 %.1f rows/s, int8 "
                "%.1f rows/s\n",
                tf_best_float, tf_best_int8);

    if (json_path)
        writeJson(json_path, pq, kRows, reference_rate, arena_rate,
                  records, best);

    // Acceptance: the engine beats pre-engine serving >= 3x, INT8 beats
    // float32 on rows/s, the auto-tuned plan justifies itself by beating
    // the all-INT8 plan of the same trained model on rows/s or resident
    // bytes while meeting the 90% top-1 agreement budget, the INT8
    // encode plane beats the float-encode int4 plan on rows/s, and the
    // joint (table, encode) descent beats the table-only descent on
    // rows/s or total streamed bytes without giving up its agreement.
    const bool auto_ok =
        tuned.agreement >= 0.90 &&
        (best.auto_plan > best.auto_int8 ||
         best.auto_resident < best.auto_int8_resident);
    const bool int8enc_ok =
        best.int8enc > best.int4 && best.int8enc_agreement >= 0.90;
    const int64_t joint_bytes =
        mix_auto.tableBytes() + mix_auto.encodeBytes();
    const int64_t tbl_bytes = mix_tbl.tableBytes() + mix_tbl.encodeBytes();
    const bool joint_ok =
        tuned.agreement >= 0.90 &&
        (best.auto_plan > best.tableonly_plan || joint_bytes < tbl_bytes);
    const bool pass = best_vs_reference >= 3.0 &&
                      best.int8 > best.float32 && auto_ok &&
                      int8enc_ok && joint_ok;
    if (!pass)
        std::printf("\nFAIL: acceptance targets not met "
                    "(engine>=3x %d, int8>float32 %d, auto %d, "
                    "int8enc>int4 %d, joint %d)\n",
                    best_vs_reference >= 3.0, best.int8 > best.float32,
                    auto_ok, int8enc_ok, joint_ok);
    return pass ? 0 : 1;
}
