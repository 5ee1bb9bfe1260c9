/**
 * @file
 * Serving demo: convert a model with LUTBoost, freeze it, and serve it
 * through the batched multi-threaded inference engine (src/serve/).
 *
 * Flow (all through the api:: facade):
 *   1. Pipeline: pretrain + LUTBoost-convert the mlp-mixture workload and
 *      freeze BF16 deployment LUTs.
 *   2. Pipeline::engine(): stand up an InferenceEngine on the converted
 *      model and serve a burst of requests; verify the engine's answers
 *      are bit-exact with direct eval-mode model forwards.
 *   3. Pipeline::engineForWorkload(): load-test serving of a registry
 *      GEMM trace (lenet) without any trained model.
 *   4. CNN serving: freeze a LeNet-style conv chain and serve flattened
 *      image rows through the stage graph (conv+relu -> maxpool ->
 *      flatten -> lut-gemm), verifying bit-exactness against eval-mode
 *      forward().
 *   5. Plan inspection: print the planned stage chain AFTER the fusion
 *      pass — which stages folded into arena epilogues, each LUT stage's
 *      stored code width, and the table precision — for both the default
 *      bit-exact plan and the quantized INT8 plan.
 *   6. Auto-tuned mixed precision: re-serve the trained mixture model
 *      through makeEngine with ServeOptions::autoTunePrecision(0.90) —
 *      the greedy tuner (serve/autotune.h) assigns per-stage table
 *      precision (float32 / int8 / int4) under the top-1 agreement
 *      budget and the winning assignment is readable from the plan.
 *   7. Transformer serving: lower a BERT-style pre-LN encoder block
 *      (attention + FFN projections LUT-converted) onto the skip-edge
 *      stage graph and serve one whole 64-row sequence, verifying
 *      bit-exactness against eval-mode forward().
 *   8. Multi-tenant front door: publish two models with different SLOs
 *      into one serve::FrontDoor, demo typed overload shedding and
 *      priority eviction on a tiny queue, hot-swap one model to a new
 *      version with zero drain, and read per-tenant stats.
 *
 * Default output is deterministic (safe to diff across runs); pass any
 * argument (e.g. `--stats`) to also print live latency numbers.
 *
 * Build & run:  ./build/examples/serving_demo
 */

#include <cstdio>
#include <future>
#include <vector>

#include "api/lutdla.h"
#include "lutboost/converter.h"
#include "lutboost/lut_linear.h"
#include "nn/attention.h"
#include "nn/models.h"
#include "nn/sequential.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "util/table.h"

using namespace lutdla;

namespace {

Tensor
randomRows(int64_t rows, int64_t width, uint64_t seed)
{
    Rng rng(seed);
    Tensor x(Shape{rows, width});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
    return x;
}

} // namespace

int
main(int argc, char **)
{
    const bool live_stats = argc > 1;

    // 0. The kernel dispatch probes cpuid once; every serving plan below
    //    records this level next to its per-stage kernel choices.
    std::printf("runtime ISA level: %s (cpuid kernel dispatch; cap with "
                "LUTDLA_SIMD=generic|avx2|avx512)\n",
                util::simdLevelName(util::simdLevel()));

    // 1. Convert + freeze via the pipeline facade.
    lutboost::ConvertOptions opts;
    opts.pq.v = 4;
    opts.pq.c = 16;
    auto builder = api::Pipeline::forWorkload("mlp-mixture")
                       .pretrain()
                       .convert(opts)
                       .deployPrecision(vq::LutPrecision{true, false});
    auto run = builder.report();
    if (!run.ok()) {
        std::fprintf(stderr, "pipeline failed: %s\n",
                     run.status().toString().c_str());
        return 1;
    }
    std::printf("converted mlp-mixture: float %.3f -> deployed %.3f "
                "accuracy\n",
                run->conversion.baseline_accuracy, run->deployed_accuracy);

    // 2. Serve the converted model. autostart=false + one worker makes the
    //    batch composition deterministic: requests queue up first, then the
    //    worker drains them in full batches.
    serve::EngineOptions engine_opts;
    engine_opts.threads = 1;
    engine_opts.max_batch = 8;
    engine_opts.max_wait_us = 2000;
    engine_opts.queue_capacity = 64;
    engine_opts.autostart = false;
    auto engine = api::Pipeline::engine(builder.convertedModel(),
                                        engine_opts);
    if (!engine.ok()) {
        std::fprintf(stderr, "engine failed: %s\n",
                     engine.status().toString().c_str());
        return 1;
    }

    const int64_t kRequests = 24;
    const Tensor rows = randomRows(kRequests, 16, 7);
    std::vector<std::future<api::Result<Tensor>>> futures;
    for (int64_t r = 0; r < kRequests; ++r) {
        Tensor row(Shape{1, 16});
        std::copy(rows.data() + r * 16, rows.data() + (r + 1) * 16,
                  row.data());
        futures.push_back(engine.value()->submitAsync(std::move(row)));
    }
    engine.value()->start();

    // Reference: the same rows through the model's eval forward.
    const Tensor reference =
        builder.convertedModel()->forward(rows, /*train=*/false);
    float max_diff = 0.0f;
    for (int64_t r = 0; r < kRequests; ++r) {
        auto result = futures[static_cast<size_t>(r)].get();
        if (!result.ok()) {
            std::fprintf(stderr, "request %lld failed: %s\n",
                         static_cast<long long>(r),
                         result.status().toString().c_str());
            return 1;
        }
        for (int64_t n = 0; n < result->dim(1); ++n)
            max_diff = std::max(
                max_diff,
                std::abs(result->at(0, n) - reference.at(r, n)));
    }
    engine.value()->shutdown();
    const serve::EngineStats stats = engine.value()->stats();

    Table t("engine vs direct eval forward (mlp-mixture, frozen BF16)",
            {"requests", "rows", "batches", "avg fill", "max |diff|"});
    t.addRow({std::to_string(stats.served), std::to_string(stats.rows),
              std::to_string(stats.batches),
              Table::fmt(stats.avgBatchFill(), 1),
              Table::fmt(max_diff, 6)});
    t.addNote("max |diff| must be 0: forwardBatch is bit-exact with "
              "eval-mode forward()");
    t.print();
    if (max_diff != 0.0f) {
        std::fprintf(stderr, "BUG: engine diverged from eval forward\n");
        return 1;
    }
    if (live_stats)
        std::printf("\n%s\n", stats.summary().c_str());

    // 3. Trace serving: load-test a registry workload, no trained model.
    vq::PQConfig trace_pq;
    trace_pq.v = 8;
    trace_pq.c = 16;
    serve::EngineOptions trace_opts;
    trace_opts.threads = 2;
    trace_opts.max_batch = 32;
    auto trace_engine =
        api::Pipeline::engineForWorkload("lenet", trace_pq, trace_opts);
    if (!trace_engine.ok()) {
        std::fprintf(stderr, "trace engine failed: %s\n",
                     trace_engine.status().toString().c_str());
        return 1;
    }
    const int64_t width = trace_engine.value()->model().inputWidth();
    auto batch = trace_engine.value()->submit(randomRows(16, width, 21));
    if (!batch.ok()) {
        std::fprintf(stderr, "trace request failed: %s\n",
                     batch.status().toString().c_str());
        return 1;
    }
    std::printf("\nlenet trace engine: served [%lld, %lld] -> [%lld, "
                "%lld] across %lld LUT stages (%.1f KB tables)\n",
                static_cast<long long>(16), static_cast<long long>(width),
                static_cast<long long>(batch->dim(0)),
                static_cast<long long>(batch->dim(1)),
                static_cast<long long>(
                    trace_engine.value()->model().numLutStages()),
                static_cast<double>(
                    trace_engine.value()->model().tableBytes()) /
                    1024.0);

    // 4. CNN serving: lower a frozen conv chain onto the stage graph and
    //    serve flattened NCHW rows. Operator replace + freeze is enough
    //    for a deterministic bit-exactness demo (no training needed).
    nn::LayerPtr cnn = nn::makeLeNetStyle(6);
    lutboost::ConvertOptions cnn_opts;
    cnn_opts.pq.v = 3;
    cnn_opts.pq.c = 8;
    lutboost::replaceOperators(cnn, cnn_opts);
    // No manual freeze needed: makeEngine freezes any layer that is not
    // yet inferenceLutReady() on the caller's behalf.

    serve::EngineOptions cnn_engine_opts;
    cnn_engine_opts.threads = 1;
    cnn_engine_opts.max_batch = 16;
    auto cnn_engine = api::Pipeline::engine(cnn, cnn_engine_opts,
                                            serve::ServeInputShape{12, 12});
    if (!cnn_engine.ok()) {
        std::fprintf(stderr, "CNN engine failed: %s\n",
                     cnn_engine.status().toString().c_str());
        return 1;
    }
    const int64_t cnn_width = cnn_engine.value()->model().inputWidth();
    const Tensor image_rows = randomRows(8, cnn_width, 5);
    auto cnn_result = cnn_engine.value()->submit(image_rows);
    if (!cnn_result.ok()) {
        std::fprintf(stderr, "CNN request failed: %s\n",
                     cnn_result.status().toString().c_str());
        return 1;
    }
    const Tensor cnn_reference = cnn->forward(
        image_rows.reshaped(Shape{8, 1, 12, 12}), /*train=*/false);
    std::printf("\nCNN stage graph: %s\n",
                cnn_engine.value()->model().describe().c_str());
    std::printf("served 8 flattened 12x12 images -> [%lld, %lld], "
                "max |diff| vs eval forward = %g (must be 0)\n",
                static_cast<long long>(cnn_result->dim(0)),
                static_cast<long long>(cnn_result->dim(1)),
                static_cast<double>(
                    Tensor::maxAbsDiff(*cnn_result, cnn_reference)));
    if (!cnn_result->equals(cnn_reference)) {
        std::fprintf(stderr, "BUG: CNN engine diverged from eval forward\n");
        return 1;
    }

    // 5. Plan inspection: the planning pass records every fusion and
    //    precision decision; planSummary() makes the lowered data plane
    //    inspectable by hand.
    std::printf("\nplanned CNN stage chain (default bit-exact plan):\n%s",
                cnn_engine.value()->model().planSummary().c_str());

    api::ServeOptions int8_options;
    int8_options.engine.threads = 1;
    int8_options.engine.max_batch = 16;
    int8_options.plan.table_precision = serve::TablePrecision::Int8;
    int8_options.input_shape = serve::ServeInputShape{12, 12};
    auto int8_engine = api::Pipeline::engine(cnn, int8_options);
    if (!int8_engine.ok()) {
        std::fprintf(stderr, "INT8 engine failed: %s\n",
                     int8_engine.status().toString().c_str());
        return 1;
    }
    std::printf("\nplanned CNN stage chain (quantized INT8 plan):\n%s",
                int8_engine.value()->model().planSummary().c_str());
    auto int8_result = int8_engine.value()->submit(image_rows);
    if (!int8_result.ok()) {
        std::fprintf(stderr, "INT8 request failed: %s\n",
                     int8_result.status().toString().c_str());
        return 1;
    }
    // The INT8 plan is approximate; report its worst divergence from the
    // bit-exact plan (deterministic, so safe to diff across runs).
    std::printf("INT8 plan served [%lld, %lld], max |diff| vs bit-exact "
                "plan = %.4f (small but nonzero by design)\n",
                static_cast<long long>(int8_result->dim(0)),
                static_cast<long long>(int8_result->dim(1)),
                static_cast<double>(
                    Tensor::maxAbsDiff(*int8_result, *cnn_result)));

    // 6. Auto-tuned mixed precision: the same trained mixture model from
    //    step 1, re-served with a 90% top-1 agreement budget. The tuner
    //    probes the frozen model stage by stage and keeps the
    //    byte-saving int8/int4 assignments that hold the budget; the
    //    result is recorded in the plan, so planSummary() names each
    //    stage's precision.
    api::ServeOptions auto_options;
    auto_options.engine.threads = 1;
    auto_options.engine.max_batch = 32;  // step 2 submits all 24 rows at once
    auto_options.autoTunePrecision(0.90);
    auto auto_engine =
        api::Pipeline::engine(builder.convertedModel(), auto_options);
    if (!auto_engine.ok()) {
        std::fprintf(stderr, "auto-tuned engine failed: %s\n",
                     auto_engine.status().toString().c_str());
        return 1;
    }
    const serve::FrozenModel &auto_model = auto_engine.value()->model();
    std::printf("\nauto-tuned mixture plan (90%% top-1 agreement "
                "budget):\n%s",
                auto_model.planSummary().c_str());
    auto auto_result = auto_engine.value()->submit(rows);
    if (!auto_result.ok()) {
        std::fprintf(stderr, "auto-tuned request failed: %s\n",
                     auto_result.status().toString().c_str());
        return 1;
    }
    // Quantized plans are approximate by design; report top-1 agreement
    // against the bit-exact eval forward from step 2 (deterministic).
    int64_t auto_agree = 0;
    for (int64_t r = 0; r < auto_result->dim(0); ++r) {
        int64_t got = 0, want = 0;
        for (int64_t n = 1; n < auto_result->dim(1); ++n) {
            if (auto_result->at(r, n) > auto_result->at(r, got))
                got = n;
            if (reference.at(r, n) > reference.at(r, want))
                want = n;
        }
        auto_agree += got == want;
    }
    std::printf("auto-tuned plan served [%lld, %lld], top-1 agreement "
                "vs bit-exact forward = %lld/%lld\n",
                static_cast<long long>(auto_result->dim(0)),
                static_cast<long long>(auto_result->dim(1)),
                static_cast<long long>(auto_agree),
                static_cast<long long>(auto_result->dim(0)));

    // 7. Transformer serving: a BERT-style pre-LN encoder block on the
    //    skip-edge stage graph. The attention Q/K/V/output projections
    //    and both FFN linears are LUT operators; softmax and layernorm
    //    run exact, mirroring the paper's hardware split. Attention
    //    models admit whole sequences only, so the request is one
    //    [64, d_model] sequence.
    const int64_t kSeqLen = 64, kHeads = 4, kTfDModel = 32, kTfDff = 64;
    lutboost::ConvertOptions tf_opts;
    tf_opts.pq.v = 4;
    tf_opts.pq.c = 8;
    tf_opts.min_in_features = 0;
    auto tf = std::make_shared<nn::Sequential>(std::vector<nn::LayerPtr>{
        std::make_shared<lutboost::LutLinear>(kTfDModel, kTfDModel,
                                              tf_opts.pq, /*bias=*/true,
                                              61),
        std::make_shared<nn::TransformerBlock>(kSeqLen, kTfDModel, kHeads,
                                               kTfDff, 62)});
    lutboost::replaceOperators(tf, tf_opts);

    serve::EngineOptions tf_engine_opts;
    tf_engine_opts.threads = 2;
    tf_engine_opts.max_batch = kSeqLen;
    auto tf_engine = api::Pipeline::engine(tf, tf_engine_opts);
    if (!tf_engine.ok()) {
        std::fprintf(stderr, "transformer engine failed: %s\n",
                     tf_engine.status().toString().c_str());
        return 1;
    }
    std::printf("\ntransformer stage graph (h%lld, t%lld): %s\n",
                static_cast<long long>(kHeads),
                static_cast<long long>(kSeqLen),
                tf_engine.value()->model().describe().c_str());
    const Tensor seq_rows = randomRows(kSeqLen, kTfDModel, 63);
    auto tf_result = tf_engine.value()->submit(seq_rows);
    if (!tf_result.ok()) {
        std::fprintf(stderr, "transformer request failed: %s\n",
                     tf_result.status().toString().c_str());
        return 1;
    }
    const Tensor tf_reference = tf->forward(seq_rows, /*train=*/false);
    std::printf("served one %lld-row sequence (row group %lld) -> [%lld, "
                "%lld], max |diff| vs eval forward = %g (must be 0)\n",
                static_cast<long long>(kSeqLen),
                static_cast<long long>(
                    tf_engine.value()->model().rowGroup()),
                static_cast<long long>(tf_result->dim(0)),
                static_cast<long long>(tf_result->dim(1)),
                static_cast<double>(
                    Tensor::maxAbsDiff(*tf_result, tf_reference)));
    if (!tf_result->equals(tf_reference)) {
        std::fprintf(stderr,
                     "BUG: transformer engine diverged from eval forward\n");
        return 1;
    }
    tf_engine.value()->shutdown();

    // 8. Multi-tenant front door: two models with different SLOs on one
    //    shared pool. autostart=false makes the scheduling deterministic:
    //    requests queue first, then start() drains them priority-first.
    serve::FrontDoorOptions door_opts;
    door_opts.threads = 1;
    door_opts.queue_capacity = 4;  // tiny on purpose: shows shedding
    door_opts.autostart = false;
    auto door = api::makeFrontDoor(door_opts);
    if (!door.ok()) {
        std::fprintf(stderr, "front door failed: %s\n",
                     door.status().toString().c_str());
        return 1;
    }

    std::vector<sim::GemmShape> fd_gemms{{8, 32, 24, "fc1"},
                                         {8, 24, 8, "fc2"}};
    vq::PQConfig fd_pq;
    fd_pq.v = 8;
    fd_pq.c = 16;
    api::ServeOptions urgent_opts;
    urgent_opts.slo.priority = 10;
    urgent_opts.slo.default_deadline_us = 60'000'000;
    api::ServeOptions bulk_opts;
    bulk_opts.slo.priority = 0;
    if (auto v = api::publishTraceModel(door.value(), "urgent", fd_gemms,
                                        fd_pq, urgent_opts, {}, 41);
        !v.ok()) {
        std::fprintf(stderr, "publish urgent failed: %s\n",
                     v.status().toString().c_str());
        return 1;
    }
    if (auto v = api::publishTraceModel(door.value(), "bulk", fd_gemms,
                                        fd_pq, bulk_opts, {}, 42);
        !v.ok()) {
        std::fprintf(stderr, "publish bulk failed: %s\n",
                     v.status().toString().c_str());
        return 1;
    }

    // Fill the queue with bulk traffic through a tenant handle, then
    // watch priority eviction: the 5th bulk request finds the queue full
    // and is refused, while an urgent request evicts a queued bulk one.
    serve::Tenant batch_tenant = door.value()->tenant("batch");
    serve::Tenant web_tenant = door.value()->tenant("web");
    const Tensor fd_row = randomRows(1, 32, 51);
    std::vector<std::future<api::Result<Tensor>>> bulk_futures;
    for (int i = 0; i < 4; ++i)
        bulk_futures.push_back(batch_tenant.submitAsync("bulk", fd_row));
    auto refused = batch_tenant.submitAsync("bulk", fd_row).get();
    auto urgent_future = web_tenant.submitAsync("urgent", fd_row);
    door.value()->start();

    int fd_bulk_served = 0, fd_bulk_shed = 0;
    for (auto &future : bulk_futures) {
        auto result = future.get();
        if (result.ok())
            fd_bulk_served++;
        else if (result.status().code() ==
                 api::StatusCode::ResourceExhausted)
            fd_bulk_shed++;
    }
    auto urgent_result = urgent_future.get();
    if (!urgent_result.ok()) {
        std::fprintf(stderr, "urgent request failed: %s\n",
                     urgent_result.status().toString().c_str());
        return 1;
    }

    // Zero-drain hot-swap: publish v2 of "urgent" (new seed, new tables)
    // and verify a fresh request serves the new version's output.
    const Tensor v1_out = *urgent_result;
    if (auto v = api::publishTraceModel(door.value(), "urgent", fd_gemms,
                                        fd_pq, urgent_opts, {}, 43);
        !v.ok() || *v != 2) {
        std::fprintf(stderr, "hot-swap publish failed\n");
        return 1;
    }
    auto v2_result = web_tenant.submit("urgent", fd_row);
    if (!v2_result.ok()) {
        std::fprintf(stderr, "post-swap request failed: %s\n",
                     v2_result.status().toString().c_str());
        return 1;
    }
    door.value()->shutdown();

    std::printf("\nfront door (queue_capacity 4, 1 worker):\n");
    std::printf("  bulk: 4 queued + 1 refused typed (ResourceExhausted), "
                "%d served, %d evicted by urgent traffic\n",
                fd_bulk_served, fd_bulk_shed);
    std::printf("  refused status: %s\n",
                api::statusCodeName(refused.status().code()));
    std::printf("  urgent: admitted under overload (priority 10 evicts "
                "priority 0) and served\n");
    std::printf("  hot-swap: urgent v1 -> v2 mid-run, outputs %s (new "
                "tables), zero requests dropped\n",
                v2_result->equals(v1_out) ? "identical (BUG)"
                                          : "changed");
    for (const serve::SnapshotPtr &snapshot :
         door.value()->registry().list())
        std::printf("  registry: %s@v%llu priority %d\n",
                    snapshot->name.c_str(),
                    static_cast<unsigned long long>(snapshot->version),
                    snapshot->slo.priority);
    const serve::FrontDoorStats door_stats = door.value()->stats();
    std::printf("  tenants: web served %llu, batch served %llu of "
                "accepted %llu (rest shed typed under overload)\n",
                static_cast<unsigned long long>(
                    door_stats.tenants.at("web").served),
                static_cast<unsigned long long>(
                    door_stats.tenants.at("batch").served),
                static_cast<unsigned long long>(
                    door_stats.tenants.at("batch").accepted));
    if (live_stats)
        std::printf("\n%s\n", door_stats.summary().c_str());
    return 0;
}
