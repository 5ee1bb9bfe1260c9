/**
 * @file
 * Multi-tenant front-door bench: two models with different SLOs on ONE
 * shared worker pool, driven through three phases that exercise the
 * scheduler contracts the front door promises (serve/frontdoor.h):
 *
 *   1. steady    — mixed interactive + bulk traffic well inside capacity:
 *                  everything serves, and the per-model latency/queue/
 *                  service split lands in the JSON.
 *   2. overload  — a bulk flood several times the queue capacity with
 *                  interactive traffic interleaved: low-priority bulk is
 *                  shed with typed ResourceExhausted while EVERY
 *                  interactive request is admitted (priority eviction)
 *                  and its p99 stays within the published SLO.
 *   3. hotswap   — continuous interactive traffic with a publish() of a
 *                  new model version mid-stream: zero failed or dropped
 *                  accepted requests, every response bit-exact against
 *                  the version the request was pinned to, and requests
 *                  submitted before the swap provably served by v1.
 *
 * Each phase runs on a FRESH front door so its stats() snapshot is the
 * phase's own (percentiles cannot be deltaed across phases).
 *
 * Run: ./build/bench/bench_serve_multitenant [--json out.json] [--smoke]
 *   --json <path>  machine-readable results (BENCH_serve_multitenant.json)
 *   --smoke        ~8x fewer requests (the overload flood stays at 8x
 *                  the queue capacity); used by the CI smoke step
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/frontdoor.h"
#include "serve/frozen_model.h"
#include "util/rng.h"

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

/** Interactive model: small trace, fast per-batch service. */
serve::FrozenModel
interactiveModel(uint64_t seed)
{
    std::vector<sim::GemmShape> gemms{{16, 64, 48, "fc1"},
                                      {16, 48, 16, "fc2"}};
    vq::PQConfig pq;
    pq.v = 8;
    pq.c = 16;
    auto model = serve::FrozenModel::fromTrace(gemms, pq, {}, seed);
    if (!model.ok())
        fatal("interactive model: ", model.status().toString());
    return model.take();
}

/** Bulk model: wider trace on the INT8 plan — heavier batches. */
serve::FrozenModel
bulkModel(uint64_t seed)
{
    std::vector<sim::GemmShape> gemms{{64, 256, 256, "l1"},
                                      {64, 256, 128, "l2"},
                                      {64, 128, 64, "l3"}};
    vq::PQConfig pq;
    pq.v = 8;
    pq.c = 16;
    serve::PlanOptions plan;
    plan.table_precision = serve::TablePrecision::Int8;
    auto model = serve::FrozenModel::fromTrace(gemms, pq, {}, seed, plan);
    if (!model.ok())
        fatal("bulk model: ", model.status().toString());
    return model.take();
}

constexpr int64_t kInteractiveDeadlineUs = 250'000;  // the published SLO

/** Build a fresh two-tenant front door for one phase. */
std::shared_ptr<serve::FrontDoor>
makeDoor(const serve::FrozenModel &interactive,
         const serve::FrozenModel &bulk, int64_t queue_capacity)
{
    serve::FrontDoorOptions options;
    options.threads = 2;
    options.queue_capacity = queue_capacity;
    auto door = serve::FrontDoor::create(options);
    if (!door.ok())
        fatal("front door: ", door.status().toString());

    serve::ModelSlo islo;
    islo.priority = 10;
    islo.max_batch = 32;
    islo.batch_window_us = 100;
    islo.default_deadline_us = kInteractiveDeadlineUs;
    if (auto v = door.value()->publish("interactive", interactive, islo);
        !v.ok())
        fatal("publish interactive: ", v.status().toString());

    serve::ModelSlo bslo;
    bslo.priority = 0;
    bslo.max_batch = 64;
    bslo.batch_window_us = 200;
    bslo.default_deadline_us = 0;  // bulk is throughput-only
    if (auto v = door.value()->publish("bulk", bulk, bslo); !v.ok())
        fatal("publish bulk: ", v.status().toString());
    return door.take();
}

void
printLane(Table &t, const std::string &name, const serve::LaneStats &lane)
{
    t.addRow({name, std::to_string(lane.accepted),
              std::to_string(lane.served), std::to_string(lane.shed()),
              Table::fmt(lane.p50_latency_us, 0),
              Table::fmt(lane.p99_latency_us, 0),
              Table::fmt(lane.p99_queue_us, 0),
              Table::fmt(lane.p99_service_us, 0),
              Table::fmt(lane.avgBatchFill(), 1),
              bench::pct(lane.sloAttainment())});
}

void
jsonLane(std::FILE *f, const char *name, const serve::LaneStats &lane,
         bool last)
{
    std::fprintf(
        f,
        "    \"%s\": {\"accepted\": %llu, \"served\": %llu, "
        "\"rejected\": %llu, \"shed_capacity\": %llu, "
        "\"shed_deadline\": %llu, \"cancelled\": %llu, "
        "\"p50_latency_us\": %.1f, \"p99_latency_us\": %.1f, "
        "\"p50_queue_us\": %.1f, \"p99_queue_us\": %.1f, "
        "\"p50_service_us\": %.1f, \"p99_service_us\": %.1f, "
        "\"slo_attainment\": %.4f}%s\n",
        name, static_cast<unsigned long long>(lane.accepted),
        static_cast<unsigned long long>(lane.served),
        static_cast<unsigned long long>(lane.rejected),
        static_cast<unsigned long long>(lane.shed_capacity),
        static_cast<unsigned long long>(lane.shed_deadline),
        static_cast<unsigned long long>(lane.cancelled),
        lane.p50_latency_us, lane.p99_latency_us, lane.p50_queue_us,
        lane.p99_queue_us, lane.p50_service_us, lane.p99_service_us,
        lane.sloAttainment(), last ? "" : ",");
}

} // namespace

int
main(int argc, char **argv)
{
    const char *json_path = nullptr;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }
    const int scale = smoke ? 8 : 1;

    std::printf("Building tenant models ...\n");
    const serve::FrozenModel interactive = interactiveModel(7);
    const serve::FrozenModel interactive_v2 = interactiveModel(8);
    const serve::FrozenModel bulk = bulkModel(9);
    std::printf("interactive: %s (%.1f KB tables)\n",
                interactive.describe().c_str(),
                static_cast<double>(interactive.tableBytes()) / 1024.0);
    std::printf("bulk:        %s (%.1f KB int8 bank)\n\n",
                bulk.describe().c_str(),
                static_cast<double>(bulk.tableBytes()) / 1024.0);

    const Tensor irow = randomRows(1, interactive.inputWidth(), 31);
    const Tensor brow = randomRows(4, bulk.inputWidth(), 32);

    // ---- Phase 1: steady mixed traffic ---------------------------------
    const int kSteady = 512 / scale;
    auto door = makeDoor(interactive, bulk, 1024);
    {
        std::vector<std::future<api::Result<Tensor>>> futures;
        for (int i = 0; i < kSteady; ++i) {
            futures.push_back(door->submitAsync(
                "interactive", irow, {{}, {}, "web"}));
            if (i % 2 == 0)
                futures.push_back(
                    door->submitAsync("bulk", brow, {{}, {}, "batch"}));
        }
        for (auto &future : futures)
            if (auto result = future.get(); !result.ok())
                fatal("steady-phase request failed: ",
                      result.status().toString());
        door->shutdown();
    }
    const serve::FrontDoorStats steady = door->stats();

    Table st("phase 1 — steady mixed traffic (2 models, one pool of 2 "
             "workers)",
             {"model", "accepted", "served", "shed", "p50 us", "p99 us",
              "q p99", "svc p99", "fill", "slo %"});
    printLane(st, "interactive", steady.models.at("interactive"));
    printLane(st, "bulk", steady.models.at("bulk"));
    st.addNote("q = queue wait (submit -> batch start), svc = batch "
               "service; the two partition end-to-end latency");
    st.print();

    const bool steady_pass =
        steady.models.at("interactive").served ==
            static_cast<uint64_t>(kSteady) &&
        steady.models.at("bulk").served ==
            static_cast<uint64_t>(kSteady / 2) &&
        steady.total.shed() == 0;

    // ---- Phase 2: overload — bulk flood, interactive protected --------
    // Queue capacity far below the flood size: admission must shed bulk
    // with typed ResourceExhausted while every interactive request gets
    // in (evicting bulk if needed) and lands inside its deadline SLO.
    // Interactive count stays below the queue capacity: the phase
    // measures bulk being shed FOR interactive, not interactive
    // self-flooding past its own admission limit.
    // The flood never shrinks below 8x the queue capacity: a smaller one
    // (e.g. 96 vs 64) is drained by the workers before the queue fills,
    // so nothing is shed and the phase measures nothing.
    constexpr int kOverloadCapacity = 64;
    const int kFlood = std::max(768 / scale, 8 * kOverloadCapacity);
    const int kOverloadInteractive = 48 / scale;
    auto overload_door = makeDoor(interactive, bulk, kOverloadCapacity);
    int bulk_ok = 0, bulk_shed = 0, bulk_other = 0;
    int interactive_ok = 0, interactive_failed = 0;
    {
        std::vector<std::future<api::Result<Tensor>>> bulk_futures;
        std::vector<std::future<api::Result<Tensor>>> interactive_futures;
        for (int i = 0; i < kFlood; ++i) {
            bulk_futures.push_back(overload_door->submitAsync(
                "bulk", brow, {{}, {}, "batch"}));
            if (i % (kFlood / kOverloadInteractive) == 0)
                interactive_futures.push_back(overload_door->submitAsync(
                    "interactive", irow, {{}, {}, "web"}));
        }
        for (auto &future : bulk_futures) {
            auto result = future.get();
            if (result.ok())
                bulk_ok++;
            else if (result.status().code() ==
                     api::StatusCode::ResourceExhausted)
                bulk_shed++;
            else
                bulk_other++;
        }
        for (auto &future : interactive_futures) {
            if (future.get().ok())
                interactive_ok++;
            else
                interactive_failed++;
        }
        overload_door->shutdown();
    }
    const serve::FrontDoorStats overload = overload_door->stats();
    const serve::LaneStats &oi = overload.models.at("interactive");
    const serve::LaneStats &ob = overload.models.at("bulk");

    Table ot("phase 2 — overload (bulk flood of " +
                 std::to_string(kFlood) + " vs queue capacity " +
                 std::to_string(kOverloadCapacity) + ")",
             {"model", "accepted", "served", "shed", "p50 us", "p99 us",
              "q p99", "svc p99", "fill", "slo %"});
    printLane(ot, "interactive", oi);
    printLane(ot, "bulk", ob);
    ot.addNote("bulk sheds with typed ResourceExhausted (never blocks); "
               "interactive evicts bulk when the queue is full");
    ot.print();

    const bool overload_pass =
        bulk_shed > 0 && bulk_other == 0 && interactive_failed == 0 &&
        oi.shed() == 0 && oi.p99_latency_us <= kInteractiveDeadlineUs &&
        oi.sloAttainment() == 1.0;
    std::printf("\noverload: %d/%d bulk shed (typed), interactive p99 "
                "%.0f us vs %lld us SLO, interactive shed %llu\n",
                bulk_shed, kFlood, oi.p99_latency_us,
                static_cast<long long>(kInteractiveDeadlineUs),
                static_cast<unsigned long long>(oi.shed()));

    // ---- Phase 3: mid-run hot-swap, zero drain -------------------------
    // Fixed input so every response is checkable bit-exactly against the
    // version the request was pinned to. Requests submitted before the
    // publish MUST serve v1 (their snapshot is pinned at submission);
    // requests after MUST serve v2.
    const int kSwapBefore = 256 / scale;
    const int kSwapAfter = 256 / scale;
    const Tensor ref_v1 = interactive.forwardBatch(irow);
    const Tensor ref_v2 = interactive_v2.forwardBatch(irow);
    if (ref_v1.equals(ref_v2))
        fatal("hot-swap versions are indistinguishable; bump a seed");

    auto swap_door = makeDoor(interactive, bulk, 1024);
    int swap_failures = 0, swap_mismatches = 0;
    int served_v1 = 0, served_v2 = 0;
    uint64_t swapped_version = 0;
    {
        std::vector<std::future<api::Result<Tensor>>> before, after;
        for (int i = 0; i < kSwapBefore; ++i)
            before.push_back(swap_door->submitAsync(
                "interactive", irow, {{}, {}, "web"}));
        serve::ModelSlo islo;
        islo.priority = 10;
        islo.max_batch = 32;
        islo.batch_window_us = 100;
        islo.default_deadline_us = kInteractiveDeadlineUs;
        auto v2 = swap_door->publish("interactive", interactive_v2, islo);
        if (!v2.ok())
            fatal("hot-swap publish: ", v2.status().toString());
        swapped_version = *v2;
        for (int i = 0; i < kSwapAfter; ++i)
            after.push_back(swap_door->submitAsync(
                "interactive", irow, {{}, {}, "web"}));

        for (auto &future : before) {
            auto result = future.get();
            if (!result.ok())
                swap_failures++;
            else if (result->equals(ref_v1))
                served_v1++;
            else
                swap_mismatches++;
        }
        for (auto &future : after) {
            auto result = future.get();
            if (!result.ok())
                swap_failures++;
            else if (result->equals(ref_v2))
                served_v2++;
            else
                swap_mismatches++;
        }
        swap_door->shutdown();
    }
    // Versions are checked request by request above (bit-equality with
    // ref_v1 / ref_v2); the door's last served version is not, since the
    // final batch to finish may legitimately be a pinned v1 batch.
    const bool swap_pass = swap_failures == 0 && swap_mismatches == 0 &&
                           served_v1 == kSwapBefore &&
                           served_v2 == kSwapAfter &&
                           swapped_version == 2;
    std::printf("\nhot-swap: %d pre-swap requests served by v1, %d "
                "post-swap by v2, %d failures, %d mismatches (zero "
                "drain)\n",
                served_v1, served_v2, swap_failures, swap_mismatches);

    if (json_path) {
        std::FILE *f = std::fopen(json_path, "w");
        if (!f)
            fatal("cannot open ", json_path, " for writing");
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"bench\": \"serve_multitenant\",\n");
        std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
        std::fprintf(f, "  \"hardware_threads\": %u,\n",
                     std::thread::hardware_concurrency());
        std::fprintf(f, "  \"pool_threads\": 2,\n");
        std::fprintf(
            f,
            "  \"models\": [\n"
            "    {\"name\": \"interactive\", \"priority\": 10, "
            "\"deadline_us\": %lld, \"max_batch\": 32, "
            "\"table_bytes\": %lld},\n"
            "    {\"name\": \"bulk\", \"priority\": 0, "
            "\"deadline_us\": 0, \"max_batch\": 64, "
            "\"table_bytes\": %lld}\n  ],\n",
            static_cast<long long>(kInteractiveDeadlineUs),
            static_cast<long long>(interactive.tableBytes()),
            static_cast<long long>(bulk.tableBytes()));
        std::fprintf(f, "  \"steady\": {\n");
        jsonLane(f, "interactive", steady.models.at("interactive"), false);
        jsonLane(f, "bulk", steady.models.at("bulk"), true);
        std::fprintf(f, "  },\n");
        std::fprintf(f, "  \"overload\": {\n");
        std::fprintf(f, "    \"flood_requests\": %d,\n", kFlood);
        std::fprintf(f, "    \"queue_capacity\": %d,\n",
                     kOverloadCapacity);
        jsonLane(f, "interactive", oi, false);
        jsonLane(f, "bulk", ob, true);
        std::fprintf(f, "  },\n");
        std::fprintf(
            f,
            "  \"hotswap\": {\"pre_swap_requests\": %d, "
            "\"post_swap_requests\": %d, \"served_v1\": %d, "
            "\"served_v2\": %d, \"failures\": %d, \"mismatches\": %d, "
            "\"final_version\": %llu},\n",
            kSwapBefore, kSwapAfter, served_v1, served_v2, swap_failures,
            swap_mismatches,
            static_cast<unsigned long long>(swapped_version));
        std::fprintf(
            f,
            "  \"pass\": {\"steady\": %s, \"overload\": %s, "
            "\"hotswap\": %s}\n}\n",
            steady_pass ? "true" : "false",
            overload_pass ? "true" : "false",
            swap_pass ? "true" : "false");
        std::fclose(f);
        std::printf("\nwrote JSON results to %s\n", json_path);
    }

    const bool pass = steady_pass && overload_pass && swap_pass;
    if (!pass)
        std::printf("\nFAIL: steady=%d overload=%d hotswap=%d\n",
                    steady_pass, overload_pass, swap_pass);
    return pass ? 0 : 1;
}
