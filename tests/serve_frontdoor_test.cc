// Tests for the multi-tenant serving front door: registry versioning,
// priority/EDF scheduling, typed load shedding, deadline and cancellation
// semantics, zero-drain hot-swap, and the api:: facade helpers.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "api/lutdla.h"
#include "serve/frontdoor.h"
#include "serve/frozen_model.h"
#include "serve/registry.h"
#include "util/rng.h"

namespace lutdla {
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

/** Small deterministic trace model; distinct seeds give distinct
 * weights with identical input/output widths — the hot-swap shape. */
serve::FrozenModel
traceModel(uint64_t seed, int64_t k = 24, int64_t n = 10)
{
    std::vector<sim::GemmShape> gemms{{8, k, 16, "a"}, {8, 16, n, "b"}};
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 8;
    auto model = serve::FrozenModel::fromTrace(gemms, pq, {}, seed);
    EXPECT_TRUE(model.ok()) << model.status().toString();
    return model.take();
}

// ---------------------------------------------------------------------------
// ModelRegistry.

TEST(ModelRegistry, PublishResolveBumpRemove)
{
    serve::ModelRegistry registry;
    EXPECT_EQ(registry.size(), 0u);
    EXPECT_EQ(registry.resolve("m"), nullptr);
    EXPECT_EQ(registry.currentVersion("m"), 0u);

    auto v1 = registry.publish("m", traceModel(1));
    ASSERT_TRUE(v1.ok()) << v1.status().toString();
    EXPECT_EQ(*v1, 1u);
    auto pinned = registry.resolve("m");
    ASSERT_NE(pinned, nullptr);
    EXPECT_EQ(pinned->version, 1u);
    EXPECT_EQ(pinned->name, "m");

    auto v2 = registry.publish("m", traceModel(2));
    ASSERT_TRUE(v2.ok());
    EXPECT_EQ(*v2, 2u);
    // The old pin still serves version 1 — snapshots are immutable.
    EXPECT_EQ(pinned->version, 1u);
    EXPECT_EQ(registry.resolve("m")->version, 2u);
    EXPECT_EQ(registry.currentVersion("m"), 2u);

    ASSERT_TRUE(registry.remove("m").ok());
    EXPECT_EQ(registry.resolve("m"), nullptr);
    EXPECT_EQ(registry.remove("m").code(), api::StatusCode::NotFound);
    // Version sequence survives remove + republish: v3, never a second v1.
    auto v3 = registry.publish("m", traceModel(3));
    ASSERT_TRUE(v3.ok());
    EXPECT_EQ(*v3, 3u);
}

TEST(ModelRegistry, ValidatesPublishes)
{
    serve::ModelRegistry registry;
    EXPECT_EQ(registry.publish("", traceModel(1)).status().code(),
              api::StatusCode::InvalidArgument);
    serve::ModelSlo bad;
    bad.max_batch = 0;
    EXPECT_EQ(registry.publish("m", traceModel(1), bad).status().code(),
              api::StatusCode::InvalidArgument);
    bad = {};
    bad.default_deadline_us = -1;
    EXPECT_EQ(registry.publish("m", traceModel(1), bad).status().code(),
              api::StatusCode::InvalidArgument);
    EXPECT_EQ(registry.publish("m", serve::FrozenModel{}).status().code(),
              api::StatusCode::FailedPrecondition);

    serve::ModelRegistry sorted;
    ASSERT_TRUE(sorted.publish("b", traceModel(1)).ok());
    ASSERT_TRUE(sorted.publish("a", traceModel(2)).ok());
    auto list = sorted.list();
    ASSERT_EQ(list.size(), 2u);
    EXPECT_EQ(list[0]->name, "a");
    EXPECT_EQ(list[1]->name, "b");
}

// ---------------------------------------------------------------------------
// FrontDoor basics: two models, one pool, bit-exact results.

TEST(FrontDoor, ServesTwoModelsBitExactOnOneSharedPool)
{
    serve::FrontDoorOptions options;
    options.threads = 2;
    auto door = serve::FrontDoor::create(options);
    ASSERT_TRUE(door.ok()) << door.status().toString();

    serve::FrozenModel alpha = traceModel(11, 24, 10);
    serve::FrozenModel beta = traceModel(12, 18, 6);
    ASSERT_TRUE(door.value()->publish("alpha", alpha).ok());
    ASSERT_TRUE(door.value()->publish("beta", beta).ok());

    const Tensor a_rows = randomRows(9, 24, 5);
    const Tensor b_rows = randomRows(7, 18, 6);
    std::vector<std::future<api::Result<Tensor>>> futures;
    for (int i = 0; i < 12; ++i) {
        futures.push_back(
            door.value()->submitAsync("alpha", a_rows,
                                      {{}, {}, "tenant-a"}));
        futures.push_back(
            door.value()->submitAsync("beta", b_rows,
                                      {{}, {}, "tenant-b"}));
    }
    const Tensor a_ref = alpha.forwardBatch(a_rows);
    const Tensor b_ref = beta.forwardBatch(b_rows);
    for (size_t i = 0; i < futures.size(); ++i) {
        auto result = futures[i].get();
        ASSERT_TRUE(result.ok()) << result.status().toString();
        const Tensor &ref = (i % 2 == 0) ? a_ref : b_ref;
        EXPECT_TRUE(result->equals(ref)) << "request " << i;
    }
    door.value()->shutdown();

    const serve::FrontDoorStats stats = door.value()->stats();
    EXPECT_EQ(stats.total.served, 24u);
    EXPECT_EQ(stats.total.shed(), 0u);
    EXPECT_EQ(stats.models.at("alpha").served, 12u);
    EXPECT_EQ(stats.models.at("beta").served, 12u);
    EXPECT_EQ(stats.models.at("alpha").rows, 12u * 9u);
    EXPECT_EQ(stats.tenants.at("tenant-a").served, 12u);
    EXPECT_EQ(stats.tenants.at("tenant-b").served, 12u);
    EXPECT_EQ(stats.last_version.at("alpha"), 1u);
    EXPECT_GT(stats.total.p50_service_us, 0.0);
}

TEST(FrontDoor, TypedErrorPaths)
{
    auto door = serve::FrontDoor::create({});
    ASSERT_TRUE(door.ok());
    ASSERT_TRUE(door.value()->publish("m", traceModel(1)).ok());

    // Unknown model.
    auto missing = door.value()->submit("ghost", randomRows(1, 24, 1));
    EXPECT_EQ(missing.status().code(), api::StatusCode::NotFound);
    // Wrong width.
    auto narrow = door.value()->submit("m", randomRows(1, 5, 1));
    EXPECT_EQ(narrow.status().code(), api::StatusCode::InvalidArgument);
    // Over the row cap.
    auto fat = door.value()->submit("m", randomRows(200, 24, 1));
    EXPECT_EQ(fat.status().code(), api::StatusCode::InvalidArgument);
    // Negative deadline.
    serve::RequestOptions bad;
    bad.deadline_us = -5;
    auto negative = door.value()->submit("m", randomRows(1, 24, 1), bad);
    EXPECT_EQ(negative.status().code(), api::StatusCode::InvalidArgument);

    const serve::FrontDoorStats stats = door.value()->stats();
    EXPECT_EQ(stats.total.rejected, 4u);
    EXPECT_EQ(stats.total.served, 0u);

    door.value()->shutdown();
    auto after = door.value()->submit("m", randomRows(1, 24, 1));
    EXPECT_EQ(after.status().code(), api::StatusCode::FailedPrecondition);

    // Bad options at create time.
    serve::FrontDoorOptions bad_options;
    bad_options.queue_capacity = 0;
    EXPECT_FALSE(serve::FrontDoor::create(bad_options).ok());
}

TEST(FrontDoor, UnpublishedNamesDoNotGrowModelLanesRegression)
{
    // The caller picks the model name, so a NotFound rejection counts on
    // the total and tenant lanes only: distinct bogus names must not
    // each leave a model bucket (three latency histograms apiece).
    auto door = serve::FrontDoor::create({});
    ASSERT_TRUE(door.ok());
    ASSERT_TRUE(door.value()->publish("m", traceModel(1)).ok());
    const Tensor row = randomRows(1, 24, 1);
    for (int i = 0; i < 1000; ++i) {
        auto missing =
            door.value()->submit("ghost-" + std::to_string(i), row);
        ASSERT_EQ(missing.status().code(), api::StatusCode::NotFound);
    }
    serve::FrontDoorStats stats = door.value()->stats();
    EXPECT_EQ(stats.total.rejected, 1000u);
    // "m" has seen no traffic yet, so no model lane exists at all.
    EXPECT_TRUE(stats.models.empty()) << stats.models.size() << " lanes";
    ASSERT_EQ(stats.tenants.count("default"), 1u);
    EXPECT_EQ(stats.tenants.at("default").rejected, 1000u);

    // A published model's own rejections still land on its lane, also
    // those raised after the request took its snapshot.
    serve::RequestOptions bad;
    bad.deadline_us = -5;
    EXPECT_EQ(door.value()->submit("m", row, bad).status().code(),
              api::StatusCode::InvalidArgument);
    stats = door.value()->stats();
    EXPECT_EQ(stats.total.rejected, 1001u);
    ASSERT_EQ(stats.models.size(), 1u);
    EXPECT_EQ(stats.models.at("m").rejected, 1u);
    door.value()->shutdown();
}

TEST(FrontDoor, DistinctTenantNamesShareOneOverflowLaneRegression)
{
    // The caller picks the tenant name too: 20,000 distinct names must
    // not open 20,000 lanes. Past the cap they share one overflow lane,
    // and no count is lost — the tenant lanes still add up to the total.
    auto door = serve::FrontDoor::create({});
    ASSERT_TRUE(door.ok());
    ASSERT_TRUE(door.value()->publish("m", traceModel(1)).ok());
    const Tensor row = randomRows(1, 24, 1);
    serve::RequestOptions options;
    for (int i = 0; i < 20000; ++i) {
        options.tenant = "t-" + std::to_string(i);
        ASSERT_EQ(door.value()->submit("ghost", row, options).status().code(),
                  api::StatusCode::NotFound);
    }
    // Accepted traffic under fresh names lands on the overflow lane.
    std::vector<std::future<api::Result<Tensor>>> futures;
    for (int i = 0; i < 50; ++i) {
        options.tenant = "late-" + std::to_string(i);
        futures.push_back(door.value()->submitAsync("m", row, options));
    }
    for (auto &future : futures)
        ASSERT_TRUE(future.get().ok());
    door.value()->shutdown();

    const serve::FrontDoorStats stats = door.value()->stats();
    EXPECT_LE(stats.tenants.size(), serve::FrontDoor::kMaxTenantLanes + 1);
    ASSERT_EQ(stats.tenants.count(serve::FrontDoor::kOverflowTenant), 1u);
    EXPECT_EQ(stats.tenants.at(serve::FrontDoor::kOverflowTenant).served,
              50u);
    uint64_t rejected = 0, accepted = 0, served = 0, rows = 0;
    for (const auto &entry : stats.tenants) {
        rejected += entry.second.rejected;
        accepted += entry.second.accepted;
        served += entry.second.served;
        rows += entry.second.rows;
    }
    EXPECT_EQ(stats.total.rejected, 20000u);
    EXPECT_EQ(rejected, stats.total.rejected);
    EXPECT_EQ(accepted, stats.total.accepted);
    EXPECT_EQ(served, stats.total.served);
    EXPECT_EQ(rows, stats.total.rows);
}

TEST(FrontDoor, LaneReportsBatchFillPhasesAndActiveWorkers)
{
    // The per-batch accounting lives in the front door: each model lane
    // carries its batch count, fill histogram, and encode/gather phase
    // split, and the pool counts the workers that did batch work.
    serve::FrontDoorOptions options;
    options.threads = 2;
    options.autostart = false;  // pre-fill: one deterministic 8-row batch
    auto door = serve::FrontDoor::create(options);
    ASSERT_TRUE(door.ok()) << door.status().toString();
    serve::ModelSlo slo;
    slo.max_batch = 8;
    ASSERT_TRUE(door.value()->publish("m", traceModel(5), slo).ok());

    std::vector<std::future<api::Result<Tensor>>> futures;
    for (int i = 0; i < 4; ++i)
        futures.push_back(
            door.value()->submitAsync("m", randomRows(2, 24, 40 + i)));
    door.value()->start();
    for (auto &f : futures)
        ASSERT_TRUE(f.get().ok());
    door.value()->shutdown();

    const serve::FrontDoorStats stats = door.value()->stats();
    const serve::LaneStats &lane = stats.models.at("m");
    EXPECT_EQ(lane.batches, 1u);
    ASSERT_EQ(lane.batch_fill.size(), 9u);
    EXPECT_EQ(lane.batch_fill[8], 1u);
    EXPECT_DOUBLE_EQ(lane.avgBatchFill(), 8.0);
    EXPECT_GT(lane.encode_seconds, 0.0);
    EXPECT_GT(lane.gather_seconds, 0.0);
    EXPECT_GT(lane.wall_seconds, 0.0);
    EXPECT_GE(stats.active_workers, 1);
    EXPECT_LE(stats.active_workers, 2);
    // Tenant buckets carry per-request fields only.
    EXPECT_EQ(stats.tenants.at("default").served, 4u);
    EXPECT_EQ(stats.tenants.at("default").batches, 0u);
    EXPECT_NE(stats.summary().find("lut phases"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Overload: priority eviction and typed capacity shedding, never a block.

TEST(FrontDoor, OverloadShedsLowPriorityAndAdmitsHighPriority)
{
    serve::FrontDoorOptions options;
    options.threads = 1;
    options.queue_capacity = 4;
    options.autostart = false;  // deterministic: shed before any serving
    auto door = serve::FrontDoor::create(options);
    ASSERT_TRUE(door.ok());

    serve::ModelSlo low;
    low.priority = 0;
    serve::ModelSlo high;
    high.priority = 10;
    ASSERT_TRUE(door.value()->publish("bulk", traceModel(1), low).ok());
    ASSERT_TRUE(
        door.value()->publish("urgent", traceModel(2), high).ok());

    const Tensor row = randomRows(1, 24, 3);
    std::vector<std::future<api::Result<Tensor>>> bulk;
    for (int i = 0; i < 4; ++i)
        bulk.push_back(door.value()->submitAsync("bulk", row));
    // Queue is now full. A 5th bulk request is refused (equal priority
    // cannot evict)...
    auto refused = door.value()->submitAsync("bulk", row);
    EXPECT_EQ(refused.get().status().code(),
              api::StatusCode::ResourceExhausted);
    // ...but an urgent request evicts the worst queued bulk request.
    auto urgent = door.value()->submitAsync("urgent", row);

    int evicted = 0;
    door.value()->start();
    auto urgent_result = urgent.get();
    ASSERT_TRUE(urgent_result.ok()) << urgent_result.status().toString();
    int served = 0;
    for (auto &f : bulk) {
        auto result = f.get();
        if (result.ok())
            served++;
        else if (result.status().code() ==
                 api::StatusCode::ResourceExhausted)
            evicted++;
        else
            ADD_FAILURE() << result.status().toString();
    }
    EXPECT_EQ(served, 3);
    EXPECT_EQ(evicted, 1);
    door.value()->shutdown();

    const serve::FrontDoorStats stats = door.value()->stats();
    EXPECT_EQ(stats.models.at("bulk").shed_capacity, 2u);  // refuse+evict
    EXPECT_EQ(stats.models.at("urgent").shed_capacity, 0u);
    EXPECT_EQ(stats.models.at("urgent").served, 1u);
    EXPECT_EQ(stats.total.accepted, 5u);  // 4 bulk + 1 urgent admitted
}

// ---------------------------------------------------------------------------
// Deadlines: expired requests observe DeadlineExceeded without executing.

TEST(FrontDoor, ExpiredDeadlineIsShedWithoutExecuting)
{
    serve::FrontDoorOptions options;
    options.threads = 1;
    options.autostart = false;
    auto door = serve::FrontDoor::create(options);
    ASSERT_TRUE(door.ok());
    ASSERT_TRUE(door.value()->publish("m", traceModel(1)).ok());

    serve::RequestOptions tight;
    tight.deadline_us = 1;  // expires long before start() below
    auto doomed =
        door.value()->submitAsync("m", randomRows(1, 24, 1), tight);
    serve::RequestOptions loose;
    loose.deadline_us = 60'000'000;
    auto fine =
        door.value()->submitAsync("m", randomRows(1, 24, 2), loose);

    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    door.value()->start();

    EXPECT_EQ(doomed.get().status().code(),
              api::StatusCode::DeadlineExceeded);
    auto ok = fine.get();
    ASSERT_TRUE(ok.ok()) << ok.status().toString();
    door.value()->shutdown();

    const serve::FrontDoorStats stats = door.value()->stats();
    EXPECT_EQ(stats.models.at("m").shed_deadline, 1u);
    EXPECT_EQ(stats.models.at("m").served, 1u);
    // The expired request never executed: exactly one batch ran, and it
    // carried exactly the surviving request's single row.
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.models.at("m").rows, 1u);
    // The served request carried a deadline and met it.
    EXPECT_EQ(stats.models.at("m").with_deadline, 1u);
    EXPECT_EQ(stats.models.at("m").deadline_met, 1u);
    EXPECT_DOUBLE_EQ(stats.models.at("m").sloAttainment(), 1.0);
}

TEST(FrontDoor, ModelDefaultDeadlineApplies)
{
    serve::FrontDoorOptions options;
    options.threads = 1;
    options.autostart = false;
    auto door = serve::FrontDoor::create(options);
    ASSERT_TRUE(door.ok());
    serve::ModelSlo slo;
    slo.default_deadline_us = 1;
    ASSERT_TRUE(door.value()->publish("m", traceModel(1), slo).ok());

    auto doomed = door.value()->submitAsync("m", randomRows(1, 24, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    door.value()->start();
    EXPECT_EQ(doomed.get().status().code(),
              api::StatusCode::DeadlineExceeded);
    door.value()->shutdown();
}

TEST(FrontDoor, ExplicitZeroDeadlineIsUnboundedUnderModelDefault)
{
    serve::FrontDoorOptions options;
    options.threads = 1;
    options.autostart = false;
    auto door = serve::FrontDoor::create(options);
    ASSERT_TRUE(door.ok());
    serve::ModelSlo slo;
    slo.default_deadline_us = 1;
    ASSERT_TRUE(door.value()->publish("m", traceModel(1), slo).ok());

    // An explicit 0 overrides the model's 1 us default with "unbounded";
    // its twin without an override inherits the default and expires.
    serve::RequestOptions unbounded;
    unbounded.deadline_us = 0;
    auto kept =
        door.value()->submitAsync("m", randomRows(1, 24, 1), unbounded);
    auto doomed = door.value()->submitAsync("m", randomRows(1, 24, 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    door.value()->start();

    auto ok = kept.get();
    ASSERT_TRUE(ok.ok()) << ok.status().toString();
    EXPECT_EQ(doomed.get().status().code(),
              api::StatusCode::DeadlineExceeded);
    door.value()->shutdown();

    const serve::FrontDoorStats stats = door.value()->stats();
    EXPECT_EQ(stats.models.at("m").served, 1u);
    EXPECT_EQ(stats.models.at("m").shed_deadline, 1u);
    // The served request carried no deadline at all.
    EXPECT_EQ(stats.models.at("m").with_deadline, 0u);
}

// ---------------------------------------------------------------------------
// Cancellation.

TEST(FrontDoor, CancelledRequestNeverExecutes)
{
    serve::FrontDoorOptions options;
    options.threads = 1;
    options.autostart = false;
    auto door = serve::FrontDoor::create(options);
    ASSERT_TRUE(door.ok());
    ASSERT_TRUE(door.value()->publish("m", traceModel(1)).ok());

    auto doomed =
        door.value()->submitCancellable("m", randomRows(1, 24, 1));
    auto kept = door.value()->submitCancellable("m", randomRows(1, 24, 2));
    doomed.cancel();
    door.value()->start();

    EXPECT_EQ(doomed.future.get().status().code(),
              api::StatusCode::Cancelled);
    auto ok = kept.future.get();
    ASSERT_TRUE(ok.ok()) << ok.status().toString();
    // cancel() after completion is a harmless no-op.
    kept.cancel();
    door.value()->shutdown();

    const serve::FrontDoorStats stats = door.value()->stats();
    EXPECT_EQ(stats.models.at("m").cancelled, 1u);
    EXPECT_EQ(stats.models.at("m").served, 1u);
    EXPECT_EQ(stats.models.at("m").rows, 1u);  // doomed never executed
}

// ---------------------------------------------------------------------------
// Priority scheduling: a later-submitted high-priority request is served
// before earlier low-priority backlog.

TEST(FrontDoor, HighPriorityOvertakesQueuedLowPriority)
{
    serve::FrontDoorOptions options;
    options.threads = 1;
    options.autostart = false;
    auto door = serve::FrontDoor::create(options);
    ASSERT_TRUE(door.ok());

    serve::ModelSlo low;
    low.priority = 0;
    low.max_batch = 64;
    serve::ModelSlo high;
    high.priority = 5;
    // Bigger model + multi-row requests so service time dwarfs the
    // histogram's microsecond granularity.
    ASSERT_TRUE(
        door.value()->publish("slow", traceModel(7, 96, 64), low).ok());
    ASSERT_TRUE(
        door.value()->publish("fast", traceModel(8, 24, 10), high).ok());

    std::vector<std::future<api::Result<Tensor>>> futures;
    for (int i = 0; i < 4; ++i)
        futures.push_back(
            door.value()->submitAsync("slow", randomRows(32, 96, i)));
    // Submitted LAST, must be dispatched FIRST (highest priority).
    futures.push_back(door.value()->submitAsync("fast",
                                                randomRows(1, 24, 9)));
    door.value()->start();
    for (auto &f : futures) {
        auto result = f.get();
        ASSERT_TRUE(result.ok()) << result.status().toString();
    }
    door.value()->shutdown();

    const serve::FrontDoorStats stats = door.value()->stats();
    // "fast" was queued after every "slow" request yet executed first,
    // so its queue wait must be below theirs. Compare the EXACT means,
    // not the bucketed p50s: a loaded host can delay the worker's
    // start() wake-up by milliseconds, which inflates both lanes'
    // waits by the same offset and collapses the p50s into one
    // log-linear histogram bucket (~6% relative error), turning the
    // strict comparison into a coin flip.
    EXPECT_LT(stats.models.at("fast").mean_queue_us,
              stats.models.at("slow").mean_queue_us);
}

// ---------------------------------------------------------------------------
// Hot-swap: publish() races in-flight traffic with zero drain.

TEST(FrontDoor, HotSwapKeepsServingPinnedVersionWithZeroDrain)
{
    serve::FrontDoorOptions options;
    options.threads = 2;
    options.queue_capacity = 4096;
    auto door = serve::FrontDoor::create(options);
    ASSERT_TRUE(door.ok());

    serve::FrozenModel v1 = traceModel(100);
    serve::FrozenModel v2 = traceModel(200);  // same widths, new tables
    ASSERT_TRUE(door.value()->publish("m", v1).ok());

    const Tensor rows = randomRows(3, 24, 77);
    const Tensor ref_v1 = v1.forwardBatch(rows);
    const Tensor ref_v2 = v2.forwardBatch(rows);
    ASSERT_FALSE(ref_v1.equals(ref_v2));  // the swap must be observable

    // Requests submitted BEFORE publish are pinned to v1 — even the ones
    // still queued when the new version lands. Requests submitted after
    // ride v2. Nothing fails, nothing is dropped, no batch mixes them.
    std::vector<std::future<api::Result<Tensor>>> before, after;
    for (int i = 0; i < 64; ++i)
        before.push_back(door.value()->submitAsync("m", rows));
    auto v2_version = door.value()->publish("m", v2);
    ASSERT_TRUE(v2_version.ok());
    EXPECT_EQ(*v2_version, 2u);
    for (int i = 0; i < 64; ++i)
        after.push_back(door.value()->submitAsync("m", rows));

    for (auto &f : before) {
        auto result = f.get();
        ASSERT_TRUE(result.ok()) << result.status().toString();
        EXPECT_TRUE(result->equals(ref_v1));
    }
    for (auto &f : after) {
        auto result = f.get();
        ASSERT_TRUE(result.ok()) << result.status().toString();
        EXPECT_TRUE(result->equals(ref_v2));
    }
    // With two workers the last of the 128 batches to finish may be a
    // pinned v1 batch, so last_version is checked on a batch that runs
    // alone after every earlier one has been recorded.
    auto last = door.value()->submit("m", rows);
    ASSERT_TRUE(last.ok()) << last.status().toString();
    EXPECT_TRUE(last->equals(ref_v2));
    door.value()->shutdown();

    const serve::FrontDoorStats stats = door.value()->stats();
    EXPECT_EQ(stats.total.served, 129u);
    EXPECT_EQ(stats.total.shed(), 0u);
    EXPECT_EQ(stats.total.rejected, 0u);
    EXPECT_EQ(stats.last_version.at("m"), 2u);
}

TEST(FrontDoor, WidthChangingHotSwapPinsQueuedRequestsToOldVersion)
{
    serve::FrontDoorOptions options;
    options.threads = 1;
    options.autostart = false;  // everything below is queued before start
    auto door = serve::FrontDoor::create(options);
    ASSERT_TRUE(door.ok());

    serve::FrozenModel v1 = traceModel(1, 24);
    serve::FrozenModel v2 = traceModel(2, 32);
    ASSERT_TRUE(door.value()->publish("m", v1).ok());

    const Tensor narrow = randomRows(3, 24, 41);
    const Tensor wide = randomRows(3, 32, 42);
    std::vector<std::future<api::Result<Tensor>>> before;
    for (int i = 0; i < 4; ++i)
        before.push_back(door.value()->submitAsync("m", narrow));
    auto v2_version = door.value()->publish("m", v2);
    ASSERT_TRUE(v2_version.ok());
    EXPECT_EQ(*v2_version, 2u);

    // After the publish the name means v2: its width is the one checked.
    auto stale = door.value()->submitAsync("m", narrow);
    auto fresh = door.value()->submitAsync("m", wide);
    EXPECT_EQ(stale.get().status().code(),
              api::StatusCode::InvalidArgument);
    door.value()->start();

    const Tensor ref_v1 = v1.forwardBatch(narrow);
    for (auto &f : before) {
        auto result = f.get();
        ASSERT_TRUE(result.ok()) << result.status().toString();
        EXPECT_TRUE(result->equals(ref_v1));
    }
    auto result = fresh.get();
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_TRUE(result->equals(v2.forwardBatch(wide)));
    door.value()->shutdown();

    const serve::FrontDoorStats stats = door.value()->stats();
    EXPECT_EQ(stats.total.served, 5u);
    EXPECT_EQ(stats.total.rejected, 1u);
    EXPECT_EQ(stats.last_version.at("m"), 2u);
}

TEST(FrontDoor, HotSwapUnderConcurrentSubmittersNeverFailsARequest)
{
    serve::FrontDoorOptions options;
    options.threads = 2;
    options.queue_capacity = 4096;
    auto door = serve::FrontDoor::create(options);
    ASSERT_TRUE(door.ok());

    serve::FrozenModel v1 = traceModel(300);
    serve::FrozenModel v2 = traceModel(400);
    ASSERT_TRUE(door.value()->publish("m", v1).ok());

    const Tensor rows = randomRows(2, 24, 13);
    const Tensor ref_v1 = v1.forwardBatch(rows);
    const Tensor ref_v2 = v2.forwardBatch(rows);

    std::atomic<int> failures{0}, mismatches{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 3; ++t) {
        submitters.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                auto result = door.value()->submit("m", rows);
                if (!result.ok()) {
                    failures.fetch_add(1);
                    continue;
                }
                if (!result->equals(ref_v1) && !result->equals(ref_v2))
                    mismatches.fetch_add(1);
            }
        });
    }
    // Swap repeatedly while traffic is in flight (publish alternates the
    // tables; every response must match exactly one of the versions).
    for (int swap = 0; swap < 8; ++swap) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ASSERT_TRUE(door.value()
                        ->publish("m", swap % 2 == 0 ? v2 : v1)
                        .ok());
    }
    stop.store(true);
    for (auto &thread : submitters)
        thread.join();
    door.value()->shutdown();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_GT(door.value()->stats().total.served, 0u);
}

// ---------------------------------------------------------------------------
// Tenant handles.

TEST(FrontDoor, TenantHandleAppliesDefaultsAndBucketsStats)
{
    auto door = serve::FrontDoor::create({});
    ASSERT_TRUE(door.ok());
    ASSERT_TRUE(door.value()->publish("m", traceModel(1)).ok());

    serve::RequestOptions defaults;
    defaults.priority = 3;
    defaults.deadline_us = 60'000'000;
    serve::Tenant prod = door.value()->tenant("prod", defaults);
    EXPECT_EQ(prod.name(), "prod");

    auto result = prod.submit("m", randomRows(2, 24, 4));
    ASSERT_TRUE(result.ok()) << result.status().toString();
    auto ticket = prod.submitCancellable("m", randomRows(1, 24, 5));
    ASSERT_TRUE(ticket.future.get().ok());
    door.value()->shutdown();

    const serve::FrontDoorStats stats = door.value()->stats();
    EXPECT_EQ(stats.tenants.at("prod").served, 2u);
    EXPECT_EQ(stats.tenants.at("prod").rows, 3u);
    EXPECT_EQ(stats.tenants.at("prod").with_deadline, 2u);

    serve::Tenant unbound;
    EXPECT_EQ(unbound.submit("m", randomRows(1, 24, 6)).status().code(),
              api::StatusCode::FailedPrecondition);
}

// ---------------------------------------------------------------------------
// Shutdown drains accepted requests.

TEST(FrontDoor, ShutdownAnswersEverythingAccepted)
{
    serve::FrontDoorOptions options;
    options.threads = 2;
    options.queue_capacity = 1024;
    auto door = serve::FrontDoor::create(options);
    ASSERT_TRUE(door.ok());
    ASSERT_TRUE(door.value()->publish("m", traceModel(1)).ok());

    const Tensor rows = randomRows(1, 24, 8);
    std::vector<std::future<api::Result<Tensor>>> futures;
    for (int i = 0; i < 128; ++i)
        futures.push_back(door.value()->submitAsync("m", rows));
    door.value()->shutdown();
    for (auto &f : futures) {
        auto result = f.get();
        EXPECT_TRUE(result.ok()) << result.status().toString();
    }

    // Never-started front doors still answer what was queued.
    serve::FrontDoorOptions cold_options;
    cold_options.threads = 1;
    cold_options.autostart = false;
    auto cold = serve::FrontDoor::create(cold_options);
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(cold.value()->publish("m", traceModel(1)).ok());
    auto orphan = cold.value()->submitAsync("m", rows);
    cold.value()->shutdown();
    EXPECT_EQ(orphan.get().status().code(),
              api::StatusCode::FailedPrecondition);
}

// ---------------------------------------------------------------------------
// api:: facade.

TEST(ServingFacade, FrontDoorPublishServeAndHotSwapTraceModels)
{
    auto door = api::makeFrontDoor({});
    ASSERT_TRUE(door.ok()) << door.status().toString();

    std::vector<sim::GemmShape> gemms{{4, 20, 12, "a"}, {4, 12, 8, "b"}};
    vq::PQConfig pq;
    pq.v = 4;
    pq.c = 8;
    api::ServeOptions serve_options;
    serve_options.slo.priority = 2;
    serve_options.slo.default_deadline_us = 60'000'000;
    auto v1 = api::publishTraceModel(door.value(), "trace", gemms, pq,
                                     serve_options, {}, /*seed=*/21);
    ASSERT_TRUE(v1.ok()) << v1.status().toString();
    EXPECT_EQ(*v1, 1u);
    EXPECT_EQ(door.value()->registry().resolve("trace")->slo.priority, 2);

    auto result = door.value()->submit("trace", randomRows(3, 20, 2));
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_EQ(result->dim(1), 8);

    auto v2 = api::publishTraceModel(door.value(), "trace", gemms, pq,
                                     serve_options, {}, /*seed=*/22);
    ASSERT_TRUE(v2.ok());
    EXPECT_EQ(*v2, 2u);

    // Bad PQ config is a typed error, not a publish.
    vq::PQConfig bad;
    bad.v = 0;
    bad.c = 8;
    EXPECT_FALSE(
        api::publishTraceModel(door.value(), "bad", gemms, bad).ok());
    EXPECT_EQ(door.value()->registry().resolve("bad"), nullptr);

    EXPECT_FALSE(api::makeFrontDoor({-1, 16, true}).ok());
    EXPECT_EQ(
        api::publishTraceModel(nullptr, "x", gemms, pq).status().code(),
        api::StatusCode::InvalidArgument);
}

TEST(ServingFacade, PublishModelFreezesAndServesConvertedModel)
{
    lutboost::ConvertOptions opts;
    opts.pq.v = 4;
    opts.pq.c = 8;
    opts.centroid_stage.epochs = 1;
    opts.joint_stage.epochs = 1;
    auto builder = api::Pipeline::forWorkload("mlp-mixture")
                       .pretrain(nn::TrainConfig::sgd(1, 0.05))
                       .convert(opts);
    auto run = builder.report();
    ASSERT_TRUE(run.ok()) << run.status().toString();
    nn::LayerPtr model = builder.convertedModel();

    auto door = api::makeFrontDoor({});
    ASSERT_TRUE(door.ok());
    auto version = api::publishModel(door.value(), "mlp", model);
    ASSERT_TRUE(version.ok()) << version.status().toString();

    const Tensor rows = randomRows(6, 16, 3);
    auto served = door.value()->submit("mlp", rows);
    ASSERT_TRUE(served.ok()) << served.status().toString();
    const Tensor reference = model->forward(rows, /*train=*/false);
    EXPECT_TRUE(served->equals(reference));
}

} // namespace
} // namespace lutdla
