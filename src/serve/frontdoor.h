#ifndef LUTDLA_SERVE_FRONTDOOR_H
#define LUTDLA_SERVE_FRONTDOOR_H

/**
 * @file
 * FrontDoor: the serving runtime — one worker pool multiplexing every
 * model published in its ModelRegistry (serve/registry.h), with
 * per-request deadlines, cancellation, priority-aware scheduling, and
 * typed load shedding instead of unbounded blocking. The single-model
 * InferenceEngine (serve/engine.h) is a thin facade over a one-model
 * FrontDoor; there is no second runtime.
 *
 * Scheduling model: each published model carries a ModelSlo (priority
 * stratum, batch window, max batch, default deadline). Queued requests
 * live in per-model queues kept in EDF (earliest-deadline-first) order;
 * an idle worker always dispatches the model whose head request has the
 * highest priority, breaking ties by earliest deadline. Once a batch
 * opens it admits further requests for the SAME model snapshot in EDF
 * order until `slo.max_batch` rows or the `slo.batch_window_us` window
 * closes — and the window closes early when strictly higher-priority
 * work arrives for another model, so an interactive model never waits
 * out a bulk model's batch window.
 *
 * Overload contract: admission never blocks the submitter. When the
 * bounded queue is full, the scheduler sheds — an incoming request of
 * strictly higher priority evicts the lowest-priority, latest-deadline
 * queued request (which is answered with ResourceExhausted); otherwise
 * the incoming request itself is refused with ResourceExhausted. A
 * request whose deadline expires before its batch opens is answered
 * with DeadlineExceeded WITHOUT executing. Every shed is a typed
 * api::Status and a per-model/per-tenant overload counter — nothing is
 * silently dropped, and nothing blocks.
 *
 * Hot-swap contract: a request pins the registry snapshot it resolved
 * at submission, so ModelRegistry::publish() of a new version is
 * drain-free — queued and in-flight requests finish on the version they
 * were admitted against, new submissions ride the new version, and no
 * batch ever mixes versions. See registry.h for the version semantics.
 *
 * Intra-batch parallelism: the pool implements IntraBatchPool, the
 * backend of serve::forEachBlock, so a large batch's row blocks (tiles of
 * a tiled segment, fused encode -> gather blocks of a LUT stage, attention
 * sequences) spread across idle workers. The initiating worker publishes
 * a ShardTask under the same mutex that guards the request queues, and
 * idle workers sleep on ONE condition variable that wakes for either
 * kind of work — a worker waiting for requests can never miss block
 * work. Helpers claim blocks through the task's atomic cursor
 * (wait-free) and run each whole block with their own StageScratch;
 * results are bit-exact with the single-thread sweep because blocks
 * cover disjoint rows.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/status.h"
#include "serve/registry.h"
#include "serve/stats.h"
#include "tensor/tensor.h"

namespace lutdla::serve {

/** Front-door pool knobs; per-model policy lives in ModelSlo. */
struct FrontDoorOptions
{
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    int threads = 0;
    /** Bounded pending-request capacity across ALL models (requests). */
    int64_t queue_capacity = 256;
    /**
     * Spawn workers in the constructor. Turn off to pre-fill queues and
     * then start() — deterministic scheduling order, used by tests and
     * the serving demo. Admission control (capacity shedding, priority
     * eviction) is active either way; nothing ever blocks.
     */
    bool autostart = true;
};

/**
 * Per-request overrides and attribution. Unset optionals inherit from
 * the model's published ModelSlo; `tenant` only buckets statistics.
 */
struct RequestOptions
{
    /**
     * Deadline in microseconds from submission; 0 = unbounded. Unset =
     * the model's slo.default_deadline_us. Expired requests are answered
     * with DeadlineExceeded and never execute.
     */
    std::optional<int64_t> deadline_us;
    /** Priority override; unset = the model's slo.priority. */
    std::optional<int> priority;
    /** Stats bucket this request is attributed to. */
    std::string tenant = "default";
};

/**
 * Cancellable submission: the future plus a cancel() that marks the
 * request so the scheduler answers it with Cancelled instead of
 * executing. Best-effort — a request already inside a batch completes
 * normally; cancel() after completion is a no-op.
 */
struct RequestTicket
{
    std::future<api::Result<Tensor>> future;

    /** Request the scheduler drop this request before execution. */
    void
    cancel()
    {
        if (cancelled)
            cancelled->store(true, std::memory_order_relaxed);
    }

    /** Shared flag polled by the scheduler at dispatch time. */
    std::shared_ptr<std::atomic<bool>> cancelled;
};

/** Declared below; Tenant handles forward their submissions to it. */
class FrontDoor;

/**
 * Tenant handle: binds a stats bucket plus default deadline/priority
 * overrides, so callers hold one object per traffic class instead of
 * re-stating RequestOptions per call. Must not outlive the FrontDoor
 * that minted it.
 */
class Tenant
{
  public:
    Tenant() = default;

    /** Serve one request under this tenant's defaults and block. */
    api::Result<Tensor> submit(const std::string &model,
                               const Tensor &rows) const;

    /** Fire-and-wait-later variant of submit(). */
    std::future<api::Result<Tensor>> submitAsync(const std::string &model,
                                                 Tensor rows) const;

    /** submitAsync() plus a cancellation handle. */
    RequestTicket submitCancellable(const std::string &model,
                                    Tensor rows) const;

    /** The stats bucket this handle submits under. */
    const std::string &name() const { return defaults_.tenant; }

    /** The defaults applied to every submission. */
    const RequestOptions &defaults() const { return defaults_; }

  private:
    friend class FrontDoor;
    Tenant(FrontDoor *door, RequestOptions defaults)
        : door_(door), defaults_(std::move(defaults))
    {
    }

    FrontDoor *door_ = nullptr;
    RequestOptions defaults_;
};

/**
 * Serving front door: a ModelRegistry plus one shared worker pool with
 * deadline-aware, priority-stratified scheduling. Implements
 * IntraBatchPool so forEachBlock splits big batches across the pool.
 */
class FrontDoor : private IntraBatchPool
{
  public:
    /**
     * Validate options and build a front door with an EMPTY registry;
     * publish models through registry() (or the api:: facade helpers).
     * InvalidArgument on nonsense knobs.
     */
    static api::Result<std::shared_ptr<FrontDoor>>
    create(const FrontDoorOptions &options = {});

    /** Prefer create(); this constructor trusts `options` blindly. */
    explicit FrontDoor(const FrontDoorOptions &options);

    FrontDoor(const FrontDoor &) = delete;
    FrontDoor &operator=(const FrontDoor &) = delete;

    /** Graceful shutdown() — accepted requests are always answered. */
    ~FrontDoor() override;

    /** The registry of published models (thread-safe). */
    ModelRegistry &registry() { return registry_; }
    const ModelRegistry &registry() const { return registry_; }

    /** Convenience forward to registry().publish(). */
    api::Result<uint64_t> publish(const std::string &name,
                                  FrozenModel model, ModelSlo slo = {});

    /** Spawn the worker pool; idempotent; no-op after shutdown(). */
    void start();

    /**
     * Refuse new submissions, answer everything already queued (serving
     * what still fits its deadline, shedding what does not), join
     * workers. Idempotent. Never-started front doors fail queued
     * requests with FailedPrecondition instead of hanging.
     */
    void shutdown();

    /**
     * Serve one request of [rows, model's inputWidth()] against the
     * CURRENT version of `model` and block for the result. Typed
     * failures: NotFound (model not published), InvalidArgument (shape,
     * row cap, rows not a whole number of the model's rowGroup()
     * sequences), ResourceExhausted (shed under overload),
     * DeadlineExceeded (deadline passed before execution), Cancelled,
     * FailedPrecondition (after shutdown()).
     */
    api::Result<Tensor> submit(const std::string &model, const Tensor &rows,
                               const RequestOptions &options = {});

    /** Fire-and-wait-later variant of submit(). Never blocks. */
    std::future<api::Result<Tensor>>
    submitAsync(const std::string &model, Tensor rows,
                const RequestOptions &options = {});

    /** submitAsync() plus a cancellation handle. */
    RequestTicket submitCancellable(const std::string &model, Tensor rows,
                                    const RequestOptions &options = {});

    /** Mint a tenant handle carrying `defaults` (see Tenant). */
    Tenant tenant(std::string name, RequestOptions defaults = {});

    /** Consistent snapshot of the lifetime serving statistics. */
    FrontDoorStats stats() const;

    /** Distinct tenant names that get a stats lane of their own (each
     * holds three latency histograms, ~50 KB); later names all count on
     * the one kOverflowTenant lane, so caller-chosen names cannot grow
     * the stats without bound. */
    static constexpr size_t kMaxTenantLanes = 64;

    /** Stats lane shared by every tenant past kMaxTenantLanes. */
    static constexpr const char *kOverflowTenant = "(other tenants)";

    /** The options the front door runs with. */
    const FrontDoorOptions &options() const { return options_; }

  private:
    using Clock = std::chrono::steady_clock;

    /** One queued request. The fields every admission decision reads
     * come first, next to each other; queues and batches hold Req by
     * pointer, so admission under mu_ moves a pointer, not the request. */
    struct Req
    {
        SnapshotPtr snapshot;  ///< pinned at submit: the hot-swap contract
        Clock::time_point deadline = Clock::time_point::max();
        std::shared_ptr<std::atomic<bool>> cancelled;  ///< may be null
        int64_t rows = 0;
        uint64_t seq = 0;  ///< FIFO tiebreak within equal deadlines
        int priority = 0;
        bool has_deadline = false;
        Clock::time_point enqueued;
        std::string tenant;
        std::promise<api::Result<Tensor>> promise;
        Tensor input;
    };
    using ReqPtr = std::unique_ptr<Req>;

    /**
     * One intra-batch parallel-for in flight: `blocks` shards claimed via
     * the atomic `next` cursor (work-stealing without a lock),
     * `completed` counts finished shards. Helpers hold shared_ptr copies,
     * so the task outlives its removal from `tasks_`.
     */
    struct ShardTask
    {
        ShardFn fn;                        ///< runs one block on any worker
        int64_t blocks = 0;                ///< total shard count
        std::atomic<int64_t> next{0};      ///< next unclaimed block
        std::atomic<int64_t> completed{0}; ///< finished blocks
    };

    std::future<api::Result<Tensor>>
    enqueue(const std::string &model, Tensor rows,
            const RequestOptions &options,
            std::shared_ptr<std::atomic<bool>> cancel_flag);

    void workerLoop(int slot);
    /** Pop the highest-priority earliest-deadline head. mu_ held. */
    ReqPtr popBestLocked();
    /** Any queued head strictly above `priority`? mu_ held. */
    bool higherPriorityPendingLocked(int priority) const;
    /** Claimable shard task, or nullptr. mu_ held. */
    std::shared_ptr<ShardTask> claimableTaskLocked() const;
    /** Claim-and-run loop every shard participant executes; returns
     * whether this participant ran at least one block. */
    bool runShards(ShardTask &task, StageScratch &scratch);
    void parallelFor(int64_t blocks, const ShardFn &fn,
                     StageScratch &caller) override;
    void executeBatch(std::vector<ReqPtr> &batch, int64_t rows,
                      const SnapshotPtr &snapshot, StageScratch &scratch,
                      int slot);
    void failRemaining();
    /** Count worker `slot` toward active_workers. */
    void markActive(int slot);

    /** Settle a request with a typed error and bump its shed counter. */
    enum class Shed { Capacity, Deadline, Cancel };
    void shed(Req &req, Shed kind, const std::string &message);

    FrontDoorOptions options_;
    ModelRegistry registry_;

    std::mutex mu_;  ///< queues + shard tasks + lifecycle flags
    std::condition_variable work_;       ///< requests OR shard work
    std::condition_variable task_done_;  ///< shard-task completion
    /** EDF queue per model; kept (possibly empty) once created, so a
     * drained queue does not reallocate on the next request. */
    std::map<std::string, std::deque<ReqPtr>> queues_;
    std::vector<std::shared_ptr<ShardTask>> tasks_;
    int64_t total_queued_ = 0;
    uint64_t next_seq_ = 0;
    bool started_ = false;
    bool closed_ = false;
    std::vector<std::thread> workers_;

    /** Internal accumulator behind one LaneStats bucket: the exact
     * counters live in the LaneStats base; the derived fields are
     * computed from the members below at snapshot time. */
    struct LaneAccum : LaneStats
    {
        uint64_t encode_ns = 0, gather_ns = 0;
        LatencyHistogram latency, queue_wait, service;
        bool saw_accept = false;
        Clock::time_point first_accept, last_done;
    };
    static LaneStats snapshotLane(const LaneAccum &accum,
                                  int active_workers);

    /** The stats lane of `tenant`: its own while fewer than
     * kMaxTenantLanes lanes exist, else the kOverflowTenant lane.
     * stats_mu_ held. */
    LaneAccum &tenantLaneLocked(const std::string &tenant);

    /** Apply `fn` to the total, per-model and per-tenant buckets of one
     * request. stats_mu_ held. */
    template <typename Fn>
    void
    forLanes(const std::string &model, const std::string &tenant, Fn fn)
    {
        fn(total_accum_);
        fn(model_accum_[model]);
        fn(tenantLaneLocked(tenant));
    }

    mutable std::mutex stats_mu_;
    LaneAccum total_accum_;
    std::map<std::string, LaneAccum> model_accum_;
    std::map<std::string, LaneAccum> tenant_accum_;
    std::map<std::string, uint64_t> last_version_;
    std::vector<uint8_t> worker_active_;  ///< per-slot participation
};

} // namespace lutdla::serve

#endif // LUTDLA_SERVE_FRONTDOOR_H
