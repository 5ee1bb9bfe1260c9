#include "serve/frontdoor.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

namespace lutdla::serve {

api::Result<std::shared_ptr<FrontDoor>>
FrontDoor::create(const FrontDoorOptions &options)
{
    if (options.threads < 0 || options.threads > 1024)
        return api::Status::invalidArgument(
            "threads must be in [0, 1024] (got " +
            std::to_string(options.threads) + ")");
    if (options.queue_capacity < 1)
        return api::Status::invalidArgument(
            "queue_capacity must be >= 1 (got " +
            std::to_string(options.queue_capacity) + ")");
    return std::make_shared<FrontDoor>(options);
}

FrontDoor::FrontDoor(const FrontDoorOptions &options) : options_(options)
{
    if (options_.threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        options_.threads = hw == 0 ? 1 : static_cast<int>(hw);
    }
    if (options_.autostart)
        start();
}

FrontDoor::~FrontDoor()
{
    shutdown();
}

api::Result<uint64_t>
FrontDoor::publish(const std::string &name, FrozenModel model, ModelSlo slo)
{
    return registry_.publish(name, std::move(model), slo);
}

void
FrontDoor::start()
{
    std::unique_lock<std::mutex> lock(mu_);
    if (started_ || closed_)
        return;
    started_ = true;
    {
        std::unique_lock<std::mutex> stats_lock(stats_mu_);
        worker_active_.assign(static_cast<size_t>(options_.threads), 0);
    }
    workers_.reserve(static_cast<size_t>(options_.threads));
    for (int i = 0; i < options_.threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

void
FrontDoor::shutdown()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (closed_)
            return;
        closed_ = true;
        work_.notify_all();
        task_done_.notify_all();
    }
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();
    // Never-started front doors still owe answers for queued requests.
    failRemaining();
}

void
FrontDoor::failRemaining()
{
    std::map<std::string, std::deque<ReqPtr>> orphans;
    {
        std::unique_lock<std::mutex> lock(mu_);
        orphans.swap(queues_);
        total_queued_ = 0;
    }
    for (auto &entry : orphans)
        for (ReqPtr &req : entry.second)
            req->promise.set_value(api::Status::failedPrecondition(
                "front door shut down before this request was served"));
}

Tenant
FrontDoor::tenant(std::string name, RequestOptions defaults)
{
    defaults.tenant = std::move(name);
    return Tenant(this, std::move(defaults));
}

api::Result<Tensor>
FrontDoor::submit(const std::string &model, const Tensor &rows,
                  const RequestOptions &options)
{
    return submitAsync(model, rows, options).get();
}

std::future<api::Result<Tensor>>
FrontDoor::submitAsync(const std::string &model, Tensor rows,
                       const RequestOptions &options)
{
    return enqueue(model, std::move(rows), options, nullptr);
}

RequestTicket
FrontDoor::submitCancellable(const std::string &model, Tensor rows,
                             const RequestOptions &options)
{
    RequestTicket ticket;
    ticket.cancelled = std::make_shared<std::atomic<bool>>(false);
    ticket.future =
        enqueue(model, std::move(rows), options, ticket.cancelled);
    return ticket;
}

std::future<api::Result<Tensor>>
FrontDoor::enqueue(const std::string &model, Tensor rows,
                   const RequestOptions &options,
                   std::shared_ptr<std::atomic<bool>> cancel_flag)
{
    std::promise<api::Result<Tensor>> promise;
    std::future<api::Result<Tensor>> future = promise.get_future();
    const std::string tenant =
        options.tenant.empty() ? "default" : options.tenant;

    // Validation failures are `rejected`, not `shed`: the request was
    // never admissible, as opposed to admissible traffic dropped under
    // overload. A name that resolves to no model gets no model lane:
    // the caller picks the name, so counting it there would grow the
    // stats map by one bucket per distinct bogus name.
    SnapshotPtr snapshot = registry_.resolve(model);
    const bool published = snapshot != nullptr;
    auto reject = [&](api::Status status) {
        {
            std::unique_lock<std::mutex> stats_lock(stats_mu_);
            if (published) {
                forLanes(model, tenant,
                         [](LaneAccum &lane) { lane.rejected++; });
            } else {
                total_accum_.rejected++;
                tenantLaneLocked(tenant).rejected++;
            }
        }
        promise.set_value(std::move(status));
        return std::move(future);
    };

    if (!snapshot)
        return reject(api::Status::notFound(
            "model '" + model + "' is not published; publish() it first"));
    const ModelSlo &slo = snapshot->slo;
    if (rows.rank() != 2 ||
        rows.dim(1) != snapshot->model.inputWidth())
        return reject(api::Status::invalidArgument(
            "request for '" + model + "' must be [rows, " +
            std::to_string(snapshot->model.inputWidth()) + "], got " +
            shapeStr(rows.shape())));
    if (rows.dim(0) < 1)
        return reject(api::Status::invalidArgument(
            "request must carry at least one row"));
    if (rows.dim(0) > slo.max_batch)
        return reject(api::Status::invalidArgument(
            "request of " + std::to_string(rows.dim(0)) +
            " rows exceeds '" + model + "' slo.max_batch " +
            std::to_string(slo.max_batch) + "; split it"));
    if (rows.dim(0) % snapshot->model.rowGroup() != 0)
        return reject(api::Status::invalidArgument(
            "request of " + std::to_string(rows.dim(0)) +
            " rows is not a multiple of '" + model +
            "' sequence length " +
            std::to_string(snapshot->model.rowGroup()) +
            "; attention models serve whole [B*seq_len, D] sequences"));

    auto req = std::make_unique<Req>();
    req->rows = rows.dim(0);
    req->input = std::move(rows);
    req->snapshot = std::move(snapshot);
    req->enqueued = Clock::now();
    req->priority = options.priority ? *options.priority : slo.priority;
    req->tenant = tenant;
    req->cancelled = std::move(cancel_flag);
    const int64_t deadline_us = options.deadline_us
                                    ? *options.deadline_us
                                    : slo.default_deadline_us;
    if (deadline_us < 0)
        return reject(api::Status::invalidArgument(
            "deadline_us must be >= 0 (got " +
            std::to_string(deadline_us) + ")"));
    if (deadline_us > 0) {
        req->has_deadline = true;
        req->deadline =
            req->enqueued + std::chrono::microseconds(deadline_us);
    }

    std::unique_lock<std::mutex> lock(mu_);
    if (closed_) {
        lock.unlock();
        return reject(api::Status::failedPrecondition(
            "front door is shut down; create a new one"));
    }
    req->promise = std::move(promise);

    if (total_queued_ >= options_.queue_capacity) {
        // Overload: never block the submitter. Evict the worst queued
        // request (lowest priority, then latest deadline, then newest)
        // iff the incoming one strictly outranks it; otherwise refuse
        // the incoming request. Either way the loser gets a typed
        // ResourceExhausted and an overload counter tick.
        auto victim_queue = queues_.end();
        std::deque<ReqPtr>::iterator victim_it;
        for (auto qit = queues_.begin(); qit != queues_.end(); ++qit) {
            for (auto rit = qit->second.begin(); rit != qit->second.end();
                 ++rit) {
                if (victim_queue == queues_.end()) {
                    victim_queue = qit;
                    victim_it = rit;
                    continue;
                }
                const Req &cur = **victim_it;
                const Req &r = **rit;
                if (r.priority < cur.priority ||
                    (r.priority == cur.priority &&
                     (r.deadline > cur.deadline ||
                      (r.deadline == cur.deadline && r.seq > cur.seq)))) {
                    victim_queue = qit;
                    victim_it = rit;
                }
            }
        }
        if (victim_queue != queues_.end() &&
            (*victim_it)->priority < req->priority) {
            ReqPtr victim = std::move(*victim_it);
            victim_queue->second.erase(victim_it);
            --total_queued_;
            shed(*victim, Shed::Capacity,
                 "shed under overload: evicted by higher-priority "
                 "traffic while the queue was full");
        } else {
            lock.unlock();
            shed(*req, Shed::Capacity,
                 "shed under overload: queue is full and no "
                 "lower-priority request can be evicted");
            return future;
        }
    }

    // EDF insertion: after the last queued request whose deadline is not
    // later (equal deadlines stay FIFO via seq). Scanning from the back
    // makes the common no-deadline case O(1) however deep the backlog.
    req->seq = next_seq_++;
    const Clock::time_point enqueued = req->enqueued;
    std::deque<ReqPtr> &queue = queues_[model];
    auto pos = queue.end();
    while (pos != queue.begin() && (*std::prev(pos))->deadline > req->deadline)
        --pos;
    queue.insert(pos, std::move(req));
    ++total_queued_;
    {
        std::unique_lock<std::mutex> stats_lock(stats_mu_);
        forLanes(model, tenant, [&](LaneAccum &lane) {
            lane.accepted++;
            if (!lane.saw_accept) {
                lane.saw_accept = true;
                lane.first_accept = enqueued;
            }
        });
    }
    lock.unlock();
    // Notify after unlocking: a woken worker finds mu_ free instead of
    // going straight back to sleep on it.
    work_.notify_one();
    return future;
}

void
FrontDoor::shed(Req &req, Shed kind, const std::string &message)
{
    api::Status status;
    switch (kind) {
      case Shed::Capacity:
        status = api::Status::resourceExhausted(message);
        break;
      case Shed::Deadline:
        status = api::Status::deadlineExceeded(message);
        break;
      case Shed::Cancel:
        status = api::Status::cancelled(message);
        break;
    }
    {
        std::unique_lock<std::mutex> stats_lock(stats_mu_);
        forLanes(req.snapshot->name, req.tenant, [&](LaneAccum &lane) {
            switch (kind) {
              case Shed::Capacity: lane.shed_capacity++; break;
              case Shed::Deadline: lane.shed_deadline++; break;
              case Shed::Cancel:   lane.cancelled++;     break;
            }
        });
    }
    req.promise.set_value(std::move(status));
}

FrontDoor::ReqPtr
FrontDoor::popBestLocked()
{
    auto best = queues_.end();
    for (auto it = queues_.begin(); it != queues_.end(); ++it) {
        if (it->second.empty())
            continue;
        const Req &head = *it->second.front();
        if (best == queues_.end()) {
            best = it;
            continue;
        }
        const Req &cur = *best->second.front();
        if (head.priority > cur.priority ||
            (head.priority == cur.priority &&
             (head.deadline < cur.deadline ||
              (head.deadline == cur.deadline && head.seq < cur.seq))))
            best = it;
    }
    ReqPtr out = std::move(best->second.front());
    best->second.pop_front();
    --total_queued_;
    return out;
}

bool
FrontDoor::higherPriorityPendingLocked(int priority) const
{
    for (const auto &entry : queues_)
        if (!entry.second.empty() &&
            entry.second.front()->priority > priority)
            return true;
    return false;
}

std::shared_ptr<FrontDoor::ShardTask>
FrontDoor::claimableTaskLocked() const
{
    for (const auto &task : tasks_)
        if (task->next.load(std::memory_order_relaxed) < task->blocks)
            return task;
    return nullptr;
}

bool
FrontDoor::runShards(ShardTask &task, StageScratch &scratch)
{
    bool ran = false;
    while (true) {
        const int64_t block =
            task.next.fetch_add(1, std::memory_order_relaxed);
        if (block >= task.blocks)
            return ran;
        task.fn(block, scratch);
        ran = true;
        if (task.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            task.blocks) {
            std::unique_lock<std::mutex> lock(mu_);
            task_done_.notify_all();
        }
    }
}

void
FrontDoor::parallelFor(int64_t blocks, const ShardFn &fn,
                       StageScratch &caller)
{
    if (blocks <= 1) {
        for (int64_t b = 0; b < blocks; ++b)
            fn(b, caller);
        return;
    }
    auto task = std::make_shared<ShardTask>();
    task->fn = fn;
    task->blocks = blocks;
    {
        std::unique_lock<std::mutex> lock(mu_);
        tasks_.push_back(task);
        work_.notify_all();
    }
    // Publish, participate, then wait for stolen stragglers: the caller
    // claims blocks itself, so the phase completes even when every other
    // worker is busy with its own batch.
    runShards(*task, caller);
    std::unique_lock<std::mutex> lock(mu_);
    task_done_.wait(lock, [&] {
        return task->completed.load(std::memory_order_acquire) ==
               task->blocks;
    });
    for (size_t i = 0; i < tasks_.size(); ++i) {
        if (tasks_[i] == task) {
            tasks_.erase(tasks_.begin() + static_cast<long>(i));
            break;
        }
    }
}

void
FrontDoor::markActive(int slot)
{
    std::unique_lock<std::mutex> stats_lock(stats_mu_);
    worker_active_[static_cast<size_t>(slot)] = 1;
}

void
FrontDoor::workerLoop(int slot)
{
    // Worker-lifetime scratch: buffers grow to the largest batch seen and
    // are reused, so steady-state batches allocate nothing; with more
    // than one worker the scratch carries the intra-batch pool so LUT
    // stages this worker initiates can shard across the pool.
    StageScratch scratch;
    if (options_.threads > 1)
        scratch.pool = this;
    // Worker-lifetime batch too, so filling it under mu_ never
    // reallocates while submitters wait for the lock.
    std::vector<ReqPtr> batch;

    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
        work_.wait(lock, [&] {
            return closed_ || total_queued_ > 0 ||
                   claimableTaskLocked() != nullptr;
        });
        if (auto task = claimableTaskLocked()) {
            lock.unlock();
            // A helper that claimed a block counts as active even if it
            // never initiates a batch of its own — otherwise coalescing
            // every request through one initiator under-counts the pool.
            if (runShards(*task, scratch))
                markActive(slot);
            lock.lock();
            continue;
        }
        if (total_queued_ == 0) {
            if (closed_)
                return;  // drained: requests AND shard work
            continue;    // spurious wake (shard task drained under us)
        }

        ReqPtr first = popBestLocked();
        const auto opened = Clock::now();
        if (first->cancelled &&
            first->cancelled->load(std::memory_order_relaxed)) {
            shed(*first, Shed::Cancel,
                 "request cancelled before execution");
            continue;
        }
        if (opened > first->deadline) {
            shed(*first, Shed::Deadline,
                 "deadline expired before the request was scheduled");
            continue;
        }

        // Open a batch pinned to this request's snapshot — never to the
        // registry's CURRENT version, which may change mid-batch.
        const SnapshotPtr snapshot = first->snapshot;
        const ModelSlo &slo = snapshot->slo;
        const std::string &model_name = snapshot->name;
        int64_t rows = first->rows;
        batch.push_back(std::move(first));
        const auto window_end =
            opened + std::chrono::microseconds(slo.batch_window_us);

        while (rows < slo.max_batch) {
            // Admit every same-snapshot request queued right now, in EDF
            // order, settling dead (cancelled / expired) ones on the way
            // without executing them.
            bool admitted = false;
            auto queue_it = queues_.find(model_name);
            if (queue_it != queues_.end()) {
                auto &queue = queue_it->second;
                const auto now = Clock::now();
                for (auto pos = queue.begin();
                     pos != queue.end() && rows < slo.max_batch;) {
                    if ((*pos)->snapshot != snapshot) {
                        ++pos;  // other version: next batch's problem
                        continue;
                    }
                    if ((*pos)->cancelled &&
                        (*pos)->cancelled->load(std::memory_order_relaxed)) {
                        ReqPtr dead = std::move(*pos);
                        pos = queue.erase(pos);
                        --total_queued_;
                        shed(*dead, Shed::Cancel,
                             "request cancelled before execution");
                        continue;
                    }
                    if (now > (*pos)->deadline) {
                        ReqPtr dead = std::move(*pos);
                        pos = queue.erase(pos);
                        --total_queued_;
                        shed(*dead, Shed::Deadline,
                             "deadline expired while waiting for a "
                             "batch slot");
                        continue;
                    }
                    if (rows + (*pos)->rows > slo.max_batch) {
                        ++pos;
                        continue;
                    }
                    rows += (*pos)->rows;
                    batch.push_back(std::move(*pos));
                    pos = queue.erase(pos);
                    --total_queued_;
                    admitted = true;
                }
            }
            if (rows >= slo.max_batch || closed_)
                break;
            if (admitted)
                continue;  // drained the backlog; re-check the window
            const auto remaining = window_end - Clock::now();
            if (remaining <= Clock::duration::zero())
                break;
            // Strictly higher-priority pending work closes the window
            // early: an interactive model never waits out a bulk
            // model's batch window.
            if (higherPriorityPendingLocked(slo.priority))
                break;
            work_.wait_for(lock, remaining);
        }

        lock.unlock();
        executeBatch(batch, rows, snapshot, scratch, slot);
        batch.clear();  // free request buffers outside the lock
        lock.lock();
    }
}

void
FrontDoor::executeBatch(std::vector<ReqPtr> &batch, int64_t rows,
                        const SnapshotPtr &snapshot, StageScratch &scratch,
                        int slot)
{
    const FrozenModel &model = snapshot->model;
    const int64_t in_width = model.inputWidth();
    const auto exec_start = Clock::now();
    Tensor packed(Shape{rows, in_width});
    int64_t offset = 0;
    for (const ReqPtr &req : batch) {
        std::memcpy(packed.data() + offset * in_width, req->input.data(),
                    static_cast<size_t>(req->rows * in_width) *
                        sizeof(float));
        offset += req->rows;
    }

    // The stage chain accumulates its encode/gather phase times into the
    // worker's scratch; the deltas around this batch are its share.
    const uint64_t encode_before = scratch.encode_ns;
    const uint64_t gather_before = scratch.gather_ns;
    const Tensor output = model.forwardBatch(packed, scratch);
    const int64_t out_width = output.dim(1);
    const auto done = Clock::now();

    // Record stats BEFORE fulfilling promises: a caller woken by its
    // future must already see this batch reflected in stats().
    {
        std::unique_lock<std::mutex> stats_lock(stats_mu_);
        worker_active_[static_cast<size_t>(slot)] = 1;
        last_version_[snapshot->name] = snapshot->version;
        LaneAccum &model_lane = model_accum_[snapshot->name];
        const size_t fill_size =
            static_cast<size_t>(snapshot->slo.max_batch) + 1;
        for (LaneAccum *lane : {&total_accum_, &model_lane}) {
            lane->batches++;
            lane->encode_ns += scratch.encode_ns - encode_before;
            lane->gather_ns += scratch.gather_ns - gather_before;
            if (lane->batch_fill.size() < fill_size)
                lane->batch_fill.resize(fill_size, 0);
            lane->batch_fill[static_cast<size_t>(rows)]++;
        }
        for (const ReqPtr &ptr : batch) {
            const Req &req = *ptr;
            const auto micros = [](Clock::duration d) {
                return static_cast<uint64_t>(std::max<int64_t>(
                    0, std::chrono::duration_cast<std::chrono::microseconds>(
                           d)
                           .count()));
            };
            const uint64_t queue_us = micros(exec_start - req.enqueued);
            const uint64_t service_us = micros(done - exec_start);
            const uint64_t latency_us = micros(done - req.enqueued);
            auto record = [&](LaneAccum &lane) {
                lane.served++;
                lane.rows += static_cast<uint64_t>(req.rows);
                lane.latency.record(latency_us);
                lane.queue_wait.record(queue_us);
                lane.service.record(service_us);
                if (req.has_deadline) {
                    lane.with_deadline++;
                    if (done <= req.deadline)
                        lane.deadline_met++;
                }
                lane.last_done = done;
            };
            record(total_accum_);
            record(model_lane);
            record(tenantLaneLocked(req.tenant));
        }
    }

    offset = 0;
    for (ReqPtr &req : batch) {
        Tensor slice(Shape{req->rows, out_width});
        std::memcpy(slice.data(), output.data() + offset * out_width,
                    static_cast<size_t>(req->rows * out_width) *
                        sizeof(float));
        offset += req->rows;
        req->promise.set_value(std::move(slice));
    }
}

FrontDoor::LaneAccum &
FrontDoor::tenantLaneLocked(const std::string &tenant)
{
    const auto it = tenant_accum_.find(tenant);
    if (it != tenant_accum_.end())
        return it->second;
    // Once the cap is reached the overflow lane is the (cap + 1)-th.
    return tenant_accum_[tenant_accum_.size() < kMaxTenantLanes
                             ? tenant
                             : std::string(kOverflowTenant)];
}

LaneStats
FrontDoor::snapshotLane(const LaneAccum &accum, int active_workers)
{
    LaneStats out = accum;  // the exact counters
    if (accum.saw_accept && accum.served > 0)
        out.wall_seconds =
            std::chrono::duration<double>(accum.last_done -
                                          accum.first_accept)
                .count();
    out.mean_latency_us = accum.latency.meanMicros();
    out.p50_latency_us = accum.latency.percentileMicros(50.0);
    out.p99_latency_us = accum.latency.percentileMicros(99.0);
    out.mean_queue_us = accum.queue_wait.meanMicros();
    out.p50_queue_us = accum.queue_wait.percentileMicros(50.0);
    out.p99_queue_us = accum.queue_wait.percentileMicros(99.0);
    out.mean_service_us = accum.service.meanMicros();
    out.p50_service_us = accum.service.percentileMicros(50.0);
    out.p99_service_us = accum.service.percentileMicros(99.0);
    // Per-batch phase deltas time only the initiating worker, so the
    // cross-worker sum divided by the workers that did batch OR shard
    // work stays comparable across thread counts.
    const double active = std::max(1, active_workers);
    out.encode_cpu_seconds = static_cast<double>(accum.encode_ns) * 1e-9;
    out.gather_cpu_seconds = static_cast<double>(accum.gather_ns) * 1e-9;
    out.encode_seconds = out.encode_cpu_seconds / active;
    out.gather_seconds = out.gather_cpu_seconds / active;
    return out;
}

FrontDoorStats
FrontDoor::stats() const
{
    std::unique_lock<std::mutex> lock(stats_mu_);
    FrontDoorStats out;
    for (uint8_t active : worker_active_)
        out.active_workers += active;
    out.total = snapshotLane(total_accum_, out.active_workers);
    out.batches = out.total.batches;
    for (const auto &entry : model_accum_)
        out.models[entry.first] =
            snapshotLane(entry.second, out.active_workers);
    for (const auto &entry : tenant_accum_)
        out.tenants[entry.first] =
            snapshotLane(entry.second, out.active_workers);
    out.last_version = last_version_;
    return out;
}

api::Result<Tensor>
Tenant::submit(const std::string &model, const Tensor &rows) const
{
    return submitAsync(model, rows).get();
}

std::future<api::Result<Tensor>>
Tenant::submitAsync(const std::string &model, Tensor rows) const
{
    if (!door_) {
        std::promise<api::Result<Tensor>> promise;
        promise.set_value(api::Status::failedPrecondition(
            "tenant handle is not bound to a front door"));
        return promise.get_future();
    }
    return door_->submitAsync(model, std::move(rows), defaults_);
}

RequestTicket
Tenant::submitCancellable(const std::string &model, Tensor rows) const
{
    if (!door_) {
        RequestTicket ticket;
        std::promise<api::Result<Tensor>> promise;
        promise.set_value(api::Status::failedPrecondition(
            "tenant handle is not bound to a front door"));
        ticket.future = promise.get_future();
        return ticket;
    }
    return door_->submitCancellable(model, std::move(rows), defaults_);
}

} // namespace lutdla::serve
