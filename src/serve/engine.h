#ifndef LUTDLA_SERVE_ENGINE_H
#define LUTDLA_SERVE_ENGINE_H

/**
 * @file
 * InferenceEngine: batched multi-threaded serving of ONE FrozenModel.
 *
 * Once LUTBoost freezes a model, inference is pure table-gather-and-
 * accumulate — an embarrassingly batchable workload. The engine is the
 * single-model face of the serving runtime: a thin facade over a private
 * one-model FrontDoor (serve/frontdoor.h), which owns the worker pool,
 * the dynamic batcher, intra-batch shard stealing, and the stats. The
 * engine maps its knobs onto that runtime — `threads`, `queue_capacity`
 * and `autostart` onto FrontDoorOptions, `max_batch` and `max_wait_us`
 * onto the published ModelSlo's `max_batch` and `batch_window_us` — so a
 * worker opens a batch with the first queued request and keeps admitting
 * requests until the batch holds `max_batch` rows or `max_wait_us` has
 * elapsed, whichever comes first.
 *
 * Request lifecycle: submitAsync() validates, stamps, and enqueues the
 * request and returns a future; a worker later fulfills the promise with
 * the [rows, outputWidth] result or a typed api::Status. submit() is the
 * blocking convenience wrapper. Every error is data — the engine never
 * panics on a bad request.
 *
 * Admission never blocks: when `queue_capacity` requests are already
 * queued, a submission is answered at once with ResourceExhausted (and
 * counted in stats().shed_capacity). Size the queue for the concurrency
 * the caller drives.
 *
 * Shutdown contract: shutdown() refuses new submissions, lets workers
 * drain everything already queued, then joins them; every accepted request
 * still gets its result. The destructor calls shutdown().
 */

#include <future>
#include <memory>

#include "api/status.h"
#include "serve/frontdoor.h"
#include "serve/frozen_model.h"
#include "serve/stats.h"
#include "tensor/tensor.h"

namespace lutdla::serve {

/** Engine tuning knobs; see docs/SERVING.md for the tuning guide. */
struct EngineOptions
{
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    int threads = 0;
    /** Max rows per executed batch (also the per-request row cap). */
    int64_t max_batch = 64;
    /** Max microseconds a batch waits for more rows after it opens. */
    int64_t max_wait_us = 200;
    /** Bounded request-queue capacity (requests, not rows); a full queue
     * answers ResourceExhausted instead of blocking. */
    int64_t queue_capacity = 256;
    /**
     * Spawn workers in the constructor. Turn off to pre-fill the queue and
     * then start() — deterministic batch composition, used by tests and
     * the serving demo.
     */
    bool autostart = true;
};

/** Batched multi-threaded inference engine over a frozen LUT model. */
class InferenceEngine
{
  public:
    /**
     * Validate options and build an engine. InvalidArgument on nonsense
     * knobs (threads < 0, max_batch < 1, max_batch below the model's row
     * group, ...), FailedPrecondition for an empty model. The returned
     * engine is ready for submissions (workers already running when
     * autostart).
     */
    static api::Result<std::shared_ptr<InferenceEngine>>
    create(FrozenModel model, const EngineOptions &options = {});

    InferenceEngine(const InferenceEngine &) = delete;
    InferenceEngine &operator=(const InferenceEngine &) = delete;

    /** Spawn the worker pool; idempotent; no-op after shutdown(). */
    void start();

    /**
     * Refuse new submissions, drain queued work, join workers. Idempotent.
     * If the engine was never start()ed, queued requests are failed with
     * FailedPrecondition instead of hanging.
     */
    void shutdown();

    /**
     * Serve one request of [rows, inputWidth()] and block for the result.
     * Errors come back as statuses: InvalidArgument for zero rows, width
     * mismatch, rows > max_batch, or a partial attention sequence;
     * ResourceExhausted when the queue is full; FailedPrecondition after
     * shutdown().
     */
    api::Result<Tensor> submit(const Tensor &rows);

    /** Fire-and-wait-later variant of submit(). Never blocks. */
    std::future<api::Result<Tensor>> submitAsync(Tensor rows);

    /** Consistent snapshot of the lifetime serving statistics. */
    EngineStats stats() const;

    /** The frozen model being served. */
    const FrozenModel &model() const { return snapshot_->model; }

    /** The options the engine runs with. */
    const EngineOptions &options() const { return options_; }

  private:
    InferenceEngine(std::shared_ptr<FrontDoor> door, SnapshotPtr snapshot,
                    const EngineOptions &options);

    std::shared_ptr<FrontDoor> door_;
    SnapshotPtr snapshot_;  ///< the one published model
    EngineOptions options_;
};

} // namespace lutdla::serve

#endif // LUTDLA_SERVE_ENGINE_H
