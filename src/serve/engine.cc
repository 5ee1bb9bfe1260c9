#include "serve/engine.h"

#include <utility>

namespace lutdla::serve {

namespace {

/** Registry name of the engine's one model. */
const char kModelName[] = "model";

} // namespace

api::Result<std::shared_ptr<InferenceEngine>>
InferenceEngine::create(FrozenModel model, const EngineOptions &options)
{
    FrontDoorOptions door_options;
    door_options.threads = options.threads;
    door_options.queue_capacity = options.queue_capacity;
    door_options.autostart = false;  // publish before any worker runs
    api::Result<std::shared_ptr<FrontDoor>> door =
        FrontDoor::create(door_options);
    if (!door.ok())
        return door.status();

    ModelSlo slo;
    slo.max_batch = options.max_batch;
    slo.batch_window_us = options.max_wait_us;
    api::Result<uint64_t> published =
        door.value()->publish(kModelName, std::move(model), slo);
    if (!published.ok())
        return published.status();

    std::shared_ptr<InferenceEngine> engine(new InferenceEngine(
        door.value(), door.value()->registry().resolve(kModelName),
        options));
    if (options.autostart)
        engine->start();
    return engine;
}

InferenceEngine::InferenceEngine(std::shared_ptr<FrontDoor> door,
                                 SnapshotPtr snapshot,
                                 const EngineOptions &options)
    : door_(std::move(door)), snapshot_(std::move(snapshot)),
      options_(options)
{
    options_.threads = door_->options().threads;  // 0 resolved to cores
}

void
InferenceEngine::start()
{
    door_->start();
}

void
InferenceEngine::shutdown()
{
    door_->shutdown();
}

std::future<api::Result<Tensor>>
InferenceEngine::submitAsync(Tensor rows)
{
    return door_->submitAsync(kModelName, std::move(rows));
}

api::Result<Tensor>
InferenceEngine::submit(const Tensor &rows)
{
    return submitAsync(rows).get();
}

EngineStats
InferenceEngine::stats() const
{
    const FrontDoorStats door = door_->stats();
    EngineStats out;
    static_cast<LaneStats &>(out) = door.total;  // the one model's lane
    out.active_workers = door.active_workers;
    return out;
}

} // namespace lutdla::serve
