#ifndef LUTDLA_SERVE_REGISTRY_H
#define LUTDLA_SERVE_REGISTRY_H

/**
 * @file
 * ModelRegistry: named, versioned FrozenModel snapshots behind the
 * multi-tenant front door (serve/frontdoor.h).
 *
 * The registry is the hot-swap mechanism, and it leans entirely on the
 * immutability the serving refactor bought: a published model is wrapped
 * in a `shared_ptr<const ModelSnapshot>` and NEVER mutated again.
 * publish() of the same name installs a fresh snapshot with a bumped
 * version under the registry lock — an atomic pointer swap as far as
 * readers are concerned — while every in-flight request keeps the
 * shared_ptr it resolved earlier and finishes on the OLD version. That is
 * the zero-drain contract: a hot-swap never pauses serving, never fails
 * an accepted request, and never mixes two versions inside one batch
 * (batches are pinned to the snapshot their requests resolved).
 * The old snapshot's arenas are freed by the last shared_ptr to drop,
 * whichever side (registry or in-flight batch) that happens to be.
 *
 * Versions are per-name and monotonically increasing, starting at 1; a
 * name removed and re-published continues its version sequence, so a
 * version number never refers to two different table sets. The ModelSlo
 * published alongside the model is what the front door's scheduler
 * reads: batching window, per-request row cap, default deadline, and the
 * priority stratum used for overload shedding.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/status.h"
#include "serve/frozen_model.h"

namespace lutdla::serve {

/**
 * Per-model serving policy, fixed at publish() time: how the front door
 * batches, prioritizes, and deadlines requests for this model. Riding on
 * the snapshot (instead of per-request knobs) keeps the scheduler's view
 * consistent across a batch and lets operators retune by republishing.
 */
struct ModelSlo
{
    /** Max rows per executed batch (also the per-request row cap). */
    int64_t max_batch = 64;
    /** Max microseconds a batch waits for more rows after it opens. */
    int64_t batch_window_us = 200;
    /**
     * Deadline applied to requests that do not carry their own, in
     * microseconds from submission; 0 means unbounded.
     */
    int64_t default_deadline_us = 0;
    /**
     * Priority stratum: the scheduler always serves the highest priority
     * with pending work first, and under overload a full queue sheds the
     * lowest-priority / latest-deadline request to admit a strictly
     * higher-priority one.
     */
    int priority = 0;
};

/**
 * One immutable published (model, version, SLO) triple. Holders pin it by
 * shared_ptr; the registry's publish() swaps the pointer, it never
 * mutates a snapshot in place.
 */
struct ModelSnapshot
{
    std::string name;
    uint64_t version = 0;
    FrozenModel model;
    ModelSlo slo;
};

/** Shared-ownership pin on a published snapshot. */
using SnapshotPtr = std::shared_ptr<const ModelSnapshot>;

/**
 * Thread-safe registry of named, versioned model snapshots. All methods
 * may be called concurrently with each other and with serving.
 */
class ModelRegistry
{
  public:
    /**
     * Install `model` as the next version of `name` (1 for a new name)
     * and return that version. Readers that resolve() from now on see
     * the new snapshot; holders of the previous snapshot keep serving it
     * untouched. InvalidArgument for an empty name, nonsense SLO knobs,
     * or slo.max_batch below the model's rowGroup() (no request could
     * ever be admitted); FailedPrecondition for a model with no stages.
     */
    api::Result<uint64_t> publish(const std::string &name,
                                  FrozenModel model, ModelSlo slo = {});

    /** Current snapshot of `name`, or nullptr when not published. */
    SnapshotPtr resolve(const std::string &name) const;

    /**
     * Unpublish `name` (new submissions get NotFound; in-flight requests
     * still complete on their pinned snapshot). NotFound when absent.
     * The version sequence survives a remove + republish cycle.
     */
    api::Status remove(const std::string &name);

    /** Latest published version of `name`, 0 when never published. */
    uint64_t currentVersion(const std::string &name) const;

    /** Snapshot pins of every published model, ordered by name. */
    std::vector<SnapshotPtr> list() const;

    /** Number of currently published models. */
    size_t size() const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, SnapshotPtr> models_;
    std::map<std::string, uint64_t> versions_;  ///< survives remove()
};

} // namespace lutdla::serve

#endif // LUTDLA_SERVE_REGISTRY_H
