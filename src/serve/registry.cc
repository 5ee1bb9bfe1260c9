#include "serve/registry.h"

#include <utility>

namespace lutdla::serve {

api::Result<uint64_t>
ModelRegistry::publish(const std::string &name, FrozenModel model,
                       ModelSlo slo)
{
    if (name.empty())
        return api::Status::invalidArgument(
            "model name must be non-empty");
    if (slo.max_batch < 1 || slo.max_batch > 65536)
        return api::Status::invalidArgument(
            "slo.max_batch must be in [1, 65536] (got " +
            std::to_string(slo.max_batch) + ")");
    if (slo.batch_window_us < 0)
        return api::Status::invalidArgument(
            "slo.batch_window_us must be >= 0 (got " +
            std::to_string(slo.batch_window_us) + ")");
    if (slo.default_deadline_us < 0)
        return api::Status::invalidArgument(
            "slo.default_deadline_us must be >= 0 (got " +
            std::to_string(slo.default_deadline_us) + ")");
    if (model.numStages() == 0)
        return api::Status::failedPrecondition(
            "cannot publish an empty model");
    if (slo.max_batch < model.rowGroup())
        return api::Status::invalidArgument(
            "slo.max_batch " + std::to_string(slo.max_batch) +
            " is smaller than the model's row group " +
            std::to_string(model.rowGroup()) +
            " (attention models batch whole sequences of seq_len rows)");

    auto snapshot = std::make_shared<ModelSnapshot>();
    snapshot->name = name;
    snapshot->model = std::move(model);
    snapshot->slo = slo;

    std::unique_lock<std::mutex> lock(mu_);
    snapshot->version = ++versions_[name];
    models_[name] = std::move(snapshot);
    return models_[name]->version;
}

SnapshotPtr
ModelRegistry::resolve(const std::string &name) const
{
    std::unique_lock<std::mutex> lock(mu_);
    auto it = models_.find(name);
    return it == models_.end() ? nullptr : it->second;
}

api::Status
ModelRegistry::remove(const std::string &name)
{
    std::unique_lock<std::mutex> lock(mu_);
    auto it = models_.find(name);
    if (it == models_.end())
        return api::Status::notFound("model '" + name +
                                     "' is not published");
    models_.erase(it);
    return {};
}

uint64_t
ModelRegistry::currentVersion(const std::string &name) const
{
    std::unique_lock<std::mutex> lock(mu_);
    auto it = versions_.find(name);
    return it == versions_.end() ? 0 : it->second;
}

std::vector<SnapshotPtr>
ModelRegistry::list() const
{
    std::unique_lock<std::mutex> lock(mu_);
    std::vector<SnapshotPtr> out;
    out.reserve(models_.size());
    for (const auto &entry : models_)
        out.push_back(entry.second);
    return out;
}

size_t
ModelRegistry::size() const
{
    std::unique_lock<std::mutex> lock(mu_);
    return models_.size();
}

} // namespace lutdla::serve
