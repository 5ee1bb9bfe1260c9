#include "serve/stats.h"

#include <algorithm>
#include <cstdio>

namespace lutdla::serve {

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

int
LatencyHistogram::bucketIndex(uint64_t micros)
{
    if (micros < kSubBuckets)
        return static_cast<int>(micros);
    const int log = 63 - __builtin_clzll(micros);
    // log >= kSubShift here; kSubBuckets linear sub-buckets spanning
    // [2^log, 2^(log+1)).
    const int sub = static_cast<int>((micros >> (log - kSubShift)) &
                                     (kSubBuckets - 1));
    const int index = (log - kSubShift + 1) * kSubBuckets + sub;
    return std::min(index, kBuckets - 1);
}

double
LatencyHistogram::bucketMidpoint(int index)
{
    if (index < kSubBuckets)
        return static_cast<double>(index);
    const int log = index / kSubBuckets + kSubShift - 1;
    const int sub = index % kSubBuckets;
    const double low = static_cast<double>(
        (static_cast<uint64_t>(kSubBuckets) + static_cast<uint64_t>(sub))
        << (log - kSubShift));
    const double width = static_cast<double>(1ull << (log - kSubShift));
    return low + width / 2.0;
}

void
LatencyHistogram::record(uint64_t micros)
{
    buckets_[static_cast<size_t>(bucketIndex(micros))]++;
    count_++;
    total_micros_ += micros;
}

double
LatencyHistogram::meanMicros() const
{
    if (count_ == 0)
        return 0.0;
    return static_cast<double>(total_micros_) /
           static_cast<double>(count_);
}

double
LatencyHistogram::percentileMicros(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::min(100.0, std::max(0.0, p));
    const uint64_t rank = static_cast<uint64_t>(
        p / 100.0 * static_cast<double>(count_ - 1));
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
        seen += buckets_[static_cast<size_t>(i)];
        if (seen > rank)
            return bucketMidpoint(i);
    }
    return bucketMidpoint(kBuckets - 1);
}

double
LaneStats::sloAttainment() const
{
    if (with_deadline == 0)
        return 1.0;
    return static_cast<double>(deadline_met) /
           static_cast<double>(with_deadline);
}

double
LaneStats::rowsPerSec() const
{
    if (wall_seconds <= 0.0)
        return 0.0;
    return static_cast<double>(rows) / wall_seconds;
}

double
LaneStats::avgBatchFill() const
{
    if (batches == 0)
        return 0.0;
    return static_cast<double>(rows) / static_cast<double>(batches);
}

double
LaneStats::encodeFraction() const
{
    const double total = encode_seconds + gather_seconds;
    if (total <= 0.0)
        return 0.0;
    return encode_seconds / total;
}

std::string
LaneStats::summary() const
{
    char line[320];
    std::string out;
    std::snprintf(line, sizeof(line),
                  "accepted %llu, served %llu (%llu rows), shed %llu (cap "
                  "%llu / ddl %llu / cancel %llu), rejected %llu, slo "
                  "%.3f\n",
                  static_cast<unsigned long long>(accepted),
                  static_cast<unsigned long long>(served),
                  static_cast<unsigned long long>(rows),
                  static_cast<unsigned long long>(shed()),
                  static_cast<unsigned long long>(shed_capacity),
                  static_cast<unsigned long long>(shed_deadline),
                  static_cast<unsigned long long>(cancelled),
                  static_cast<unsigned long long>(rejected),
                  sloAttainment());
    out += line;
    std::snprintf(line, sizeof(line),
                  "  %.1f rows/s over %.3f s busy window; latency us: mean "
                  "%.1f, p50 ~%.1f, p99 ~%.1f\n",
                  rowsPerSec(), wall_seconds, mean_latency_us,
                  p50_latency_us, p99_latency_us);
    out += line;
    std::snprintf(line, sizeof(line),
                  "  queue us: mean %.1f, p50 ~%.1f, p99 ~%.1f | service "
                  "us: mean %.1f, p50 ~%.1f, p99 ~%.1f\n",
                  mean_queue_us, p50_queue_us, p99_queue_us,
                  mean_service_us, p50_service_us, p99_service_us);
    out += line;
    if (batches > 0) {
        std::snprintf(line, sizeof(line),
                      "  batches %llu (avg fill %.2f); lut phases: encode "
                      "%.4f s, gather %.4f s (%.0f%% encode, per-worker "
                      "avg)\n",
                      static_cast<unsigned long long>(batches),
                      avgBatchFill(), encode_seconds, gather_seconds,
                      encodeFraction() * 100.0);
        out += line;
    }
    return out;
}

std::string
FrontDoorStats::summary() const
{
    std::string out;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "front door: %llu batches across %zu models, "
                  "%zu tenants, %d active workers\n",
                  static_cast<unsigned long long>(batches), models.size(),
                  tenants.size(), active_workers);
    out += line;
    out += "total: " + total.summary();
    for (const auto &entry : models) {
        std::string label = "model " + entry.first;
        auto version = last_version.find(entry.first);
        if (version != last_version.end())
            label += " @v" + std::to_string(version->second);
        out += label + ": " + entry.second.summary();
    }
    for (const auto &entry : tenants)
        out += "tenant " + entry.first + ": " + entry.second.summary();
    return out;
}

} // namespace lutdla::serve
