#ifndef LUTDLA_SERVE_STATS_H
#define LUTDLA_SERVE_STATS_H

/**
 * @file
 * Serving statistics: a bounded log-linear latency histogram plus the
 * per-lane LaneStats snapshot the serving runtime hands back to callers
 * (EngineStats and FrontDoorStats are views built from it).
 *
 * Percentile semantics: latencies are recorded into power-of-two buckets
 * with 64 linear sub-buckets each (HdrHistogram-style), so p50/p99 are
 * approximate with at most ~1.6% relative bucket width (~0.8% midpoint
 * error) — about three significant figures, so ms-scale percentiles no
 * longer snap to coarse power-of-two edges — with O(1) memory no matter
 * how many requests a lane serves. Counters (served, rows,
 * batches) are exact.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lutdla::serve {

/** Fixed-size log-linear histogram of microsecond latencies. */
class LatencyHistogram
{
  public:
    LatencyHistogram();

    /** Record one latency sample (saturates at ~2^37 us ~ 38 hours). */
    void record(uint64_t micros);

    /** Mean latency in microseconds (0 when empty). */
    double meanMicros() const;

    /**
     * Approximate percentile in microseconds; `p` in [0, 100].
     * Returns the midpoint of the bucket containing the rank.
     */
    double percentileMicros(double p) const;

  private:
    static int bucketIndex(uint64_t micros);
    static double bucketMidpoint(int index);

    // kSubBuckets linear buckets below kSubBuckets us (exact), then
    // kSubBuckets sub-buckets per power of two. Must be a power of two;
    // kSubShift = log2(kSubBuckets) drives the bucket math.
    static constexpr int kSubBuckets = 64;
    static constexpr int kSubShift = 6;
    static constexpr int kBuckets = kSubBuckets * 33;

    std::vector<uint64_t> buckets_;
    uint64_t count_ = 0;
    uint64_t total_micros_ = 0;
};

/**
 * One stats bucket of the serving runtime — the same shape is kept per
 * model, per tenant, and for the totals, so overload shows up wherever it
 * happens: `shed_capacity` counts requests dropped because the bounded
 * queue was full (either refused at admission or evicted by
 * higher-priority traffic), `shed_deadline` counts requests whose
 * deadline expired before execution (failed with DeadlineExceeded
 * WITHOUT running), `cancelled` counts caller-cancelled requests. All
 * sheds are answered with a typed api::Status — nothing is silently
 * dropped. Latency percentiles come from log-linear histograms (~0.8%
 * midpoint error) and split queue wait from service time.
 *
 * Batch-level fields (`batches`, `batch_fill`, the encode/gather phase
 * split) are kept for model lanes and the totals; tenant buckets leave
 * them zero, because one batch can carry several tenants' requests.
 */
struct LaneStats
{
    uint64_t accepted = 0;       ///< admitted into the queue
    uint64_t served = 0;         ///< completed with an OK result
    uint64_t rows = 0;           ///< rows across served requests
    uint64_t rejected = 0;       ///< refused at submit (bad args, ...)
    uint64_t shed_capacity = 0;  ///< dropped: queue full / evicted
    uint64_t shed_deadline = 0;  ///< dropped: deadline expired unserved
    uint64_t cancelled = 0;      ///< dropped: cancelled before execution

    /** Served requests that carried a deadline. */
    uint64_t with_deadline = 0;
    /** Of those, how many completed before their deadline. */
    uint64_t deadline_met = 0;

    uint64_t batches = 0;  ///< executed batches

    /**
     * batch_fill[r] = number of executed batches that carried exactly `r`
     * rows; index 0 is unused. Sized to the largest published
     * slo.max_batch + 1 (empty before the first batch).
     */
    std::vector<uint64_t> batch_fill;

    /**
     * Busy wall-clock window in seconds: first accepted submission to
     * most recent completion. 0 until the first request completes.
     */
    double wall_seconds = 0.0;

    /** Request latency (submit -> result ready) in microseconds. */
    double mean_latency_us = 0.0;
    double p50_latency_us = 0.0;  ///< approximate median latency
    double p99_latency_us = 0.0;  ///< approximate p99 latency
    /**
     * Queue wait (submit -> the request's batch starts executing),
     * recorded separately from service time so overload is visible: a
     * saturated lane shows queue wait exploding while service time stays
     * flat. queue + service == latency per request (up to microsecond
     * rounding); the percentiles are each taken over their own
     * histogram, so they do not add exactly.
     */
    double mean_queue_us = 0.0;
    double p50_queue_us = 0.0;    ///< approximate median queue wait
    double p99_queue_us = 0.0;    ///< approximate p99 queue wait
    /** Service time (batch execution start -> result ready). */
    double mean_service_us = 0.0;
    double p50_service_us = 0.0;  ///< approximate median service time
    double p99_service_us = 0.0;  ///< approximate p99 service time

    /**
     * Encode-phase seconds (argmin encoding of batch rows into packed
     * codes, including im2col / BF16 staging), reported as the
     * PER-ACTIVE-WORKER AVERAGE of per-batch wall times: a split batch
     * is credited with every one of its blocks, whichever worker ran it
     * (serve::forEachBlock), and the cross-worker sum is divided by the
     * pool's active_workers — so the number is comparable across thread
     * counts instead of inflating ~Nx with N concurrent workers. Approximation caveat: the divisor counts workers that EVER
     * did batch work, an upper bound on actual concurrency, so under
     * light load spread across the pool this is a LOWER bound on
     * per-worker phase wall time; at saturation it is tight.
     */
    double encode_seconds = 0.0;
    /** Gather-phase seconds (table accumulation, fused epilogues, NCHW
     * reshape), same per-active-worker-average semantics. */
    double gather_seconds = 0.0;
    /** Raw cross-worker sum of per-batch encode wall times (exceeds
     * wall_seconds under concurrency). */
    double encode_cpu_seconds = 0.0;
    /** Raw cross-worker sum of per-batch gather wall times. */
    double gather_cpu_seconds = 0.0;

    /** Fraction of deadline-carrying served requests that met it
     * (1.0 when none carried a deadline — vacuous SLO attainment). */
    double sloAttainment() const;

    /** Requests dropped for any reason (capacity, deadline, cancel). */
    uint64_t shed() const
    {
        return shed_capacity + shed_deadline + cancelled;
    }

    /** Served-row throughput over the busy window (0 when unknown). */
    double rowsPerSec() const;

    /** Mean rows per executed batch (0 before any batch). */
    double avgBatchFill() const;

    /** Encode share of LUT-stage time, in [0, 1] (0 when unmeasured). */
    double encodeFraction() const;

    /** Multi-line human-readable digest of this bucket. */
    std::string summary() const;
};

/**
 * Snapshot of a single-model InferenceEngine: its model lane plus the
 * pool-level worker count. Returned by InferenceEngine::stats().
 */
struct EngineStats : LaneStats
{
    /** Workers that did real batch work: initiated at least one batch OR
     * stole at least one shard block from another worker's batch. */
    int active_workers = 0;
};

/**
 * Snapshot of a FrontDoor's lifetime counters: totals plus one LaneStats
 * bucket per model and per tenant (std::map so iteration — and the
 * summary() dump — is deterministic). `last_version` records the model
 * version most recently served, making hot-swaps observable from stats.
 */
struct FrontDoorStats
{
    uint64_t batches = 0;    ///< executed batches across all models
    int active_workers = 0;  ///< see EngineStats::active_workers

    LaneStats total;                         ///< all traffic combined
    std::map<std::string, LaneStats> models; ///< per published model
    std::map<std::string, LaneStats> tenants;///< per tenant bucket

    /** Model version most recently served, per model. */
    std::map<std::string, uint64_t> last_version;

    /** Multi-line human-readable digest (deterministic ordering). */
    std::string summary() const;
};

} // namespace lutdla::serve

#endif // LUTDLA_SERVE_STATS_H
