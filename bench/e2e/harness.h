#ifndef LUTDLA_BENCH_E2E_HARNESS_H
#define LUTDLA_BENCH_E2E_HARNESS_H

/**
 * @file
 * Load-generation and measurement harness of the end-to-end benchmark.
 *
 * Everything here observes the serving stack from outside: requests go in
 * through the public submit calls, completions are stamped by a poller
 * that checks the returned futures every few tens of microseconds, and
 * every response is compared bitwise against a reference computed
 * beforehand with single-thread FrozenModel::forwardBatch on the same
 * plan. Spans are kept in memory and written as Chrome trace-event JSON
 * at exit, only when tracing is on.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/status.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace lutdla::e2e {

using Clock = std::chrono::steady_clock;
using Future = std::future<api::Result<Tensor>>;

/** Monotonic nanoseconds. */
int64_t nowNs();

/** Seconds between two nowNs() stamps. */
inline double
secondsBetween(int64_t start_ns, int64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/** Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty. */
double percentile(std::vector<double> values, double p);

/** Median of `values`; 0 when empty. */
double median(std::vector<double> values);

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * In-memory span recorder. A span has a name, start, end, parent span id
 * and request id. Request spans are written as async begin/end pairs so
 * overlapping requests render on their own tracks; all other spans are
 * complete events on the recording thread's track. Disabled recorders
 * drop every call after one branch.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Reserve a span id, so children can name a parent recorded after
     * them (0 when disabled). */
    int64_t reserveId();

    /** Record a finished span and return its id (0 when disabled). `id`
     * is a reserved id, or 0 to allocate one. */
    int64_t add(std::string name, int64_t start_ns, int64_t end_ns,
                int64_t parent = 0, int64_t request = -1, int track = 0,
                int64_t id = 0);

    /** Total recorded spans. */
    int64_t size() const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChrome(const std::string &path) const;

    /** Wall-clock nanoseconds one add() costs, measured on a scratch
     * recorder so the benchmark can report its own tracing overhead. */
    static double costPerSpanNs();

  private:
    struct Span
    {
        std::string name;
        int64_t start_ns, end_ns, id, parent, request;
        int track;
    };

    bool enabled_;
    std::atomic<int64_t> next_id_{1};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/**
 * Seeded input rows and the reference outputs every response is checked
 * against. Rows are grouped: a request takes `group` consecutive rows
 * starting at a multiple of `group` (1 for row-independent models, the
 * sequence length for attention models), wrapping around the pool.
 */
struct RequestPool
{
    Tensor rows;              ///< [n, in_width]
    int64_t group = 1;
    std::vector<Tensor> refs; ///< one [n, out_width] reference per version

    int64_t size() const { return rows.dim(0); }

    /** Copy `count` rows starting at `start` (wrapping) into a request. */
    Tensor request(int64_t start, int64_t count) const;

    /** Random group-aligned start row for a request. */
    int64_t pick(Rng &rng) const;

    /** True when `out` equals reference `version` bit for bit. */
    bool matches(const Tensor &out, int64_t start, size_t version) const;
};

/** Outcome tally shared by every load loop. */
struct Tally
{
    int64_t attempted = 0;
    int64_t errors = 0;      ///< non-OK results (refused, shed, failed)
    int64_t mismatched = 0;  ///< OK results that differ from the reference
    std::map<std::string, int64_t> error_codes;

    void addError(const api::Status &status);
    void merge(const Tally &other);
    /** Errors that are not load shedding (ResourceExhausted or
     * DeadlineExceeded) — those mean the program misbehaved. */
    int64_t unexpectedErrors() const;
};

/** One completed request as the harness saw it. */
struct Completion
{
    int64_t start_ns = 0;  ///< due time (open loop) or submit time (closed)
    int64_t done_ns = 0;
    int64_t rows = 0;  ///< rows served; 0 for a failed request
    int lane = 0;
    bool ok = false;   ///< OK result that matched its reference
};

/** Latency summary (microseconds) of completions in a window. */
struct LatencySummary
{
    int64_t samples = 0;
    double p50_us = 0, p90_us = 0, p99_us = 0;
    double rows_per_s = 0;  ///< rows completed in the window / window
};

/**
 * Whole-window summaries of consecutive `slice_s`-second slices of
 * [begin_ns, end_ns): latencies of the `lane` requests that started in a
 * slice, and rows completed in it per second.
 */
std::vector<LatencySummary> slices(const std::vector<Completion> &done,
                                   int lane, int64_t begin_ns,
                                   int64_t end_ns, double slice_s);

/**
 * The benchmark's reported summary of a window: rows_per_s, p50 and p90
 * are medians over the window's 1-second slices, so a burst of host
 * interference moves one slice instead of the run; p99 and samples
 * cover the whole window (a slice holds too few requests for a p99).
 */
LatencySummary summarizeSlices(const std::vector<Completion> &done,
                               int lane, int64_t begin_ns, int64_t end_ns);

/** Arrivals due by `t_ns` minus completions by `t_ns`, in requests. */
int64_t backlogAt(const std::vector<Completion> &done, int lane,
                  int64_t t_ns);

/**
 * Submits one request and returns its future. `tag` starts at 0 and is
 * handed back to the CheckFn with the response; the hot-swap lane stores
 * the model version the request was pinned to there.
 */
using SubmitFn = std::function<Future(Tensor rows, int64_t &tag)>;

/** Decides whether an OK response is correct; `start` is its pool row. */
using CheckFn =
    std::function<bool(const Tensor &out, int64_t start, int64_t tag)>;

/** One traffic class the poller serves. */
struct Lane
{
    int id = 0;
    const RequestPool *pool = nullptr;
    int64_t rows_per_request = 1;
    SubmitFn submit;
    CheckFn check;
};

/** A closed-loop lane: `in_flight` clients, each resubmitting on reply. */
struct ClosedLane
{
    Lane lane;
    int in_flight = 1;
};

/** One step of an open-loop Poisson schedule. */
struct OpenStep
{
    double rate_per_s = 0;
    double seconds = 0;
};

/**
 * Everything one load phase produces: per-request completions, generator
 * lateness samples (open loop: submit - due; closed loop: how far the
 * poller overslept its interval), and the outcome tally.
 */
struct LoadResult
{
    std::vector<Completion> done;
    std::vector<double> late_us;
    Tally tally;
    int64_t begin_ns = 0;  ///< phase start (open-loop step 0 starts here)
    int64_t end_ns = 0;    ///< when submissions stopped
};

/**
 * Run one load phase: an optional open-loop Poisson lane (a sender thread
 * paced by `steps`) plus any number of closed-loop lanes, all completed by
 * one poller thread that stamps completions and checks every response.
 * Closed lanes stop resubmitting when the open schedule ends, or after
 * `closed_seconds` when there is no open lane. Every in-flight request is
 * drained and checked before this returns. `tick`, when set, runs on the
 * calling thread about every millisecond (the publisher hooks in here).
 */
LoadResult runLoad(Rng &rng, const Lane *open, const std::vector<OpenStep> &steps,
                   std::vector<ClosedLane> closed, double closed_seconds,
                   Tracer &tracer, const std::function<void(int64_t)> &tick = {});

/** Streaming-read bandwidth in GB/s over a buffer of `bytes` (median of
 * repeated passes). */
double readBandwidthGbs(int64_t bytes);

} // namespace lutdla::e2e

#endif // LUTDLA_BENCH_E2E_HARNESS_H
