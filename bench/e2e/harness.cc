#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include <sys/resource.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace lutdla::e2e {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    const size_t n = values.size();
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<size_t>(rank, 1, n);
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- Tracer ----------------------------------------------------------------

int64_t
Tracer::reserveId()
{
    return enabled_ ? next_id_++ : 0;
}

int64_t
Tracer::add(std::string name, int64_t start_ns, int64_t end_ns,
            int64_t parent, int64_t request, int track, int64_t id)
{
    if (!enabled_)
        return 0;
    if (id == 0)
        id = next_id_++;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(
        {std::move(name), start_ns, end_ns, id, parent, request, track});
    return id;
}

int64_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(spans_.size());
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span &s : spans_)
        origin = std::min(origin, s.start_ns);
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    bool first = true;
    auto us = [origin](int64_t ns) {
        return static_cast<double>(ns - origin) * 1e-3;
    };
    for (const Span &s : spans_) {
        if (s.request >= 0) {
            // Requests overlap freely, so they become async slices keyed
            // by request id instead of stacking on one thread track.
            std::fprintf(f,
                         "%s{\"name\": \"%s\", \"cat\": \"request\", "
                         "\"ph\": \"b\", \"id\": %lld, \"pid\": 1, "
                         "\"tid\": %d, \"ts\": %.3f, \"args\": {\"span\": "
                         "%lld, \"parent\": %lld, \"request\": %lld}},\n"
                         "{\"name\": \"%s\", \"cat\": \"request\", "
                         "\"ph\": \"e\", \"id\": %lld, \"pid\": 1, "
                         "\"tid\": %d, \"ts\": %.3f}",
                         first ? "" : ",\n", s.name.c_str(),
                         static_cast<long long>(s.request), s.track,
                         us(s.start_ns), static_cast<long long>(s.id),
                         static_cast<long long>(s.parent),
                         static_cast<long long>(s.request), s.name.c_str(),
                         static_cast<long long>(s.request), s.track,
                         us(s.end_ns));
        } else {
            std::fprintf(f,
                         "%s{\"name\": \"%s\", \"cat\": \"layer\", "
                         "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                         "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                         "{\"span\": %lld, \"parent\": %lld}}",
                         first ? "" : ",\n", s.name.c_str(), s.track,
                         us(s.start_ns), us(s.end_ns) - us(s.start_ns),
                         static_cast<long long>(s.id),
                         static_cast<long long>(s.parent));
        }
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

double
Tracer::costPerSpanNs()
{
    constexpr int kSpans = 200000;
    Tracer scratch(true);
    scratch.spans_.reserve(kSpans);
    const int64_t t0 = nowNs();
    for (int i = 0; i < kSpans; ++i)
        scratch.add("request", t0, t0 + i, 0, i, 1);
    return static_cast<double>(nowNs() - t0) / kSpans;
}

// ---- Request pool ----------------------------------------------------------

Tensor
RequestPool::request(int64_t start, int64_t count) const
{
    const int64_t n = size(), width = rows.dim(1);
    Tensor out(Shape{count, width});
    for (int64_t r = 0; r < count; ++r)
        std::memcpy(out.data() + r * width,
                    rows.data() + ((start + r) % n) * width,
                    static_cast<size_t>(width) * sizeof(float));
    return out;
}

int64_t
RequestPool::pick(Rng &rng) const
{
    return rng.uniformInt(0, size() / group - 1) * group;
}

bool
RequestPool::matches(const Tensor &out, int64_t start, size_t version) const
{
    const Tensor &ref = refs.at(version);
    const int64_t n = size(), width = ref.dim(1);
    if (out.rank() != 2 || out.dim(1) != width)
        return false;
    for (int64_t r = 0; r < out.dim(0); ++r)
        if (std::memcmp(out.data() + r * width,
                        ref.data() + ((start + r) % n) * width,
                        static_cast<size_t>(width) * sizeof(float)) != 0)
            return false;
    return true;
}

void
Tally::addError(const api::Status &status)
{
    ++errors;
    ++error_codes[api::statusCodeName(status.code())];
}

void
Tally::merge(const Tally &other)
{
    attempted += other.attempted;
    errors += other.errors;
    mismatched += other.mismatched;
    for (const auto &[code, count] : other.error_codes)
        error_codes[code] += count;
}

int64_t
Tally::unexpectedErrors() const
{
    int64_t shed = 0;
    for (const api::StatusCode code : {api::StatusCode::ResourceExhausted,
                                       api::StatusCode::DeadlineExceeded}) {
        const auto it = error_codes.find(api::statusCodeName(code));
        shed += it == error_codes.end() ? 0 : it->second;
    }
    return errors - shed;
}

// ---- Summaries -------------------------------------------------------------

namespace {

/** Latencies of `lane` requests that started in [begin_ns, end_ns), and
 * rows completed in that window per second. */
LatencySummary
summarize(const std::vector<Completion> &done, int lane, int64_t begin_ns,
          int64_t end_ns)
{
    LatencySummary s;
    std::vector<double> us;
    int64_t rows_done = 0;
    for (const Completion &c : done) {
        if (c.lane != lane)
            continue;
        if (c.start_ns >= begin_ns && c.start_ns < end_ns)
            us.push_back(static_cast<double>(c.done_ns - c.start_ns) * 1e-3);
        if (c.done_ns >= begin_ns && c.done_ns < end_ns)
            rows_done += c.rows;
    }
    s.samples = static_cast<int64_t>(us.size());
    s.p50_us = percentile(us, 50);
    s.p90_us = percentile(us, 90);
    s.p99_us = percentile(us, 99);
    s.rows_per_s = static_cast<double>(rows_done) /
                   std::max(secondsBetween(begin_ns, end_ns), 1e-9);
    return s;
}

} // namespace

std::vector<LatencySummary>
slices(const std::vector<Completion> &done, int lane, int64_t begin_ns,
       int64_t end_ns, double slice_s)
{
    std::vector<LatencySummary> out;
    const int64_t step = static_cast<int64_t>(slice_s * 1e9);
    for (int64_t t = begin_ns; t + step <= end_ns; t += step)
        out.push_back(summarize(done, lane, t, t + step));
    return out;
}

LatencySummary
summarizeSlices(const std::vector<Completion> &done, int lane,
                int64_t begin_ns, int64_t end_ns)
{
    LatencySummary s = summarize(done, lane, begin_ns, end_ns);
    std::vector<double> rate, p50, p90;
    for (const LatencySummary &slice :
         slices(done, lane, begin_ns, end_ns, 1.0)) {
        rate.push_back(slice.rows_per_s);
        p50.push_back(slice.p50_us);
        p90.push_back(slice.p90_us);
    }
    if (!rate.empty()) {
        s.rows_per_s = median(rate);
        s.p50_us = median(p50);
        s.p90_us = median(p90);
    }
    return s;
}

int64_t
backlogAt(const std::vector<Completion> &done, int lane, int64_t t_ns)
{
    int64_t backlog = 0;
    for (const Completion &c : done) {
        if (c.lane != lane)
            continue;
        backlog += (c.start_ns <= t_ns ? 1 : 0) - (c.done_ns <= t_ns ? 1 : 0);
    }
    return backlog;
}

// ---- Load loop -------------------------------------------------------------

namespace {

/** Sleep until the monotonic time `ns`. */
void
sleepUntilNs(int64_t ns)
{
    std::this_thread::sleep_until(Clock::time_point(
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::nanoseconds(ns))));
}

/** Make this thread's timed sleeps precise to about a microsecond. */
void
preciseSleeps()
{
#if defined(__linux__)
    // The default 50 us timer slack would quantize every poll and every
    // paced send; 1 ns asks the kernel to wake us as close as it can.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

/** A submitted request the poller is waiting on. */
struct Pending
{
    Future future;
    int64_t start_ns = 0;  ///< due (open) or submit (closed) time
    int64_t pool_row = 0;
    int64_t id = 0;
    const Lane *lane = nullptr;
    int64_t tag = 0;
};

constexpr int64_t kPollSleepNs = 20'000;

} // namespace

LoadResult
runLoad(Rng &rng, const Lane *open, const std::vector<OpenStep> &steps,
        std::vector<ClosedLane> closed, double closed_seconds,
        Tracer &tracer, const std::function<void(int64_t)> &tick)
{
    LoadResult result;
    std::atomic<int64_t> next_id{0};
    std::atomic<bool> sender_done{open == nullptr};
    std::atomic<bool> poller_done{false};
    std::mutex handoff_mu;
    std::vector<Pending> handoff;
    int64_t open_attempted = 0;
    std::vector<double> send_late_us;

    // Per-lane request pickers, seeded from the workload seed so the same
    // seed replays the same rows and arrival times.
    Rng open_rng(rng.engine()());
    std::vector<Rng> closed_rng;
    for (size_t i = 0; i < closed.size(); ++i)
        closed_rng.emplace_back(rng.engine()());

    result.begin_ns = nowNs();
    double schedule_s = 0.0;
    for (const OpenStep &step : steps)
        schedule_s += step.seconds;
    const int64_t open_end_ns =
        result.begin_ns + static_cast<int64_t>(schedule_s * 1e9);
    const int64_t closed_end_ns =
        result.begin_ns + static_cast<int64_t>(closed_seconds * 1e9);

    std::thread sender;
    if (open != nullptr) {
        sender = std::thread([&] {
            preciseSleeps();
            std::exponential_distribution<double> gap_s(1.0);
            int64_t step_begin = result.begin_ns;
            for (const OpenStep &step : steps) {
                const int64_t step_end =
                    step_begin + static_cast<int64_t>(step.seconds * 1e9);
                double due = static_cast<double>(step_begin);
                while (true) {
                    due += gap_s(open_rng.engine()) / step.rate_per_s * 1e9;
                    const int64_t due_ns = static_cast<int64_t>(due);
                    if (due_ns >= step_end)
                        break;
                    const int64_t start = open->pool->pick(open_rng);
                    Tensor rows =
                        open->pool->request(start, open->rows_per_request);
                    sleepUntilNs(due_ns);
                    const int64_t sent_ns = nowNs();
                    Pending p;
                    p.future = open->submit(std::move(rows), p.tag);
                    p.start_ns = due_ns;
                    p.pool_row = start;
                    p.id = next_id++;
                    p.lane = open;
                    send_late_us.push_back(
                        static_cast<double>(sent_ns - due_ns) * 1e-3);
                    ++open_attempted;
                    std::lock_guard<std::mutex> lock(handoff_mu);
                    handoff.push_back(std::move(p));
                }
                step_begin = step_end;
            }
            sender_done = true;
        });
    }

    std::thread poller([&] {
        preciseSleeps();
        std::vector<Pending> pending;
        std::vector<Pending> incoming;
        auto submitClosed = [&](size_t lane_index) {
            const Lane &lane = closed[lane_index].lane;
            const int64_t start = lane.pool->pick(closed_rng[lane_index]);
            Tensor rows = lane.pool->request(start, lane.rows_per_request);
            Pending p;
            p.start_ns = nowNs();
            p.future = lane.submit(std::move(rows), p.tag);
            p.pool_row = start;
            p.id = next_id++;
            p.lane = &lane;
            pending.push_back(std::move(p));
            ++result.tally.attempted;
        };
        for (size_t i = 0; i < closed.size(); ++i)
            for (int k = 0; k < closed[i].in_flight; ++k)
                submitClosed(i);

        while (true) {
            {
                std::lock_guard<std::mutex> lock(handoff_mu);
                incoming.swap(handoff);
            }
            for (Pending &p : incoming)
                pending.push_back(std::move(p));
            incoming.clear();

            const bool stop_closed = open != nullptr
                                         ? sender_done.load()
                                         : nowNs() >= closed_end_ns;
            bool progress = false;
            for (size_t i = 0; i < pending.size();) {
                Pending &p = pending[i];
                if (p.future.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                    ++i;
                    continue;
                }
                const int64_t done_ns = nowNs();
                progress = true;
                api::Result<Tensor> out = p.future.get();
                const Lane *lane = p.lane;
                int64_t rows = 0;
                bool ok = false;
                if (!out.ok()) {
                    result.tally.addError(out.status());
                } else {
                    rows = out->dim(0);
                    ok = lane->check(*out, p.pool_row, p.tag);
                    if (!ok)
                        ++result.tally.mismatched;
                }
                result.done.push_back(
                    {p.start_ns, done_ns, rows, lane->id, ok});
                tracer.add("request", p.start_ns, done_ns, 0, p.id,
                           lane->id);
                pending[i] = std::move(pending.back());
                pending.pop_back();
                if (lane != open && !stop_closed) {
                    for (size_t c = 0; c < closed.size(); ++c)
                        if (&closed[c].lane == lane)
                            submitClosed(c);
                }
            }
            if (stop_closed && sender_done.load() && pending.empty()) {
                std::lock_guard<std::mutex> lock(handoff_mu);
                if (handoff.empty())
                    break;
                continue;
            }
            if (!progress) {
                const int64_t before = nowNs();
                sleepUntilNs(before + kPollSleepNs);
                if (open == nullptr)
                    result.late_us.push_back(
                        static_cast<double>(nowNs() - before - kPollSleepNs) *
                        1e-3);
            }
        }
        poller_done = true;
    });

    while (!poller_done.load()) {
        if (tick)
            tick(nowNs());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (sender.joinable())
        sender.join();
    poller.join();
    result.end_ns = open != nullptr ? open_end_ns : closed_end_ns;
    result.tally.attempted += open_attempted;
    if (open != nullptr)
        result.late_us = std::move(send_late_us);
    return result;
}

// ---- Host probe ------------------------------------------------------------

double
readBandwidthGbs(int64_t bytes)
{
    const size_t words =
        static_cast<size_t>(std::max<int64_t>(bytes, 4096)) / sizeof(uint64_t);
    std::vector<uint64_t> buf(words);
    for (size_t i = 0; i < words; ++i)
        buf[i] = i * 0x9E3779B97F4A7C15ULL;
    // Each timed pass reads at least 1 MiB (small buffers are re-read);
    // up to 200 passes, about 4 GB in all, run and the median counts.
    const int64_t bytes_per_sweep = static_cast<int64_t>(words * 8);
    const int64_t sweeps = std::max<int64_t>(1, (1 << 20) / bytes_per_sweep);
    const int passes = static_cast<int>(std::clamp<int64_t>(
        static_cast<int64_t>(4e9 / static_cast<double>(bytes_per_sweep *
                                                       sweeps)),
        5, 200));
    std::vector<double> gbs;
    volatile uint64_t sink = 0;
    for (int p = 0; p < passes + 1; ++p) {
        const int64_t t0 = nowNs();
        uint64_t acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        for (int64_t s = 0; s < sweeps; ++s) {
            size_t i = 0;
            for (; i + 8 <= words; i += 8)
                for (int k = 0; k < 8; ++k)
                    acc[k] += buf[i + k];
            for (; i < words; ++i)
                acc[0] += buf[i];
            // Compiler barrier: every sweep must really re-read the buffer.
            __asm__ __volatile__("" : : "r"(buf.data()) : "memory");
        }
        const int64_t t1 = nowNs();
        sink = sink + acc[0] + acc[1] + acc[2] + acc[3] + acc[4] + acc[5] +
               acc[6] + acc[7];
        if (p > 0)  // the first pass only warms the cache
            gbs.push_back(static_cast<double>(bytes_per_sweep * sweeps) /
                          static_cast<double>(std::max<int64_t>(t1 - t0, 1)));
    }
    return median(gbs);
}

} // namespace lutdla::e2e
