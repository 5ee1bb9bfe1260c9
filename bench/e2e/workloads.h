#ifndef LUTDLA_BENCH_E2E_WORKLOADS_H
#define LUTDLA_BENCH_E2E_WORKLOADS_H

/**
 * @file
 * The four serving workloads of the end-to-end benchmark. Each one sets
 * up its model(s) and serving runtime three times (set-up time is the
 * median), precomputes reference outputs, drives load, checks every
 * response, and reports its metrics. With tracing on it also runs the
 * layer sweep and the host probes and writes a Chrome trace.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace lutdla::e2e {

/** Command-line options of one workload run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;  ///< measured window
    double warmup = 2.0;    ///< unmeasured load before the window
    bool trace = false;
    std::string out_dir = "build/e2e/out";
};

/** Metrics and outcome counts of one workload run. */
struct Report
{
    std::vector<Metric> metrics;
    Tally tally;
    std::string trace_path;

    void add(const std::string &name, double value, const std::string &unit);
};

/** Names of the workloads, in their canonical order. */
const std::vector<std::string> &workloadNames();

/** Run one workload; false when the name is unknown. */
bool runWorkload(const Options &options, Report &report);

} // namespace lutdla::e2e

#endif // LUTDLA_BENCH_E2E_WORKLOADS_H
