/**
 * @file
 * e2e_bench: one run of one end-to-end benchmark workload.
 *
 *   e2e_bench --workload <name> [--seed N] [--seconds S] [--warmup W]
 *             [--trace 0|1] [--out-dir DIR]
 *
 * Human-readable tables go to stdout; the last line is
 * "E2E_RESULT {json}" with the outcome counts and every metric, which
 * bench/e2e/run.py parses. Exit status: 0 when every response matched
 * its reference and no request failed for a reason other than load
 * shedding, 3 otherwise, 2 on bad arguments.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

using namespace lutdla::e2e;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: e2e_bench --workload <name> [--seed N] "
                 "[--seconds S] [--warmup W] [--trace 0|1] "
                 "[--out-dir DIR]\nworkloads:");
    for (const std::string &name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
}

void
printResult(const Options &o, const Report &r, bool correct)
{
    const lutdla::e2e::Tally &t = r.tally;
    std::printf("E2E_RESULT {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %.17g, \"trace\": %s, \"correct\": %s, "
                "\"attempted\": %lld, \"failed\": %lld, \"mismatched\": %lld, "
                "\"trace_path\": \"%s\", "
                "\"errors\": {",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? "true" : "false",
                correct ? "true" : "false", static_cast<long long>(t.attempted),
                static_cast<long long>(t.errors + t.mismatched),
                static_cast<long long>(t.mismatched),
                r.trace_path.c_str());
    bool first = true;
    for (const auto &[code, count] : t.error_codes) {
        std::printf("%s\"%s\": %lld", first ? "" : ", ", code.c_str(),
                    static_cast<long long>(count));
        first = false;
    }
    std::printf("}, \"metrics\": {");
    first = true;
    for (const Metric &m : r.metrics) {
        // JSON has no inf/nan; a metric that could not be measured is
        // left out rather than printed as a fake number.
        if (!std::isfinite(m.value))
            continue;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const char *value = argv[++i];
        if (arg == "--workload")
            o.workload = value;
        else if (arg == "--seed")
            o.seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::atof(value);
        else if (arg == "--warmup")
            o.warmup = std::atof(value);
        else if (arg == "--trace")
            o.trace = std::atoi(value) != 0;
        else if (arg == "--out-dir")
            o.out_dir = value;
        else {
            usage();
            return 2;
        }
    }
    if (!(o.seconds > 0) || !(o.warmup >= 0)) {
        usage();
        return 2;
    }
    if (o.trace)
        std::filesystem::create_directories(o.out_dir);

    Report report;
    if (!runWorkload(o, report)) {
        usage();
        return 2;
    }
    const bool correct = report.tally.mismatched == 0 &&
                         report.tally.unexpectedErrors() == 0;
    std::fflush(stdout);
    printResult(o, report, correct);
    return correct ? 0 : 3;
}
