#ifndef LUTDLA_BENCH_E2E_SWEEP_H
#define LUTDLA_BENCH_E2E_SWEEP_H

/**
 * @file
 * The traced layer sweep: single-thread timings of one batch through a
 * FrozenModel, taken from outside by calling its public functions —
 *
 *  - model.forward: FrozenModel::forwardBatch under the served plan
 *    (the row-tiled executor);
 *  - model.forward_untiled: the same plan with tile_rows = -1, timed
 *    once through forwardBatch and once stage by stage (one child span
 *    per FrozenStage::forward / forwardInPlace, stepping the chain
 *    exactly like the untiled executor), so the per-stage times can be
 *    reconciled against the executor's own total;
 *  - kernel.encode / kernel.gather: for every ArenaStage, its backend's
 *    encodeBatch and gatherAccumulate on the stage's real input, at the
 *    stage's resolved encode precision.
 *
 * Bytes are computed from table sizes, not measured: a gather sweeps
 * tableBytes once per gatherGranuleRows rows (or, for a sweep over fewer
 * rows than centroids, only the entries those rows can select); an
 * encode reads its input rows plus the codebooks once per
 * LutTableArena::kRowBlock rows.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "serve/frozen_model.h"
#include "sim/config.h"

namespace lutdla::e2e {

/** One planned stage's row of the sweep table. */
struct StageRow
{
    int64_t index = 0;
    std::string kind;         ///< base kind, e.g. "lut-gemm"
    std::string description;  ///< planned label
    double us = 0;            ///< median wall time per call
    bool arena = false;       ///< ArenaStage: kernel columns are valid
    double encode_us = 0, gather_us = 0;
    int64_t encode_bytes = 0, gather_bytes = 0;  ///< per call, computed
};

/** Everything one sweep measured, at `rows` rows per call. */
struct Sweep
{
    std::string label;
    int64_t rows = 0;
    int reps = 0;
    double forward_us = 0;  ///< tiled forwardBatch, median
    double untiled_us = 0;  ///< untiled forwardBatch, median
    std::vector<StageRow> stages;

    double stageSumUs() const;
    /** Totals over ArenaStages. */
    double encodeUs() const;
    double gatherUs() const;
    int64_t encodeBytes() const;
    int64_t gatherBytes() const;
    /** Summed time of stages whose kind is `kind`. */
    double kindUs(const std::string &kind) const;
};

/**
 * Sweep `model` (planned with `plan`) on `batch`, spending about
 * `budget_s` seconds per timed pass. Spans go to `tracer`.
 */
Sweep sweepModel(const serve::FrozenModel &model,
                 const serve::PlanOptions &plan, const Tensor &batch,
                 const std::string &label, double budget_s, Tracer &tracer);

/** Median single-thread forwardBatch time in microseconds for the first
 * `rows` rows of `pool`. */
double forwardUs(const serve::FrozenModel &model, const Tensor &pool,
                 int64_t rows, double budget_s);

/** Print the per-stage table (us, share, bytes, GB/s). */
void printSweep(const Sweep &sweep);

/**
 * Paper cross-check for trace models: simulate each GEMM on the
 * accelerator configuration bench_fig13_end2end uses for the ResNets
 * (LUT-DLA Design 2) and rank-correlate the simulated cycle share with
 * the measured time share of the matching LUT stage, the latter weighted
 * by the GEMM's row count so both describe one full inference. Prints
 * the side-by-side table and returns the correlation.
 */
double simRankCorrelation(const std::vector<sim::GemmShape> &gemms,
                          const Sweep &sweep);

} // namespace lutdla::e2e

#endif // LUTDLA_BENCH_E2E_SWEEP_H
