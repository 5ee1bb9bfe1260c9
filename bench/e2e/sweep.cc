#include "sweep.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "hw/accel.h"
#include "serve/stage.h"
#include "sim/lutdla_sim.h"
#include "util/table.h"

namespace lutdla::e2e {

namespace {

/**
 * Step `model`'s stages over `x` the way FrozenModel's untiled executor
 * does (ping-pong planes, first in-place stage copies the input aside),
 * timing each stage call into stage_ns. `hook(i, stage, input)` runs
 * untimed before stage i sees `input`.
 */
template <typename Hook>
void
stepStages(const serve::FrozenModel &model, const Tensor &x,
           serve::StageScratch &scratch, std::vector<int64_t> &stage_ns,
           Hook &&hook)
{
    const std::vector<serve::StagePtr> &stages = model.stages();
    const int64_t rows = x.dim(0);
    const float *cur = x.data();
    float *cur_mut = nullptr;
    bool in_ping = false;
    stage_ns.assign(stages.size(), 0);
    for (size_t i = 0; i < stages.size(); ++i) {
        const serve::FrozenStage &stage = *stages[i];
        hook(i, stage, cur);
        const int64_t t0 = nowNs();
        if (stage.inPlace()) {
            if (cur_mut == nullptr) {
                const size_t n = static_cast<size_t>(rows * stage.inWidth());
                scratch.ping.resize(n);
                std::memcpy(scratch.ping.data(), cur, n * sizeof(float));
                cur_mut = scratch.ping.data();
                cur = cur_mut;
                in_ping = true;
            }
            stage.forwardInPlace(cur_mut, rows, scratch);
        } else {
            std::vector<float> &dst =
                (cur_mut != nullptr && in_ping) ? scratch.pong : scratch.ping;
            dst.resize(static_cast<size_t>(rows * stage.outWidth()));
            stage.forward(cur, rows, dst.data(), scratch);
            cur_mut = dst.data();
            cur = cur_mut;
            in_ping = (&dst == &scratch.ping);
        }
        stage_ns[i] = nowNs() - t0;
    }
}

double
usBetween(int64_t a, int64_t b)
{
    return static_cast<double>(b - a) * 1e-3;
}

int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

/**
 * Table bytes a gather of `rows` rows can touch: one sweep of the bank
 * per `granule` rows, except that a sweep over fewer rows than there are
 * centroids reads at most one entry per row and subspace, i.e. that
 * share of the bank.
 */
int64_t
gatherBytes(int64_t table_bytes, int64_t rows, int64_t granule,
            int64_t centroids)
{
    int64_t bytes = 0;
    for (int64_t r0 = 0; r0 < rows; r0 += granule) {
        const int64_t n = std::min(granule, rows - r0);
        bytes += n >= centroids ? table_bytes : table_bytes * n / centroids;
    }
    return bytes;
}

/** Spearman rank correlation (average ranks for ties). */
double
spearman(const std::vector<double> &a, const std::vector<double> &b)
{
    auto ranks = [](const std::vector<double> &v) {
        std::vector<size_t> order(v.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](size_t x, size_t y) { return v[x] < v[y]; });
        std::vector<double> r(v.size());
        for (size_t i = 0; i < order.size();) {
            size_t j = i;
            while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]])
                ++j;
            for (size_t k = i; k <= j; ++k)
                r[order[k]] = 0.5 * static_cast<double>(i + j);
            i = j + 1;
        }
        return r;
    };
    const std::vector<double> ra = ranks(a), rb = ranks(b);
    const double n = static_cast<double>(a.size());
    const double ma = std::accumulate(ra.begin(), ra.end(), 0.0) / n;
    const double mb = std::accumulate(rb.begin(), rb.end(), 0.0) / n;
    double cov = 0, va = 0, vb = 0;
    for (size_t i = 0; i < ra.size(); ++i) {
        cov += (ra[i] - ma) * (rb[i] - mb);
        va += (ra[i] - ma) * (ra[i] - ma);
        vb += (rb[i] - mb) * (rb[i] - mb);
    }
    return va > 0 && vb > 0 ? cov / std::sqrt(va * vb) : 0.0;
}

} // namespace

double
Sweep::stageSumUs() const
{
    double sum = 0;
    for (const StageRow &s : stages)
        sum += s.us;
    return sum;
}

double
Sweep::encodeUs() const
{
    double sum = 0;
    for (const StageRow &s : stages)
        sum += s.encode_us;
    return sum;
}

double
Sweep::gatherUs() const
{
    double sum = 0;
    for (const StageRow &s : stages)
        sum += s.gather_us;
    return sum;
}

int64_t
Sweep::encodeBytes() const
{
    int64_t sum = 0;
    for (const StageRow &s : stages)
        sum += s.encode_bytes;
    return sum;
}

int64_t
Sweep::gatherBytes() const
{
    int64_t sum = 0;
    for (const StageRow &s : stages)
        sum += s.gather_bytes;
    return sum;
}

double
Sweep::kindUs(const std::string &kind) const
{
    double sum = 0;
    for (const StageRow &s : stages)
        if (s.kind == kind)
            sum += s.us;
    return sum;
}

Sweep
sweepModel(const serve::FrozenModel &model, const serve::PlanOptions &plan,
           const Tensor &batch, const std::string &label, double budget_s,
           Tracer &tracer)
{
    Sweep s;
    s.label = label;
    s.rows = batch.dim(0);
    serve::PlanOptions untiled_plan = plan;
    untiled_plan.tile_rows = -1;
    const serve::FrozenModel untiled = model.withPlan(untiled_plan);
    const std::vector<serve::StagePtr> &stages = untiled.stages();

    serve::StageScratch tiled_scratch, untiled_scratch, step_scratch;
    const int64_t w0 = nowNs();
    model.forwardBatch(batch, tiled_scratch);
    untiled.forwardBatch(batch, untiled_scratch);
    const double one_s = secondsBetween(w0, nowNs()) / 2;
    s.reps = static_cast<int>(
        std::clamp(budget_s / std::max(one_s, 1e-7), 9.0, 200.0));

    const int64_t sweep_id = tracer.reserveId();
    const int64_t sweep_begin = nowNs();
    std::vector<double> tiled_us, untiled_us;
    std::vector<std::vector<double>> stage_us(stages.size());
    std::vector<int64_t> stage_ns;
    auto no_hook = [](size_t, const serve::FrozenStage &, const float *) {};
    // The three timings alternate within each repetition so slow drift
    // of the host shows up in all of them alike.
    for (int rep = 0; rep < s.reps; ++rep) {
        int64_t a = nowNs();
        model.forwardBatch(batch, tiled_scratch);
        int64_t b = nowNs();
        tiled_us.push_back(usBetween(a, b));
        tracer.add("model.forward", a, b, sweep_id);

        a = nowNs();
        untiled.forwardBatch(batch, untiled_scratch);
        b = nowNs();
        untiled_us.push_back(usBetween(a, b));
        tracer.add("model.forward_untiled", a, b, sweep_id);

        const int64_t stepped_id = tracer.reserveId();
        a = nowNs();
        stepStages(untiled, batch, step_scratch, stage_ns, no_hook);
        b = nowNs();
        int64_t cursor = a;
        for (size_t i = 0; i < stages.size(); ++i) {
            stage_us[i].push_back(static_cast<double>(stage_ns[i]) * 1e-3);
            if (tracer.enabled()) {
                // Stage spans are laid end to end inside the stepped
                // span; their durations are the measured ones.
                tracer.add("stage." + std::to_string(i) + "." +
                               stages[i]->kind(),
                           cursor, cursor + stage_ns[i], stepped_id);
                cursor += stage_ns[i];
            }
        }
        tracer.add("model.stages", a, b, sweep_id, -1, 0, stepped_id);
    }
    s.forward_us = median(tiled_us);
    s.untiled_us = median(untiled_us);
    for (size_t i = 0; i < stages.size(); ++i) {
        StageRow row;
        row.index = static_cast<int64_t>(i);
        row.kind = stages[i]->kind();
        row.description = stages[i]->description();
        row.us = median(stage_us[i]);
        s.stages.push_back(row);
    }

    // Kernel pass: walk the chain once more, and in front of every
    // ArenaStage call its backend directly on the stage's real input.
    const int64_t kernel_id = tracer.reserveId();
    const int64_t kernel_begin = nowNs();
    lutboost::KernelScratch kscratch;
    std::vector<float> adapted, out;
    const int64_t rows = s.rows;
    auto kernel_hook = [&](size_t i, const serve::FrozenStage &stage,
                           const float *in) {
        const auto *arena_stage =
            dynamic_cast<const serve::ArenaStage *>(&stage);
        if (arena_stage == nullptr)
            return;
        const lutboost::LutTableArena &arena = *arena_stage->arena();
        const lutboost::KernelBackend &backend = arena_stage->backend();
        const int64_t k = arena.inFeatures();
        const float *x = in;
        if (const int64_t w = arena_stage->adaptInWidth(); w > 0) {
            // The stage's fused width-adapt prologue: column j copies
            // input column j % w.
            adapted.resize(static_cast<size_t>(rows * k));
            for (int64_t r = 0; r < rows; ++r)
                for (int64_t j = 0; j < k; ++j)
                    adapted[r * k + j] = in[r * w + j % w];
            x = adapted.data();
        }
        out.resize(static_cast<size_t>(rows * arena.outFeatures()));
        const int64_t stage_id = tracer.reserveId();
        const int64_t stage_begin = nowNs();
        std::vector<double> enc, gat;
        for (int rep = 0; rep < s.reps; ++rep) {
            const int64_t e0 = nowNs();
            backend.encodeBatch(arena, x, rows, kscratch,
                                arena_stage->encodePrecision());
            const int64_t e1 = nowNs();
            backend.gatherAccumulate(arena, kscratch, out.data());
            const int64_t e2 = nowNs();
            enc.push_back(usBetween(e0, e1));
            gat.push_back(usBetween(e1, e2));
            tracer.add("kernel.encode", e0, e1, stage_id);
            tracer.add("kernel.gather", e1, e2, stage_id);
        }
        tracer.add("kernel.stage." + std::to_string(i), stage_begin, nowNs(),
                   kernel_id, -1, 0, stage_id);
        StageRow &row = s.stages[i];
        row.arena = true;
        row.encode_us = median(enc);
        row.gather_us = median(gat);
        row.gather_bytes = gatherBytes(backend.tableBytes(arena), rows,
                                       backend.gatherGranuleRows(arena),
                                       arena.numCentroids());
        row.encode_bytes =
            rows * k * static_cast<int64_t>(sizeof(float)) +
            arena_stage->encodeBytes() *
                ceilDiv(rows, lutboost::LutTableArena::kRowBlock);
    };
    stepStages(untiled, batch, step_scratch, stage_ns, kernel_hook);
    tracer.add("kernel.sweep", kernel_begin, nowNs(), sweep_id, -1, 0,
               kernel_id);
    tracer.add("sweep." + label, sweep_begin, nowNs(), 0, -1, 0, sweep_id);
    return s;
}

double
forwardUs(const serve::FrozenModel &model, const Tensor &pool, int64_t rows,
          double budget_s)
{
    const int64_t width = pool.dim(1);
    Tensor batch(Shape{rows, width});
    for (int64_t r = 0; r < rows; ++r)
        std::memcpy(batch.data() + r * width,
                    pool.data() + (r % pool.dim(0)) * width,
                    static_cast<size_t>(width) * sizeof(float));
    serve::StageScratch scratch;
    std::vector<double> us;
    const int64_t begin = nowNs();
    while (us.size() < 5 ||
           (secondsBetween(begin, nowNs()) < budget_s && us.size() < 5000)) {
        const int64_t a = nowNs();
        model.forwardBatch(batch, scratch);
        us.push_back(usBetween(a, nowNs()));
    }
    us.erase(us.begin());  // cold call
    return median(us);
}

void
printSweep(const Sweep &sweep)
{
    const double sum = sweep.stageSumUs();
    Table t("layer sweep: " + sweep.label + " (" +
                std::to_string(sweep.rows) + " rows, median of " +
                std::to_string(sweep.reps) + " single-thread calls)",
            {"#", "stage", "us", "share", "table KB", "encode us",
             "gather us", "gather GB/s"});
    for (const StageRow &s : sweep.stages) {
        const bool k = s.arena;
        t.addRow({std::to_string(s.index), s.description,
                  Table::fmt(s.us, 1), Table::fmt(100.0 * s.us / sum, 1) + "%",
                  k ? Table::fmt(s.gather_bytes / 1024.0, 1) : "-",
                  k ? Table::fmt(s.encode_us, 1) : "-",
                  k ? Table::fmt(s.gather_us, 1) : "-",
                  k && s.gather_us > 0
                      ? Table::fmt(s.gather_bytes / (s.gather_us * 1e3), 2)
                      : "-"});
    }
    t.addNote("stage sum " + Table::fmt(sum, 1) + " us vs untiled executor " +
              Table::fmt(sweep.untiled_us, 1) + " us (ratio " +
              Table::fmt(sum / sweep.untiled_us, 3) + "); tiled executor " +
              Table::fmt(sweep.forward_us, 1) + " us");
    t.addNote("table KB = table bytes one call's gather can touch, "
              "computed from the bank size, not measured");
    t.print();
}

double
simRankCorrelation(const std::vector<sim::GemmShape> &gemms,
                   const Sweep &sweep)
{
    std::vector<const StageRow *> lut;
    for (const StageRow &s : sweep.stages)
        if (s.kind == "lut-gemm")
            lut.push_back(&s);
    if (lut.size() != gemms.size()) {
        std::printf("sim cross-check skipped: %zu LUT stages vs %zu GEMMs\n",
                    lut.size(), gemms.size());
        return 0.0;
    }
    const sim::LutDlaSimulator simulator(
        sim::SimConfig::fromDesign(hw::design2Large()));
    std::vector<double> measured, cycles;
    double measured_sum = 0, cycles_sum = 0;
    for (size_t i = 0; i < gemms.size(); ++i) {
        measured.push_back(lut[i]->us / static_cast<double>(sweep.rows) *
                           static_cast<double>(gemms[i].m));
        cycles.push_back(static_cast<double>(
            simulator.simulateGemm(gemms[i]).total_cycles));
        measured_sum += measured.back();
        cycles_sum += cycles.back();
    }
    const double rho = spearman(measured, cycles);
    Table t("paper cross-check: measured CPU time share vs simulated "
            "LUT-DLA Design 2 cycle share, per GEMM",
            {"gemm", "M", "K", "N", "cpu share", "sim share"});
    for (size_t i = 0; i < gemms.size(); ++i)
        t.addRow({gemms[i].tag, std::to_string(gemms[i].m),
                  std::to_string(gemms[i].k), std::to_string(gemms[i].n),
                  Table::fmt(100.0 * measured[i] / measured_sum, 1) + "%",
                  Table::fmt(100.0 * cycles[i] / cycles_sum, 1) + "%"});
    t.addNote("cpu share = stage us per row x M (one full inference); "
              "Spearman rank correlation " + Table::fmt(rho, 3));
    t.print();
    return rho;
}

} // namespace lutdla::e2e
