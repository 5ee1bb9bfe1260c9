#include "api/artifacts.h"

#include <sstream>

#include "lutboost/serialize.h"

namespace lutdla::api {

namespace {

constexpr char kMagic[9] = "LUTDLAR1";

/** Smallest serialized GemmShape: m, k, n and the tag's length word. */
constexpr uint64_t kGemmMinBytes = 4 * sizeof(uint64_t);

/** Smallest serialized LayerReport: its GEMM, the nine SimStats words and
 * the cycle share. */
constexpr uint64_t kLayerMinBytes = kGemmMinBytes + 10 * sizeof(uint64_t);

using lutboost::BinReader;
using lutboost::BinWriter;

void
writeTrainResult(BinWriter &out, const nn::TrainResult &r)
{
    out.f64vec(r.iter_losses);
    out.f64vec(r.epoch_losses);
    out.f64(r.train_accuracy);
    out.f64(r.test_accuracy);
}

bool
readTrainResult(BinReader &in, nn::TrainResult &r)
{
    return in.f64vec(r.iter_losses) && in.f64vec(r.epoch_losses) &&
           in.f64(r.train_accuracy) && in.f64(r.test_accuracy);
}

void
writeGemm(BinWriter &out, const sim::GemmShape &g)
{
    out.i64(g.m);
    out.i64(g.k);
    out.i64(g.n);
    out.str(g.tag);
}

bool
readGemm(BinReader &in, sim::GemmShape &g)
{
    return in.i64(g.m) && in.i64(g.k) && in.i64(g.n) && in.str(g.tag);
}

void
writeSimStats(BinWriter &out, const sim::SimStats &s)
{
    out.u64(s.total_cycles);
    out.u64(s.lookup_cycles);
    out.u64(s.stall_lut_cycles);
    out.u64(s.stall_index_cycles);
    out.u64(s.lut_tile_loads);
    out.f64(s.dram_lut_bytes);
    out.f64(s.dram_input_bytes);
    out.f64(s.dram_output_bytes);
    out.f64(s.effective_macs);
}

bool
readSimStats(BinReader &in, sim::SimStats &s)
{
    return in.u64(s.total_cycles) && in.u64(s.lookup_cycles) &&
           in.u64(s.stall_lut_cycles) && in.u64(s.stall_index_cycles) &&
           in.u64(s.lut_tile_loads) && in.f64(s.dram_lut_bytes) &&
           in.f64(s.dram_input_bytes) && in.f64(s.dram_output_bytes) &&
           in.f64(s.effective_macs);
}

void
writeSimConfig(BinWriter &out, const sim::SimConfig &c)
{
    out.i64(c.v);
    out.i64(c.c);
    out.i64(c.tn);
    out.i64(c.m_tile);
    out.i64(c.n_imm);
    out.i64(c.n_ccu);
    out.i64(c.lut_entry_bytes);
    out.i64(c.input_bytes);
    out.i64(c.output_bytes);
    out.f64(c.freq_imm_hz);
    out.f64(c.freq_ccm_hz);
    out.f64(c.dram_bytes_per_sec);
}

bool
readSimConfig(BinReader &in, sim::SimConfig &c)
{
    return in.i64(c.v) && in.i64(c.c) && in.i64(c.tn) &&
           in.i64(c.m_tile) && in.i64(c.n_imm) && in.i64(c.n_ccu) &&
           in.i64(c.lut_entry_bytes) && in.i64(c.input_bytes) &&
           in.i64(c.output_bytes) && in.f64(c.freq_imm_hz) &&
           in.f64(c.freq_ccm_hz) && in.f64(c.dram_bytes_per_sec);
}

} // namespace

double
RunArtifacts::totalMacs() const
{
    double macs = 0.0;
    for (const sim::GemmShape &g : gemms)
        macs += g.macs();
    return macs;
}

std::string
RunArtifacts::summary() const
{
    std::ostringstream oss;
    oss << "run '" << workload << "' (v=" << pq.v << ", c=" << pq.c << ")\n";
    if (converted) {
        oss << "  conversion: " << conversion.replaced_layers
            << " layers, accuracy "
            << 100.0 * conversion.baseline_accuracy << "% -> "
            << 100.0 * conversion.final_accuracy << "%\n";
        if (deployed_accuracy >= 0.0)
            oss << "  deployed (quantized LUT) accuracy: "
                << 100.0 * deployed_accuracy << "%\n";
    }
    if (!gemms.empty())
        oss << "  trace: " << gemms.size() << " GEMMs, "
            << totalMacs() * 1e-6 << " MMACs\n";
    if (simulated) {
        oss << "  timing: " << report.total.total_cycles << " cycles, "
            << report.total.seconds(sim_config) * 1e3 << " ms, "
            << report.total.achievedGops(sim_config) << " GOPS, util "
            << 100.0 * report.total.utilization() << "%\n";
    }
    if (has_ppa) {
        oss << "  ppa: " << ppa.area_mm2 << " mm^2, " << ppa.power_mw
            << " mW, peak " << ppa.peak_gops << " GOPS";
        if (energy_mj > 0.0)
            oss << ", energy " << energy_mj << " mJ";
        oss << "\n";
    }
    return oss.str();
}

Status
saveArtifacts(const RunArtifacts &a, const std::string &path)
{
    BinWriter out(path);
    if (!out.ok())
        return Status::ioError("cannot open '" + path + "' for writing");

    out.magic(kMagic);
    out.str(a.workload);
    out.i64(a.pq.v);
    out.i64(a.pq.c);
    out.i64(static_cast<int64_t>(a.pq.metric));
    out.i64(a.pq.kmeans_iters);
    out.u64(a.pq.seed);

    out.u64(a.converted ? 1 : 0);
    out.i64(a.conversion.replaced_layers);
    out.f64(a.conversion.baseline_accuracy);
    out.f64(a.conversion.post_replace_accuracy);
    out.f64(a.conversion.final_accuracy);
    writeTrainResult(out, a.conversion.centroid_stage);
    writeTrainResult(out, a.conversion.joint_stage);
    out.f64(a.deployed_accuracy);

    out.u64(a.gemms.size());
    for (const sim::GemmShape &g : a.gemms)
        writeGemm(out, g);

    out.u64(a.simulated ? 1 : 0);
    writeSimConfig(out, a.sim_config);
    out.u64(a.report.layers.size());
    for (const sim::LayerReport &layer : a.report.layers) {
        writeGemm(out, layer.gemm);
        writeSimStats(out, layer.stats);
        out.f64(layer.cycle_share);
    }
    writeSimStats(out, a.report.total);

    out.u64(a.has_ppa ? 1 : 0);
    out.f64(a.ppa.area_mm2);
    out.f64(a.ppa.power_mw);
    out.f64(a.ppa.peak_gops);
    out.f64(a.ppa.ccm_area_mm2);
    out.f64(a.ppa.imm_area_mm2);
    out.f64(a.ppa.sram_area_mm2);
    out.f64(a.ppa.other_area_mm2);
    out.f64(a.energy_mj);

    if (!out.ok())
        return Status::ioError("write failed for '" + path + "'");
    return Status();
}

Result<RunArtifacts>
loadArtifacts(const std::string &path)
{
    BinReader in(path);
    if (!in.ok())
        return Status::ioError("cannot open '" + path + "' for reading");
    if (!in.magic(kMagic))
        return Status::ioError("'" + path +
                               "' is not a LUT-DLA artifacts file");

    RunArtifacts a;
    uint64_t flag = 0;
    int64_t metric = 0;
    bool good = in.str(a.workload) && in.i64(a.pq.v) && in.i64(a.pq.c) &&
                in.i64(metric) && in.i64(a.pq.kmeans_iters) &&
                in.u64(a.pq.seed);
    if (!good)
        return Status::ioError("truncated header in '" + path + "'");
    a.pq.metric = static_cast<vq::Metric>(metric);

    good = in.u64(flag);
    a.converted = flag != 0;
    good = good && in.i64(a.conversion.replaced_layers) &&
           in.f64(a.conversion.baseline_accuracy) &&
           in.f64(a.conversion.post_replace_accuracy) &&
           in.f64(a.conversion.final_accuracy) &&
           readTrainResult(in, a.conversion.centroid_stage) &&
           readTrainResult(in, a.conversion.joint_stage) &&
           in.f64(a.deployed_accuracy);
    if (!good)
        return Status::ioError("truncated conversion block in '" + path +
                               "'");

    uint64_t count = 0;
    if (!in.u64(count) || count > (1u << 22) ||
        !in.fits(count, kGemmMinBytes))
        return Status::ioError("bad GEMM count in '" + path + "'");
    a.gemms.resize(count);
    for (sim::GemmShape &g : a.gemms)
        if (!readGemm(in, g))
            return Status::ioError("truncated GEMM trace in '" + path +
                                   "'");

    if (!in.u64(flag))
        return Status::ioError("truncated timing block in '" + path + "'");
    a.simulated = flag != 0;
    if (!readSimConfig(in, a.sim_config))
        return Status::ioError("truncated sim config in '" + path + "'");
    if (!in.u64(count) || count > (1u << 22) ||
        !in.fits(count, kLayerMinBytes))
        return Status::ioError("bad layer count in '" + path + "'");
    a.report.layers.resize(count);
    for (sim::LayerReport &layer : a.report.layers) {
        if (!readGemm(in, layer.gemm) || !readSimStats(in, layer.stats) ||
            !in.f64(layer.cycle_share))
            return Status::ioError("truncated layer report in '" + path +
                                   "'");
    }
    if (!readSimStats(in, a.report.total))
        return Status::ioError("truncated totals in '" + path + "'");

    good = in.u64(flag);
    a.has_ppa = flag != 0;
    good = good && in.f64(a.ppa.area_mm2) && in.f64(a.ppa.power_mw) &&
           in.f64(a.ppa.peak_gops) && in.f64(a.ppa.ccm_area_mm2) &&
           in.f64(a.ppa.imm_area_mm2) && in.f64(a.ppa.sram_area_mm2) &&
           in.f64(a.ppa.other_area_mm2) && in.f64(a.energy_mj);
    if (!good)
        return Status::ioError("truncated PPA block in '" + path + "'");
    return a;
}

} // namespace lutdla::api
