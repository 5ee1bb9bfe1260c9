/**
 * @file
 * Facade tests: a tiny MLP end-to-end through PipelineBuilder with all
 * stages on, the RunArtifacts serialization round-trip, a mutation sweep
 * over the artifact and parameter deserializers, the workload registry,
 * and the typed error paths for invalid PQ/Sim configuration.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "api/lutdla.h"
#include "lutboost/serialize.h"
#include "nn/models.h"
#include "util/logging.h"

namespace lutdla::api {
namespace {

lutboost::ConvertOptions
tinyConvertOptions()
{
    lutboost::ConvertOptions opts;
    opts.pq.v = 4;
    opts.pq.c = 8;
    opts.centroid_stage.epochs = 1;
    opts.joint_stage.epochs = 2;
    return opts;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Every 8-byte word value the overwrite sweep plants: all ones, the
 * sign bit, and counts far past, well past and just past any real one. */
constexpr uint64_t kHostileWords[] = {~0ull, 1ull << 63, 1ull << 40,
                                      1ull << 20, 12345ull};

TEST(ApiPipeline, EndToEndMlpPopulatesAllArtifacts)
{
    auto run = Pipeline::forWorkload("mlp-mixture")
                   .pretrain()
                   .convert(tinyConvertOptions())
                   .deployPrecision(vq::LutPrecision{true, true})
                   .design(hw::design1Tiny())
                   .simulate()
                   .report();
    ASSERT_TRUE(run.ok()) << run.status().toString();
    const RunArtifacts &a = run.value();

    EXPECT_EQ(a.workload, "mlp-mixture");
    EXPECT_TRUE(a.converted);
    EXPECT_EQ(a.pq.v, 4);
    EXPECT_EQ(a.pq.c, 8);
    EXPECT_GT(a.conversion.replaced_layers, 0);
    EXPECT_TRUE(std::isfinite(a.conversion.baseline_accuracy));
    EXPECT_TRUE(std::isfinite(a.conversion.final_accuracy));
    EXPECT_GT(a.conversion.baseline_accuracy, 0.0);
    EXPECT_FALSE(a.conversion.joint_stage.epoch_losses.empty());
    EXPECT_GE(a.deployed_accuracy, 0.0);
    EXPECT_LE(a.deployed_accuracy, 1.0);

    // Trace extracted from the converted MLP: 16->20->4.
    ASSERT_EQ(a.gemms.size(), 2u);
    EXPECT_EQ(a.gemms[0].k, 16);
    EXPECT_EQ(a.gemms[1].n, 4);
    EXPECT_GT(a.totalMacs(), 0.0);

    EXPECT_TRUE(a.simulated);
    ASSERT_EQ(a.report.layers.size(), a.gemms.size());
    EXPECT_GT(a.report.total.total_cycles, 0u);
    EXPECT_TRUE(std::isfinite(a.report.total.totalDramBytes()));
    EXPECT_TRUE(
        std::isfinite(a.report.total.achievedGops(a.sim_config)));

    EXPECT_TRUE(a.has_ppa);
    EXPECT_GT(a.ppa.area_mm2, 0.0);
    EXPECT_GT(a.ppa.power_mw, 0.0);
    EXPECT_GT(a.energy_mj, 0.0);
    EXPECT_TRUE(std::isfinite(a.energy_mj));

    EXPECT_FALSE(a.summary().empty());
}

TEST(ApiPipeline, ArtifactsRoundTripThroughSerialize)
{
    auto run = Pipeline::forWorkload("mlp-mixture")
                   .pretrain()
                   .convert(tinyConvertOptions())
                   .design(hw::design1Tiny())
                   .simulate()
                   .report();
    ASSERT_TRUE(run.ok()) << run.status().toString();
    const RunArtifacts &a = run.value();

    const std::string path = "api_artifacts_roundtrip.bin";
    ASSERT_TRUE(saveArtifacts(a, path).ok());
    Result<RunArtifacts> loaded = loadArtifacts(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    const RunArtifacts &b = loaded.value();

    EXPECT_EQ(b.workload, a.workload);
    EXPECT_EQ(b.pq.v, a.pq.v);
    EXPECT_EQ(b.pq.c, a.pq.c);
    EXPECT_EQ(b.pq.metric, a.pq.metric);
    EXPECT_EQ(b.converted, a.converted);
    EXPECT_EQ(b.conversion.replaced_layers, a.conversion.replaced_layers);
    EXPECT_DOUBLE_EQ(b.conversion.final_accuracy,
                     a.conversion.final_accuracy);
    EXPECT_EQ(b.conversion.joint_stage.iter_losses,
              a.conversion.joint_stage.iter_losses);
    ASSERT_EQ(b.gemms.size(), a.gemms.size());
    for (size_t i = 0; i < a.gemms.size(); ++i) {
        EXPECT_EQ(b.gemms[i].m, a.gemms[i].m);
        EXPECT_EQ(b.gemms[i].k, a.gemms[i].k);
        EXPECT_EQ(b.gemms[i].n, a.gemms[i].n);
        EXPECT_EQ(b.gemms[i].tag, a.gemms[i].tag);
    }
    EXPECT_EQ(b.simulated, a.simulated);
    EXPECT_EQ(b.sim_config.tn, a.sim_config.tn);
    EXPECT_DOUBLE_EQ(b.sim_config.freq_ccm_hz, a.sim_config.freq_ccm_hz);
    ASSERT_EQ(b.report.layers.size(), a.report.layers.size());
    EXPECT_EQ(b.report.total.total_cycles, a.report.total.total_cycles);
    EXPECT_DOUBLE_EQ(b.report.total.effective_macs,
                     a.report.total.effective_macs);
    EXPECT_EQ(b.report.layers[0].stats.total_cycles,
              a.report.layers[0].stats.total_cycles);
    EXPECT_DOUBLE_EQ(b.report.layers[0].cycle_share,
                     a.report.layers[0].cycle_share);
    EXPECT_EQ(b.has_ppa, a.has_ppa);
    EXPECT_DOUBLE_EQ(b.ppa.area_mm2, a.ppa.area_mm2);
    EXPECT_DOUBLE_EQ(b.energy_mj, a.energy_mj);

    std::remove(path.c_str());
}

TEST(ApiPipeline, DeserializersSurviveTruncationAndWordOverwrites)
{
    // The round-trip test's run, saved once; then every prefix of the
    // file, and the file with each 8-byte window (at every byte offset)
    // overwritten by a hostile word. A truncated file must load as a
    // typed error; an overwritten one may load or fail typed. Neither may
    // throw, and the sanitizer jobs turn any overread into a failure.
    auto builder = Pipeline::forWorkload("mlp-mixture")
                       .pretrain()
                       .convert(tinyConvertOptions())
                       .design(hw::design1Tiny())
                       .simulate();
    auto run = builder.report();
    ASSERT_TRUE(run.ok()) << run.status().toString();
    const std::string artifact_path = "api_artifacts_mutation.bin";
    const std::string params_path = "api_params_mutation.bin";
    const std::string mutant_path = "api_mutant.bin";
    ASSERT_TRUE(saveArtifacts(run.value(), artifact_path).ok());
    lutboost::saveParameters(builder.convertedModel(), params_path);
    const std::string artifact = readFileBytes(artifact_path);
    const std::string params = readFileBytes(params_path);
    ASSERT_GE(artifact.size(), 8u);
    ASSERT_GE(params.size(), 8u);

    // loadParameters warns on every rejected file; keep the sweep quiet.
    const LogLevel saved_threshold = logThreshold();
    setLogThreshold(LogLevel::Silent);
    int64_t throws = 0, truncations_loaded = 0;
    int64_t overwrites_ok = 0, overwrites_typed = 0;
    // Writes `bytes` as the mutant file and loads it: 1 loaded, 0 typed
    // failure, -1 threw.
    const auto outcome = [&](const std::string &bytes, const auto &load) {
        writeFileBytes(mutant_path, bytes);
        try {
            return load() ? 1 : 0;
        } catch (...) {
            ++throws;
            return -1;
        }
    };
    const auto sweep = [&](const std::string &good, const auto &load) {
        for (size_t n = 0; n < good.size(); ++n)
            truncations_loaded += outcome(good.substr(0, n), load) == 1;
        for (size_t off = 0; off + 8 <= good.size(); ++off)
            for (uint64_t word : kHostileWords) {
                std::string mutant = good;
                std::memcpy(&mutant[off], &word, sizeof(word));
                const int result = outcome(mutant, load);
                overwrites_ok += result == 1;
                overwrites_typed += result == 0;
            }
    };
    sweep(artifact, [&] { return loadArtifacts(mutant_path).ok(); });
    sweep(params, [&] {
        return lutboost::loadParameters(builder.convertedModel(),
                                        mutant_path);
    });
    setLogThreshold(saved_threshold);

    EXPECT_EQ(throws, 0);
    EXPECT_EQ(truncations_loaded, 0) << "a truncated file loaded";
    // Both outcomes occur, so the sweep hit counts and payload alike.
    EXPECT_GT(overwrites_ok, 0);
    EXPECT_GT(overwrites_typed, 0);

    // The sweep left the originals loadable.
    EXPECT_TRUE(loadArtifacts(artifact_path).ok());
    EXPECT_TRUE(
        lutboost::loadParameters(builder.convertedModel(), params_path));
    std::remove(artifact_path.c_str());
    std::remove(params_path.c_str());
    std::remove(mutant_path.c_str());
}

TEST(ApiPipeline, LoadArtifactsRejectsGarbage)
{
    EXPECT_EQ(loadArtifacts("does_not_exist.bin").status().code(),
              StatusCode::IoError);

    const std::string path = "api_artifacts_garbage.bin";
    {
        FILE *f = fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        fputs("definitely not a container", f);
        fclose(f);
    }
    EXPECT_EQ(loadArtifacts(path).status().code(), StatusCode::IoError);
    std::remove(path.c_str());
}

TEST(ApiPipeline, LoadArtifactsBoundsCountsByFileSize)
{
    // A truncated file whose GEMM count claims 4M entries (inside the
    // format's hard cap) must fail typed AT the count, before the trace
    // vector is sized for it: the file holds no bytes for a single GEMM.
    const std::string path = "api_artifacts_oversized_count.bin";
    {
        lutboost::BinWriter out(path);
        out.magic("LUTDLAR1");
        out.str("truncated");
        for (int i = 0; i < 6; ++i)  // pq v, c, metric, iters, seed;
            out.u64(0);              // converted flag
        out.i64(0);                  // replaced layers
        for (int i = 0; i < 3; ++i)  // conversion accuracies
            out.f64(0.0);
        for (int stage = 0; stage < 2; ++stage) {  // two TrainResults
            out.f64vec({});
            out.f64vec({});
            out.f64(0.0);
            out.f64(0.0);
        }
        out.f64(0.0);         // deployed accuracy
        out.u64(1u << 22);    // GEMM count, then the file ends
    }
    Result<RunArtifacts> loaded = loadArtifacts(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::IoError);
    EXPECT_NE(loaded.status().toString().find("bad GEMM count"),
              std::string::npos)
        << loaded.status().toString();
    std::remove(path.c_str());
}

TEST(ApiPipeline, WorkloadRegistryResolvesAndRejects)
{
    EXPECT_TRUE(findWorkload("resnet18").ok());
    EXPECT_TRUE(findWorkload("bert-base").ok());
    EXPECT_TRUE(findWorkload("mlp-mixture")->trainable());
    EXPECT_FALSE(findWorkload("resnet18")->trainable());

    Result<WorkloadSpec> missing = findWorkload("alexnet-1989");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::NotFound);

    WorkloadSpec custom;
    custom.name = "custom-gemm";
    custom.network = [] {
        return workloads::Network{"custom-gemm", {{64, 64, 64, "g"}}};
    };
    registerWorkload(custom);
    auto run = Pipeline::forWorkload("custom-gemm")
                   .design(hw::design1Tiny())
                   .simulate()
                   .report();
    ASSERT_TRUE(run.ok()) << run.status().toString();
    EXPECT_EQ(run->gemms.size(), 1u);

    const auto names = workloadNames();
    EXPECT_GT(names.size(), 10u);
}

TEST(ApiPipeline, SimulateOnNamedWorkloadMatchesDirectSim)
{
    auto run = Pipeline::forWorkload("lenet")
                   .design(hw::design2Large())
                   .simulate()
                   .report();
    ASSERT_TRUE(run.ok()) << run.status().toString();
    const workloads::Network net = workloads::lenet();
    sim::LutDlaSimulator direct(
        sim::SimConfig::fromDesign(hw::design2Large()));
    EXPECT_EQ(run->report.total.total_cycles,
              direct.simulateNetwork(net.gemms).total_cycles);
}

// ---- Error paths ----------------------------------------------------------

TEST(ApiPipelineErrors, InvalidPqConfigIsTyped)
{
    lutboost::ConvertOptions opts = tinyConvertOptions();
    opts.pq.c = 12;  // not a power of two
    auto run = Pipeline::forWorkload("mlp-mixture").convert(opts).run();
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(run.status().message().find("power of two"),
              std::string::npos);

    opts = tinyConvertOptions();
    opts.pq.v = 0;
    EXPECT_EQ(Pipeline::forWorkload("mlp-mixture")
                  .convert(opts)
                  .run()
                  .status()
                  .code(),
              StatusCode::InvalidArgument);
}

TEST(ApiPipelineErrors, InvalidSimConfigIsTyped)
{
    // Zero frequency.
    sim::SimConfig zero_freq;
    zero_freq.freq_imm_hz = 0.0;
    auto run = Pipeline::builder()
                   .gemms({{64, 64, 64, "g"}})
                   .design(zero_freq)
                   .simulate()
                   .run();
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(run.status().message().find("frequencies"),
              std::string::npos);

    // Non-positive lookup-lane count.
    sim::SimConfig bad_tn;
    bad_tn.tn = 0;
    EXPECT_EQ(Pipeline::builder()
                  .gemms({{64, 64, 64, "g"}})
                  .design(bad_tn)
                  .simulate()
                  .run()
                  .status()
                  .code(),
              StatusCode::InvalidArgument);

    EXPECT_FALSE(validateSimConfig(bad_tn).ok());
    sim::SimConfig fine;
    EXPECT_TRUE(validateSimConfig(fine).ok());
}

TEST(ApiPipelineErrors, MissingStageInputsArePreconditions)
{
    // simulate() without a design.
    auto no_design =
        Pipeline::builder().gemms({{8, 8, 8, "g"}}).simulate().run();
    ASSERT_FALSE(no_design.ok());
    EXPECT_EQ(no_design.status().code(), StatusCode::FailedPrecondition);

    // simulate() without any trace.
    auto no_trace =
        Pipeline::builder().design(hw::design1Tiny()).simulate().run();
    ASSERT_FALSE(no_trace.ok());
    EXPECT_EQ(no_trace.status().code(), StatusCode::FailedPrecondition);

    // convert() without a model.
    auto no_model = Pipeline::builder().convert(tinyConvertOptions()).run();
    ASSERT_FALSE(no_model.ok());
    EXPECT_EQ(no_model.status().code(), StatusCode::FailedPrecondition);

    // Unknown workload.
    auto unknown = Pipeline::forWorkload("nope").run();
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(), StatusCode::NotFound);

    // Shape-only workload cannot drive a conversion.
    auto untrainable =
        Pipeline::forWorkload("resnet18").convert(tinyConvertOptions())
            .run();
    ASSERT_FALSE(untrainable.ok());
    EXPECT_EQ(untrainable.status().code(),
              StatusCode::FailedPrecondition);
}

TEST(ApiPipelineErrors, EmptyDatasetIsInvalidArgument)
{
    nn::Dataset empty;
    empty.name = "empty";
    empty.num_classes = 4;
    auto run = Pipeline::builder()
                   .model(nn::makeMlp(16, {8}, 4))
                   .dataset(empty)
                   .convert(tinyConvertOptions())
                   .run();
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::InvalidArgument);
}

} // namespace
} // namespace lutdla::api
