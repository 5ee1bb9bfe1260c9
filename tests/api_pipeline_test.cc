/**
 * @file
 * Facade tests: a tiny MLP end-to-end through PipelineBuilder with all
 * stages on, the RunArtifacts serialization round-trip, the workload
 * registry, and the typed error paths for invalid PQ/Sim configuration.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "api/lutdla.h"
#include "lutboost/serialize.h"
#include "nn/models.h"

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
