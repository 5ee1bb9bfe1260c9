/**
 * @file
 * Tests for the per-layer simulation report and the deployment-artifact
 * serializer (save/load round trips, mismatch rejection).
 */

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "lutboost/converter.h"
#include "lutboost/serialize.h"
#include "nn/models.h"
#include "nn/trainer.h"
#include "sim/report.h"

namespace lutdla {
namespace {

TEST(Report, SharesSumToOne)
{
    sim::SimConfig cfg;
    cfg.v = 4;
    cfg.c = 16;
    cfg.tn = 32;
    cfg.m_tile = 128;
    sim::LutDlaSimulator simulator(cfg);
    const std::vector<sim::GemmShape> gemms{{128, 64, 64, "a"},
                                            {256, 64, 64, "b"},
                                            {64, 32, 32, "c"}};
    const sim::NetworkReport report =
        sim::profileNetwork(simulator, gemms);
    ASSERT_EQ(report.layers.size(), 3u);
    double share = 0.0;
    uint64_t cycles = 0;
    for (const auto &layer : report.layers) {
        share += layer.cycle_share;
        cycles += layer.stats.total_cycles;
    }
    EXPECT_NEAR(share, 1.0, 1e-9);
    EXPECT_EQ(cycles, report.total.total_cycles);
}

TEST(Report, HottestLayerIsLargestGemm)
{
    sim::SimConfig cfg;
    cfg.v = 4;
    cfg.c = 16;
    cfg.tn = 32;
    cfg.m_tile = 128;
    sim::LutDlaSimulator simulator(cfg);
    const std::vector<sim::GemmShape> gemms{{64, 32, 32, "small"},
                                            {512, 256, 256, "big"}};
    const sim::NetworkReport report =
        sim::profileNetwork(simulator, gemms);
    EXPECT_EQ(report.hottestLayer(), 1);
    EXPECT_NE(report.table(cfg).find("big"), std::string::npos);
    EXPECT_NE(report.csv(cfg).find("small"), std::string::npos);
}

class SerializeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "lutdla_params.bin";
    }
    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }
    std::string path_;
};

TEST_F(SerializeTest, RoundTripRestoresExactValues)
{
    auto model = nn::makeMlp(8, {12}, 3, 51);
    lutboost::saveParameters(model, path_);

    // Perturb, then restore.
    auto params = nn::collectParameters(model);
    const Tensor original = params[0]->value;
    params[0]->value.fill(42.0f);
    ASSERT_TRUE(lutboost::loadParameters(model, path_));
    EXPECT_TRUE(params[0]->value.equals(original));
}

TEST_F(SerializeTest, RoundTripCoversLutModels)
{
    auto model = nn::makeMlp(8, {12}, 3, 52);
    lutboost::ConvertOptions opts;
    opts.pq.v = 4;
    opts.pq.c = 8;
    lutboost::replaceOperators(model, opts);
    lutboost::saveParameters(model, path_);

    auto clone = nn::makeMlp(8, {12}, 3, 99);
    lutboost::replaceOperators(clone, opts);
    ASSERT_TRUE(lutboost::loadParameters(clone, path_));

    // Same parameters -> identical outputs.
    Tensor x(Shape{4, 8});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(i) * 0.1f;
    EXPECT_LT(Tensor::maxAbsDiff(model->forward(x, false),
                                 clone->forward(x, false)),
              1e-6f);
}

TEST_F(SerializeTest, RejectsMismatchedArchitecture)
{
    auto model = nn::makeMlp(8, {12}, 3, 53);
    lutboost::saveParameters(model, path_);

    auto wider = nn::makeMlp(8, {16}, 3, 54);
    const auto before = nn::collectParameters(wider)[0]->value;
    EXPECT_FALSE(lutboost::loadParameters(wider, path_));
    // Model untouched on failure.
    EXPECT_TRUE(nn::collectParameters(wider)[0]->value.equals(before));
}

TEST_F(SerializeTest, RejectsGarbageFile)
{
    std::ofstream(path_) << "not a parameter file";
    auto model = nn::makeMlp(4, {4}, 2, 55);
    EXPECT_FALSE(lutboost::loadParameters(model, path_));
}

TEST_F(SerializeTest, CountsBoundedByBytesLeftInFile)
{
    // A length word claiming more items than the file still holds fails
    // the read BEFORE anything is sized for it, so a truncated file never
    // turns into a multi-megabyte allocation.
    {
        lutboost::BinWriter out(path_);
        out.u64(1u << 20);  // string length at str()'s cap
        out.f64(1.0);       // 8 bytes of payload
    }
    {
        lutboost::BinReader in(path_);
        EXPECT_EQ(in.remaining(), 16u);
        std::string s;
        EXPECT_FALSE(in.str(s));
        EXPECT_TRUE(s.empty()) << "str() sized the string before the bound";
    }
    {
        lutboost::BinWriter out(path_);
        out.u64((1u << 24) - 1);  // f64 count under f64vec()'s cap
        out.f64(1.0);
        out.f64(2.0);
    }
    {
        lutboost::BinReader in(path_);
        std::vector<double> v;
        EXPECT_FALSE(in.f64vec(v));
        EXPECT_TRUE(v.empty()) << "f64vec() sized the vector before the bound";
    }
    // Counts that do fit still read back exactly, up to the last byte.
    {
        lutboost::BinWriter out(path_);
        out.str("abc");
        out.f64vec({1.0, 2.0});
    }
    lutboost::BinReader in(path_);
    std::string s;
    std::vector<double> v;
    ASSERT_TRUE(in.str(s));
    ASSERT_TRUE(in.f64vec(v));
    EXPECT_EQ(s, "abc");
    EXPECT_EQ(v, (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(in.remaining(), 0u);
}

TEST_F(SerializeTest, MissingFileFailsGracefully)
{
    auto model = nn::makeMlp(4, {4}, 2, 56);
    EXPECT_FALSE(lutboost::loadParameters(model, "/nonexistent/x.bin"));
}

} // namespace
} // namespace lutdla
