/**
 * @file
 * Table VI: LUT-based transformer accuracy. TinyTransformer substitutes
 * run on three synthetic sequence-classification tasks standing in for
 * the GLUE suite (DESIGN.md); each "model" mirrors one paper row
 * (BERT / OPT-125M / DistilBERT via depth/width variants), reporting
 * baseline / L1 / L2 like the paper's cells.
 *
 * Paper shape: L2 within ~1.4-3.0% of baseline and L1 slightly below L2
 * on every model. Measured here: both metrics stay within a few points
 * of baseline, but L1 is not below L2 everywhere (it tops L2 on TinyBERT
 * and TinyDistil). Each task tests 48 sequences, one sequence is ~2.1
 * points, so the L1/L2 gaps are one to three sequences. The output
 * prints the measured ordering per model as a known deviation.
 */

#include <cstdio>
#include <string>

#include "bench_common.h"

using namespace lutdla;
using namespace lutdla::bench;

int
main()
{
    const struct
    {
        const char *task;
        uint64_t seed;
    } tasks[] = {{"seq-A", 61}, {"seq-B", 62}, {"seq-C", 63}};

    const struct
    {
        const char *name;
        int64_t layers;
        int64_t d_model;
    } models[] = {{"TinyBERT (2L, d=32)", 2, 32},
                  {"TinyOPT (2L, d=24)", 2, 24},
                  {"TinyDistil (1L, d=32)", 1, 32}};

    constexpr int64_t kClasses = 4, kTestPerClass = 12;
    std::string ordering;
    Table t("Table VI: LUT-based transformer accuracy (v=4, c=16), cells "
            "= baseline/L1/L2",
            {"model", "seq-A", "seq-B", "seq-C", "average"});
    for (const auto &m : models) {
        std::vector<std::string> row{m.name};
        double avg_base = 0.0, avg_l1 = 0.0, avg_l2 = 0.0;
        for (const auto &task : tasks) {
            nn::SequenceTaskConfig scfg;
            scfg.classes = kClasses;
            scfg.train_per_class = 36;
            scfg.test_per_class = kTestPerClass;
            scfg.seed = task.seed;
            const nn::Dataset ds = nn::makeSequenceTask(scfg);

            auto factory = [&] {
                nn::TinyTransformerConfig tc;
                tc.classes = kClasses;
                tc.layers = m.layers;
                tc.d_model = m.d_model;
                tc.heads = 4;
                tc.d_ff = 2 * m.d_model;
                return nn::makeTinyTransformer(tc);
            };

            double acc[2];
            double base = 0.0;
            int idx = 0;
            for (vq::Metric metric : {vq::Metric::L1, vq::Metric::L2}) {
                auto opts = benchConvertOptions(4, 16, metric, 2, 4);
                opts.centroid_stage.lr = 1e-3;
                opts.joint_stage.lr = 5e-4;
                nn::LayerPtr model = factory();
                nn::TrainConfig pre;
                pre.epochs = 12;
                pre.lr = 2e-3;
                pre.use_adam = true;
                nn::Trainer(model, ds, pre).train();
                const auto rep = lutboost::convert(model, ds, opts);
                acc[idx++] = rep.final_accuracy;
                base = rep.baseline_accuracy;
            }
            row.push_back(pct(base) + "/" + pct(acc[0]) + "/" +
                          pct(acc[1]));
            avg_base += base / 3.0;
            avg_l1 += acc[0] / 3.0;
            avg_l2 += acc[1] / 3.0;
        }
        row.push_back(pct(avg_base) + "/" + pct(avg_l1) + "/" +
                      pct(avg_l2));
        t.addRow(row);
        const std::string name(m.name);
        ordering += (ordering.empty() ? "" : ", ") +
                    name.substr(0, name.find(' ')) + " L1 " +
                    (avg_l1 < avg_l2   ? "<"
                     : avg_l1 > avg_l2 ? ">"
                                       : "=") +
                    " L2";
    }
    t.addNote("paper (GLUE averages): BERT 87.7/84.7/85.1, OPT-125M "
              "87.2/84.9/85.4, DistilBERT 86.4/84.1/85.0");
    t.addNote("only QKV/attn-out/FFN linears are converted; softmax and "
              "layernorm stay exact, as in the hardware");
    t.addNote("known deviation: the paper has L1 slightly below L2 on "
              "every model; measured averages give " +
              ordering + ". One test sequence is " +
              pct(1.0 / static_cast<double>(kClasses * kTestPerClass)) +
              " points, so these gaps are a few sequences");
    t.print();
    return 0;
}
