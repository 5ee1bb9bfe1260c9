#include "nn/loss.h"

#include <cmath>

#include "util/logging.h"

namespace lutdla::nn {

double
SoftmaxCrossEntropy::forward(const Tensor &logits,
                             const std::vector<int> &labels)
{
    LUTDLA_CHECK(logits.rank() == 2 &&
                 logits.dim(0) == static_cast<int64_t>(labels.size()),
                 "loss expects [B, C] logits with B labels");
    const int64_t B = logits.dim(0), C = logits.dim(1);
    probs_ = logits;
    labels_ = labels;
    double total = 0.0;
    for (int64_t b = 0; b < B; ++b) {
        float row_max = -INFINITY;
        for (int64_t c = 0; c < C; ++c)
            row_max = std::max(row_max, probs_.at(b, c));
        double denom = 0.0;
        for (int64_t c = 0; c < C; ++c) {
            probs_.at(b, c) = std::exp(probs_.at(b, c) - row_max);
            denom += probs_.at(b, c);
        }
        const float inv = static_cast<float>(1.0 / denom);
        for (int64_t c = 0; c < C; ++c)
            probs_.at(b, c) *= inv;
        const int y = labels[static_cast<size_t>(b)];
        LUTDLA_CHECK(y >= 0 && y < C, "label out of range");
        total -= std::log(std::max(probs_.at(b, y), 1e-12f));
    }
    return total / static_cast<double>(B);
}

Tensor
SoftmaxCrossEntropy::backward() const
{
    const int64_t B = probs_.dim(0), C = probs_.dim(1);
    Tensor g = probs_;
    const float inv_b = 1.0f / static_cast<float>(B);
    for (int64_t b = 0; b < B; ++b) {
        g.at(b, labels_[static_cast<size_t>(b)]) -= 1.0f;
        for (int64_t c = 0; c < C; ++c)
            g.at(b, c) *= inv_b;
    }
    return g;
}

double
accuracy(const Tensor &logits, const std::vector<int> &labels)
{
    const int64_t B = logits.dim(0), C = logits.dim(1);
    int64_t hits = 0;
    for (int64_t b = 0; b < B; ++b) {
        int64_t best = 0;
        for (int64_t c = 1; c < C; ++c)
            if (logits.at(b, c) > logits.at(b, best))
                best = c;
        if (best == labels[static_cast<size_t>(b)])
            ++hits;
    }
    return B ? static_cast<double>(hits) / static_cast<double>(B) : 0.0;
}

} // namespace lutdla::nn
