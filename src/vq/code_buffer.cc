#include "vq/code_buffer.h"

#include <cstring>

#include "util/logging.h"

namespace lutdla::vq {

int
codeBitsFor(int64_t num_centroids)
{
    return num_centroids <= 256 ? 8 : 16;
}

void
CodeBuffer::reset(int64_t rows, int64_t subspaces, int64_t num_centroids)
{
    LUTDLA_CHECK(rows >= 0 && subspaces >= 1,
                 "CodeBuffer needs rows >= 0 and subspaces >= 1");
    LUTDLA_CHECK(num_centroids >= 1 && num_centroids <= 65536,
                 "CodeBuffer supports up to 65536 centroids, got ",
                 num_centroids);
    rows_ = rows;
    subspaces_ = subspaces;
    bits_ = codeBitsFor(num_centroids);
    stride_ = rows < kMinPaddedRows
                  ? rows
                  : (rows + kPlaneAlign - 1) / kPlaneAlign * kPlaneAlign;
    // Grow only: stages of one batch alternate between buffer sizes, and
    // a shrink-then-grow would zero-fill the regrown bytes every batch.
    if (data_.size() < static_cast<size_t>(sizeBytes()))
        data_.resize(static_cast<size_t>(sizeBytes()));
    const size_t pad = static_cast<size_t>((stride_ - rows_) * (bits_ / 8));
    if (pad == 0)
        return;
    for (int64_t s = 0; s < subspaces_; ++s)
        std::memset(data_.data() + byteOffset(s, rows_), 0, pad);
}

void
CodeBuffer::unpackRows(int64_t row0, int64_t n, int32_t *out) const
{
    LUTDLA_CHECK(row0 >= 0 && row0 + n <= rows_,
                 "CodeBuffer::unpackRows range [", row0, ", ", row0 + n,
                 ") exceeds ", rows_, " rows");
    // Row-outer: the scalar tails are a handful of rows, so the inner loop
    // must run over the subspaces to amortize.
    if (bits_ == 8) {
        for (int64_t i = 0; i < n; ++i) {
            const uint8_t *src = data_.data() + row0 + i;
            int32_t *dst = out + i * subspaces_;
            for (int64_t s = 0; s < subspaces_; ++s)
                dst[s] = src[s * stride_];
        }
        return;
    }
    for (int64_t i = 0; i < n; ++i)
        for (int64_t s = 0; s < subspaces_; ++s)
            out[i * subspaces_ + s] = get(row0 + i, s);
}

} // namespace lutdla::vq
