#ifndef LUTDLA_VQ_CODE_BUFFER_H
#define LUTDLA_VQ_CODE_BUFFER_H

/**
 * @file
 * CodeBuffer: planar byte storage for the per-subspace centroid indices the
 * encode phase produces and the gather phase consumes.
 *
 * Layout: subspace-major planes, one byte per code (two bytes, little-
 * endian, above 256 centroids). Code (row, s) lives at
 * `s * planeStride() + row`, so one subspace's codes for every row of a
 * batch are contiguous. That is exactly the lane layout the shuffle-gather
 * kernels consume — a vector register loads one subspace's codes for a
 * whole chunk of rows straight from the plane — and the layout the encode
 * kernels produce, since they run subspace-outer over the whole batch. No
 * reformatting step sits between the two phases, just as the paper's CCM
 * hands its argmin indices straight to the IMM lookup units.
 *
 * `planeStride()` is the row count rounded up to kPlaneAlign (the widest
 * shuffle chunk), and `reset` zeroes the pad lanes [rows, planeStride) of
 * every plane, so a ragged tail chunk may read past the last row and see
 * code 0, a valid index. Batches of fewer than kMinPaddedRows rows keep
 * unpadded planes (planeStride() == rows): no gather runs a shuffle chunk
 * for them, and a 64-row pad would spread a 1-row batch's codes over one
 * cache line per subspace. A buffer belongs to one worker: the encode
 * fills it from row 0 and the gather reads it from row 0, so a gather
 * chunk that starts at a multiple of its width never leaves the plane.
 *
 * Why no nibble packing: on the CPU this buffer is per-tile L1/L2 scratch
 * between two kernels, not the CCM -> IMM wire. Packing c <= 16 codes two
 * per byte halved a buffer that never leaves cache, at the price of a
 * read-modify-write per code in the encode and an unpack per chunk in the
 * gather. The paper's equivalent-bits accounting (ceil(log2 c) bits per
 * index on the wire) lives in the hardware models and is unchanged.
 */

#include <cstdint>
#include <vector>

namespace lutdla::vq {

/** Stored bits per code for a codebook of `num_centroids` entries: 8 when
 * the index fits a byte, 16 otherwise. */
int codeBitsFor(int64_t num_centroids);

/** Planar [subspaces, planeStride] matrix of centroid indices. */
class CodeBuffer
{
  public:
    /** Plane stride granularity in rows: the widest shuffle-gather chunk,
     * so a chunk starting at a multiple of it never leaves the plane. */
    static constexpr int64_t kPlaneAlign = 64;

    /** Smallest batch whose planes are padded to kPlaneAlign: the fewest
     * rows the gathers ever run through a padded chunk (an INT4 tail at
     * AVX2's 32-row chunk; see LutTableArena::kInt4PadTailRows). */
    static constexpr int64_t kMinPaddedRows = 16;

    CodeBuffer() = default;

    /**
     * Size the buffer for `rows` x `subspaces` codes addressing
     * `num_centroids` centroids (chooses the code width) and zero the pad
     * lanes past `rows` in every plane. The valid lanes keep whatever they
     * held: the encode overwrites them. Reuses capacity across calls, so
     * per-batch resets do not allocate once the buffer has grown to the
     * largest batch seen.
     */
    void reset(int64_t rows, int64_t subspaces, int64_t num_centroids);

    /** Rows currently stored. */
    int64_t rows() const { return rows_; }

    /** Codes per row. */
    int64_t subspaces() const { return subspaces_; }

    /** Stored bits per code (8 or 16). */
    int bits() const { return bits_; }

    /** Codes between the starts of two consecutive planes: rows() rounded
     * up to kPlaneAlign, or rows() itself below kMinPaddedRows. */
    int64_t planeStride() const { return stride_; }

    /** Total payload bytes (subspaces * planeStride * bits / 8). */
    int64_t sizeBytes() const
    {
        return subspaces_ * stride_ * (bits_ / 8);
    }

    /** First byte of subspace `s`'s plane; code (row, s) is element `row`
     * of it (bits() / 8 bytes each). */
    const uint8_t *plane(int64_t s) const
    {
        return data_.data() + byteOffset(s, 0);
    }

    /**
     * Store `n` codes of subspace `s` for rows [row0, row0 + n): one
     * contiguous narrowing copy into the plane. Values must fit bits().
     * Inline so the encode TU vectorizes it.
     */
    void
    storeCodes(int64_t s, int64_t row0, const int32_t *codes, int64_t n)
    {
        uint8_t *dst = data_.data() + byteOffset(s, row0);
        if (bits_ == 8) {
            for (int64_t i = 0; i < n; ++i)
                dst[i] = static_cast<uint8_t>(codes[i]);
            return;
        }
        for (int64_t i = 0; i < n; ++i) {
            dst[2 * i] = static_cast<uint8_t>(codes[i] & 0xFF);
            dst[2 * i + 1] = static_cast<uint8_t>((codes[i] >> 8) & 0xFF);
        }
    }

    /** Read back the code for (row, s). Rows in [rows(), planeStride())
     * are pad lanes and read 0. */
    int32_t
    get(int64_t row, int64_t s) const
    {
        const uint8_t *p = data_.data() + byteOffset(s, row);
        if (bits_ == 8)
            return p[0];
        return static_cast<int32_t>(p[0]) |
               (static_cast<int32_t>(p[1]) << 8);
    }

    /**
     * Copy rows [row0, row0 + n) into `out` ([n, subspaces] row-major
     * int32) — the scalar sweeps index codes per row, so they run on this
     * row-major copy of a small block.
     */
    void unpackRows(int64_t row0, int64_t n, int32_t *out) const;

  private:
    int64_t
    byteOffset(int64_t s, int64_t row) const
    {
        return (s * stride_ + row) * (bits_ / 8);
    }

    int64_t rows_ = 0;
    int64_t subspaces_ = 0;
    int bits_ = 8;
    int64_t stride_ = 0;
    std::vector<uint8_t> data_;
};

} // namespace lutdla::vq

#endif // LUTDLA_VQ_CODE_BUFFER_H
