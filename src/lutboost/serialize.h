#ifndef LUTDLA_LUTBOOST_SERIALIZE_H
#define LUTDLA_LUTBOOST_SERIALIZE_H

/**
 * @file
 * Deployment-artifact serialization: save a converted model's parameters
 * (weights, biases, codebooks — everything the accelerator's compiler
 * needs to emit LUTs) to a simple binary container and load them back
 * into a structurally identical model.
 *
 * Format: magic "LUTDLA01", then a count of tensors, then per tensor a
 * rank, dims, and raw float payload, in deterministic traversal order.
 * The loader checks shapes strictly — loading into a mismatched
 * architecture is refused rather than silently misassigned.
 *
 * The low-level container primitives (BinWriter/BinReader) are public so
 * higher layers can serialize richer artifacts in the same container
 * family — api::RunArtifacts ("LUTDLAR1") reuses them for its round-trip.
 */

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace lutdla::lutboost {

/** Little-endian binary stream writer for LUT-DLA container files. */
class BinWriter
{
  public:
    /** Open `path` for writing (truncating). Check ok() before use. */
    explicit BinWriter(const std::string &path)
        : out_(path, std::ios::binary | std::ios::trunc)
    {
    }

    bool ok() const { return static_cast<bool>(out_); }

    /** Write an 8-byte magic tag identifying the container flavor. */
    void magic(const char (&tag)[9]) { out_.write(tag, 8); }

    void
    u64(uint64_t v)
    {
        out_.write(reinterpret_cast<const char *>(&v), sizeof(v));
    }
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    void
    f64(double v)
    {
        out_.write(reinterpret_cast<const char *>(&v), sizeof(v));
    }

    /** Length-prefixed string. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        out_.write(s.data(), static_cast<std::streamsize>(s.size()));
    }

    void
    f64vec(const std::vector<double> &v)
    {
        u64(v.size());
        for (double d : v)
            f64(d);
    }

    void
    bytes(const void *data, int64_t n)
    {
        out_.write(static_cast<const char *>(data),
                   static_cast<std::streamsize>(n));
    }

  private:
    std::ofstream out_;
};

/**
 * Mirror reader for BinWriter containers; every read reports success.
 * Every count read from the file is bounded by the bytes the file still
 * holds before anything is sized for it, so a truncated or corrupted
 * file fails the read instead of triggering a huge allocation.
 */
class BinReader
{
  public:
    explicit BinReader(const std::string &path)
        : in_(path, std::ios::binary | std::ios::ate)
    {
        const std::streamoff end = in_ ? std::streamoff(in_.tellg()) : -1;
        if (end >= 0) {
            size_ = static_cast<uint64_t>(end);
            in_.seekg(0);
        }
    }

    bool ok() const { return static_cast<bool>(in_); }

    /** Bytes between the read position and the end of the file (0 once
     * a read has failed). */
    uint64_t
    remaining()
    {
        const std::streamoff pos = in_.tellg();
        return pos < 0 ? 0 : size_ - static_cast<uint64_t>(pos);
    }

    /** True when `count` items of at least `min_bytes` bytes each still
     * fit in the file; check it before sizing anything for `count`. */
    bool
    fits(uint64_t count, uint64_t min_bytes)
    {
        return count <= remaining() / min_bytes;
    }

    /** Read and verify the 8-byte magic tag. */
    bool magic(const char (&expected)[9]);

    bool
    u64(uint64_t &v)
    {
        in_.read(reinterpret_cast<char *>(&v), sizeof(v));
        return static_cast<bool>(in_);
    }
    bool
    i64(int64_t &v)
    {
        uint64_t raw = 0;
        if (!u64(raw))
            return false;
        v = static_cast<int64_t>(raw);
        return true;
    }
    bool
    f64(double &v)
    {
        in_.read(reinterpret_cast<char *>(&v), sizeof(v));
        return static_cast<bool>(in_);
    }

    bool str(std::string &s, uint64_t max_len = 1u << 20);
    bool f64vec(std::vector<double> &v, uint64_t max_len = 1u << 24);

    bool
    bytes(void *data, int64_t n)
    {
        in_.read(static_cast<char *>(data),
                 static_cast<std::streamsize>(n));
        return static_cast<bool>(in_);
    }

  private:
    std::ifstream in_;
    uint64_t size_ = 0;  ///< file size in bytes
};

/** Serialize every parameter of `model` to `path`. Fatal on I/O error. */
void saveParameters(const nn::LayerPtr &model, const std::string &path);

/**
 * Load parameters saved by saveParameters into `model`.
 * @return false when the file doesn't match the model's parameter
 *         inventory (count or any shape); model is unchanged on failure.
 */
bool loadParameters(const nn::LayerPtr &model, const std::string &path);

} // namespace lutdla::lutboost

#endif // LUTDLA_LUTBOOST_SERIALIZE_H
