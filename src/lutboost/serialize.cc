#include "lutboost/serialize.h"

#include <cstring>

#include "util/logging.h"

namespace lutdla::lutboost {

namespace {

constexpr char kMagic[9] = "LUTDLA01";

} // namespace

bool
BinReader::magic(const char (&expected)[9])
{
    char tag[8];
    in_.read(tag, sizeof(tag));
    return static_cast<bool>(in_) &&
           std::memcmp(tag, expected, sizeof(tag)) == 0;
}

bool
BinReader::str(std::string &s, uint64_t max_len)
{
    uint64_t len = 0;
    if (!u64(len) || len > max_len || !fits(len, 1))
        return false;
    s.resize(len);
    in_.read(s.data(), static_cast<std::streamsize>(len));
    return static_cast<bool>(in_);
}

bool
BinReader::f64vec(std::vector<double> &v, uint64_t max_len)
{
    uint64_t len = 0;
    if (!u64(len) || len > max_len || !fits(len, sizeof(double)))
        return false;
    v.resize(len);
    for (double &d : v)
        if (!f64(d))
            return false;
    return true;
}

void
saveParameters(const nn::LayerPtr &model, const std::string &path)
{
    const auto params = nn::collectParameters(model);
    BinWriter out(path);
    if (!out.ok())
        fatal("cannot open '", path, "' for writing");

    out.magic(kMagic);
    out.u64(params.size());
    for (const nn::Parameter *p : params) {
        out.u64(p->value.shape().size());
        for (int64_t d : p->value.shape())
            out.u64(static_cast<uint64_t>(d));
        out.bytes(p->value.data(),
                  p->value.numel() * static_cast<int64_t>(sizeof(float)));
    }
    if (!out.ok())
        fatal("write failed for '", path, "'");
}

bool
loadParameters(const nn::LayerPtr &model, const std::string &path)
{
    auto params = nn::collectParameters(model);
    BinReader in(path);
    if (!in.ok()) {
        warn("cannot open '", path, "' for reading");
        return false;
    }

    if (!in.magic(kMagic)) {
        warn("'", path, "' is not a LUT-DLA parameter file");
        return false;
    }
    uint64_t count = 0;
    if (!in.u64(count) || count != params.size()) {
        warn("parameter count mismatch: file has ", count, ", model has ",
             params.size());
        return false;
    }

    // Stage into a buffer first so a mismatch leaves the model intact.
    std::vector<Tensor> staged;
    staged.reserve(params.size());
    for (const nn::Parameter *p : params) {
        uint64_t rank = 0;
        if (!in.u64(rank) || rank != p->value.shape().size()) {
            warn("rank mismatch for '", p->name, "'");
            return false;
        }
        Shape shape;
        for (uint64_t d = 0; d < rank; ++d) {
            uint64_t dim = 0;
            if (!in.u64(dim))
                return false;
            shape.push_back(static_cast<int64_t>(dim));
        }
        if (shape != p->value.shape()) {
            warn("shape mismatch for '", p->name, "': file ",
                 shapeStr(shape), " vs model ", shapeStr(p->value.shape()));
            return false;
        }
        Tensor t(shape);
        if (!in.bytes(t.data(),
                      t.numel() * static_cast<int64_t>(sizeof(float)))) {
            warn("truncated payload in '", path, "'");
            return false;
        }
        staged.push_back(std::move(t));
    }

    for (size_t i = 0; i < params.size(); ++i)
        params[i]->value = std::move(staged[i]);
    return true;
}

} // namespace lutdla::lutboost
