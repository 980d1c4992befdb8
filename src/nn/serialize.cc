#include "nn/serialize.h"

#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

namespace secemb::nn {

namespace {

constexpr uint32_t kMagic = 0x53454d42;  // "SEMB"
constexpr uint32_t kVersion = 1;

struct FileCloser
{
    void operator()(std::FILE* f) const { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

File
OpenOrThrow(const std::string& path, const char* mode)
{
    File f(std::fopen(path.c_str(), mode));
    if (!f) {
        throw std::runtime_error("serialize: cannot open " + path);
    }
    return f;
}

void
WriteU64(std::FILE* f, uint64_t v)
{
    if (std::fwrite(&v, sizeof(v), 1, f) != 1) {
        throw std::runtime_error("serialize: short write");
    }
}

[[noreturn]] void
ThrowCorrupt(const std::string& path, uint64_t offset,
             const std::string& why)
{
    throw std::runtime_error("serialize: corrupt data in " + path +
                             " at offset " + std::to_string(offset) +
                             ": " + why);
}

uint64_t
Offset(std::FILE* f)
{
    const long pos = std::ftell(f);
    return pos < 0 ? 0 : static_cast<uint64_t>(pos);
}

uint64_t
FileSize(std::FILE* f)
{
    const long cur = std::ftell(f);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, cur < 0 ? 0 : cur, SEEK_SET);
    return size < 0 ? 0 : static_cast<uint64_t>(size);
}

uint64_t
ReadU64(std::FILE* f, const std::string& path)
{
    uint64_t v = 0;
    const uint64_t offset = Offset(f);
    if (std::fread(&v, sizeof(v), 1, f) != 1) {
        ThrowCorrupt(path, offset, "short read (truncated file?)");
    }
    return v;
}

void
WriteTensorBody(std::FILE* f, const Tensor& t)
{
    WriteU64(f, static_cast<uint64_t>(t.dim()));
    for (int64_t d = 0; d < t.dim(); ++d) {
        WriteU64(f, static_cast<uint64_t>(t.size(d)));
    }
    const size_t n = static_cast<size_t>(t.numel());
    if (n > 0 && std::fwrite(t.data(), sizeof(float), n, f) != n) {
        throw std::runtime_error("serialize: short payload write");
    }
}

/**
 * Read one tensor, validating the header against `file_size` *before*
 * allocating: a corrupt rank, a dim that does not fit int64, or an
 * element count whose payload could not possibly fit in the bytes that
 * remain all fail up front with the offending path and byte offset —
 * never with a multi-GB resize or an integer overflow.
 */
Tensor
ReadTensorBody(std::FILE* f, const std::string& path, uint64_t file_size)
{
    uint64_t offset = Offset(f);
    const uint64_t ndims = ReadU64(f, path);
    if (ndims > 8) {
        ThrowCorrupt(path, offset,
                     "tensor rank " + std::to_string(ndims) +
                         " exceeds the maximum of 8");
    }
    // The payload can never exceed the file itself, so the running
    // element-count product is bounded by file_size / sizeof(float);
    // checking against that bound before each multiply also rules out
    // uint64 overflow.
    const uint64_t max_elems = file_size / sizeof(float);
    Shape shape;
    shape.reserve(ndims);
    uint64_t numel = 1;
    for (uint64_t d = 0; d < ndims; ++d) {
        offset = Offset(f);
        const uint64_t v = ReadU64(f, path);
        if (v > static_cast<uint64_t>(
                    std::numeric_limits<int64_t>::max())) {
            ThrowCorrupt(path, offset,
                         "dimension " + std::to_string(d) +
                             " does not fit in int64");
        }
        if (v != 0 && numel > max_elems / v) {
            ThrowCorrupt(path, offset,
                         "dimension " + std::to_string(d) + " = " +
                             std::to_string(v) +
                             " puts the element count past the " +
                             std::to_string(file_size) + "-byte file");
        }
        numel = v == 0 ? 0 : numel * v;
        shape.push_back(static_cast<int64_t>(v));
    }
    const uint64_t data_offset = Offset(f);
    const uint64_t remaining =
        file_size > data_offset ? file_size - data_offset : 0;
    if (numel * sizeof(float) > remaining) {
        ThrowCorrupt(path, data_offset,
                     "payload of " + std::to_string(numel) +
                         " floats exceeds the " +
                         std::to_string(remaining) + " bytes remaining");
    }
    Tensor t(shape);
    const size_t n = static_cast<size_t>(t.numel());
    if (n > 0 && std::fread(t.data(), sizeof(float), n, f) != n) {
        ThrowCorrupt(path, data_offset, "short payload read");
    }
    return t;
}

void
WriteHeader(std::FILE* f, uint64_t count)
{
    WriteU64(f, kMagic);
    WriteU64(f, kVersion);
    WriteU64(f, count);
}

uint64_t
ReadHeader(std::FILE* f, const std::string& path)
{
    if (ReadU64(f, path) != kMagic) {
        ThrowCorrupt(path, 0, "bad magic (not a SEMB checkpoint)");
    }
    if (ReadU64(f, path) != kVersion) {
        ThrowCorrupt(path, sizeof(uint64_t), "unsupported version");
    }
    return ReadU64(f, path);
}

}  // namespace

void
SaveTensor(const Tensor& t, const std::string& path)
{
    File f = OpenOrThrow(path, "wb");
    WriteHeader(f.get(), 1);
    WriteTensorBody(f.get(), t);
}

Tensor
LoadTensor(const std::string& path)
{
    File f = OpenOrThrow(path, "rb");
    const uint64_t file_size = FileSize(f.get());
    if (ReadHeader(f.get(), path) != 1) {
        throw std::runtime_error("serialize: expected a single tensor in " +
                                 path);
    }
    return ReadTensorBody(f.get(), path, file_size);
}

void
SaveParameters(const std::vector<Parameter*>& params,
               const std::string& path)
{
    File f = OpenOrThrow(path, "wb");
    WriteHeader(f.get(), params.size());
    for (const Parameter* p : params) {
        WriteTensorBody(f.get(), p->value);
    }
}

void
LoadParameters(const std::vector<Parameter*>& params,
               const std::string& path)
{
    File f = OpenOrThrow(path, "rb");
    const uint64_t file_size = FileSize(f.get());
    const uint64_t count = ReadHeader(f.get(), path);
    if (count != params.size()) {
        throw std::runtime_error(
            "serialize: parameter count mismatch in " + path +
            " (file has " + std::to_string(count) + ", model expects " +
            std::to_string(params.size()) + ")");
    }
    for (size_t i = 0; i < params.size(); ++i) {
        const uint64_t offset = Offset(f.get());
        Tensor t = ReadTensorBody(f.get(), path, file_size);
        if (t.shape() != params[i]->value.shape()) {
            throw std::runtime_error(
                "serialize: shape mismatch for parameter " +
                std::to_string(i) + " in " + path + " at offset " +
                std::to_string(offset));
        }
        params[i]->value = std::move(t);
        params[i]->BumpVersion();
    }
}

}  // namespace secemb::nn
