/**
 * @file
 * Tests for model serialization.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "dhe/dhe.h"
#include "nn/layers.h"
#include "nn/serialize.h"

namespace secemb {
namespace {

class SerializeTest : public ::testing::Test
{
  protected:
    std::string
    TmpPath(const char* name)
    {
        return (std::filesystem::temp_directory_path() /
                (std::string("secemb_test_") + name))
            .string();
    }

    void
    TearDown() override
    {
        for (const auto& p : paths_) std::remove(p.c_str());
    }

    std::string
    Track(std::string p)
    {
        paths_.push_back(p);
        return p;
    }

    std::vector<std::string> paths_;
};

TEST_F(SerializeTest, TensorRoundTrip)
{
    Rng rng(1);
    const Tensor t = Tensor::Randn({7, 5}, rng);
    const std::string path = Track(TmpPath("tensor.bin"));
    nn::SaveTensor(t, path);
    const Tensor loaded = nn::LoadTensor(path);
    EXPECT_EQ(loaded.shape(), t.shape());
    EXPECT_TRUE(loaded.AllClose(t, 0.0f));
}

TEST_F(SerializeTest, EmptyAndScalarTensors)
{
    const std::string path = Track(TmpPath("small.bin"));
    Tensor one({1});
    one.at(0) = 42.0f;
    nn::SaveTensor(one, path);
    EXPECT_FLOAT_EQ(nn::LoadTensor(path).at(0), 42.0f);
}

TEST_F(SerializeTest, ParametersRoundTripThroughFreshModel)
{
    // Train-ish a model, save, load into a freshly-initialised copy, and
    // check the copies agree exactly.
    Rng rng_a(2);
    auto model_a = nn::MakeMlp({4, 8, 2}, rng_a);
    for (auto* p : model_a->Parameters()) {
        p->value.AddScalarInPlace(0.5f);  // make weights distinctive
    }
    const std::string path = Track(TmpPath("params.bin"));
    nn::SaveParameters(model_a->Parameters(), path);

    Rng rng_b(999);  // different init
    auto model_b = nn::MakeMlp({4, 8, 2}, rng_b);
    nn::LoadParameters(model_b->Parameters(), path);

    Rng in_rng(3);
    const Tensor x = Tensor::Randn({3, 4}, in_rng);
    EXPECT_TRUE(model_b->Forward(x).AllClose(model_a->Forward(x), 1e-6f));
}

TEST_F(SerializeTest, DheRoundTrip)
{
    dhe::DheConfig cfg;
    cfg.k = 16;
    cfg.fc_hidden = {8};
    cfg.out_dim = 4;
    Rng rng(4);
    dhe::DheEmbedding a(cfg, rng);
    const std::string path = Track(TmpPath("dhe.bin"));
    nn::SaveParameters(a.Parameters(), path);

    Rng rng2(4);  // same seed: identical hash coefficients
    dhe::DheEmbedding b(cfg, rng2);
    for (auto* p : b.Parameters()) p->value.Fill(0.0f);
    nn::LoadParameters(b.Parameters(), path);

    std::vector<int64_t> ids{1, 7, 13};
    EXPECT_TRUE(b.Forward(ids).AllClose(a.Forward(ids), 1e-6f));
}

TEST_F(SerializeTest, MismatchesThrow)
{
    Rng rng(5);
    auto model = nn::MakeMlp({2, 3, 1}, rng);
    const std::string path = Track(TmpPath("mismatch.bin"));
    nn::SaveParameters(model->Parameters(), path);

    auto wrong_count = nn::MakeMlp({2, 3, 3, 1}, rng);
    EXPECT_THROW(nn::LoadParameters(wrong_count->Parameters(), path),
                 std::runtime_error);

    auto wrong_shape = nn::MakeMlp({2, 4, 1}, rng);
    EXPECT_THROW(nn::LoadParameters(wrong_shape->Parameters(), path),
                 std::runtime_error);

    EXPECT_THROW(nn::LoadTensor(TmpPath("does_not_exist.bin")),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// Corrupt/truncated checkpoint hardening: a flipped header byte must fail
// with a typed error naming path and offset — never a multi-GB allocation,
// an integer overflow, or a crash.

namespace {

void
OverwriteU64At(const std::string& path, long offset, uint64_t value)
{
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, offset, SEEK_SET);
    ASSERT_EQ(std::fwrite(&value, sizeof(value), 1, f), 1u);
    std::fclose(f);
}

}  // namespace

// File layout: magic(8) version(8) count(8) | ndims(8) dims(8 each) data.
constexpr long kNdimsOffset = 24;
constexpr long kFirstDimOffset = 32;

TEST_F(SerializeTest, CorruptDimCannotTriggerGiantAllocation)
{
    Rng rng(2);
    const std::string path = Track(TmpPath("corrupt_dim.bin"));
    nn::SaveTensor(Tensor::Randn({4, 3}, rng), path);
    // Claim the first dimension is 2^60 rows: the loader must reject it
    // against the ~80-byte file instead of resizing to exabytes.
    OverwriteU64At(path, kFirstDimOffset, uint64_t{1} << 60);
    try {
        nn::LoadTensor(path);
        FAIL() << "expected a corrupt-header error";
    } catch (const std::runtime_error& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("offset"), std::string::npos) << what;
    }
}

TEST_F(SerializeTest, DimProductOverflowIsRejected)
{
    Rng rng(3);
    const std::string path = Track(TmpPath("overflow_dims.bin"));
    nn::SaveTensor(Tensor::Randn({4, 3}, rng), path);
    // Two dims of 2^33 each: the naive product overflows uint64 back into
    // a small number; the bounded running product must catch it.
    OverwriteU64At(path, kFirstDimOffset, uint64_t{1} << 33);
    OverwriteU64At(path, kFirstDimOffset + 8, uint64_t{1} << 33);
    EXPECT_THROW(nn::LoadTensor(path), std::runtime_error);
}

TEST_F(SerializeTest, AbsurdRankIsRejectedWithOffset)
{
    Rng rng(4);
    const std::string path = Track(TmpPath("corrupt_rank.bin"));
    nn::SaveTensor(Tensor::Randn({4, 3}, rng), path);
    OverwriteU64At(path, kNdimsOffset, 0xffffffffULL);
    try {
        nn::LoadTensor(path);
        FAIL() << "expected a corrupt-rank error";
    } catch (const std::runtime_error& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("rank"), std::string::npos) << what;
        EXPECT_NE(what.find(std::to_string(kNdimsOffset)),
                  std::string::npos)
            << what;
    }
}

TEST_F(SerializeTest, TruncatedPayloadIsRejected)
{
    Rng rng(5);
    const std::string path = Track(TmpPath("truncated.bin"));
    nn::SaveTensor(Tensor::Randn({16, 8}, rng), path);
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) / 2);
    EXPECT_THROW(nn::LoadTensor(path), std::runtime_error);
}

TEST_F(SerializeTest, TruncatedHeaderIsRejected)
{
    Rng rng(6);
    const std::string path = Track(TmpPath("tiny.bin"));
    nn::SaveTensor(Tensor::Randn({4, 4}, rng), path);
    std::filesystem::resize_file(path, 12);  // cuts inside the header
    EXPECT_THROW(nn::LoadTensor(path), std::runtime_error);
}

TEST_F(SerializeTest, LoadParametersReportsShapeMismatchWithContext)
{
    Rng rng_a(7), rng_b(8);
    nn::Linear a(4, 3, rng_a), b(4, 3, rng_b);
    const std::string path = Track(TmpPath("params.bin"));
    nn::SaveParameters(a.Parameters(), path);
    // Grow the second dim claimed for parameter 0: shape mismatch.
    OverwriteU64At(path, kFirstDimOffset, 5);
    try {
        nn::LoadParameters(b.Parameters(), path);
        FAIL() << "expected an error";
    } catch (const std::runtime_error& err) {
        EXPECT_NE(std::string(err.what()).find(path), std::string::npos);
    }
}

}  // namespace
}  // namespace secemb
