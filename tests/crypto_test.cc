/**
 * @file
 * Tests for the ORAM bucket cipher (Speck64/128 CTR).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "oram/crypto.h"

namespace secemb {
namespace {

TEST(SpeckTest, KnownAnswerVector)
{
    // Speck64/128 published test vector (Beaulieu et al.):
    // key = 1b1a1918 13121110 0b0a0908 03020100
    // plaintext = 3b726574 7475432d -> ciphertext = 8c6fa548 454e028b
    const uint32_t key[4] = {0x03020100, 0x0b0a0908, 0x13121110,
                             0x1b1a1918};
    const uint64_t pt = (uint64_t{0x3b726574} << 32) | 0x7475432d;
    const uint64_t expect = (uint64_t{0x8c6fa548} << 32) | 0x454e028b;
    EXPECT_EQ(oram::BucketCipher::EncryptBlock(key, pt), expect);
}

TEST(BucketCipherTest, ApplyIsInvolution)
{
    oram::BucketCipher cipher(123);
    std::vector<uint32_t> data(64);
    for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint32_t>(i * 2654435761u);
    }
    const auto original = data;
    cipher.Apply(7, 3, data);
    EXPECT_NE(data, original);  // actually encrypted
    cipher.Apply(7, 3, data);
    EXPECT_EQ(data, original);  // XOR keystream is its own inverse
}

TEST(BucketCipherTest, DistinctCoordinatesDistinctKeystreams)
{
    oram::BucketCipher cipher(5);
    std::set<std::vector<uint32_t>> streams;
    for (int64_t bucket : {0, 1, 7}) {
        for (uint64_t version : {1, 2, 3}) {
            std::vector<uint32_t> zeros(16, 0);
            cipher.Apply(bucket, version, zeros);  // keystream itself
            streams.insert(zeros);
        }
    }
    EXPECT_EQ(streams.size(), 9u);
}

TEST(BucketCipherTest, DistinctKeysDistinctStreams)
{
    oram::BucketCipher a(1), b(2);
    std::vector<uint32_t> za(16, 0), zb(16, 0);
    a.Apply(0, 1, za);
    b.Apply(0, 1, zb);
    EXPECT_NE(za, zb);
}

TEST(BucketCipherTest, KeystreamLooksBalanced)
{
    // Crude avalanche sanity: about half of all bits set.
    oram::BucketCipher cipher(9);
    std::vector<uint32_t> zeros(1024, 0);
    cipher.Apply(3, 1, zeros);
    int64_t ones = 0;
    for (uint32_t w : zeros) ones += __builtin_popcount(w);
    const double frac =
        static_cast<double>(ones) / (1024.0 * 32.0);
    EXPECT_NEAR(frac, 0.5, 0.02);
}

TEST(BucketCipherTest, OddWordCountHandled)
{
    oram::BucketCipher cipher(11);
    std::vector<uint32_t> data{1, 2, 3};  // odd length: half-block tail
    const auto original = data;
    cipher.Apply(0, 1, data);
    cipher.Apply(0, 1, data);
    EXPECT_EQ(data, original);
}

}  // namespace
}  // namespace secemb
