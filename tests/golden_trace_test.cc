/**
 * @file
 * Golden canonical-trace snapshot test: regenerates the pinned
 * configuration of every secure generator and diffs its canonical trace
 * against the committed snapshot under tests/golden/.
 *
 * The differential engine proves runs agree with each other; this test
 * additionally pins the traces across *commits*, so any change to a
 * generator's access pattern — even a uniformly-applied one — shows up in
 * review as a golden-file diff. Regenerate deliberately with:
 *
 *   secemb-verify --golden-dir=tests/golden --update-golden
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "verify/golden.h"
#include "verify/harness.h"

#ifndef SECEMB_GOLDEN_DIR
#error "SECEMB_GOLDEN_DIR must point at the committed tests/golden directory"
#endif

namespace secemb::verify {
namespace {

class GoldenTraceTest : public ::testing::TestWithParam<VerifyConfig>
{
};

TEST_P(GoldenTraceTest, MatchesCommittedSnapshot)
{
    const VerifyConfig& config = GetParam();
    const std::string path = std::string(SECEMB_GOLDEN_DIR) + "/" +
                             GoldenFileName(config.Name());

    CanonicalTrace golden;
    std::string stored_name, error;
    ASSERT_TRUE(ReadTraceFile(path, &golden, &stored_name, &error))
        << error << " — regenerate with secemb-verify --update-golden";
    EXPECT_EQ(stored_name, config.Name());

    const CanonicalTrace current = GoldenRun(config);
    const TraceDivergence d = CompareCanonical(golden, current);
    EXPECT_FALSE(d.diverged)
        << config.Name() << " access pattern changed: " << d.detail
        << "\nIf intentional, rerun: secemb-verify --golden-dir=tests/golden"
           " --update-golden";
}

INSTANTIATE_TEST_SUITE_P(
    AllSecure, GoldenTraceTest, ::testing::ValuesIn(GoldenConfigs()),
    [](const auto& info) { return info.param.Name(); });

TEST(GoldenConfigsTest, EverySecureSubjectPinnedInOrder)
{
    // Configs run subject by subject: collapsing each run of one subject
    // must give back AllSecureSubjects() exactly.
    std::vector<Subject> pinned;
    for (const VerifyConfig& c : GoldenConfigs()) {
        if (pinned.empty() || pinned.back() != c.subject) {
            pinned.push_back(c.subject);
        }
    }
    EXPECT_EQ(pinned, AllSecureSubjects());
}

}  // namespace
}  // namespace secemb::verify
