#pragma once

/**
 * @file
 * Statistical obliviousness checks over attacker observations.
 *
 * Randomised techniques (tree ORAM) must make path choices that are
 * uniform whatever the secret; the non-secure table must leak the index.
 * Trace comparison itself is verify::CompareCanonical and
 * verify::CompareCanonicalShape (src/verify/canonical.h).
 */

#include <cstdint>
#include <vector>

namespace secemb::sidechannel {

/**
 * Chi-squared uniformity statistic for a histogram of observed counts
 * against a uniform expectation. Used to test that ORAM leaf/path choices
 * are indistinguishable across different secret index sequences.
 * Returns the chi-squared value; degrees of freedom = bins - 1.
 */
double ChiSquaredUniform(const std::vector<int64_t>& counts);

/**
 * Mutual-information estimate (in bits) between secret index and attacker
 * guess over paired observations; ~0 for a secure implementation,
 * ~log2(#indices) for the non-secure table. Both vectors must have equal
 * length; values must be < num_symbols.
 */
double EmpiricalMutualInformation(const std::vector<int64_t>& secrets,
                                  const std::vector<int64_t>& guesses,
                                  int64_t num_symbols);

}  // namespace secemb::sidechannel
