#include "sidechannel/oblivious_check.h"

#include <cassert>
#include <cmath>

namespace secemb::sidechannel {

double
ChiSquaredUniform(const std::vector<int64_t>& counts)
{
    assert(!counts.empty());
    int64_t total = 0;
    for (int64_t c : counts) total += c;
    const double expected =
        static_cast<double>(total) / static_cast<double>(counts.size());
    if (expected <= 0.0) return 0.0;
    double chi2 = 0.0;
    for (int64_t c : counts) {
        const double d = static_cast<double>(c) - expected;
        chi2 += d * d / expected;
    }
    return chi2;
}

double
EmpiricalMutualInformation(const std::vector<int64_t>& secrets,
                           const std::vector<int64_t>& guesses,
                           int64_t num_symbols)
{
    assert(secrets.size() == guesses.size());
    assert(num_symbols > 0);
    const size_t n = secrets.size();
    if (n == 0) return 0.0;

    const size_t k = static_cast<size_t>(num_symbols);
    std::vector<double> joint(k * k, 0.0), ps(k, 0.0), pg(k, 0.0);
    for (size_t i = 0; i < n; ++i) {
        const size_t s = static_cast<size_t>(secrets[i]);
        const size_t g = static_cast<size_t>(guesses[i]);
        assert(s < k && g < k);
        joint[s * k + g] += 1.0 / n;
        ps[s] += 1.0 / n;
        pg[g] += 1.0 / n;
    }
    double mi = 0.0;
    for (size_t s = 0; s < k; ++s) {
        for (size_t g = 0; g < k; ++g) {
            const double pj = joint[s * k + g];
            if (pj > 0.0 && ps[s] > 0.0 && pg[g] > 0.0) {
                mi += pj * std::log2(pj / (ps[s] * pg[g]));
            }
        }
    }
    return mi;
}

}  // namespace secemb::sidechannel
