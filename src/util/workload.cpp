#include "util/workload.hpp"

#include <algorithm>
#include <cmath>

#include "util/common.hpp"
#include "util/random.hpp"

namespace balsort {

const std::vector<Workload>& all_workloads() {
    static const std::vector<Workload> kAll = {
        Workload::kUniform,      Workload::kGaussian,     Workload::kZipf,
        Workload::kSorted,       Workload::kReverse,      Workload::kNearlySorted,
        Workload::kDuplicateHeavy, Workload::kOrganPipe,  Workload::kAllEqual,
    };
    return kAll;
}

std::string to_string(Workload w) {
    switch (w) {
        case Workload::kUniform: return "uniform";
        case Workload::kGaussian: return "gaussian";
        case Workload::kZipf: return "zipf";
        case Workload::kSorted: return "sorted";
        case Workload::kReverse: return "reverse";
        case Workload::kNearlySorted: return "nearly-sorted";
        case Workload::kDuplicateHeavy: return "dup-heavy";
        case Workload::kOrganPipe: return "organ-pipe";
        case Workload::kAllEqual: return "all-equal";
    }
    return "unknown";
}

namespace {

// Zipf sampler over [0, n_items) with parameter theta, via the standard
// inverse-CDF approximation (Gray et al., "Quickly generating billion-record
// synthetic databases").
class ZipfSampler {
public:
    ZipfSampler(std::uint64_t n_items, double theta) : n_(n_items), theta_(theta) {
        zetan_ = zeta(n_);
        zeta2_ = zeta(2);
        alpha_ = 1.0 / (1.0 - theta_);
        eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
               (1.0 - zeta2_ / zetan_);
    }

    std::uint64_t sample(Xoshiro256& rng) const {
        double u = rng.uniform01();
        double uz = u * zetan_;
        if (uz < 1.0) return 0;
        if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
        return static_cast<std::uint64_t>(
            static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }

private:
    double zeta(std::uint64_t n) const {
        double s = 0;
        // Cap the exact sum; beyond the cap, extend with the integral tail.
        const std::uint64_t cap = std::min<std::uint64_t>(n, 100000);
        for (std::uint64_t i = 1; i <= cap; ++i) s += 1.0 / std::pow(static_cast<double>(i), theta_);
        if (n > cap) {
            s += (std::pow(static_cast<double>(n), 1.0 - theta_) -
                  std::pow(static_cast<double>(cap), 1.0 - theta_)) /
                 (1.0 - theta_);
        }
        return s;
    }

    std::uint64_t n_;
    double theta_;
    double zetan_, zeta2_, alpha_, eta_;
};

} // namespace

std::vector<Record> generate(Workload w, std::size_t n, std::uint64_t seed) {
    std::vector<Record> out(n);
    Xoshiro256 rng(seed ^ 0xb41ce5u ^ (static_cast<std::uint64_t>(w) << 56));
    switch (w) {
        case Workload::kUniform:
            for (std::size_t i = 0; i < n; ++i) out[i].key = rng();
            break;
        case Workload::kGaussian: {
            // Sum of 8 uniforms, scaled: cheap approximate normal with a
            // pronounced central bulge (stresses bucket skew).
            for (std::size_t i = 0; i < n; ++i) {
                std::uint64_t s = 0;
                for (int k = 0; k < 8; ++k) s += rng() >> 3; // avoid overflow
                out[i].key = s;
            }
            break;
        }
        case Workload::kZipf: {
            ZipfSampler z(std::max<std::size_t>(n, 2), 0.99);
            for (std::size_t i = 0; i < n; ++i) out[i].key = z.sample(rng);
            break;
        }
        case Workload::kSorted:
            for (std::size_t i = 0; i < n; ++i) out[i].key = static_cast<std::uint64_t>(i) * 3 + 1;
            break;
        case Workload::kReverse:
            for (std::size_t i = 0; i < n; ++i)
                out[i].key = static_cast<std::uint64_t>(n - i) * 3 + 1;
            break;
        case Workload::kNearlySorted: {
            for (std::size_t i = 0; i < n; ++i) out[i].key = static_cast<std::uint64_t>(i) * 3 + 1;
            const std::size_t swaps = n / 100 + 1;
            for (std::size_t s = 0; s < swaps && n >= 2; ++s) {
                auto a = static_cast<std::size_t>(rng.below(n));
                auto b = static_cast<std::size_t>(rng.below(n));
                std::swap(out[a].key, out[b].key);
            }
            break;
        }
        case Workload::kDuplicateHeavy:
            for (std::size_t i = 0; i < n; ++i) out[i].key = rng.below(16) * 1000003;
            break;
        case Workload::kOrganPipe:
            for (std::size_t i = 0; i < n; ++i) {
                std::size_t half = n / 2;
                out[i].key = i < half ? static_cast<std::uint64_t>(i)
                                      : static_cast<std::uint64_t>(n - i);
            }
            break;
        case Workload::kAllEqual:
            for (std::size_t i = 0; i < n; ++i) out[i].key = 42;
            break;
    }
    for (std::size_t i = 0; i < n; ++i) out[i].payload = i;
    return out;
}

std::vector<Record> generate_distinct(Workload w, std::size_t n, std::uint64_t seed) {
    BS_REQUIRE(n <= (std::uint64_t{1} << 32), "generate_distinct: n exceeds 2^32");
    auto recs = generate(w, n, seed);
    for (auto& r : recs) r.key >>= 32; // truncate to 32 bits, keep distribution shape
    make_keys_distinct(recs);
    return recs;
}

} // namespace balsort
