// Tests for the deterministic Munro-Paterson quantile sketch and the
// streaming-sketch pivot method built on it.
#include <gtest/gtest.h>

#include "core/balance_sort.hpp"
#include "pram/quantile_sketch.hpp"
#include "util/random.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

/// Rank interval of `key` in sorted `keys`: with duplicates, a key covers
/// [lower_bound, upper_bound) and satisfies any target inside it.
std::pair<std::uint64_t, std::uint64_t> rank_interval(const std::vector<std::uint64_t>& keys,
                                                      std::uint64_t key) {
    const auto lo = std::lower_bound(keys.begin(), keys.end(), key) - keys.begin();
    const auto hi = std::upper_bound(keys.begin(), keys.end(), key) - keys.begin();
    return {static_cast<std::uint64_t>(lo), static_cast<std::uint64_t>(hi)};
}

std::uint64_t distance_to_target(std::pair<std::uint64_t, std::uint64_t> interval,
                                 std::uint64_t target) {
    if (target >= interval.first && target < std::max(interval.second, interval.first + 1)) {
        return 0;
    }
    return target < interval.first ? interval.first - target : target - interval.second;
}

TEST(QuantileSketch, ExactOnSmallStreams) {
    QuantileSketch s(128);
    for (std::uint64_t i = 1; i <= 100; ++i) s.add(i * 10);
    EXPECT_EQ(s.count(), 100u);
    EXPECT_EQ(s.levels(), 0u); // never collapsed: exact
    auto q = s.quantiles(3); // quartiles
    ASSERT_EQ(q.size(), 3u);
    EXPECT_NEAR(static_cast<double>(q[0]), 250.0, 20.0);
    EXPECT_NEAR(static_cast<double>(q[1]), 500.0, 20.0);
    EXPECT_NEAR(static_cast<double>(q[2]), 750.0, 20.0);
}

TEST(QuantileSketch, ConstructionRules) {
    EXPECT_THROW(QuantileSketch(1), std::invalid_argument);
    QuantileSketch s(2);
    EXPECT_TRUE(s.quantiles(4).empty()); // empty sketch -> no quantiles
}

class SketchAccuracyTest : public ::testing::TestWithParam<Workload> {};

TEST_P(SketchAccuracyTest, RankErrorWithinBound) {
    const Workload w = GetParam();
    const std::uint64_t n = 50000;
    const std::size_t k = 256;
    auto recs = generate(w, n, 17);
    QuantileSketch s(k);
    std::vector<std::uint64_t> keys;
    keys.reserve(n);
    for (const auto& r : recs) {
        s.add(r.key);
        keys.push_back(r.key);
    }
    const std::uint32_t q = 15;
    auto quants = s.quantiles(q);
    ASSERT_FALSE(quants.empty());
    const std::uint64_t bound = s.rank_error_bound();
    EXPECT_LT(bound, n / 4) << "bound uselessly loose";
    std::sort(keys.begin(), keys.end());
    // After dedup the i-th reported quantile corresponds to some target;
    // check each reported key's rank interval sits within `bound` of SOME
    // ideal target (with duplicates a key covers a whole rank range).
    for (std::uint64_t key : quants) {
        const auto interval = rank_interval(keys, key);
        std::uint64_t best = ~std::uint64_t{0};
        for (std::uint32_t i = 1; i <= q; ++i) {
            const std::uint64_t target = n * i / (q + 1);
            best = std::min(best, distance_to_target(interval, target));
        }
        EXPECT_LE(best, bound) << to_string(w) << " key " << key;
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SketchAccuracyTest,
                         ::testing::Values(Workload::kUniform, Workload::kGaussian,
                                           Workload::kZipf, Workload::kSorted,
                                           Workload::kReverse),
                         [](const auto& pinfo) {
                             std::string s = to_string(pinfo.param);
                             for (char& c : s) {
                                 if (c == '-') c = '_';
                             }
                             return s;
                         });

TEST(QuantileSketch, Deterministic) {
    auto run = [] {
        QuantileSketch s(64);
        Xoshiro256 rng(5);
        for (int i = 0; i < 10000; ++i) s.add(rng());
        return s.quantiles(7);
    };
    EXPECT_EQ(run(), run());
}

TEST(QuantileSketch, QuantilesAreSortedUniqueDataKeys) {
    QuantileSketch s(32);
    std::set<std::uint64_t> added;
    Xoshiro256 rng(3);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t k = rng.below(100000);
        s.add(k);
        added.insert(k);
    }
    auto q = s.quantiles(10);
    for (std::size_t i = 0; i < q.size(); ++i) {
        EXPECT_TRUE(added.count(q[i])) << "quantile must be a real data key";
        if (i > 0) {
            EXPECT_GT(q[i], q[i - 1]);
        }
    }
}

// ---------- the streaming-sketch pivot method, end to end ----------

class SketchPivotSortTest : public ::testing::TestWithParam<Workload> {};

TEST_P(SketchPivotSortTest, SortsCorrectly) {
    const Workload w = GetParam();
    PdmConfig cfg{.n = 40000, .m = 1024, .d = 8, .b = 8, .p = 2};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(w, cfg.n, 23);
    SortJobConfig opt;
    opt.pivot_method = PivotMethod::kStreamingSketch;
    opt.balance_opts.check_invariants = true;
    SortReport rep;
    auto sorted = balance_sort_records(disks, input, cfg, opt, &rep);
    EXPECT_TRUE(is_sorted_permutation_of(input, sorted)) << to_string(w);
    EXPECT_TRUE(rep.balance.invariant2_held);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SketchPivotSortTest, ::testing::ValuesIn(all_workloads()),
                         [](const auto& pinfo) {
                             std::string s = to_string(pinfo.param);
                             for (char& c : s) {
                                 if (c == '-') c = '_';
                             }
                             return s;
                         });

TEST(SketchPivots, SavesAFullPassPerRecursiveLevel) {
    PdmConfig cfg{.n = 1 << 17, .m = 1 << 10, .d = 8, .b = 8, .p = 1};
    auto input = generate(Workload::kUniform, cfg.n, 5);
    SortReport sampling_rep, sketch_rep;
    {
        DiskArray disks(cfg.d, cfg.b);
        (void)balance_sort_records(disks, input, cfg, SortJobConfig{}, &sampling_rep);
    }
    {
        DiskArray disks(cfg.d, cfg.b);
        SortJobConfig opt;
        opt.pivot_method = PivotMethod::kStreamingSketch;
        (void)balance_sort_records(disks, input, cfg, opt, &sketch_rep);
    }
    ASSERT_GE(sampling_rep.levels, 3u);
    // Each recursive level drops its pivot read pass: expect a clear
    // reduction in read steps; writes essentially unchanged (only padding
    // noise from slightly different bucket boundaries).
    EXPECT_LT(sketch_rep.io.read_steps, sampling_rep.io.read_steps * 9 / 10);
    const double wdelta =
        std::abs(static_cast<double>(sketch_rep.io.blocks_written) -
                 static_cast<double>(sampling_rep.io.blocks_written));
    EXPECT_LT(wdelta / static_cast<double>(sampling_rep.io.blocks_written), 0.02);
    EXPECT_LT(sketch_rep.io_ratio, sampling_rep.io_ratio);
}

TEST(SketchPivots, DeterministicAcrossRuns) {
    PdmConfig cfg{.n = 30000, .m = 1024, .d = 4, .b = 8, .p = 1};
    auto input = generate(Workload::kZipf, cfg.n, 11);
    SortJobConfig opt;
    opt.pivot_method = PivotMethod::kStreamingSketch;
    SortReport r1, r2;
    DiskArray d1(cfg.d, cfg.b), d2(cfg.d, cfg.b);
    auto s1 = balance_sort_records(d1, input, cfg, opt, &r1);
    auto s2 = balance_sort_records(d2, input, cfg, opt, &r2);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(r1.io.io_steps(), r2.io.io_steps());
}

} // namespace
} // namespace balsort
