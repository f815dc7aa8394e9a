// Tests for src/core/partition and Algorithm 2: pivot quality (bucket-size
// bounds), equal-class bucketing, stride formulas.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/hier_sort.hpp"
#include "core/partition.hpp"
#include "core/vrun.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

TEST(PivotSet, BucketOfSemantics) {
    PivotSet p;
    p.keys = {10, 20, 30};
    EXPECT_EQ(p.n_buckets(), 7u);
    EXPECT_EQ(p.bucket_of(5), 0u);   // (-inf, 10)
    EXPECT_EQ(p.bucket_of(10), 1u);  // == 10
    EXPECT_EQ(p.bucket_of(15), 2u);  // (10, 20)
    EXPECT_EQ(p.bucket_of(20), 3u);
    EXPECT_EQ(p.bucket_of(25), 4u);
    EXPECT_EQ(p.bucket_of(30), 5u);
    EXPECT_EQ(p.bucket_of(31), 6u);  // (30, inf)
    EXPECT_TRUE(p.is_equal_class(1));
    EXPECT_FALSE(p.is_equal_class(2));
}

TEST(PivotSet, BucketOrderMatchesKeyOrder) {
    PivotSet p;
    p.keys = {100, 200};
    Xoshiro256 rng(1);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t a = rng.below(300), b = rng.below(300);
        if (a < b) {
            EXPECT_LE(p.bucket_of(a), p.bucket_of(b));
        }
    }
}

TEST(PivotSet, BucketOfMatchesBinarySearchReference) {
    // Compare-and-count (<= 16 keys) and the binary-search path (> 16) both
    // equal 2·lower_bound + (key is a pivot), at every pivot count 0..64,
    // on keys equal to, one below and one above each pivot.
    Xoshiro256 rng(808);
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    for (std::size_t k = 0; k <= 64; ++k) {
        std::set<std::uint64_t> keys;
        if (k >= 2) keys = {0, kMax}; // the extreme keys wrap on ±1
        while (keys.size() < k) keys.insert(rng());
        PivotSet p;
        p.keys.assign(keys.begin(), keys.end());
        std::vector<std::uint64_t> probes = {0, kMax, 1, kMax - 1};
        for (const std::uint64_t x : p.keys) {
            probes.insert(probes.end(), {x - 1, x, x + 1});
        }
        for (const std::uint64_t key : probes) {
            const std::uint32_t lb = pivot_lower_bound(p.keys, key);
            const std::uint32_t eq =
                static_cast<std::uint32_t>(lb < p.keys.size() && p.keys[lb] == key);
            ASSERT_EQ(p.bucket_of(key), 2 * lb + eq) << "k=" << k << " key=" << key;
            ASSERT_EQ(2 * lb + eq, pivot_lower_bound(p.keys, key) + pivot_upper_bound(p.keys, key));
        }
    }
}

// Balance's per-memoryload classification charge, recorded from the
// binary-search classifier over n × S_eff × p; `charge_classify` must
// reproduce it exactly.
struct ClassifyCharge {
    std::uint64_t n;
    std::uint32_t s_eff;
    std::uint64_t p, comparisons, moves, steps;
};

const ClassifyCharge kClassifyCharges[] = {
    {0, 1, 1, 0, 0, 1}, {0, 1, 2, 0, 0, 1}, {0, 1, 4, 0, 0, 2},
    {0, 1, 8, 0, 0, 3}, {0, 3, 1, 0, 0, 1}, {0, 3, 2, 0, 0, 1},
    {0, 3, 4, 0, 0, 2}, {0, 3, 8, 0, 0, 3}, {0, 7, 1, 0, 0, 1},
    {0, 7, 2, 0, 0, 1}, {0, 7, 4, 0, 0, 2}, {0, 7, 8, 0, 0, 3},
    {0, 33, 1, 0, 0, 1}, {0, 33, 2, 0, 0, 1}, {0, 33, 4, 0, 0, 2},
    {0, 33, 8, 0, 0, 3}, {1, 1, 1, 1, 1, 2}, {1, 1, 2, 1, 1, 2},
    {1, 1, 4, 1, 1, 3}, {1, 1, 8, 1, 1, 4}, {1, 3, 1, 2, 1, 3},
    {1, 3, 2, 2, 1, 2}, {1, 3, 4, 2, 1, 3}, {1, 3, 8, 2, 1, 4},
    {1, 7, 1, 3, 1, 4}, {1, 7, 2, 3, 1, 3}, {1, 7, 4, 3, 1, 3},
    {1, 7, 8, 3, 1, 4}, {1, 33, 1, 6, 1, 7}, {1, 33, 2, 6, 1, 4},
    {1, 33, 4, 6, 1, 4}, {1, 33, 8, 6, 1, 4}, {2, 1, 1, 2, 2, 3},
    {2, 1, 2, 2, 2, 2}, {2, 1, 4, 2, 2, 3}, {2, 1, 8, 2, 2, 4},
    {2, 3, 1, 4, 2, 5}, {2, 3, 2, 4, 2, 3}, {2, 3, 4, 4, 2, 3},
    {2, 3, 8, 4, 2, 4}, {2, 7, 1, 6, 2, 7}, {2, 7, 2, 6, 2, 4},
    {2, 7, 4, 6, 2, 4}, {2, 7, 8, 6, 2, 4}, {2, 33, 1, 12, 2, 13},
    {2, 33, 2, 12, 2, 7}, {2, 33, 4, 12, 2, 5}, {2, 33, 8, 12, 2, 5},
    {17, 1, 1, 17, 17, 18}, {17, 1, 2, 17, 17, 10}, {17, 1, 4, 17, 17, 7},
    {17, 1, 8, 17, 17, 6}, {17, 3, 1, 34, 17, 35}, {17, 3, 2, 34, 17, 18},
    {17, 3, 4, 34, 17, 11}, {17, 3, 8, 34, 17, 8}, {17, 7, 1, 51, 17, 52},
    {17, 7, 2, 51, 17, 27}, {17, 7, 4, 51, 17, 15}, {17, 7, 8, 51, 17, 10},
    {17, 33, 1, 102, 17, 103}, {17, 33, 2, 102, 17, 52}, {17, 33, 4, 102, 17, 28},
    {17, 33, 8, 102, 17, 16}, {1000, 1, 1, 1000, 1000, 1001}, {1000, 1, 2, 1000, 1000, 501},
    {1000, 1, 4, 1000, 1000, 252}, {1000, 1, 8, 1000, 1000, 128}, {1000, 3, 1, 2000, 1000, 2001},
    {1000, 3, 2, 2000, 1000, 1001}, {1000, 3, 4, 2000, 1000, 502}, {1000, 3, 8, 2000, 1000, 253},
    {1000, 7, 1, 3000, 1000, 3001}, {1000, 7, 2, 3000, 1000, 1501}, {1000, 7, 4, 3000, 1000, 752},
    {1000, 7, 8, 3000, 1000, 378}, {1000, 33, 1, 6000, 1000, 6001}, {1000, 33, 2, 6000, 1000, 3001},
    {1000, 33, 4, 6000, 1000, 1502}, {1000, 33, 8, 6000, 1000, 753}, {65536, 1, 1, 65536, 65536, 65537},
    {65536, 1, 2, 65536, 65536, 32769}, {65536, 1, 4, 65536, 65536, 16386}, {65536, 1, 8, 65536, 65536, 8195},
    {65536, 3, 1, 131072, 65536, 131073}, {65536, 3, 2, 131072, 65536, 65537}, {65536, 3, 4, 131072, 65536, 32770},
    {65536, 3, 8, 131072, 65536, 16387}, {65536, 7, 1, 196608, 65536, 196609}, {65536, 7, 2, 196608, 65536, 98305},
    {65536, 7, 4, 196608, 65536, 49154}, {65536, 7, 8, 196608, 65536, 24579}, {65536, 33, 1, 393216, 65536, 393217},
    {65536, 33, 2, 393216, 65536, 196609}, {65536, 33, 4, 393216, 65536, 98306}, {65536, 33, 8, 393216, 65536, 49155},
};

TEST(ChargeEquivalence, ClassifyMatchesRecordedTotals) {
    for (const ClassifyCharge& row : kClassifyCharges) {
        WorkMeter meter;
        PramCost cost(row.p);
        charge_classify(row.n, row.s_eff, &meter, &cost);
        EXPECT_EQ(meter.comparisons(), row.comparisons) << row.n << " " << row.s_eff;
        EXPECT_EQ(meter.moves(), row.moves) << row.n << " " << row.s_eff;
        EXPECT_EQ(cost.steps(), row.steps) << row.n << " " << row.s_eff << " " << row.p;
    }
}

TEST(Partition, StrideFormula) {
    // t = max(ceil(M/(8S)), 1): 8S samples per sorted memoryload,
    // independent of N.
    EXPECT_EQ(sampling_stride(1 << 20, 1 << 16, 8), (1u << 16) / 64);
    EXPECT_EQ(sampling_stride(1 << 26, 1 << 10, 4), (1u << 10) / 32);
    EXPECT_EQ(sampling_stride(100, 2, 64), 1u); // floor at 1
    EXPECT_THROW(sampling_stride(100, 10, 1), std::invalid_argument);
}

TEST(Partition, SelectFromSortedSamples) {
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 100; ++i) samples.push_back(i);
    auto p = select_pivots_from_sorted_samples(samples, 4);
    EXPECT_EQ(p.keys.size(), 3u);
    EXPECT_EQ(p.keys[0], 25u);
    EXPECT_EQ(p.keys[1], 50u);
    EXPECT_EQ(p.keys[2], 75u);
    // Dedup: constant samples yield one pivot.
    std::vector<std::uint64_t> flat(50, 7);
    auto q = select_pivots_from_sorted_samples(flat, 8);
    EXPECT_EQ(q.keys.size(), 1u);
    EXPECT_EQ(q.keys[0], 7u);
    // Unsorted input rejected.
    std::vector<std::uint64_t> bad = {3, 1};
    EXPECT_THROW(select_pivots_from_sorted_samples(bad, 2), std::invalid_argument);
}

class PivotQualityTest : public ::testing::TestWithParam<std::tuple<Workload, std::uint32_t>> {};

TEST_P(PivotQualityTest, BucketSizesWithinBound) {
    auto [w, s_target] = GetParam();
    const std::uint64_t n = 40000, m = 2048;
    Parallel pool(2);
    auto recs = generate_distinct(w, n, 7);
    VectorSource src(recs);
    auto pivots = compute_pivots_sampling(src, n, m, s_target, pool);
    ASSERT_FALSE(pivots.keys.empty());
    // Count bucket sizes.
    std::vector<std::uint64_t> sizes(pivots.n_buckets(), 0);
    for (const auto& r : recs) sizes[pivots.bucket_of(r.key)]++;
    const std::uint64_t bound = bucket_size_bound(n, m, s_target);
    for (std::size_t b = 0; b < sizes.size(); ++b) {
        EXPECT_LE(sizes[b], bound) << to_string(w) << " bucket " << b;
    }
    // The paper's looser guarantee 0 < N_b < 2N/S also holds for the
    // combined open+equal range around each pivot.
    EXPECT_LE(bound, 2 * n / s_target + m);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PivotQualityTest,
    ::testing::Combine(::testing::Values(Workload::kUniform, Workload::kGaussian,
                                         Workload::kZipf, Workload::kSorted,
                                         Workload::kReverse, Workload::kOrganPipe),
                       ::testing::Values(2u, 4u, 8u, 16u)));

TEST(Partition, DuplicateHeavyKeysLandInEqualClasses) {
    const std::uint64_t n = 20000, m = 1024;
    Parallel pool(1);
    auto recs = generate(Workload::kDuplicateHeavy, n, 3); // 16 distinct keys
    VectorSource src(recs);
    auto pivots = compute_pivots_sampling(src, n, m, 8, pool);
    ASSERT_FALSE(pivots.keys.empty());
    // Every pivot key's mass sits in an equal-class bucket; open-range
    // buckets stay small even though keys repeat ~1250x each.
    std::map<std::uint32_t, std::uint64_t> open_sizes;
    for (const auto& r : recs) {
        const auto b = pivots.bucket_of(r.key);
        if (!pivots.is_equal_class(b)) open_sizes[b] += 1;
    }
    for (const auto& [b, size] : open_sizes) {
        EXPECT_LE(size, bucket_size_bound(n, m, 8)) << "open bucket " << b;
    }
}

TEST(Partition, AllEqualYieldsSingleEqualClass) {
    const std::uint64_t n = 5000, m = 512;
    Parallel pool(1);
    auto recs = generate(Workload::kAllEqual, n, 1);
    VectorSource src(recs);
    auto pivots = compute_pivots_sampling(src, n, m, 4, pool);
    ASSERT_EQ(pivots.keys.size(), 1u);
    for (const auto& r : recs) {
        EXPECT_TRUE(pivots.is_equal_class(pivots.bucket_of(r.key)));
    }
}

TEST(Partition, ConsumesSourceExactly) {
    const std::uint64_t n = 3000, m = 256;
    Parallel pool(1);
    auto recs = generate(Workload::kUniform, n, 5);
    VectorSource src(recs);
    (void)compute_pivots_sampling(src, n, m, 4, pool);
    EXPECT_EQ(src.remaining(), 0u);
    VectorSource src2(recs);
    EXPECT_THROW(compute_pivots_sampling(src2, n + 1, m, 4, pool), std::invalid_argument);

    // Views: exactly min(n, remaining()) records each, in order, and an
    // empty view once the source is drained.
    VectorSource views(recs);
    const std::span<const Record> head = views.next(1000);
    ASSERT_EQ(head.size(), 1000u);
    EXPECT_TRUE(std::equal(head.begin(), head.end(), recs.begin()));
    EXPECT_EQ(views.remaining(), n - 1000);
    const std::span<const Record> tail = views.next(n);
    ASSERT_EQ(tail.size(), n - 1000);
    EXPECT_TRUE(std::equal(tail.begin(), tail.end(), recs.begin() + 1000));
    EXPECT_EQ(views.remaining(), 0u);
    EXPECT_TRUE(views.next(1).empty());
}

TEST(Algorithm2, BucketBoundHolds) {
    // Choose G with G log N <= N/S (the paper's condition for
    // 0 < N_b < 2N/S).
    const std::uint64_t n = 32768;
    const std::uint32_t s = 8;
    const auto logn = static_cast<std::uint64_t>(paper_log(static_cast<double>(n)));
    const std::uint32_t g = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, n / (s * logn * 2)));
    Parallel pool(2);
    for (Workload w : {Workload::kUniform, Workload::kGaussian, Workload::kSorted,
                       Workload::kReverse}) {
        auto recs = generate_distinct(w, n, 9);
        auto pivots = algorithm2_partition_elements(recs, g, s, pool);
        ASSERT_FALSE(pivots.keys.empty()) << to_string(w);
        std::vector<std::uint64_t> sizes(pivots.n_buckets(), 0);
        for (const auto& r : recs) sizes[pivots.bucket_of(r.key)]++;
        for (std::size_t b = 0; b < sizes.size(); ++b) {
            EXPECT_LT(sizes[b], 2 * n / s + 2 * logn * g)
                << to_string(w) << " bucket " << b;
        }
    }
}

TEST(Algorithm2, InputValidation) {
    Parallel pool(1);
    std::vector<Record> recs(10);
    EXPECT_THROW(algorithm2_partition_elements(recs, 0, 4, pool), std::invalid_argument);
    EXPECT_THROW(algorithm2_partition_elements(recs, 2, 1, pool), std::invalid_argument);
    auto empty = algorithm2_partition_elements(std::span<const Record>{}, 2, 4, pool);
    EXPECT_TRUE(empty.keys.empty());
}

TEST(Partition, BucketBoundFormulaSanity) {
    // bound(n) is ~(3/2) n/S for n >> m and shrinks with larger S.
    const std::uint64_t n = 1 << 20, m = 1 << 14;
    EXPECT_LT(bucket_size_bound(n, m, 16), bucket_size_bound(n, m, 4));
    EXPECT_LE(bucket_size_bound(n, m, 4), 2 * n / 4);
}

} // namespace
} // namespace balsort
