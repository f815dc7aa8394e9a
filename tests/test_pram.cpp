// Tests for src/pram: the Parallel view over the executor, prefix sums,
// monotone routing, deterministic selection, parallel sorts, PRAM cost
// accounting. The executor's own mechanics (stealing, nesting, TaskGroup)
// are covered by tests/test_executor.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>

#include "pram/executor.hpp"
#include "pram/monotone_route.hpp"
#include "pram/parallel_sort.hpp"
#include "pram/pram_cost.hpp"
#include "pram/prefix.hpp"
#include "pram/selection.hpp"
#include "util/math.hpp"
#include "util/random.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

TEST(Parallel, SizeIsAtLeastOne) {
    Parallel p1(1);
    EXPECT_EQ(p1.size(), 1u);
    Executor exec(3);
    Parallel p4(4, &exec);
    EXPECT_EQ(p4.size(), 4u);
    Parallel p0(0);
    EXPECT_EQ(p0.size(), 1u);
}

TEST(Parallel, ParallelForCoversRangeExactlyOnce) {
    Executor exec(3);
    Parallel pool(4, &exec);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, 1000, [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ChunksAreContiguousAndOrdered) {
    Executor exec(2);
    Parallel pool(3, &exec);
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for(10, 110, [&](std::size_t lo, std::size_t hi, std::size_t) {
        std::lock_guard<std::mutex> g(mu);
        chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    EXPECT_EQ(chunks.front().first, 10u);
    EXPECT_EQ(chunks.back().second, 110u);
    for (std::size_t i = 1; i < chunks.size(); ++i) {
        EXPECT_EQ(chunks[i].first, chunks[i - 1].second);
    }
}

TEST(Parallel, SerialFallbackKeepsChunkGeometry) {
    // A width-p Parallel with no executor must produce the same chunks
    // (bounds and indices) as an executor-backed one — the invariant that
    // keeps chunk-indexed algorithms identical between serial and parallel.
    Executor exec(2);
    for (std::size_t width : {2u, 3u, 5u}) {
        std::mutex mu;
        std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> par, ser;
        Parallel(width, &exec).parallel_for(
            7, 103, [&](std::size_t lo, std::size_t hi, std::size_t c) {
                std::lock_guard<std::mutex> g(mu);
                par.emplace_back(lo, hi, c);
            });
        Parallel(width).parallel_for(7, 103,
                                     [&](std::size_t lo, std::size_t hi, std::size_t c) {
                                         ser.emplace_back(lo, hi, c);
                                     });
        std::sort(par.begin(), par.end());
        std::sort(ser.begin(), ser.end());
        EXPECT_EQ(par, ser) << "width=" << width;
    }
}

TEST(Parallel, EmptyRangeIsNoop) {
    Executor exec(1);
    Parallel pool(2, &exec);
    bool called = false;
    pool.parallel_for(5, 5, [&](std::size_t, std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(Parallel, ExceptionsPropagate) {
    Executor exec(3);
    Parallel pool(4, &exec);
    EXPECT_THROW(pool.parallel_for(0, 100,
                                   [&](std::size_t lo, std::size_t, std::size_t) {
                                       if (lo == 0) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // Executor is still usable afterwards.
    std::atomic<int> sum{0};
    pool.parallel_for(0, 10, [&](std::size_t lo, std::size_t hi, std::size_t) {
        sum += static_cast<int>(hi - lo);
    });
    EXPECT_EQ(sum.load(), 10);
}

TEST(Parallel, ParallelInvokeRunsPerLane) {
    Executor exec(2);
    Parallel pool(3, &exec);
    std::vector<std::atomic<int>> hit(3);
    pool.parallel_invoke([&](std::size_t w) { hit[w].fetch_add(1); });
    int total = 0;
    for (auto& h : hit) total += h.load();
    EXPECT_EQ(total, 3);
}

TEST(Prefix, SequentialExclusive) {
    std::vector<std::uint64_t> v = {3, 1, 4, 1, 5};
    EXPECT_EQ(exclusive_prefix_sum(v), 14u);
    EXPECT_EQ(v, (std::vector<std::uint64_t>{0, 3, 4, 8, 9}));
}

TEST(Prefix, ParallelMatchesSequential) {
    Executor exec(3);
    Parallel pool(4, &exec);
    for (std::size_t n : {0u, 1u, 7u, 100u, 1000u}) {
        std::vector<std::uint64_t> a(n), b;
        Xoshiro256 rng(n);
        for (auto& x : a) x = rng.below(100);
        b = a;
        const auto t1 = exclusive_prefix_sum(std::span<std::uint64_t>(b));
        PramCost cost(4);
        const auto t2 = exclusive_prefix_sum_parallel(a, pool, &cost);
        EXPECT_EQ(a, b) << "n=" << n;
        EXPECT_EQ(t1, t2);
        if (n > 0) {
            EXPECT_GT(cost.steps(), 0u);
        }
    }
}

TEST(Prefix, Segmented) {
    std::vector<std::uint64_t> v = {1, 1, 1, 1, 1};
    std::vector<std::uint8_t> f = {1, 0, 1, 0, 0};
    segmented_prefix_sum(v, f);
    EXPECT_EQ(v, (std::vector<std::uint64_t>{0, 1, 0, 1, 2}));
}

TEST(Prefix, SegmentHeads) {
    std::vector<std::uint64_t> keys = {4, 4, 7, 9, 9, 9};
    auto heads = segment_heads(keys);
    EXPECT_EQ(heads, (std::vector<std::uint32_t>{0, 0, 2, 3, 3, 3}));
}

TEST(MonotoneRoute, RoutesAndValidates) {
    std::vector<Record> items = {{10, 0}, {20, 1}, {30, 2}, {40, 3}};
    std::vector<Record> out(6);
    std::vector<std::uint32_t> src = {0, 2, 3};
    std::vector<std::uint32_t> dst = {1, 2, 5};
    PramCost cost(2);
    monotone_route<Record>(items, src, dst, out, &cost);
    EXPECT_EQ(out[1].key, 10u);
    EXPECT_EQ(out[2].key, 30u);
    EXPECT_EQ(out[5].key, 40u);
    EXPECT_GT(cost.steps(), 0u);
}

TEST(MonotoneRoute, RejectsNonMonotone) {
    std::vector<Record> items = {{1, 0}, {2, 1}};
    std::vector<Record> out(2);
    std::vector<std::uint32_t> src = {0, 1};
    std::vector<std::uint32_t> dst = {1, 0}; // decreasing: illegal
    EXPECT_THROW(monotone_route<Record>(items, src, dst, out, nullptr), ModelViolation);
}

TEST(MonotoneRoute, Compaction) {
    std::vector<Record> items(10);
    for (std::size_t i = 0; i < 10; ++i) items[i] = {i, i};
    std::vector<std::uint8_t> keep = {1, 0, 0, 1, 1, 0, 0, 0, 1, 0};
    std::vector<Record> out(10);
    const std::size_t n = monotone_compact<Record>(items, keep, out, nullptr);
    EXPECT_EQ(n, 4u);
    EXPECT_EQ(out[0].key, 0u);
    EXPECT_EQ(out[1].key, 3u);
    EXPECT_EQ(out[2].key, 4u);
    EXPECT_EQ(out[3].key, 8u);
}

TEST(Selection, SelectKth) {
    std::vector<std::uint64_t> v = {9, 3, 7, 1, 5};
    EXPECT_EQ(select_kth(v, 1), 1u);
    EXPECT_EQ(select_kth(v, 3), 5u);
    EXPECT_EQ(select_kth(v, 5), 9u);
    EXPECT_THROW(select_kth(v, 0), std::invalid_argument);
    EXPECT_THROW(select_kth(v, 6), std::invalid_argument);
}

TEST(Selection, MatchesSortOnRandomInputs) {
    Xoshiro256 rng(77);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 1 + rng.below(200);
        std::vector<std::uint64_t> v(n);
        for (auto& x : v) x = rng.below(50); // duplicates likely
        std::vector<std::uint64_t> sorted = v;
        std::sort(sorted.begin(), sorted.end());
        const std::size_t k = 1 + rng.below(n);
        EXPECT_EQ(select_kth(v, k), sorted[k - 1]);
    }
}

TEST(Selection, PaperMedianConvention) {
    // Footnote 3: the median is the ceil(n/2)-th *smallest*, not the
    // statistics convention.
    std::vector<std::uint64_t> even = {1, 2, 3, 4};
    EXPECT_EQ(paper_median(even), 2u); // ceil(4/2)=2nd smallest
    std::vector<std::uint64_t> odd = {5, 1, 9};
    EXPECT_EQ(paper_median(odd), 5u);
    std::vector<std::uint64_t> one = {42};
    EXPECT_EQ(paper_median(one), 42u);
}

TEST(Selection, MultiSelectMatchesSortedRanks) {
    Xoshiro256 rng(31);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 5 + rng.below(500);
        std::vector<Record> recs(n);
        for (auto& r : recs) r.key = rng.below(1000); // duplicates likely
        std::vector<Record> sorted = recs;
        std::sort(sorted.begin(), sorted.end(), KeyLess{});
        // random strictly increasing ranks
        const std::size_t k = 1 + rng.below(std::min<std::size_t>(n, 8));
        std::set<std::uint64_t> rank_set;
        while (rank_set.size() < k) rank_set.insert(1 + rng.below(n));
        std::vector<std::uint64_t> ranks(rank_set.begin(), rank_set.end());
        std::vector<Record> scratch = recs;
        auto keys = multi_select_keys(scratch, ranks);
        ASSERT_EQ(keys.size(), ranks.size());
        for (std::size_t i = 0; i < ranks.size(); ++i) {
            EXPECT_EQ(keys[i], sorted[ranks[i] - 1].key) << "trial " << trial;
        }
    }
}

TEST(Selection, MultiSelectValidation) {
    std::vector<Record> recs(10);
    std::vector<std::uint64_t> bad_order = {5, 3};
    EXPECT_THROW(multi_select_keys(recs, bad_order), std::invalid_argument);
    std::vector<std::uint64_t> out_of_range = {11};
    EXPECT_THROW(multi_select_keys(recs, out_of_range), std::invalid_argument);
    std::vector<std::uint64_t> zero = {0};
    EXPECT_THROW(multi_select_keys(recs, zero), std::invalid_argument);
    std::vector<std::uint64_t> empty;
    EXPECT_TRUE(multi_select_keys(recs, empty).empty());
}

TEST(Selection, MultiSelectIsLinearish) {
    // O(n log k) comparisons: for k = 8 this is far below n log n.
    WorkMeter meter;
    std::vector<Record> recs(20000);
    Xoshiro256 rng(7);
    for (auto& r : recs) r.key = rng();
    std::vector<std::uint64_t> ranks = {2500, 5000, 7500, 10000, 12500, 15000, 17500, 20000};
    multi_select_keys(recs, ranks, &meter);
    EXPECT_LT(meter.comparisons(), 20000u * 16u); // << n log2 n ~ 14.3 n... but well under sort+const
}

TEST(Selection, CountsWork) {
    WorkMeter meter;
    std::vector<std::uint64_t> v(500);
    Xoshiro256 rng(5);
    for (auto& x : v) x = rng();
    select_kth(v, 250, &meter);
    EXPECT_GT(meter.ops(), 0u);
    // Linear-time selection: work should be O(n), well under n log^2 n.
    EXPECT_LT(meter.ops(), 500u * 90u);
}

class ParallelSortTest : public ::testing::TestWithParam<std::tuple<Workload, std::size_t, int>> {
};

TEST_P(ParallelSortTest, MergeSortSortsEverything) {
    auto [w, n, threads] = GetParam();
    Executor exec(static_cast<std::size_t>(threads > 1 ? threads - 1 : 1));
    Parallel pool(static_cast<std::size_t>(threads), &exec);
    auto in = generate(w, n, 123);
    auto data = in;
    WorkMeter meter;
    PramCost cost(static_cast<std::uint64_t>(threads));
    parallel_merge_sort(data, pool, &meter, &cost);
    EXPECT_TRUE(is_sorted_permutation_of(in, data)) << to_string(w) << " n=" << n;
    if (n > 1) {
        EXPECT_GT(meter.ops(), 0u);
        EXPECT_GT(cost.steps(), 0u);
    }
}

TEST_P(ParallelSortTest, RadixSortSortsEverything) {
    auto [w, n, threads] = GetParam();
    Executor exec(static_cast<std::size_t>(threads > 1 ? threads - 1 : 1));
    Parallel pool(static_cast<std::size_t>(threads), &exec);
    auto in = generate(w, n, 321);
    auto data = in;
    parallel_radix_sort(data, pool);
    EXPECT_TRUE(is_sorted_permutation_of(in, data)) << to_string(w) << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelSortTest,
    ::testing::Combine(::testing::Values(Workload::kUniform, Workload::kSorted,
                                         Workload::kReverse, Workload::kDuplicateHeavy,
                                         Workload::kOrganPipe, Workload::kAllEqual),
                       ::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{2},
                                         std::size_t{17}, std::size_t{1000}),
                       ::testing::Values(1, 4)));

TEST(ParallelSort, MergeSortIsStableOnKeys) {
    // Equal keys keep their input order (payload ascending given our
    // generator assigns payload = index).
    std::vector<Record> data(100);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = {i % 5, i};
    Executor exec(3);
    Parallel pool(4, &exec);
    parallel_merge_sort(data, pool);
    for (std::size_t i = 1; i < data.size(); ++i) {
        if (data[i].key == data[i - 1].key) {
            EXPECT_LT(data[i - 1].payload, data[i].payload);
        }
    }
}

/// The previous definition of is_sorted_permutation_of: both sides fully
/// sorted by (key, payload) and compared.
bool reference_sorted_permutation_of(std::vector<Record> in, std::vector<Record> out) {
    if (in.size() != out.size() || !is_sorted_by_key(out)) return false;
    std::sort(in.begin(), in.end());
    std::sort(out.begin(), out.end());
    return in == out;
}

TEST(ParallelSort, SortedPermutationCheckAgreesWithFullSortDefinition) {
    Xoshiro256 rng(17);
    int accepted = 0, rejected = 0;
    for (const Workload w : {Workload::kUniform, Workload::kZipf, Workload::kAllEqual}) {
        for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                    std::size_t{1000}, std::size_t{5000}}) {
            const auto in = generate(w, n, 40 + n);
            auto sorted = in;
            std::stable_sort(sorted.begin(), sorted.end(), KeyLess{});
            // Candidate outputs: the stable sort, equal-key runs shuffled,
            // and one corruption of each kind.
            std::vector<std::vector<Record>> outs{sorted};
            auto shuffled = sorted;
            for (auto it = shuffled.begin(); it != shuffled.end();) {
                const auto end = std::find_if(
                    it, shuffled.end(), [&](const Record& r) { return r.key != it->key; });
                std::shuffle(it, end, rng);
                it = end;
            }
            outs.push_back(shuffled);
            if (n > 0) {
                const std::size_t i = rng() % n;
                auto bumped = sorted;
                bumped[i].key += 1;
                outs.push_back(bumped);
                auto flipped = shuffled;
                flipped[i].payload ^= 1;
                outs.push_back(flipped);
                auto dropped = sorted;
                dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
                outs.push_back(dropped);
                auto duplicated = sorted;
                duplicated[i] = duplicated[n - 1 - i];
                std::stable_sort(duplicated.begin(), duplicated.end(), KeyLess{});
                outs.push_back(duplicated);
                outs.push_back(in); // the unsorted input itself
            }
            if (n > 1) {
                auto swapped = sorted;
                std::swap(swapped[0], swapped[n - 1]);
                outs.push_back(swapped);
            }
            for (const auto& out : outs) {
                const bool want = reference_sorted_permutation_of(in, out);
                EXPECT_EQ(is_sorted_permutation_of(in, out), want)
                    << to_string(w) << " n=" << n;
                ++(want ? accepted : rejected);
            }
        }
    }
    // Both verdicts were exercised.
    EXPECT_GT(accepted, 20);
    EXPECT_GT(rejected, 20);
}

TEST(ParallelSort, BinaryMerge) {
    std::vector<Record> a = {{1, 0}, {4, 0}, {9, 0}};
    std::vector<Record> b = {{2, 0}, {3, 0}, {10, 0}};
    std::vector<Record> out(6);
    binary_merge(a, b, out);
    EXPECT_TRUE(is_sorted_by_key(out));
    EXPECT_THROW(binary_merge(a, b, std::span<Record>(out.data(), 5)), std::invalid_argument);
}

TEST(ParallelSort, MultiwayMerge) {
    std::vector<std::vector<Record>> runs_data;
    Xoshiro256 rng(9);
    std::vector<Record> all;
    for (int r = 0; r < 7; ++r) {
        std::vector<Record> run(20 + rng.below(30));
        for (auto& rec : run) rec = {rng.below(1000), 0};
        std::sort(run.begin(), run.end(), KeyLess{});
        all.insert(all.end(), run.begin(), run.end());
        runs_data.push_back(std::move(run));
    }
    std::vector<std::span<const Record>> runs;
    for (const auto& r : runs_data) runs.emplace_back(r);
    std::vector<Record> out(all.size());
    WorkMeter meter;
    multiway_merge(runs, out, &meter);
    EXPECT_TRUE(is_sorted_by_key(out));
    std::sort(all.begin(), all.end(), KeyLess{});
    for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(out[i].key, all[i].key);
    EXPECT_GT(meter.comparisons(), 0u);
}

TEST(ParallelSort, MultiwayMergeEdgeCases) {
    std::vector<std::span<const Record>> empty_runs;
    std::vector<Record> out;
    multiway_merge(empty_runs, out); // no-op
    std::vector<Record> single = {{3, 0}, {5, 0}};
    std::vector<std::span<const Record>> one_run = {std::span<const Record>(single)};
    out.resize(2);
    multiway_merge(one_run, out);
    EXPECT_EQ(out[0].key, 3u);
}

TEST(ParallelSort, BucketOf) {
    std::vector<Record> recs = {{0, 0}, {5, 0}, {10, 0}, {15, 0}, {20, 0}};
    std::vector<std::uint64_t> pivots = {5, 15};
    auto idx = bucket_of(recs, pivots);
    // upper_bound semantics: key < 5 -> 0, 5 <= key < 15 -> 1, >= 15 -> 2.
    EXPECT_EQ(idx, (std::vector<std::uint32_t>{0, 1, 1, 2, 2}));
}

// ---- Charge equivalence ----
//
// The tables below are the meter totals and PRAM steps of the instrumented
// kernels the charge functions replaced (recursive nth_element selection;
// stable_sort plus a binary-merge cascade; binary-search classification),
// recorded over n ∈ {0, 1, 2, 17, 1000, 65536} × p ∈ {1, 2, 4, 8}. Every
// charge function and every public entry point must reproduce them exactly:
// the model is pinned, whatever kernel computes the bytes.

std::vector<Record> charge_input(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<Record> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = {rng(), i};
    return v;
}

// The pivot pass's centered ranks for a load of n records at S buckets.
std::vector<std::uint64_t> centered_ranks(std::uint64_t n, std::uint32_t s) {
    const std::uint64_t t = std::max<std::uint64_t>(ceil_div(n, 8ull * s), 1);
    std::vector<std::uint64_t> r;
    for (std::uint64_t x = (t + 1) / 2; x <= n; x += t) r.push_back(x);
    if (n > 0 && r.empty()) r.push_back((n + 1) / 2);
    return r;
}

std::vector<std::uint64_t> random_ranks(std::uint64_t n, std::uint64_t seed) {
    if (n == 0) return {};
    Xoshiro256 rng(seed);
    const std::size_t k = std::min<std::size_t>(n, 1 + rng.below(32));
    std::set<std::uint64_t> s;
    while (s.size() < k) s.insert(1 + rng.below(n));
    return {s.begin(), s.end()};
}

struct SortCharge {
    std::size_t n, p;
    std::uint64_t merge_comparisons, merge_moves, merge_steps, radix_moves, radix_steps;
};

const SortCharge kSortCharges[] = {
    {0, 1, 0, 0, 0, 0, 0}, {0, 2, 0, 0, 0, 0, 0},
    {0, 4, 0, 0, 0, 0, 0}, {0, 8, 0, 0, 0, 0, 0},
    {1, 1, 0, 0, 0, 0, 0}, {1, 2, 0, 0, 0, 0, 0},
    {1, 4, 0, 0, 0, 0, 0}, {1, 8, 0, 0, 0, 0, 0},
    {2, 1, 4, 0, 5, 24, 30}, {2, 2, 4, 0, 3, 24, 18},
    {2, 4, 4, 0, 3, 24, 18}, {2, 8, 4, 0, 4, 24, 24},
    {17, 1, 85, 0, 86, 204, 210}, {17, 2, 81, 17, 62, 204, 108},
    {17, 4, 82, 34, 46, 204, 66}, {17, 8, 83, 51, 38, 204, 48},
    {1000, 1, 10000, 0, 10001, 12000, 12006}, {1000, 2, 10000, 1000, 6002, 12000, 6006},
    {1000, 4, 10000, 2000, 3506, 12000, 3012}, {1000, 8, 10000, 3000, 2012, 12000, 1518},
    {65536, 1, 1114112, 0, 1114113, 786432, 786438}, {65536, 2, 1114112, 65536, 622594, 786432, 393222},
    {65536, 4, 1114112, 131072, 344070, 786432, 196620}, {65536, 8, 1114112, 196608, 188428, 786432, 98322},
};

TEST(ChargeEquivalence, SortsMatchRecordedTotals) {
    Executor exec(3);
    for (const SortCharge& row : kSortCharges) {
        SCOPED_TRACE("n=" + std::to_string(row.n) + " p=" + std::to_string(row.p));
        WorkMeter meter;
        PramCost cost(row.p);
        charge_merge_sort(row.n, row.p, &meter, &cost);
        EXPECT_EQ(meter.comparisons(), row.merge_comparisons);
        EXPECT_EQ(meter.moves(), row.merge_moves);
        EXPECT_EQ(cost.steps(), row.merge_steps);
        WorkMeter radix_meter;
        PramCost radix_cost(row.p);
        charge_radix_sort(row.n, &radix_meter, &radix_cost);
        EXPECT_EQ(radix_meter.comparisons(), 0u);
        EXPECT_EQ(radix_meter.moves(), row.radix_moves);
        EXPECT_EQ(radix_cost.steps(), row.radix_steps);

        // The entry points charge the same and sort stably.
        const Parallel pool(row.p, &exec);
        const auto input = charge_input(row.n, 11 + row.n);
        auto expected = input;
        std::stable_sort(expected.begin(), expected.end(), KeyLess{});
        auto merged = input;
        WorkMeter entry_meter;
        PramCost entry_cost(row.p);
        parallel_merge_sort(merged, pool, &entry_meter, &entry_cost);
        EXPECT_EQ(merged, expected);
        EXPECT_EQ(entry_meter.comparisons(), row.merge_comparisons);
        EXPECT_EQ(entry_meter.moves(), row.merge_moves);
        EXPECT_EQ(entry_cost.steps(), row.merge_steps);
        auto radixed = input;
        WorkMeter radix_entry_meter;
        PramCost radix_entry_cost(row.p);
        parallel_radix_sort(radixed, pool, &radix_entry_meter, &radix_entry_cost);
        EXPECT_EQ(radixed, expected);
        EXPECT_EQ(radix_entry_meter.comparisons(), 0u);
        EXPECT_EQ(radix_entry_meter.moves(), row.radix_moves);
        EXPECT_EQ(radix_entry_cost.steps(), row.radix_steps);
    }
}

struct SelectCharge {
    std::size_t n;
    std::uint32_t s; // centered ranks for S buckets; 0 = random_ranks(n, 5 + n)
    std::uint64_t comparisons, moves;
};

const SelectCharge kSelectCharges[] = {
    {0, 2, 0, 0}, {0, 4, 0, 0}, {0, 16, 0, 0}, {0, 0, 0, 0},
    {1, 2, 2, 0}, {1, 4, 2, 0}, {1, 16, 2, 0}, {1, 0, 2, 0},
    {2, 2, 6, 1}, {2, 4, 6, 1}, {2, 16, 6, 1}, {2, 0, 6, 1},
    {17, 2, 104, 24}, {17, 4, 118, 24}, {17, 16, 118, 24}, {17, 0, 118, 24},
    {1000, 2, 8166, 2036}, {1000, 4, 9948, 2474}, {1000, 16, 13738, 3375}, {1000, 0, 9740, 2430},
    {65536, 2, 536552, 134132}, {65536, 4, 661450, 165349}, {65536, 16, 918798, 229639}, {65536, 0, 518448, 129609},
};

TEST(ChargeEquivalence, MultiSelectMatchesRecordedTotals) {
    Executor exec(3);
    for (const SelectCharge& row : kSelectCharges) {
        SCOPED_TRACE("n=" + std::to_string(row.n) + " S=" + std::to_string(row.s));
        const auto ranks = row.s == 0 ? random_ranks(row.n, 5 + row.n) : centered_ranks(row.n, row.s);
        WorkMeter meter;
        charge_multi_select(row.n, ranks, &meter);
        EXPECT_EQ(meter.comparisons(), row.comparisons);
        EXPECT_EQ(meter.moves(), row.moves);

        const auto input = charge_input(row.n, 23 + row.n);
        auto sorted = input;
        std::sort(sorted.begin(), sorted.end(), KeyLess{});
        std::vector<std::uint64_t> expected;
        for (const std::uint64_t r : ranks) expected.push_back(sorted[r - 1].key);
        for (const std::size_t p : {1, 2, 4, 8}) {
            WorkMeter entry_meter;
            const auto keys = multi_select_keys(input, ranks, Parallel(p, &exec), &entry_meter);
            EXPECT_EQ(keys, expected) << "p=" << p;
            EXPECT_EQ(entry_meter.comparisons(), row.comparisons) << "p=" << p;
            EXPECT_EQ(entry_meter.moves(), row.moves) << "p=" << p;
        }
        WorkMeter serial_meter;
        EXPECT_EQ(multi_select_keys(input, ranks, &serial_meter), expected);
        EXPECT_EQ(serial_meter.comparisons(), row.comparisons);
        EXPECT_EQ(serial_meter.moves(), row.moves);
    }
}

struct BucketCharge {
    std::size_t n, pivots;
    std::uint64_t comparisons;
};

const BucketCharge kBucketCharges[] = {
    {0, 0, 0}, {0, 1, 0}, {0, 3, 0}, {0, 15, 0}, {0, 16, 0},
    {0, 17, 0}, {0, 64, 0}, {1, 0, 1}, {1, 1, 1}, {1, 3, 2},
    {1, 15, 4}, {1, 16, 5}, {1, 17, 5}, {1, 64, 7}, {2, 0, 2},
    {2, 1, 2}, {2, 3, 4}, {2, 15, 8}, {2, 16, 10}, {2, 17, 10},
    {2, 64, 14}, {17, 0, 17}, {17, 1, 17}, {17, 3, 34}, {17, 15, 68},
    {17, 16, 85}, {17, 17, 85}, {17, 64, 119}, {1000, 0, 1000}, {1000, 1, 1000},
    {1000, 3, 2000}, {1000, 15, 4000}, {1000, 16, 5000}, {1000, 17, 5000}, {1000, 64, 7000},
    {65536, 0, 65536}, {65536, 1, 65536}, {65536, 3, 131072}, {65536, 15, 262144}, {65536, 16, 327680},
    {65536, 17, 327680}, {65536, 64, 458752},
};

TEST(ChargeEquivalence, BucketOfMatchesRecordedTotals) {
    Executor exec(3);
    const Parallel pool(4, &exec);
    for (const BucketCharge& row : kBucketCharges) {
        SCOPED_TRACE("n=" + std::to_string(row.n) + " pivots=" + std::to_string(row.pivots));
        WorkMeter meter;
        charge_bucket_of(row.n, row.pivots, &meter);
        EXPECT_EQ(meter.comparisons(), row.comparisons);
        EXPECT_EQ(meter.moves(), 0u);
        std::vector<std::uint64_t> pivots(row.pivots);
        for (std::size_t i = 0; i < row.pivots; ++i) {
            pivots[i] = (i + 1) * (~std::uint64_t{0} / (row.pivots + 1));
        }
        const auto input = charge_input(row.n, 3);
        WorkMeter serial_meter, pool_meter;
        const auto serial = bucket_of(input, pivots, &serial_meter);
        EXPECT_EQ(bucket_of(input, pivots, pool, &pool_meter), serial);
        EXPECT_EQ(serial_meter.comparisons(), row.comparisons);
        EXPECT_EQ(pool_meter.comparisons(), row.comparisons);
    }
}

// ---- Kernel equivalence ----

// Selection inputs that stress the histogram kernel: one bucket holding
// every key, the full 64-bit range, ranges under 2^11, heavy duplicates.
std::vector<std::vector<Record>> selection_inputs(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<std::vector<Record>> out;
    auto make = [&](auto key) {
        std::vector<Record> v(n);
        for (std::size_t i = 0; i < n; ++i) v[i] = {key(i), i};
        out.push_back(std::move(v));
    };
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    make([](std::size_t) { return std::uint64_t{42}; });                    // all equal
    make([&](std::size_t) { return rng.below(2) == 0 ? 7 : kMax - 7; });     // two-valued
    out.push_back(generate(Workload::kZipf, n, seed));                       // zipf
    out.push_back(generate(Workload::kSorted, n, seed));                     // sorted
    out.push_back(generate(Workload::kReverse, n, seed));                    // reverse
    make([&](std::size_t i) { return i == 0 ? 0 : i == 1 ? kMax : rng(); }); // 0 .. 2^64-1
    make([&](std::size_t) { return 1'000'000 + rng.below(1500); });         // range < 2^11
    make([&](std::size_t i) {                                                // outlier + cluster
        return i == n / 2 ? kMax : (std::uint64_t{1} << 40) + rng.below(5000);
    });
    return out;
}

TEST(KernelEquivalence, MultiSelectMatchesSortReference) {
    Executor exec(3);
    const Parallel pool(4, &exec);
    for (const std::size_t n : {1, 2, 65, 1000, 70000}) {
        for (const auto& input : selection_inputs(n, 77 + n)) {
            auto sorted = input;
            std::sort(sorted.begin(), sorted.end(), KeyLess{});
            std::vector<std::vector<std::uint64_t>> rank_sets = {
                centered_ranks(n, 2), centered_ranks(n, 4), centered_ranks(n, 16),
                random_ranks(n, n), {1}, {n}};
            if (n <= 1000) {
                rank_sets.emplace_back(n);
                std::iota(rank_sets.back().begin(), rank_sets.back().end(), 1);
            }
            for (const auto& ranks : rank_sets) {
                std::vector<std::uint64_t> expected;
                for (const std::uint64_t r : ranks) expected.push_back(sorted[r - 1].key);
                const auto before = input;
                ASSERT_EQ(multi_select_keys(input, ranks), expected) << "n=" << n;
                ASSERT_EQ(multi_select_keys(input, ranks, pool), expected) << "n=" << n;
                ASSERT_EQ(input, before); // the kernel does not permute its input
            }
        }
    }
}

TEST(KernelEquivalence, BatchClassificationMatchesUpperBound) {
    Executor exec(3);
    const Parallel pool(4, &exec);
    Xoshiro256 rng(404);
    for (std::size_t k = 0; k <= 64; ++k) {
        std::set<std::uint64_t> piv_set = {0, ~std::uint64_t{0}};
        while (piv_set.size() < k + 2) piv_set.insert(rng.below(1u << 20));
        std::vector<std::uint64_t> pivots(piv_set.begin(), piv_set.end());
        pivots.resize(k); // keeps 0 once k >= 1, never the top sentinel
        std::vector<Record> probes;
        for (const std::uint64_t p : pivots) {
            probes.push_back({p, 0});
            probes.push_back({p - 1, 0}); // wraps to 2^64-1 below pivot 0
            probes.push_back({p + 1, 0});
        }
        probes.push_back({0, 0});
        probes.push_back({~std::uint64_t{0}, 0});
        const auto serial = bucket_of(probes, pivots);
        EXPECT_EQ(bucket_of(probes, pivots, pool), serial);
        for (std::size_t i = 0; i < probes.size(); ++i) {
            ASSERT_EQ(serial[i], pivot_upper_bound(pivots, probes[i].key)) << "k=" << k;
            ASSERT_EQ(pivot_count_le(pivots, probes[i].key),
                      pivot_upper_bound(pivots, probes[i].key))
                << "k=" << k;
        }
    }
}

// Stable-sort inputs: duplicate-heavy keys and keys that differ only in
// the lowest or only in the highest bit. Payload = index, so any
// instability changes the bytes.
std::vector<std::vector<Record>> stable_inputs(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<std::vector<Record>> out;
    auto make = [&](auto key) {
        std::vector<Record> v(n);
        for (std::size_t i = 0; i < n; ++i) v[i] = {key(), i};
        out.push_back(std::move(v));
    };
    constexpr std::uint64_t kBase = 0x5a5a'0000'1234'0000ull;
    make([&] { return rng.below(8); });                                   // duplicate-heavy
    make([&] { return kBase | rng.below(2); });                           // lowest bit only
    make([&] { return (rng.below(2) << 63) | kBase; });                   // highest bit only
    make([&] { return (std::uint64_t{0xabc} << 52) | rng.below(1u << 30); }); // shared top bits
    make([&] { return rng(); });                                          // uniform
    return out;
}

TEST(KernelEquivalence, StableKernelMatchesStdStableSort) {
    Executor exec(3);
    for (const std::size_t p : {1, 4}) {
        const Parallel pool(p, &exec);
        for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kStableSortCutoff - 1,
                                    kStableSortCutoff, kStableSortCutoff + 1, std::size_t{5000},
                                    std::size_t{60000}}) {
            for (const auto& input : stable_inputs(n, 9 + n)) {
                auto expected = input;
                std::stable_sort(expected.begin(), expected.end(), KeyLess{});
                auto kernel = input;
                stable_key_sort(kernel, pool);
                ASSERT_EQ(kernel, expected) << "p=" << p << " n=" << n;
                auto merged = input;
                parallel_merge_sort(merged, pool);
                ASSERT_EQ(merged, expected) << "p=" << p << " n=" << n;
                auto radixed = input;
                parallel_radix_sort(radixed, pool);
                ASSERT_EQ(radixed, expected) << "p=" << p << " n=" << n;
            }
        }
    }
}

TEST(PramCost, ChargesMatchModel) {
    PramCost erew(8, PramKind::kErew);
    erew.charge_parallel_work(80);
    EXPECT_EQ(erew.steps(), 10u);
    erew.charge_collective();
    EXPECT_EQ(erew.steps(), 13u); // + ceil(log2 8) = 3
    PramCost crcw(8, PramKind::kCrcw);
    crcw.charge_collective();
    EXPECT_EQ(crcw.steps(), 1u);
}

TEST(WorkMeter, PramTimeFormula) {
    WorkMeter m;
    m.add_comparisons(700);
    m.add_moves(300);
    m.add_collectives(10);
    // ops/P + collectives * log2(P): 1000/4 + 10*2 = 270.
    EXPECT_DOUBLE_EQ(m.pram_time(4), 270.0);
    m.reset();
    EXPECT_EQ(m.ops(), 0u);
}

TEST(WorkMeter, CountingLessCounts) {
    WorkMeter m;
    CountingLess<KeyLess> less(KeyLess{}, &m);
    Record a{1, 0}, b{2, 0};
    EXPECT_TRUE(less(a, b));
    EXPECT_FALSE(less(b, a));
    EXPECT_EQ(m.comparisons(), 2u);
}

} // namespace
} // namespace balsort
