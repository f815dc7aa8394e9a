// End-to-end tests for Balance Sort on the parallel disk model: sorting
// correctness across a parameter grid, Theorem 1 ratio sanity, Theorem 4
// balance, determinism, report contents, and error handling.
#include <gtest/gtest.h>

#include <functional>

#include "core/balance_sort.hpp"
#include "core/hier_sort.hpp"
#include "util/buffer_pool.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

struct GridCase {
    std::uint64_t n;
    std::uint64_t m;
    std::uint32_t d;
    std::uint32_t b;
    std::uint32_t p;
};

class SortGridTest : public ::testing::TestWithParam<std::tuple<Workload, GridCase>> {};

TEST_P(SortGridTest, SortsCorrectlyWithInvariants) {
    auto [w, g] = GetParam();
    PdmConfig cfg{.n = g.n, .m = g.m, .d = g.d, .b = g.b, .p = g.p};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(w, cfg.n, 1234 + g.n);
    SortJobConfig opt;
    opt.balance_opts.check_invariants = true;
    SortReport rep;
    auto sorted = balance_sort_records(disks, input, cfg, opt, &rep);
    EXPECT_TRUE(is_sorted_permutation_of(input, sorted))
        << to_string(w) << " N=" << g.n << " M=" << g.m << " D=" << g.d << " B=" << g.b;
    EXPECT_TRUE(rep.balance.invariant1_held);
    EXPECT_TRUE(rep.balance.invariant2_held);
    if (cfg.n > cfg.m) {
        EXPECT_GT(rep.io.io_steps(), 0u);
        // All-equal input resolves entirely through the equal-class fast
        // path at the first level; everything else must recurse.
        EXPECT_GE(rep.levels, w == Workload::kAllEqual ? 1u : 2u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SortGridTest,
    ::testing::Combine(::testing::ValuesIn(all_workloads()),
                       ::testing::Values(GridCase{5000, 512, 4, 8, 2},
                                         GridCase{20000, 1024, 8, 16, 4})),
    [](const auto& pinfo) {
        const auto& g = std::get<1>(pinfo.param);
        std::string name = to_string(std::get<0>(pinfo.param)) + "_N" + std::to_string(g.n) +
                           "_D" + std::to_string(g.d);
        for (char& c : name) {
            if (c == '-') c = '_';
        }
        return name;
    });

class SortShapeTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(SortShapeTest, UniformAcrossMachineShapes) {
    const GridCase g = GetParam();
    PdmConfig cfg{.n = g.n, .m = g.m, .d = g.d, .b = g.b, .p = g.p};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(Workload::kUniform, cfg.n, 777);
    SortJobConfig opt;
    opt.balance_opts.check_invariants = true;
    SortReport rep;
    auto sorted = balance_sort_records(disks, input, cfg, opt, &rep);
    EXPECT_TRUE(is_sorted_permutation_of(input, sorted))
        << "N=" << g.n << " M=" << g.m << " D=" << g.d << " B=" << g.b << " P=" << g.p;
}

INSTANTIATE_TEST_SUITE_P(
    MachineShapes, SortShapeTest,
    ::testing::Values(GridCase{100, 512, 1, 1, 1},      // single disk, unit blocks
                      GridCase{1000, 64, 1, 4, 1},      // deep recursion, 1 disk
                      GridCase{1000, 64, 2, 4, 1},      // two disks
                      GridCase{1000, 64, 3, 4, 2},      // prime disk count
                      GridCase{5000, 128, 6, 4, 2},     // D' divisor choices
                      GridCase{5000, 256, 16, 4, 4},    // many disks
                      GridCase{3000, 4096, 4, 16, 4},   // N < M: pure base case
                      GridCase{4097, 256, 5, 8, 3},     // odd N, odd D
                      GridCase{1 << 15, 1 << 10, 8, 32, 8}, // powers of two
                      GridCase{12345, 500, 7, 9, 5}));  // nothing divides anything

TEST(BalanceSort, IoWithinConstantFactorOfTheorem1) {
    PdmConfig cfg{.n = 1 << 18, .m = 1 << 13, .d = 8, .b = 32, .p = 4};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(Workload::kUniform, cfg.n, 42);
    SortReport rep;
    auto sorted = balance_sort_records(disks, input, cfg, SortJobConfig{}, &rep);
    ASSERT_TRUE(is_sorted_by_key(sorted));
    EXPECT_GT(rep.io_ratio, 1.0);   // cannot beat the lower bound
    EXPECT_LT(rep.io_ratio, 25.0);  // and stays a small constant above it
    EXPECT_GT(rep.io.utilization(cfg.d), 0.5);
}

TEST(BalanceSort, IoRatioFlatInN) {
    // Theorem 1's real claim: measured/formula is a constant independent
    // of N. Sweep N over 16x and require the ratio band to stay tight.
    double lo = 1e9, hi = 0;
    for (std::uint64_t n : {std::uint64_t{1} << 15, std::uint64_t{1} << 17,
                            std::uint64_t{1} << 19}) {
        PdmConfig cfg{.n = n, .m = 1 << 12, .d = 8, .b = 16, .p = 2};
        DiskArray disks(cfg.d, cfg.b);
        auto input = generate(Workload::kUniform, n, n);
        SortReport rep;
        auto sorted = balance_sort_records(disks, input, cfg, SortJobConfig{}, &rep);
        ASSERT_TRUE(is_sorted_by_key(sorted));
        lo = std::min(lo, rep.io_ratio);
        hi = std::max(hi, rep.io_ratio);
    }
    EXPECT_LT(hi / lo, 1.8) << "I/O ratio drifted with N: " << lo << " .. " << hi;
}

TEST(BalanceSort, Theorem4WorstBucketRatio) {
    for (Workload w : {Workload::kUniform, Workload::kGaussian, Workload::kZipf}) {
        PdmConfig cfg{.n = 1 << 17, .m = 1 << 12, .d = 8, .b = 16, .p = 2};
        DiskArray disks(cfg.d, cfg.b);
        auto input = generate(w, cfg.n, 5);
        SortReport rep;
        (void)balance_sort_records(disks, input, cfg, SortJobConfig{}, &rep);
        EXPECT_LE(rep.worst_bucket_read_ratio, 2.25) << to_string(w);
    }
}

TEST(BalanceSort, DeterministicAcrossRuns) {
    PdmConfig cfg{.n = 30000, .m = 1024, .d = 8, .b = 8, .p = 2};
    auto input = generate(Workload::kGaussian, cfg.n, 99);
    SortReport r1, r2;
    DiskArray d1(cfg.d, cfg.b), d2(cfg.d, cfg.b);
    auto s1 = balance_sort_records(d1, input, cfg, SortJobConfig{}, &r1);
    auto s2 = balance_sort_records(d2, input, cfg, SortJobConfig{}, &r2);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(r1.io.io_steps(), r2.io.io_steps());
    EXPECT_EQ(r1.balance.tracks, r2.balance.tracks);
    EXPECT_EQ(r1.balance.matched_blocks, r2.balance.matched_blocks);
}

TEST(BalanceSort, AllOptionCombinationsSort) {
    PdmConfig cfg{.n = 12000, .m = 512, .d = 8, .b = 8, .p = 2};
    auto input = generate(Workload::kZipf, cfg.n, 7);
    for (auto strat : {MatchStrategy::kGreedy, MatchStrategy::kRandomized,
                       MatchStrategy::kDerandomized}) {
        for (auto aux : {AuxRule::kPaperMedian, AuxRule::kArgTwiceAvg}) {
            for (auto defer : {DeferPolicy::kPaperDefer, DeferPolicy::kRebalanceAll}) {
                DiskArray disks(cfg.d, cfg.b);
                SortJobConfig opt;
                opt.balance_opts.matching = strat;
                opt.balance_opts.aux = aux;
                opt.balance_opts.defer = defer;
                opt.balance_opts.check_invariants = (aux == AuxRule::kPaperMedian);
                SortReport rep;
                auto sorted = balance_sort_records(disks, input, cfg, opt, &rep);
                EXPECT_TRUE(is_sorted_permutation_of(input, sorted))
                    << to_string(strat) << " aux=" << static_cast<int>(aux)
                    << " defer=" << static_cast<int>(defer);
            }
        }
    }
}

TEST(BalanceSort, ExplicitSAndDVirtualOverrides) {
    PdmConfig cfg{.n = 20000, .m = 1024, .d = 8, .b = 8, .p = 2};
    auto input = generate(Workload::kUniform, cfg.n, 3);
    for (std::uint32_t dv : {1u, 2u, 4u, 8u}) {
        for (std::uint32_t s : {2u, 3u, 8u}) {
            DiskArray disks(cfg.d, cfg.b);
            SortJobConfig opt;
            opt.d_virtual = dv;
            opt.s_target = s;
            opt.bucket_policy = BucketPolicy::kFixed;
            SortReport rep;
            auto sorted = balance_sort_records(disks, input, cfg, opt, &rep);
            EXPECT_TRUE(is_sorted_by_key(sorted)) << "dv=" << dv << " s=" << s;
            EXPECT_EQ(rep.d_virtual, dv);
        }
    }
}

TEST(BalanceSort, EqualClassFastPathEngages) {
    PdmConfig cfg{.n = 50000, .m = 1024, .d = 4, .b = 8, .p = 1};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(Workload::kDuplicateHeavy, cfg.n, 11); // 16 keys
    SortReport rep;
    auto sorted = balance_sort_records(disks, input, cfg, SortJobConfig{}, &rep);
    EXPECT_TRUE(is_sorted_permutation_of(input, sorted));
    // Nearly all mass should flow through equal-class streaming, keeping
    // the recursion shallow despite N/M = 48 and massive duplication.
    EXPECT_GT(rep.equal_class_records, cfg.n / 2);
    EXPECT_LE(rep.levels, 4u);
}

TEST(BalanceSort, AllEqualInput) {
    PdmConfig cfg{.n = 20000, .m = 512, .d = 4, .b = 8, .p = 1};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(Workload::kAllEqual, cfg.n, 1);
    SortReport rep;
    auto sorted = balance_sort_records(disks, input, cfg, SortJobConfig{}, &rep);
    EXPECT_TRUE(is_sorted_permutation_of(input, sorted));
    EXPECT_LE(rep.levels, 2u);
}

TEST(BalanceSort, ConfigValidationErrors) {
    DiskArray disks(4, 8);
    auto input = generate(Workload::kUniform, 100, 1);
    // DB > M/2.
    PdmConfig bad{.n = 100, .m = 32, .d = 4, .b = 8, .p = 1};
    EXPECT_THROW(balance_sort_records(disks, input, bad, {}, nullptr),
                 std::invalid_argument);
    // cfg.n mismatch with the run.
    PdmConfig ok{.n = 100, .m = 512, .d = 4, .b = 8, .p = 1};
    BlockRun run = write_striped(disks, input);
    PdmConfig wrong_n = ok;
    wrong_n.n = 99;
    EXPECT_THROW(balance_sort(disks, run, wrong_n, {}, nullptr), std::invalid_argument);
    // d_virtual that does not divide D.
    SortJobConfig opt;
    opt.d_virtual = 3;
    EXPECT_THROW(balance_sort(disks, run, ok, opt, nullptr), std::invalid_argument);
}

TEST(BalanceSort, ValidateRejectsIncoherentOptions) {
    // Every incoherent configuration is rejected with std::invalid_argument
    // on entry — through balance_sort_records before the input layout
    // writes a block, and through hier_sort wherever HierSortConfig can
    // express the same mistake. SortJobConfig::validate is the one place
    // each rule lives.
    Executor exec(1); // workers() + the submitting thread = 2 lanes
    const auto hook = [](std::uint64_t) {};
    struct Case {
        const char* name;
        std::function<void(SortJobConfig&)> sort;
        std::function<void(HierSortConfig&)> hier; ///< empty: not expressible
    };
    const std::vector<Case> cases = {
        {"hook without checkpoint path",
         [&](SortJobConfig& c) { c.durability(DurabilityPolicy{}.hook(hook)); },
         [&](HierSortConfig& h) { h.durability.hook(hook); }},
        {"resume without checkpoint",
         [](SortJobConfig& c) { c.durability(DurabilityPolicy{}.resume("ck.bin")); },
         [](HierSortConfig& h) { h.durability.resume("ck.bin"); }},
        // The child S is unknown while the parent runs, so no sketch can
        // be sized for it.
        {"sketch with sqrt-level policy",
         [](SortJobConfig& c) {
             c.pivots(PivotMethod::kStreamingSketch).bucket_rule(BucketPolicy::kSqrtLevel);
         },
         {}},
        {"s_target with the paper policy",
         [](SortJobConfig& c) { c.buckets(8, BucketPolicy::kPaperPdm); }, {}},
        {"s_target with sqrt-level policy",
         [](SortJobConfig& c) { c.buckets(8, BucketPolicy::kSqrtLevel); }, {}},
        {"d_virtual not dividing D", [](SortJobConfig& c) { c.virtual_disks(3); },
         [](HierSortConfig& h) { h.h_virtual = 3; }},
        {"d_virtual above D", [](SortJobConfig& c) { c.virtual_disks(8); },
         [](HierSortConfig& h) { h.h_virtual = 16; }},
        {"thread cap above the shared executor",
         [&](SortJobConfig& c) { c.compute(ComputePolicy{}.executor(&exec).lanes(3)); }, {}},
    };
    const PdmConfig cfg{.n = 1000, .m = 256, .d = 4, .b = 4, .p = 4};
    const auto input = generate(Workload::kUniform, cfg.n, 1);
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        SortJobConfig job;
        c.sort(job);
        DiskArray disks(cfg.d, cfg.b);
        EXPECT_THROW((void)balance_sort_records(disks, input, cfg, job, nullptr),
                     std::invalid_argument);
        EXPECT_EQ(disks.stats().blocks_written, 0u);
        if (c.hier) {
            HierSortConfig hc;
            hc.h = 8;
            c.hier(hc);
            EXPECT_THROW((void)hier_sort(input, hc, nullptr), std::invalid_argument);
        }
    }

    // The coherent neighbours of those cases pass, and the defaults are
    // coherent for any D.
    EXPECT_NO_THROW(SortJobConfig{}.buckets(8, BucketPolicy::kFixed).validate(4));
    EXPECT_NO_THROW(SortJobConfig{}.virtual_disks(2).validate(4));
    EXPECT_NO_THROW(SortJobConfig{}.compute(ComputePolicy{}.executor(&exec).lanes(2)).validate(4));
    EXPECT_NO_THROW(SortJobConfig{}.validate(1));
    EXPECT_NO_THROW(SortJobConfig{}.validate(16));
}

TEST(BalanceSort, EqualClassStreamCopyResolvesAllEqualWithoutRecursion) {
    // N > M all-equal input: one Balance pass puts everything in the
    // single pivot's equal class, which EmitPhase stream-copies to the
    // output — no base case ever runs below the top level.
    PdmConfig cfg{.n = 20000, .m = 512, .d = 4, .b = 8, .p = 2};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(Workload::kAllEqual, cfg.n, 3);
    SortReport rep;
    auto sorted = balance_sort_records(disks, input, cfg, {}, &rep);
    EXPECT_TRUE(is_sorted_permutation_of(input, sorted));
    EXPECT_EQ(rep.equal_class_records, cfg.n);
    EXPECT_EQ(rep.base_cases, 0u);
    EXPECT_EQ(rep.levels, 1u);
}

TEST(BalanceSort, WorkMetricsPopulated) {
    PdmConfig cfg{.n = 40000, .m = 2048, .d = 8, .b = 16, .p = 4};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(Workload::kUniform, cfg.n, 17);
    SortReport rep;
    (void)balance_sort_records(disks, input, cfg, SortJobConfig{}, &rep);
    EXPECT_GT(rep.comparisons, cfg.n); // at least one comparison per record
    EXPECT_GT(rep.pram_time, 0.0);
    EXPECT_GT(rep.optimal_work, 0.0);
    EXPECT_GT(rep.work_ratio, 0.0);
    // Work stays within a moderate constant of (N/P) log N.
    EXPECT_LT(rep.work_ratio, 64.0);
    EXPECT_GT(rep.s_used, 1u);
    EXPECT_GT(rep.base_cases, 0u);
    EXPECT_EQ(rep.bucket_bound, bucket_size_bound(cfg.n, cfg.m, rep.s_used));
    EXPECT_LE(rep.max_bucket_records, rep.bucket_bound);
}

TEST(BalanceSort, LeavesInputIntact) {
    PdmConfig cfg{.n = 5000, .m = 512, .d = 4, .b = 8, .p = 1};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(Workload::kUniform, cfg.n, 23);
    BlockRun run = write_striped(disks, input);
    (void)balance_sort(disks, run, cfg, {}, nullptr);
    auto again = read_run(disks, run);
    EXPECT_EQ(again, input);
}

TEST(BalanceSort, DefaultBucketCountFollowsPaper) {
    // S = (M/B)^(1/4), at least 2.
    PdmConfig cfg{.n = 1 << 20, .m = 1 << 16, .d = 8, .b = 16, .p = 1};
    // M/B = 4096 -> S = 8 (with a vblock small enough not to clamp).
    EXPECT_EQ(default_bucket_count(cfg, /*vblock=*/32), 8u);
    PdmConfig tiny{.n = 100, .m = 64, .d = 2, .b = 8, .p = 1};
    EXPECT_EQ(default_bucket_count(tiny, 8), 2u); // clamped to minimum
}

} // namespace
} // namespace balsort
