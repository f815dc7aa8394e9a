// Tests for src/baselines: striped merge sort, Greed Sort, and the
// randomized Vitter-Shriver distribution sort — correctness across
// workloads and the I/O-count relationships the paper predicts.
#include <gtest/gtest.h>

#include "baselines/greed_sort.hpp"
#include "baselines/rand_dist.hpp"
#include "baselines/striped_merge.hpp"
#include "core/balance_sort.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

std::string test_safe(std::string s) {
    for (char& c : s) {
        if (c == '-') c = '_';
    }
    return s;
}

class BaselineWorkloadTest : public ::testing::TestWithParam<Workload> {};

TEST_P(BaselineWorkloadTest, StripedMergeSorts) {
    const Workload w = GetParam();
    PdmConfig cfg{.n = 20000, .m = 1024, .d = 8, .b = 16, .p = 1};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(w, cfg.n, 11);
    BlockRun run = write_striped(disks, input);
    StripedMergeReport rep;
    BlockRun out = striped_merge_sort(disks, run, cfg, &rep);
    auto sorted = read_run(disks, out);
    EXPECT_TRUE(is_sorted_permutation_of(input, sorted)) << to_string(w);
    EXPECT_GT(rep.passes, 0u);
    EXPECT_EQ(rep.initial_runs, ceil_div(cfg.n, cfg.m));
}

TEST_P(BaselineWorkloadTest, GreedSortSorts) {
    const Workload w = GetParam();
    PdmConfig cfg{.n = 20000, .m = 1024, .d = 8, .b = 16, .p = 1};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(w, cfg.n, 13);
    BlockRun run = write_striped(disks, input);
    GreedSortReport rep;
    BlockRun out = greed_sort(disks, run, cfg, &rep);
    auto sorted = read_run(disks, out);
    EXPECT_TRUE(is_sorted_permutation_of(input, sorted)) << to_string(w);
    EXPECT_EQ(rep.merge_degree, greed_merge_degree(cfg));
}

TEST_P(BaselineWorkloadTest, GreedSortApproximateSorts) {
    const Workload w = GetParam();
    PdmConfig cfg{.n = 20000, .m = 1024, .d = 8, .b = 16, .p = 1};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(w, cfg.n, 19);
    BlockRun run = write_striped(disks, input);
    GreedApproxReport rep;
    BlockRun out = greed_sort_approximate(disks, run, cfg, &rep);
    auto sorted = read_run(disks, out);
    EXPECT_TRUE(is_sorted_permutation_of(input, sorted)) << to_string(w);
    // The NoV displacement bound: every record within L <= R*D*B of its
    // place after the approximate pass (window = 2L).
    EXPECT_LE(rep.max_displacement, rep.window / 2) << to_string(w);
}

TEST(GreedSortApproximate, ApproxPassActuallyApproximates) {
    // On shuffled data the unconditional emission must produce some
    // displacement (else the test is vacuous) and the cleanup fixes it.
    PdmConfig cfg{.n = 30000, .m = 512, .d = 8, .b = 8, .p = 1};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(Workload::kUniform, cfg.n, 99);
    BlockRun run = write_striped(disks, input);
    GreedApproxReport rep;
    BlockRun out = greed_sort_approximate(disks, run, cfg, &rep);
    EXPECT_TRUE(is_sorted_by_key(read_run(disks, out)));
    EXPECT_GT(rep.max_displacement, 0u);
    EXPECT_GT(rep.passes, 1u);
}

TEST(GreedSortApproximate, CostsOneExtraPassPerMergePass) {
    PdmConfig cfg{.n = 1 << 16, .m = 1 << 10, .d = 8, .b = 8, .p = 1};
    auto input = generate(Workload::kGaussian, cfg.n, 3);
    std::uint64_t exact_ios, approx_ios;
    {
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        GreedSortReport rep;
        (void)greed_sort(disks, run, cfg, &rep);
        exact_ios = rep.io.io_steps();
    }
    {
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        GreedApproxReport rep;
        (void)greed_sort_approximate(disks, run, cfg, &rep);
        approx_ios = rep.io.io_steps();
    }
    EXPECT_GT(approx_ios, exact_ios);      // the cleanup passes cost I/O
    EXPECT_LT(approx_ios, exact_ios * 3);  // but only a constant factor
}

TEST_P(BaselineWorkloadTest, RandDistSorts) {
    const Workload w = GetParam();
    PdmConfig cfg{.n = 20000, .m = 1024, .d = 8, .b = 16, .p = 1};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(w, cfg.n, 17);
    BlockRun run = write_striped(disks, input);
    RandDistReport rep;
    BlockRun out = rand_dist_sort(disks, run, cfg, /*seed=*/2024, &rep);
    auto sorted = read_run(disks, out);
    EXPECT_TRUE(is_sorted_permutation_of(input, sorted)) << to_string(w);
}

// Golden for the randomized distribution path: the full step-observer
// sequence (FNV-1a over direction, fan-out and every block address), the
// sorted output and the bucket-read tail, for two seeds. n = 20,011 leaves
// ragged final blocks in most buckets, so the padded tails are pinned too.
struct RandDistGolden {
    std::uint64_t rs, ws, br, bw;
    std::uint64_t step_hash, out_hash;
    double worst_ratio;
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

void expect_rand_dist_golden(std::uint64_t seed, const RandDistGolden& g) {
    PdmConfig cfg{.n = 20011, .m = 1024, .d = 8, .b = 16, .p = 1};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(Workload::kZipf, cfg.n, 61);
    BlockRun run = write_striped(disks, input);
    std::uint64_t step_hash = 1469598103934665603ull;
    disks.set_step_observer([&step_hash](bool is_read, std::span<const BlockOp> ops) {
        step_hash = fnv1a(step_hash, is_read ? 1 : 2);
        step_hash = fnv1a(step_hash, ops.size());
        for (const auto& op : ops) {
            step_hash = fnv1a(step_hash, op.disk);
            step_hash = fnv1a(step_hash, op.block);
        }
    });
    RandDistReport rep;
    BlockRun out = rand_dist_sort(disks, run, cfg, seed, &rep);
    disks.set_step_observer(nullptr);
    std::uint64_t out_hash = 1469598103934665603ull;
    for (const Record& r : read_run(disks, out)) {
        out_hash = fnv1a(out_hash, r.key);
        out_hash = fnv1a(out_hash, r.payload);
    }
    EXPECT_EQ(rep.io.read_steps, g.rs) << seed;
    EXPECT_EQ(rep.io.write_steps, g.ws) << seed;
    EXPECT_EQ(rep.io.blocks_read, g.br) << seed;
    EXPECT_EQ(rep.io.blocks_written, g.bw) << seed;
    EXPECT_EQ(step_hash, g.step_hash) << seed;
    EXPECT_EQ(out_hash, g.out_hash) << seed;
    EXPECT_DOUBLE_EQ(rep.worst_bucket_read_ratio, g.worst_ratio) << seed;
}

TEST(RandDistGoldens, TwoSeedsRaggedBlocks) {
    expect_rand_dist_golden(5,
                            {2111, 899, 12882, 7082, 2935478334604307119ull,
                             17293921072379798822ull, 2.0});
    expect_rand_dist_golden(77,
                            {2143, 899, 12882, 7082, 1002357348510832548ull,
                             17293921072379798822ull, 1.6});
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, BaselineWorkloadTest,
                         ::testing::ValuesIn(all_workloads()),
                         [](const auto& pinfo) { return test_safe(to_string(pinfo.param)); });

TEST(StripedMerge, FanInFormula) {
    PdmConfig cfg{.n = 1 << 20, .m = 1 << 14, .d = 8, .b = 16, .p = 1};
    // M/(2DB) = 16384/256 = 64.
    EXPECT_EQ(striped_merge_fan_in(cfg), 64u);
    PdmConfig tight{.n = 1 << 20, .m = 1 << 10, .d = 16, .b = 16, .p = 1};
    EXPECT_EQ(striped_merge_fan_in(tight), 2u); // clamped at binary merge
}

TEST(StripedMerge, PassCountGrowsWithD) {
    // The striping penalty: at fixed N, M, B, increasing D shrinks the
    // fan-in and eventually adds merge passes.
    const std::uint64_t n = 1 << 17;
    std::uint32_t passes_small_d = 0, passes_big_d = 0;
    {
        PdmConfig cfg{.n = n, .m = 1 << 10, .d = 2, .b = 8, .p = 1};
        DiskArray disks(cfg.d, cfg.b);
        auto input = generate(Workload::kUniform, n, 1);
        BlockRun run = write_striped(disks, input);
        StripedMergeReport rep;
        (void)striped_merge_sort(disks, run, cfg, &rep);
        passes_small_d = rep.passes;
    }
    {
        PdmConfig cfg{.n = n, .m = 1 << 10, .d = 32, .b = 8, .p = 1};
        DiskArray disks(cfg.d, cfg.b);
        auto input = generate(Workload::kUniform, n, 1);
        BlockRun run = write_striped(disks, input);
        StripedMergeReport rep;
        (void)striped_merge_sort(disks, run, cfg, &rep);
        passes_big_d = rep.passes;
    }
    EXPECT_GT(passes_big_d, passes_small_d);
}

TEST(GreedSort, IndependentDisksBeatStripingAtLargeD) {
    // The headline comparison of §1: with many disks, Greed Sort (and any
    // optimal algorithm) needs fewer I/Os than striped merge sort.
    PdmConfig cfg{.n = 1 << 17, .m = 1 << 10, .d = 32, .b = 8, .p = 1};
    auto input = generate(Workload::kUniform, cfg.n, 3);
    std::uint64_t greed_ios, stripe_ios;
    {
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        GreedSortReport rep;
        (void)greed_sort(disks, run, cfg, &rep);
        greed_ios = rep.io.io_steps();
    }
    {
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        StripedMergeReport rep;
        (void)striped_merge_sort(disks, run, cfg, &rep);
        stripe_ios = rep.io.io_steps();
    }
    EXPECT_LT(greed_ios, stripe_ios);
}

TEST(GreedSort, FewerPassesThanStripedMergeAtLargeD) {
    PdmConfig cfg{.n = 1 << 16, .m = 1 << 10, .d = 32, .b = 8, .p = 1};
    // Greed merges sqrt(M/B) = ~11 runs; striping merges M/(2DB) = 2.
    EXPECT_GT(greed_merge_degree(cfg), striped_merge_fan_in(cfg));
}

TEST(GreedSort, PeakBufferStaysModest) {
    PdmConfig cfg{.n = 1 << 16, .m = 1 << 11, .d = 8, .b = 16, .p = 1};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(Workload::kUniform, cfg.n, 5);
    BlockRun run = write_striped(disks, input);
    GreedSortReport rep;
    (void)greed_sort(disks, run, cfg, &rep);
    // R*D*B is the analytic buffer bound for the greedy schedule.
    EXPECT_LE(rep.peak_buffered,
              static_cast<std::uint64_t>(rep.merge_degree) * cfg.d * cfg.b + cfg.m);
}

TEST(RandDist, SeedDeterminism) {
    PdmConfig cfg{.n = 15000, .m = 512, .d = 8, .b = 8, .p = 1};
    auto input = generate(Workload::kGaussian, cfg.n, 7);
    std::uint64_t ios1, ios2, ios3;
    std::vector<Record> s1, s3;
    {
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        RandDistReport rep;
        s1 = read_run(disks, rand_dist_sort(disks, run, cfg, 1, &rep));
        ios1 = rep.io.io_steps();
    }
    {
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        RandDistReport rep;
        (void)rand_dist_sort(disks, run, cfg, 1, &rep);
        ios2 = rep.io.io_steps();
    }
    {
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        RandDistReport rep;
        s3 = read_run(disks, rand_dist_sort(disks, run, cfg, 999, &rep));
        ios3 = rep.io.io_steps();
    }
    EXPECT_EQ(ios1, ios2);          // same seed -> identical run
    EXPECT_EQ(s1, s3);              // output identical regardless of seed
    (void)ios3;                     // different seed may differ in I/Os
}

TEST(Baselines, AllAlgorithmsAgreeOnOutput) {
    PdmConfig cfg{.n = 30000, .m = 1024, .d = 8, .b = 16, .p = 2};
    auto input = generate(Workload::kZipf, cfg.n, 29);
    std::vector<std::vector<Record>> outputs;
    {
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        outputs.push_back(read_run(disks, balance_sort(disks, run, cfg, {}, nullptr)));
    }
    {
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        outputs.push_back(read_run(disks, striped_merge_sort(disks, run, cfg, nullptr)));
    }
    {
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        outputs.push_back(read_run(disks, greed_sort(disks, run, cfg, nullptr)));
    }
    {
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        outputs.push_back(read_run(disks, rand_dist_sort(disks, run, cfg, 4, nullptr)));
    }
    for (auto& out : outputs) {
        ASSERT_EQ(out.size(), input.size());
        EXPECT_TRUE(is_sorted_by_key(out));
    }
    // Keys must agree position-by-position across algorithms (payload order
    // of equal keys may differ: not all engines are stable).
    for (std::size_t a = 1; a < outputs.size(); ++a) {
        for (std::size_t i = 0; i < outputs[0].size(); ++i) {
            ASSERT_EQ(outputs[a][i].key, outputs[0][i].key) << "algorithm " << a << " pos " << i;
        }
    }
}

TEST(Baselines, BalanceSortCompetitiveWithGreedSort) {
    // Both are optimal; their I/O counts should be within a small factor
    // of each other on a mid-size instance.
    PdmConfig cfg{.n = 1 << 17, .m = 1 << 12, .d = 8, .b = 16, .p = 1};
    auto input = generate(Workload::kUniform, cfg.n, 31);
    std::uint64_t bal, greed;
    {
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        SortReport rep;
        (void)balance_sort(disks, run, cfg, {}, &rep);
        bal = rep.io.io_steps();
    }
    {
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        GreedSortReport rep;
        (void)greed_sort(disks, run, cfg, &rep);
        greed = rep.io.io_steps();
    }
    const double ratio = static_cast<double>(bal) / static_cast<double>(greed);
    EXPECT_GT(ratio, 0.2);
    EXPECT_LT(ratio, 5.0);
}

TEST(Baselines, InputValidation) {
    DiskArray disks(4, 8);
    auto input = generate(Workload::kUniform, 100, 1);
    BlockRun run = write_striped(disks, input);
    PdmConfig wrong{.n = 99, .m = 512, .d = 4, .b = 8, .p = 1};
    EXPECT_THROW(striped_merge_sort(disks, run, wrong, nullptr), std::invalid_argument);
    EXPECT_THROW(greed_sort(disks, run, wrong, nullptr), std::invalid_argument);
    EXPECT_THROW(rand_dist_sort(disks, run, wrong, 1, nullptr), std::invalid_argument);
}

} // namespace
} // namespace balsort
