// Cross-module integration tests: file-backed end-to-end sorts, the
// Aggarwal-Vitter (Fig. 1) relaxed model, identical I/O accounting across
// backends, and large mixed scenarios.
#include <gtest/gtest.h>

#include <filesystem>

#include "baselines/greed_sort.hpp"
#include "baselines/striped_merge.hpp"
#include "core/balance_sort.hpp"
#include "core/hier_sort.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

TEST(Integration, FileBackedBalanceSortEndToEnd) {
    PdmConfig cfg{.n = 30000, .m = 1024, .d = 8, .b = 16, .p = 2};
    DiskArray disks(cfg.d, cfg.b, DiskBackend::kFile, "/tmp");
    auto input = generate(Workload::kUniform, cfg.n, 2025);
    SortJobConfig opt;
    opt.balance_opts.check_invariants = true;
    SortReport rep;
    auto sorted = balance_sort_records(disks, input, cfg, opt, &rep);
    EXPECT_TRUE(is_sorted_permutation_of(input, sorted));
    EXPECT_TRUE(rep.balance.invariant2_held);
}

TEST(Integration, FileAndMemoryBackendsCountIdenticalIos) {
    // The I/O-step semantics are backend-independent: a file-backed array
    // must report exactly the same step counts as the in-memory one.
    PdmConfig cfg{.n = 20000, .m = 1024, .d = 4, .b = 16, .p = 1};
    auto input = generate(Workload::kGaussian, cfg.n, 7);
    SortReport mem_rep, file_rep;
    std::vector<Record> mem_out, file_out;
    {
        DiskArray disks(cfg.d, cfg.b, DiskBackend::kMemory);
        mem_out = balance_sort_records(disks, input, cfg, {}, &mem_rep);
    }
    {
        DiskArray disks(cfg.d, cfg.b, DiskBackend::kFile, "/tmp");
        file_out = balance_sort_records(disks, input, cfg, {}, &file_rep);
    }
    EXPECT_EQ(mem_out, file_out);
    EXPECT_EQ(mem_rep.io.io_steps(), file_rep.io.io_steps());
    EXPECT_EQ(mem_rep.io.blocks_read, file_rep.io.blocks_read);
    EXPECT_EQ(mem_rep.io.blocks_written, file_rep.io.blocks_written);
}

TEST(Integration, FileDisksCleanedUpAfterUse) {
    const std::string dir = "/tmp/balsort_cleanup_test";
    std::filesystem::create_directories(dir);
    {
        DiskArray disks(4, 8, DiskBackend::kFile, dir);
        auto recs = generate(Workload::kUniform, 500, 1);
        (void)write_striped(disks, recs);
        EXPECT_FALSE(std::filesystem::is_empty(dir));
    }
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

TEST(Integration, AgvModelNeedsNoMoreIosThanDDiskModel) {
    // Fig. 1 vs Fig. 2a: the [AgV] model is strictly more permissive (any
    // D blocks per step), so the same algorithm can only do better there.
    PdmConfig cfg{.n = 40000, .m = 1024, .d = 8, .b = 8, .p = 1};
    auto input = generate(Workload::kUniform, cfg.n, 55);
    std::uint64_t ddisk_ios, agv_ios;
    {
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        SortReport rep;
        (void)balance_sort(disks, run, cfg, {}, &rep);
        ddisk_ios = rep.io.io_steps();
    }
    {
        DiskArray disks(cfg.d, cfg.b, DiskBackend::kMemory, ".",
                        Constraint::kAggarwalVitter);
        BlockRun run = write_striped(disks, input);
        SortReport rep;
        auto out = read_run(disks, balance_sort(disks, run, cfg, {}, &rep));
        EXPECT_TRUE(is_sorted_by_key(out));
        agv_ios = rep.io.io_steps();
    }
    EXPECT_LE(agv_ios, ddisk_ios);
}

TEST(Integration, LargeMixedRun) {
    // A bigger end-to-end exercise crossing multiple recursion levels with
    // an adversarial (nearly-sorted) workload and P > 1.
    PdmConfig cfg{.n = 1 << 17, .m = 1 << 11, .d = 8, .b = 16, .p = 4};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(Workload::kNearlySorted, cfg.n, 88);
    SortReport rep;
    auto sorted = balance_sort_records(disks, input, cfg, {}, &rep);
    EXPECT_TRUE(is_sorted_permutation_of(input, sorted));
    EXPECT_GE(rep.levels, 3u);
    EXPECT_TRUE(rep.balance.invariant2_held);
    EXPECT_LE(rep.worst_bucket_read_ratio, 2.5);
}

TEST(Integration, SequentialSortsOnSharedArray) {
    // Multiple sorts re-using one disk array must not interfere (bump
    // allocation keeps regions disjoint).
    PdmConfig cfg{.n = 5000, .m = 512, .d = 4, .b = 8, .p = 1};
    DiskArray disks(cfg.d, cfg.b);
    auto in1 = generate(Workload::kUniform, cfg.n, 1);
    auto in2 = generate(Workload::kReverse, cfg.n, 2);
    BlockRun run1 = write_striped(disks, in1);
    BlockRun run2 = write_striped(disks, in2);
    auto out1 = read_run(disks, balance_sort(disks, run1, cfg, {}, nullptr));
    auto out2 = read_run(disks, balance_sort(disks, run2, cfg, {}, nullptr));
    EXPECT_TRUE(is_sorted_permutation_of(in1, out1));
    EXPECT_TRUE(is_sorted_permutation_of(in2, out2));
    // Original inputs still intact after both sorts.
    EXPECT_EQ(read_run(disks, run1), in1);
    EXPECT_EQ(read_run(disks, run2), in2);
}

TEST(Integration, HierarchySortersAgreeWithPdmSorter) {
    auto input = generate(Workload::kZipf, 4000, 99);
    std::vector<Record> expected = input;
    std::stable_sort(expected.begin(), expected.end(), KeyLess{});
    HierSortConfig cfg;
    cfg.h = 16;
    cfg.model = HierModelSpec::hmm(CostFn::log());
    auto sorted = hier_sort(input, cfg, nullptr);
    ASSERT_EQ(sorted.size(), expected.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        EXPECT_EQ(sorted[i].key, expected[i].key);
    }
}

TEST(Integration, StressManySmallSorts) {
    // Shake out edge interactions across a grid of tiny instances.
    Xoshiro256 rng(123);
    for (int trial = 0; trial < 30; ++trial) {
        const std::uint32_t d = 1 + static_cast<std::uint32_t>(rng.below(8));
        const std::uint32_t b = 1 + static_cast<std::uint32_t>(rng.below(8));
        const std::uint64_t m =
            std::max<std::uint64_t>(2ull * d * b, 32 + rng.below(256));
        const std::uint64_t n = 1 + rng.below(4000);
        PdmConfig cfg{.n = n, .m = m, .d = d, .b = b, .p = 1};
        DiskArray disks(cfg.d, cfg.b);
        const auto w = all_workloads()[trial % all_workloads().size()];
        auto input = generate(w, n, trial);
        SortJobConfig opt;
        opt.balance_opts.check_invariants = true;
        auto sorted = balance_sort_records(disks, input, cfg, opt, nullptr);
        ASSERT_TRUE(is_sorted_permutation_of(input, sorted))
            << "trial=" << trial << " n=" << n << " d=" << d << " b=" << b << " m=" << m
            << " w=" << to_string(w);
    }
}

TEST(Integration, BaselinesOnFileBackend) {
    PdmConfig cfg{.n = 10000, .m = 512, .d = 4, .b = 8, .p = 1};
    DiskArray disks(cfg.d, cfg.b, DiskBackend::kFile, "/tmp");
    auto input = generate(Workload::kOrganPipe, cfg.n, 77);
    BlockRun run = write_striped(disks, input);
    auto merge_out = read_run(disks, striped_merge_sort(disks, run, cfg, nullptr));
    EXPECT_TRUE(is_sorted_permutation_of(input, merge_out));
    auto greed_out = read_run(disks, greed_sort(disks, run, cfg, nullptr));
    EXPECT_TRUE(is_sorted_permutation_of(input, greed_out));
}

} // namespace
} // namespace balsort
