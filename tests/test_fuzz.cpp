// Differential fuzzing: random machine shapes x random workloads x random
// option combinations, every algorithm cross-checked against std::sort.
// These tests are the repository's last line of defence: any silent
// record loss, ordering bug, or model violation under an untested
// parameter interaction surfaces here.
#include <gtest/gtest.h>

#include "baselines/greed_sort.hpp"
#include "baselines/rand_dist.hpp"
#include "baselines/striped_merge.hpp"
#include "core/balance_sort.hpp"
#include "core/hier_sort.hpp"
#include "util/random.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

struct FuzzCase {
    PdmConfig cfg;
    Workload workload;
    std::uint64_t seed;
};

FuzzCase random_case(Xoshiro256& rng) {
    FuzzCase f;
    f.cfg.d = 1 + static_cast<std::uint32_t>(rng.below(12));
    f.cfg.b = 1 + static_cast<std::uint32_t>(rng.below(12));
    const std::uint64_t min_m = 2ull * f.cfg.d * f.cfg.b;
    f.cfg.m = min_m + rng.below(512);
    f.cfg.n = 1 + rng.below(6000);
    f.cfg.p = 1 + static_cast<std::uint32_t>(rng.below(4));
    f.workload = all_workloads()[rng.below(all_workloads().size())];
    f.seed = rng();
    return f;
}

std::vector<Record> reference_sorted(std::vector<Record> v) {
    std::stable_sort(v.begin(), v.end(), KeyLess{});
    return v;
}

void expect_same_keys(const std::vector<Record>& got, const std::vector<Record>& want,
                      const std::string& label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].key, want[i].key) << label << " position " << i;
    }
}

TEST(Fuzz, BalanceSortRandomOptionMatrix) {
    Xoshiro256 rng(0xBA1A);
    for (int trial = 0; trial < 60; ++trial) {
        FuzzCase f = random_case(rng);
        auto input = generate(f.workload, f.cfg.n, f.seed);
        auto want = reference_sorted(input);
        SortJobConfig opt;
        opt.balance_opts.matching =
            static_cast<MatchStrategy>(rng.below(3));
        opt.balance_opts.aux = static_cast<AuxRule>(rng.below(2));
        opt.balance_opts.defer = static_cast<DeferPolicy>(rng.below(2));
        opt.balance_opts.assign = static_cast<AssignPolicy>(rng.below(3));
        opt.pivot_method = static_cast<PivotMethod>(rng.below(2));
        (void)rng.below(2); // keeps every trial's later draws fixed
        opt.io_policy.synchronized_writes = rng.below(2) == 1;
        opt.reposition_buckets = rng.below(2) == 1;
        opt.balance_opts.check_invariants = opt.balance_opts.aux == AuxRule::kPaperMedian;
        opt.balance_opts.seed = rng();
        DiskArray disks(f.cfg.d, f.cfg.b);
        std::vector<Record> sorted;
        ASSERT_NO_THROW(sorted = balance_sort_records(disks, input, f.cfg, opt, nullptr))
            << "trial " << trial << " n=" << f.cfg.n << " m=" << f.cfg.m << " d=" << f.cfg.d
            << " b=" << f.cfg.b << " w=" << to_string(f.workload);
        expect_same_keys(sorted, want,
                         "balance trial " + std::to_string(trial) + " w=" +
                             to_string(f.workload));
        ASSERT_TRUE(is_sorted_permutation_of(input, sorted)) << "trial " << trial;
    }
}

TEST(Fuzz, BaselinesRandomShapes) {
    Xoshiro256 rng(0xF00D);
    for (int trial = 0; trial < 30; ++trial) {
        FuzzCase f = random_case(rng);
        auto input = generate(f.workload, f.cfg.n, f.seed);
        auto want = reference_sorted(input);
        const int which = static_cast<int>(rng.below(4));
        DiskArray disks(f.cfg.d, f.cfg.b);
        BlockRun run = write_striped(disks, input);
        std::vector<Record> sorted;
        std::string label;
        switch (which) {
            case 0:
                label = "striped_merge";
                sorted = read_run(disks, striped_merge_sort(disks, run, f.cfg, nullptr));
                break;
            case 1:
                label = "greed";
                sorted = read_run(disks, greed_sort(disks, run, f.cfg, nullptr));
                break;
            case 2:
                label = "greed_approx";
                sorted = read_run(disks, greed_sort_approximate(disks, run, f.cfg, nullptr));
                break;
            default:
                label = "rand_dist";
                sorted = read_run(disks, rand_dist_sort(disks, run, f.cfg, rng(), nullptr));
                break;
        }
        expect_same_keys(sorted, want,
                         label + " trial " + std::to_string(trial) + " n=" +
                             std::to_string(f.cfg.n) + " d=" + std::to_string(f.cfg.d) +
                             " b=" + std::to_string(f.cfg.b) + " m=" +
                             std::to_string(f.cfg.m) + " w=" + to_string(f.workload));
    }
}

TEST(Fuzz, HierarchyRandomModels) {
    Xoshiro256 rng(0x41EB);
    for (int trial = 0; trial < 20; ++trial) {
        HierSortConfig cfg;
        cfg.h = std::uint32_t{1} << (2 + rng.below(5)); // 4..64
        const int family = static_cast<int>(rng.below(3));
        const double alpha = 0.25 + 0.25 * static_cast<double>(rng.below(7));
        switch (family) {
            case 0:
                cfg.model = rng.below(2) == 0 ? HierModelSpec::hmm(CostFn::log())
                                              : HierModelSpec::hmm(CostFn::power(alpha));
                break;
            case 1:
                cfg.model = rng.below(2) == 0 ? HierModelSpec::bt(CostFn::log())
                                              : HierModelSpec::bt(CostFn::power(alpha));
                break;
            default:
                cfg.model = HierModelSpec::umh(2.0 + rng.below(7),
                                               rng.below(2) == 0 ? 1.0 : 0.5);
                break;
        }
        cfg.interconnect = static_cast<Interconnect>(rng.below(3));
        const std::uint64_t n = 1 + rng.below(4000);
        const Workload w = all_workloads()[rng.below(all_workloads().size())];
        auto input = generate(w, n, rng());
        auto want = reference_sorted(input);
        HierSortReport rep;
        auto sorted = hier_sort(input, cfg, &rep);
        expect_same_keys(sorted, want,
                         cfg.model.name() + " trial " + std::to_string(trial) + " h=" +
                             std::to_string(cfg.h) + " n=" + std::to_string(n));
        EXPECT_TRUE(rep.mechanics.balance.invariant2_held) << "trial " << trial;
    }
}

TEST(Fuzz, RepeatedSortsOnOneArrayWithReleases) {
    // Allocator stress: many sorts sharing one array, each releasing its
    // bucket space; inputs must stay intact and outputs correct.
    Xoshiro256 rng(0xCAFE);
    PdmConfig cfg{.n = 0, .m = 512, .d = 6, .b = 4, .p = 1};
    DiskArray disks(cfg.d, cfg.b);
    std::vector<std::pair<BlockRun, std::vector<Record>>> kept;
    for (int round = 0; round < 10; ++round) {
        cfg.n = 500 + rng.below(3000);
        auto input = generate(all_workloads()[round % all_workloads().size()], cfg.n, round);
        BlockRun run = write_striped(disks, input);
        auto sorted = read_run(disks, balance_sort(disks, run, cfg, {}, nullptr));
        ASSERT_TRUE(is_sorted_permutation_of(input, sorted)) << "round " << round;
        kept.emplace_back(run, input);
    }
    // All earlier inputs still readable and intact (released blocks never
    // overlapped live ones).
    for (const auto& [run, input] : kept) {
        EXPECT_EQ(read_run(disks, run), input);
    }
}

} // namespace
} // namespace balsort
