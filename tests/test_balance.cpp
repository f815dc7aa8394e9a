// Tests for src/core/balance: the Balance/Rebalance/Rearrange machinery —
// Invariants 1-2 per track, Theorem 4's ~2x bucket-read bound, defer
// policies, matching strategies, aux rules, and record conservation.
#include <gtest/gtest.h>

#include "core/balance.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

struct BalanceRun {
    std::vector<BucketOutput> buckets;
    BalanceStats stats;
    IoStats io;
};

BalanceRun run_balance(std::vector<Record> recs, std::uint32_t d, std::uint32_t dv,
                       std::uint32_t b, std::uint64_t m, std::uint32_t s_target,
                       BalanceOptions opt) {
    DiskArray disks(d, b);
    VirtualDisks vd(disks, dv);
    Parallel pool(2);
    BalanceRun out;
    VectorSource src_for_pivots(recs);
    auto pivots = compute_pivots_sampling(src_for_pivots, recs.size(), m, s_target, pool);
    VectorSource src(recs);
    opt.check_invariants = true; // hard-verify Invariants 1-2 on every track
    const IoStats before = disks.stats();
    out.buckets = balance_pass(src, pivots, vd, m, opt, pool, nullptr, nullptr, &out.stats);
    out.io = disks.stats() - before;
    return out;
}

/// Read every bucket back (via the retained arena disks is awkward; we
/// instead verify conservation on counts and balance on the metadata).
std::uint64_t total_records(const std::vector<BucketOutput>& buckets) {
    std::uint64_t n = 0;
    for (const auto& b : buckets) n += b.run.n_records;
    return n;
}

class BalanceWorkloadTest : public ::testing::TestWithParam<Workload> {};

TEST_P(BalanceWorkloadTest, InvariantsAndConservation) {
    const Workload w = GetParam();
    auto recs = generate(w, 6000, 21);
    auto r = run_balance(recs, /*d=*/8, /*dv=*/4, /*b=*/8, /*m=*/512, /*s=*/4,
                         BalanceOptions{});
    EXPECT_EQ(total_records(r.buckets), recs.size()) << to_string(w);
    EXPECT_TRUE(r.stats.invariant1_held);
    EXPECT_TRUE(r.stats.invariant2_held);
    EXPECT_GT(r.stats.tracks, 0u);
}

std::string test_safe(std::string s) {
    for (char& c : s) {
        if (c == '-') c = '_';
    }
    return s;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, BalanceWorkloadTest,
                         ::testing::ValuesIn(all_workloads()),
                         [](const auto& pinfo) { return test_safe(to_string(pinfo.param)); });

TEST(Balance, Theorem4BucketReadBound) {
    // Every bucket with at least one full round of virtual blocks reads in
    // at most ~2x the optimal number of steps.
    for (Workload w : {Workload::kUniform, Workload::kGaussian, Workload::kZipf,
                       Workload::kSorted}) {
        auto recs = generate(w, 20000, 33);
        auto r = run_balance(recs, 8, 4, 8, 1024, 4, BalanceOptions{});
        for (std::size_t b = 0; b < r.buckets.size(); ++b) {
            const auto& run = r.buckets[b].run;
            if (run.counts.size() < 8) continue; // rounding regime
            const double ratio = static_cast<double>(run.read_steps(8)) /
                                 static_cast<double>(run.optimal_read_steps(8));
            EXPECT_LE(ratio, 2.25) << to_string(w) << " bucket " << b;
        }
    }
}

TEST(Balance, BucketKeyRangesAreDisjointAndOrdered) {
    auto recs = generate(Workload::kUniform, 8000, 5);
    auto r = run_balance(recs, 4, 2, 4, 512, 4, BalanceOptions{});
    std::uint64_t last_max = 0;
    bool first = true;
    for (const auto& b : r.buckets) {
        if (b.run.n_records == 0) continue;
        if (!first) {
            EXPECT_GT(b.min_key, last_max);
        }
        last_max = b.max_key;
        first = false;
        EXPECT_LE(b.min_key, b.max_key);
    }
}

TEST(Balance, EqualClassBucketsAreSingleKey) {
    auto recs = generate(Workload::kDuplicateHeavy, 5000, 8);
    auto r = run_balance(recs, 4, 2, 4, 512, 8, BalanceOptions{});
    for (const auto& b : r.buckets) {
        if (b.is_equal_class && b.run.n_records > 0) {
            EXPECT_EQ(b.min_key, b.max_key);
        }
    }
}

TEST(Balance, MatchingStrategiesAllMaintainInvariants) {
    auto recs = generate(Workload::kGaussian, 10000, 13);
    for (auto strat : {MatchStrategy::kGreedy, MatchStrategy::kRandomized,
                       MatchStrategy::kDerandomized}) {
        BalanceOptions opt;
        opt.matching = strat;
        auto r = run_balance(recs, 8, 4, 4, 512, 4, opt);
        EXPECT_EQ(total_records(r.buckets), recs.size()) << to_string(strat);
        EXPECT_TRUE(r.stats.invariant2_held) << to_string(strat);
    }
}

TEST(Balance, DeferPoliciesBothConverge) {
    auto recs = generate(Workload::kZipf, 12000, 17);
    for (auto defer : {DeferPolicy::kPaperDefer, DeferPolicy::kRebalanceAll}) {
        BalanceOptions opt;
        opt.defer = defer;
        auto r = run_balance(recs, 8, 4, 4, 512, 4, opt);
        EXPECT_EQ(total_records(r.buckets), recs.size());
        EXPECT_TRUE(r.stats.invariant2_held);
        if (defer == DeferPolicy::kRebalanceAll) {
            // Greedy matching + rebalance-all places everything: nothing
            // is ever deferred.
            EXPECT_EQ(r.stats.deferred_blocks, 0u);
        }
    }
}

TEST(Balance, ArgAuxRuleWorksToo) {
    auto recs = generate(Workload::kUniform, 8000, 23);
    BalanceOptions opt;
    opt.aux = AuxRule::kArgTwiceAvg;
    auto r = run_balance(recs, 8, 4, 4, 512, 4, opt);
    EXPECT_EQ(total_records(r.buckets), recs.size());
    // Theorem-4-style bound under the [Arg] rule: factor ~2 of average.
    for (const auto& b : r.buckets) {
        if (b.run.counts.size() < 8) continue;
        const double ratio = static_cast<double>(b.run.read_steps(8)) /
                             static_cast<double>(b.run.optimal_read_steps(8));
        EXPECT_LE(ratio, 2.5);
    }
}

TEST(Balance, LeastLoadedAssignmentReducesMatching) {
    auto recs = generate(Workload::kGaussian, 16000, 29);
    BalanceOptions cyclic;
    cyclic.assign = AssignPolicy::kCyclic;
    auto rc = run_balance(recs, 8, 4, 4, 512, 4, cyclic);
    BalanceOptions least;
    least.assign = AssignPolicy::kLeastLoaded;
    auto rl = run_balance(recs, 8, 4, 4, 512, 4, least);
    EXPECT_EQ(total_records(rl.buckets), recs.size());
    // Least-loaded placement should need at most as much rebalancing.
    EXPECT_LE(rl.stats.matched_blocks + rl.stats.deferred_blocks,
              rc.stats.matched_blocks + rc.stats.deferred_blocks + 8);
}

TEST(Balance, RearrangeRoundsBounded) {
    // Algorithm 5's loop "will thus execute at most twice" per track under
    // the paper defer policy with a quarter-guarantee matcher; allow a
    // small safety margin over the paper's 2 for the deterministic
    // engines' conflict patterns.
    for (Workload w : {Workload::kUniform, Workload::kGaussian, Workload::kZipf}) {
        auto recs = generate(w, 10000, 31);
        BalanceOptions opt;
        opt.defer = DeferPolicy::kPaperDefer;
        auto r = run_balance(recs, 8, 4, 4, 512, 4, opt);
        EXPECT_LE(r.stats.max_rounds_per_track, 3u) << to_string(w);
    }
}

TEST(Balance, WritesOneVBlockPerVdiskPerStep) {
    // I/O accounting: block writes / write steps <= D' per step by the
    // model; with healthy tracks it should also be close to D' on average.
    auto recs = generate(Workload::kUniform, 20000, 37);
    auto r = run_balance(recs, 8, 4, 4, 1024, 4, BalanceOptions{});
    ASSERT_GT(r.io.write_steps, 0u);
    const double blocks_per_step = static_cast<double>(r.io.blocks_written) /
                                   static_cast<double>(r.io.write_steps);
    EXPECT_LE(blocks_per_step, 8.0 + 1e-9); // D physical blocks per step max
    EXPECT_GE(blocks_per_step, 2.0);        // decent utilization
}

TEST(Balance, TinyInputsAndEdgeCases) {
    // Fewer records than one virtual block; single bucket.
    auto recs = generate(Workload::kUniform, 3, 41);
    auto r = run_balance(recs, 4, 2, 4, 64, 2, BalanceOptions{});
    EXPECT_EQ(total_records(r.buckets), 3u);
    // Empty input.
    auto r0 = run_balance({}, 4, 2, 4, 64, 2, BalanceOptions{});
    EXPECT_EQ(total_records(r0.buckets), 0u);
    EXPECT_EQ(r0.stats.tracks, 0u);
}

TEST(Balance, SingleVirtualDisk) {
    auto recs = generate(Workload::kUniform, 2000, 43);
    auto r = run_balance(recs, 4, 1, 4, 256, 4, BalanceOptions{});
    EXPECT_EQ(total_records(r.buckets), recs.size());
    // With one virtual disk the auxiliary matrix is identically zero.
    EXPECT_EQ(r.stats.matched_blocks, 0u);
    EXPECT_EQ(r.stats.deferred_blocks, 0u);
}

// Goldens for the non-default BalanceOptions paths (the pipeline goldens
// run only the defaults): BalanceStats, the step-observer sequence
// (FNV-1a over direction, fan-out and every block address), every bucket's
// key range, counts and block addresses, and the sketch pivots.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

struct BalanceGolden {
    std::uint64_t tracks, direct, matched, deferred, rounds, draws;
    std::uint64_t step_hash, run_hash, sketch_hash;
};

void expect_balance_golden(const char* label, const BalanceOptions& opt,
                           std::uint32_t sketch_child_s, const BalanceGolden& g) {
    constexpr std::uint64_t kOffset = 1469598103934665603ull;
    auto recs = generate(Workload::kGaussian, 10007, 13);
    DiskArray disks(8, 4);
    VirtualDisks vd(disks, 4);
    Parallel pool(2);
    VectorSource src_for_pivots(recs);
    auto pivots = compute_pivots_sampling(src_for_pivots, recs.size(), 512, 4, pool);
    std::uint64_t step_hash = kOffset;
    disks.set_step_observer([&step_hash](bool is_read, std::span<const BlockOp> ops) {
        step_hash = fnv1a(step_hash, is_read ? 1 : 2);
        step_hash = fnv1a(step_hash, ops.size());
        for (const auto& op : ops) {
            step_hash = fnv1a(step_hash, op.disk);
            step_hash = fnv1a(step_hash, op.block);
        }
    });
    VectorSource src(recs);
    BalanceStats stats;
    auto buckets = balance_pass(src, pivots, vd, 512, opt, pool, nullptr, nullptr, &stats,
                                sketch_child_s);
    std::uint64_t run_hash = kOffset;
    std::uint64_t sketch_hash = kOffset;
    for (const auto& b : buckets) {
        run_hash = fnv1a(run_hash, b.min_key);
        run_hash = fnv1a(run_hash, b.max_key);
        run_hash = fnv1a(run_hash, b.run.n_records);
        for (std::uint32_t c : b.run.counts) run_hash = fnv1a(run_hash, c);
        for (const auto& op : b.run.blocks) {
            run_hash = fnv1a(run_hash, op.disk);
            run_hash = fnv1a(run_hash, op.block);
        }
        sketch_hash = fnv1a(sketch_hash, b.has_sketch_pivots ? 1 : 0);
        for (std::uint64_t k : b.sketch_pivots.keys) sketch_hash = fnv1a(sketch_hash, k);
    }
    EXPECT_EQ(stats.tracks, g.tracks) << label;
    EXPECT_EQ(stats.direct_blocks, g.direct) << label;
    EXPECT_EQ(stats.matched_blocks, g.matched) << label;
    EXPECT_EQ(stats.deferred_blocks, g.deferred) << label;
    EXPECT_EQ(stats.rearrange_rounds, g.rounds) << label;
    EXPECT_EQ(stats.match_draws, g.draws) << label;
    EXPECT_EQ(step_hash, g.step_hash) << label;
    EXPECT_EQ(run_hash, g.run_hash) << label;
    EXPECT_EQ(sketch_hash, g.sketch_hash) << label;
}

TEST(BalanceGoldens, NonDefaultOptions) {
    BalanceOptions least;
    least.assign = AssignPolicy::kLeastLoaded;
    expect_balance_golden("least_loaded", least, 0,
                          {318, 1255, 0, 14, 0, 0,
                           13048412238721668764ull, 14269228145720471070ull,
                           5195556152062190627ull});
    BalanceOptions min_cost;
    min_cost.assign = AssignPolicy::kMinCostMatching;
    expect_balance_golden("min_cost", min_cost, 0,
                          {314, 1255, 0, 0, 0, 0,
                           16037035368188795732ull, 10809853807560306138ull,
                           5195556152062190627ull});
    BalanceOptions all;
    all.defer = DeferPolicy::kRebalanceAll;
    expect_balance_golden("rebalance_all", all, 0,
                          {314, 957, 298, 0, 222, 0,
                           17012823781382060018ull, 13169676443599073106ull,
                           5195556152062190627ull});
    BalanceOptions arg;
    arg.aux = AuxRule::kArgTwiceAvg;
    expect_balance_golden("arg_twice_avg", arg, 0,
                          {314, 1255, 0, 1, 0, 0,
                           7446033333136725444ull, 6954167875007015018ull,
                           5195556152062190627ull});
    BalanceOptions randomized;
    randomized.matching = MatchStrategy::kRandomized;
    expect_balance_golden("randomized", randomized, 0,
                          {354, 1111, 144, 160, 78, 280,
                           16319373094225370384ull, 2080176078844337170ull,
                           5195556152062190627ull});
    BalanceOptions derandomized;
    derandomized.matching = MatchStrategy::kDerandomized;
    expect_balance_golden("derandomized", derandomized, 0,
                          {354, 1083, 172, 155, 86, 220,
                           17291030629736127618ull, 11160725485838004786ull,
                           5195556152062190627ull});
    expect_balance_golden("sketch", BalanceOptions{}, 4,
                          {353, 1073, 182, 156, 91, 0,
                           10054889716398002216ull, 6374996991015450754ull,
                           3947612896265367259ull});
}

TEST(Balance, MemorySmallerThanVBlockRejected) {
    auto recs = generate(Workload::kUniform, 100, 47);
    EXPECT_THROW(run_balance(recs, 8, 1, 8, 32, 2, BalanceOptions{}),
                 std::invalid_argument); // vblock = 64 > m = 32
}

} // namespace
} // namespace balsort
