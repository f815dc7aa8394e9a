// Tests for src/core/block_fill: the one block distributor behind Balance
// and the randomized baseline — ready order, deferral order, padded tails
// and the fixed arena bound.
#include <gtest/gtest.h>

#include "baselines/rand_dist.hpp"
#include "core/balance_sort.hpp"
#include "core/block_fill.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

std::vector<Record> keyed(std::initializer_list<std::uint64_t> keys) {
    std::vector<Record> out;
    for (std::uint64_t k : keys) out.push_back(Record{k, out.size()});
    return out;
}

/// Five buckets: (<100), (==100), (100,200), (==200), (>200).
const PivotSet& two_pivots() {
    static const PivotSet p{{100, 200}};
    return p;
}

std::vector<std::uint32_t> ready_buckets(const BlockFill& fill) {
    std::vector<std::uint32_t> out;
    for (const auto& blk : fill.ready) out.push_back(blk.bucket);
    return out;
}

TEST(BlockFill, ReadyOrderIsCompletionOrder) {
    DiskArray disks(4, 2);
    VirtualDisks vd(disks, 2); // V = 4
    Parallel pool(2);
    BlockFill fill(vd, two_pivots(), 64, nullptr);
    const auto chunk = keyed({150, 150, 150, 50, 60, 70, 80, 160, 250, 260, 270, 280, 100});
    const auto idx = fill.scatter(chunk, pool);
    EXPECT_EQ(std::vector<std::uint32_t>(idx.begin(), idx.end()),
              (std::vector<std::uint32_t>{2, 2, 2, 0, 0, 0, 0, 2, 4, 4, 4, 4, 1}));
    // Bucket 2 opened first but bucket 0 filled first.
    EXPECT_EQ(ready_buckets(fill), (std::vector<std::uint32_t>{0, 2, 4}));
    for (const auto& blk : fill.ready) EXPECT_EQ(blk.count, 4u);
    EXPECT_EQ(fill.buckets[0].min_key, 50u);
    EXPECT_EQ(fill.buckets[0].max_key, 80u);
    EXPECT_EQ(fill.buckets[2].min_key, 150u);
    EXPECT_EQ(fill.buckets[2].max_key, 160u);
    EXPECT_EQ(fill.buckets[3].min_key, ~std::uint64_t{0}); // untouched
    fill.flush_tails();
    EXPECT_EQ(ready_buckets(fill), (std::vector<std::uint32_t>{0, 2, 4, 1}));
    EXPECT_EQ(fill.ready.back().count, 1u);
}

TEST(BlockFill, DeferredBlocksComeBackInBalanceOrder) {
    DiskArray disks(4, 2);
    VirtualDisks vd(disks, 2);
    Parallel pool(1);
    BlockFill fill(vd, two_pivots(), 64, nullptr);
    (void)fill.scatter(keyed({1, 2, 3, 4, 150, 151, 152, 153, 250, 251, 252, 253, 5, 6, 7, 8}),
                       pool);
    ASSERT_EQ(ready_buckets(fill), (std::vector<std::uint32_t>{0, 2, 4, 0}));
    // A track takes the first three; Balance defers its offenders by
    // push_front in pending order (here track positions 0 then 2), so the
    // last one deferred is placed first next time.
    std::vector<BlockFill::Block> track(fill.ready.begin(), fill.ready.begin() + 3);
    fill.ready.erase(fill.ready.begin(), fill.ready.begin() + 3);
    fill.ready.push_front(track[0]);
    fill.ready.push_front(track[2]);
    ASSERT_EQ(fill.ready.size(), 3u);
    EXPECT_EQ(fill.ready[0].slot, track[2].slot);
    EXPECT_EQ(fill.ready[1].slot, track[0].slot);
    EXPECT_EQ(ready_buckets(fill), (std::vector<std::uint32_t>{4, 0, 0}));
}

TEST(BlockFill, PartialTailsCarryTheirCountAndPad) {
    DiskArray disks(4, 2);
    VirtualDisks vd(disks, 2); // V = 4, g = 2
    Parallel pool(2);
    BlockFill fill(vd, two_pivots(), 64, nullptr);
    const auto chunk = keyed({10, 11, 12, 13, 14, 150, 151, 100, 100, 100});
    (void)fill.scatter(chunk, pool);
    fill.flush_tails();
    // Bucket 0: one full block then a 1-record tail; bucket 1: 3; bucket 2: 2.
    ASSERT_EQ(ready_buckets(fill), (std::vector<std::uint32_t>{0, 0, 1, 2}));
    std::vector<BlockFill::Block> step(fill.ready.begin(), fill.ready.end());
    fill.ready.clear();
    // Two steps of two blocks (distinct vdisks within a step).
    const std::vector<std::uint32_t> vds{0, 1};
    fill.write(std::span<const BlockFill::Block>(step).subspan(0, 2), vds);
    fill.write(std::span<const BlockFill::Block>(step).subspan(2, 2), vds);
    EXPECT_EQ(fill.buckets[0].run.counts, (std::vector<std::uint32_t>{4, 1}));
    EXPECT_EQ(fill.buckets[1].run.counts, (std::vector<std::uint32_t>{3}));
    EXPECT_EQ(fill.buckets[2].run.counts, (std::vector<std::uint32_t>{2}));
    EXPECT_EQ(fill.buckets[0].run.n_records, 5u);
    const std::vector<std::vector<Record>> expect_valid{
        {chunk[0], chunk[1], chunk[2], chunk[3], chunk[4]},
        {chunk[7], chunk[8], chunk[9]},
        {chunk[5], chunk[6]}};
    for (std::uint32_t b = 0; b < 3; ++b) {
        const VRun& run = fill.buckets[b].run;
        std::vector<Record> raw(run.blocks.size() * disks.block_size());
        disks.read_batch(run.blocks, raw);
        std::size_t next = 0;
        for (std::size_t u = 0; u < run.counts.size(); ++u) {
            for (std::uint32_t i = 0; i < 4; ++i) {
                const Record& r = raw[u * 4 + i];
                if (i < run.counts[u]) {
                    EXPECT_EQ(r, expect_valid[b][next++]) << "bucket " << b;
                } else {
                    EXPECT_EQ(r, kPadRecord) << "bucket " << b << " unit " << u;
                }
            }
        }
        EXPECT_EQ(next, expect_valid[b].size());
    }
}

TEST(BlockFill, WorstCaseRefillFitsTheArena) {
    // Before a refill: D'-1 = 1 block ready and all S = 5 buckets one
    // record short of a block. The memoryload then completes 18 blocks and
    // leaves every bucket a slot open: 1 + 18 + 5 = 24 slots in use, more
    // than ⌈M/V⌉ + S + D' = 23, within the arena's ⌈M/V⌉ + 2S + D' = 28.
    DiskArray disks(4, 2);
    VirtualDisks vd(disks, 2); // V = 4, D' = 2
    Parallel pool(1);
    BlockFill fill(vd, two_pivots(), 64, nullptr);
    (void)fill.scatter(keyed({1, 2, 3, 4, 5, 6, 7, 100, 100, 100, 150, 151, 152, 200, 200, 200,
                              250, 251, 252}),
                       pool);
    ASSERT_EQ(fill.ready.size(), 1u);
    std::vector<Record> load;
    for (const auto& [key, n] : {std::pair<std::uint64_t, int>{10, 14}, {100, 14}, {150, 14},
                                 {200, 10}, {250, 12}}) {
        for (int i = 0; i < n; ++i) load.push_back(Record{key, load.size()});
    }
    ASSERT_EQ(load.size(), 64u);
    ASSERT_NO_THROW((void)fill.scatter(load, pool));
    EXPECT_EQ(fill.ready.size(), 19u);
    fill.flush_tails();
    EXPECT_EQ(fill.ready.size(), 24u);
}

TEST(BlockFill, OverfillingTheArenaIsAModelViolation) {
    // A caller that keeps refilling without writing breaks the refill rule:
    // the arena does not grow, the model check fires.
    DiskArray disks(4, 2);
    VirtualDisks vd(disks, 2);
    Parallel pool(1);
    BlockFill fill(vd, two_pivots(), 16, nullptr);
    std::vector<Record> load(16, Record{10, 0});
    EXPECT_THROW(
        {
            for (int i = 0; i < 16; ++i) (void)fill.scatter(load, pool);
        },
        ModelViolation);
}

struct BoundShape {
    std::uint32_t d, dv, b;
    std::uint64_t m;
};

class BlockFillBoundTest : public ::testing::TestWithParam<Workload> {};

TEST_P(BlockFillBoundTest, SkewedInputsStayWithinTheSlotBound) {
    const Workload w = GetParam();
    // D' = 8 with g = 1 and g = 2, at the bucket count balance_sort picks.
    for (const BoundShape sh : {BoundShape{8, 8, 4, 1024}, BoundShape{16, 8, 4, 16384}}) {
        const PdmConfig cfg{.n = 4 * sh.m, .m = sh.m, .d = sh.d, .b = sh.b, .p = 2};
        DiskArray disks(sh.d, sh.b);
        VirtualDisks vd(disks, sh.dv);
        const std::uint32_t s = default_bucket_count(cfg, vd.vblock_records());
        auto recs = generate(w, cfg.n, 3);
        Parallel pool(2);
        VectorSource pivot_src(recs);
        const PivotSet pivots = compute_pivots_sampling(pivot_src, cfg.n, cfg.m, s, pool);
        VectorSource src(recs);
        BalanceOptions opt;
        opt.check_invariants = true;
        std::vector<BucketOutput> out;
        ASSERT_NO_THROW(out = balance_pass(src, pivots, vd, cfg.m, opt, pool))
            << to_string(w) << " D=" << sh.d;
        std::uint64_t n = 0;
        for (const auto& b : out) n += b.run.n_records;
        EXPECT_EQ(n, cfg.n) << to_string(w);
    }
    // The randomized baseline distributes through the same arena.
    const PdmConfig cfg{.n = 20000, .m = 1024, .d = 8, .b = 4, .p = 1};
    DiskArray disks(cfg.d, cfg.b);
    const auto input = generate(w, cfg.n, 5);
    const BlockRun run = write_striped(disks, input);
    EXPECT_NO_THROW((void)rand_dist_sort(disks, run, cfg, 9, nullptr)) << to_string(w);
}

INSTANTIATE_TEST_SUITE_P(Skewed, BlockFillBoundTest,
                         ::testing::Values(Workload::kAllEqual, Workload::kSorted,
                                           Workload::kOrganPipe, Workload::kZipf),
                         [](const auto& pinfo) {
                             std::string s = to_string(pinfo.param);
                             for (char& c : s) {
                                 if (c == '-') c = '_';
                             }
                             return s;
                         });

} // namespace
} // namespace balsort
