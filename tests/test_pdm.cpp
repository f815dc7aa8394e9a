// Tests for src/pdm: disks (memory & file backed), the D-disk parallel I/O
// step semantics and its model checks, batching, striping, run streaming,
// partial striping (virtual disks), and the PdmConfig formulas.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "pdm/config.hpp"
#include "pdm/disk_array.hpp"
#include "pdm/file_disk.hpp"
#include "pdm/mem_disk.hpp"
#include "pdm/striping.hpp"
#include "util/random.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

std::vector<Record> make_block(std::size_t b, std::uint64_t tag) {
    std::vector<Record> blk(b);
    for (std::size_t i = 0; i < b; ++i) blk[i] = {tag * 100 + i, tag};
    return blk;
}

TEST(MemDisk, ReadBackWhatWasWritten) {
    MemDisk d(8);
    EXPECT_EQ(d.size_blocks(), 0u);
    auto blk = make_block(8, 3);
    d.write_block(2, blk); // grows with zero-filled gap
    EXPECT_EQ(d.size_blocks(), 3u);
    std::vector<Record> out(8);
    d.read_block(2, out);
    EXPECT_EQ(out, blk);
    d.read_block(0, out); // gap block is zero-filled
    EXPECT_EQ(out[0], (Record{0, 0}));
}

TEST(MemDisk, ReadingUnallocatedIsModelViolation) {
    MemDisk d(4);
    std::vector<Record> out(4);
    EXPECT_THROW(d.read_block(0, out), ModelViolation);
    std::vector<Record> small(3);
    EXPECT_THROW(d.read_block(0, small), std::invalid_argument);
}

TEST(FileDisk, RoundTripAndCleanup) {
    const std::string path = "/tmp/balsort_test_disk.bin";
    {
        FileDisk d(path, 16);
        auto blk = make_block(16, 7);
        d.write_block(5, blk);
        std::vector<Record> out(16);
        d.read_block(5, out);
        EXPECT_EQ(out, blk);
        EXPECT_TRUE(std::filesystem::exists(path));
        EXPECT_THROW(d.read_block(6, out), ModelViolation);
    }
    EXPECT_FALSE(std::filesystem::exists(path)); // unlinked on close
}

TEST(FileDisk, MatchesMemDiskBehaviour) {
    MemDisk m(4);
    FileDisk f("/tmp/balsort_parity_disk.bin", 4);
    Xoshiro256 rng(1);
    for (int i = 0; i < 50; ++i) {
        const std::uint64_t idx = rng.below(20);
        auto blk = make_block(4, rng.below(1000));
        m.write_block(idx, blk);
        f.write_block(idx, blk);
    }
    EXPECT_EQ(m.size_blocks(), f.size_blocks());
    std::vector<Record> a(4), b(4);
    for (std::uint64_t i = 0; i < m.size_blocks(); ++i) {
        m.read_block(i, a);
        f.read_block(i, b);
        EXPECT_EQ(a, b) << "block " << i;
    }
}

TEST(DiskArray, StepSemanticsEnforced) {
    DiskArray arr(4, 2);
    std::vector<Record> buf(4);
    // Two ops on the same disk in one step: the D-disk model violation.
    std::vector<BlockOp> bad = {{1, 0}, {1, 1}};
    EXPECT_THROW(arr.write_step(bad, buf), ModelViolation);
    // More ops than disks.
    std::vector<BlockOp> too_many = {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {0, 1}};
    std::vector<Record> buf5(10);
    EXPECT_THROW(arr.write_step(too_many, buf5), ModelViolation);
    // Nonexistent disk.
    std::vector<BlockOp> ghost = {{9, 0}};
    std::vector<Record> buf1(2);
    EXPECT_THROW(arr.write_step(ghost, buf1), std::invalid_argument);
}

TEST(DiskArray, AgvModeAllowsSameDisk) {
    DiskArray arr(4, 2, DiskBackend::kMemory, ".", Constraint::kAggarwalVitter);
    std::vector<Record> buf(4, Record{1, 1});
    std::vector<BlockOp> ops = {{1, 0}, {1, 1}};
    EXPECT_NO_THROW(arr.write_step(ops, buf));
    EXPECT_EQ(arr.stats().write_steps, 1u);
    EXPECT_EQ(arr.stats().blocks_written, 2u);
}

TEST(DiskArray, StatsCountStepsAndBlocks) {
    DiskArray arr(4, 2);
    std::vector<Record> buf(6, Record{5, 5});
    std::vector<BlockOp> ops = {{0, 0}, {2, 0}, {3, 0}};
    arr.write_step(ops, buf);
    EXPECT_EQ(arr.stats().write_steps, 1u);
    EXPECT_EQ(arr.stats().blocks_written, 3u);
    std::vector<Record> in(6);
    arr.read_step(ops, in);
    EXPECT_EQ(arr.stats().read_steps, 1u);
    EXPECT_EQ(arr.stats().io_steps(), 2u);
    EXPECT_EQ(in, buf);
    EXPECT_DOUBLE_EQ(arr.stats().utilization(4), 6.0 / 8.0);
}

TEST(DiskArray, BatchUsesMinimalSteps) {
    DiskArray arr(3, 2);
    // Lay down blocks, one per write step: disk 0 gets 3 blocks, disks 1-2
    // get 1 each.
    std::vector<BlockOp> ops;
    for (std::uint64_t i = 0; i < 3; ++i) ops.push_back({0, i});
    ops.push_back({1, 0});
    ops.push_back({2, 0});
    std::vector<Record> data(ops.size() * 2);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = {i, i};
    for (std::size_t i = 0; i < ops.size(); ++i) {
        arr.write_step({&ops[i], 1}, std::span<const Record>(data).subspan(i * 2, 2));
    }
    std::vector<Record> in(data.size());
    arr.read_batch(ops, in);
    // max-per-disk = 3 -> exactly 3 read steps.
    EXPECT_EQ(arr.stats().read_steps, 3u);
    EXPECT_EQ(in, data);
}

TEST(DiskArray, AllocatorBumpsPerDisk) {
    DiskArray arr(2, 4);
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(arr.allocate(0), i);
    EXPECT_EQ(arr.allocate(1), 0u);
    EXPECT_EQ(arr.high_water(0), 5u);
    EXPECT_EQ(arr.high_water(1), 1u);
}

TEST(DiskArray, StepObserverSeesSteps) {
    DiskArray arr(2, 2);
    int reads = 0, writes = 0;
    arr.set_step_observer([&](bool is_read, std::span<const BlockOp> ops) {
        (is_read ? reads : writes) += static_cast<int>(ops.size());
    });
    std::vector<Record> buf(2, Record{1, 1});
    std::vector<BlockOp> op = {{0, 0}};
    arr.write_step(op, buf);
    std::vector<Record> in(2);
    arr.read_step(op, in);
    EXPECT_EQ(writes, 1);
    EXPECT_EQ(reads, 1);
}

class StripingRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> {};

TEST_P(StripingRoundTrip, WriteThenReadBack) {
    auto [d, b, n] = GetParam();
    DiskArray arr(d, b);
    auto recs = generate(Workload::kUniform, n, n + d + b);
    BlockRun run = write_striped(arr, recs);
    EXPECT_EQ(run.n_records, n);
    EXPECT_EQ(run.n_blocks(), ceil_div(n, b));
    auto out = read_run(arr, run);
    EXPECT_EQ(out, recs);
    // Striped runs read at full parallelism: steps == ceil(blocks / D).
    EXPECT_EQ(run.read_steps(d), run.optimal_read_steps(d));
}

INSTANTIATE_TEST_SUITE_P(Sweep, StripingRoundTrip,
                         ::testing::Combine(::testing::Values(1u, 2u, 4u, 7u),
                                            ::testing::Values(1u, 3u, 8u),
                                            ::testing::Values(std::uint64_t{0},
                                                              std::uint64_t{1},
                                                              std::uint64_t{17},
                                                              std::uint64_t{256})));

TEST(RunWriter, StripesAcrossDisksInOrder) {
    DiskArray arr(4, 2);
    auto recs = generate(Workload::kSorted, 24, 5); // 12 blocks = 3 stripes
    BlockRun run = write_striped(arr, recs);
    ASSERT_EQ(run.blocks.size(), 12u);
    for (std::size_t i = 0; i < run.blocks.size(); ++i) {
        EXPECT_EQ(run.blocks[i].disk, i % 4) << "block " << i;
    }
    // 3 full stripes -> 3 write steps.
    EXPECT_EQ(arr.stats().write_steps, 3u);
}

// The layout depends on the records appended, not on how they were split
// into appends: the streaming driver appends M-record chunks where a
// whole-input append used to be, and must write the same run in the same
// steps.
TEST(RunWriter, LayoutDoesNotDependOnAppendChunks) {
    constexpr std::uint32_t d = 4, b = 8, m = 64;
    const std::size_t stripe = std::size_t{d} * b;
    const auto recs = generate(Workload::kUniform, 1000, 3); // 31 stripes + a ragged tail
    using Ops = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
    auto ops_of = [](std::span<const BlockOp> ops) {
        Ops out;
        for (const BlockOp& op : ops) out.emplace_back(op.disk, op.block);
        return out;
    };
    struct Layout {
        Ops blocks;
        std::vector<std::pair<bool, Ops>> steps;
        std::vector<Record> back;
    };
    for (const bool synchronized : {false, true}) {
        auto lay_out = [&](std::size_t chunk) {
            DiskArray arr(d, b);
            Layout l;
            arr.set_step_observer([&l, &ops_of](bool is_read, std::span<const BlockOp> ops) {
                l.steps.emplace_back(is_read, ops_of(ops));
            });
            RunWriter w(arr, 0, synchronized);
            for (std::size_t off = 0; off < recs.size(); off += chunk) {
                w.append(std::span(recs).subspan(off, std::min(chunk, recs.size() - off)));
                EXPECT_LT(w.buffer().size(), stripe) << "chunk " << chunk;
                EXPECT_EQ(w.buffer().size(), std::min(off + chunk, recs.size()) % stripe);
            }
            const BlockRun run = w.finish();
            l.blocks = ops_of(run.blocks);
            l.back = read_run(arr, run);
            return l;
        };
        const Layout whole = lay_out(recs.size());
        EXPECT_EQ(whole.back, recs);
        for (const std::size_t chunk : {std::size_t{m}, std::size_t{1}, std::size_t{b - 1},
                                        stripe + 1}) {
            const Layout l = lay_out(chunk);
            EXPECT_EQ(l.blocks, whole.blocks) << "chunk " << chunk << " sync " << synchronized;
            EXPECT_EQ(l.steps, whole.steps) << "chunk " << chunk << " sync " << synchronized;
            EXPECT_EQ(l.back, whole.back) << "chunk " << chunk << " sync " << synchronized;
        }
    }
}

TEST(RunWriter, AppendAfterFinishThrows) {
    DiskArray arr(2, 2);
    RunWriter w(arr);
    w.append(Record{1, 1});
    (void)w.finish();
    EXPECT_THROW(w.append(Record{2, 2}), std::invalid_argument);
    EXPECT_THROW(w.finish(), std::invalid_argument);
}

TEST(RunReader, ChunkedReadsAnySize) {
    DiskArray arr(3, 4);
    auto recs = generate(Workload::kUniform, 101, 77);
    BlockRun run = write_striped(arr, recs);
    for (std::uint64_t chunk : {1ull, 2ull, 5ull, 13ull, 101ull}) {
        RunReader r(arr, run);
        std::vector<Record> out;
        std::vector<Record> buf;
        while (r.remaining() > 0) {
            buf.resize(std::min<std::uint64_t>(chunk, r.remaining()));
            const auto got = r.read(buf);
            out.insert(out.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(got));
        }
        EXPECT_EQ(out, recs) << "chunk=" << chunk;

        // The same chunks as views into the reader's carry.
        RunReader v(arr, run);
        std::vector<Record> viewed;
        while (v.remaining() > 0) {
            const std::uint64_t expect = std::min(chunk, v.remaining());
            const std::span<const Record> view = v.next(chunk);
            EXPECT_EQ(view.size(), expect) << "chunk=" << chunk;
            viewed.insert(viewed.end(), view.begin(), view.end());
        }
        EXPECT_TRUE(v.next(chunk).empty());
        EXPECT_EQ(viewed, recs) << "chunk=" << chunk;
    }
}

/// What one read-through of a run produced: the records, and every charged
/// step as the step observer saw it ("r 0:3 1:3" = a read of block 3 on
/// disks 0 and 1).
struct ReadThrough {
    std::vector<Record> records;
    std::vector<std::string> steps;
};

/// With `views`, the records come through next() instead of read(), and
/// every view must be exactly min(chunk, remaining()) long.
template <class Run>
ReadThrough read_through(DiskArray& arr, const Run& run, std::uint64_t chunk,
                         std::uint64_t staged = 0, bool views = false) {
    ReadThrough t;
    arr.set_step_observer([&t](bool is_read, std::span<const BlockOp> ops) {
        std::string step = is_read ? "r" : "w";
        for (const BlockOp& op : ops) {
            step += " " + std::to_string(op.disk) + ":" + std::to_string(op.block);
        }
        t.steps.push_back(step);
    });
    {
        RunReader r(arr, run);
        if (staged > 0) {
            EXPECT_EQ(r.start_prefetch(staged), arr.async_enabled());
            EXPECT_TRUE(t.steps.empty()) << "start_prefetch charged before the first read()";
        }
        std::vector<Record> buf;
        while (r.remaining() > 0) {
            const std::uint64_t want = std::min(chunk, r.remaining());
            std::span<const Record> got;
            if (views) {
                got = r.next(chunk);
            } else {
                buf.resize(want);
                got = std::span<const Record>(buf).first(r.read(buf));
            }
            EXPECT_EQ(got.size(), want);
            t.records.insert(t.records.end(), got.begin(), got.end());
        }
    }
    arr.set_step_observer(nullptr);
    return t;
}

/// Every run layout goes through the one RunReader: a striped BlockRun
/// (g = 1, every block full but the tail) and VRuns built by write_track at
/// g = 1, 2, 4 whose virtual blocks carry ragged valid counts. Any chunk
/// size returns the valid records in run order, and the worker executor
/// charges exactly the steps the inline executor does, staged or not.
/// Views (next()) return the same records with the same step sequence as
/// copies (read()), the leftover of a ragged fetch carrying into the next
/// view.
TEST(RunReader, OneReaderForStripedAndVirtualRuns) {
    constexpr std::uint32_t kD = 4;
    constexpr std::uint32_t kB = 8;
    DiskArray arr(kD, kB);
    auto check = [&](const auto& run, const std::vector<Record>& expect, const char* what) {
        for (const std::uint64_t chunk :
             {std::uint64_t{1}, std::uint64_t{kB - 1}, std::uint64_t{kB},
              std::uint64_t{3 * kB + 1}, run.n_records}) {
            arr.set_async(false);
            const ReadThrough inline_read = read_through(arr, run, chunk);
            arr.set_async(true);
            const ReadThrough worker_read = read_through(arr, run, chunk);
            arr.set_async(false);
            EXPECT_EQ(inline_read.records, expect) << what << " chunk=" << chunk;
            EXPECT_EQ(worker_read.records, expect) << what << " chunk=" << chunk;
            EXPECT_EQ(worker_read.steps, inline_read.steps) << what << " chunk=" << chunk;
            for (const bool async : {false, true}) {
                arr.set_async(async);
                const ReadThrough viewed = read_through(arr, run, chunk, 0, /*views=*/true);
                arr.set_async(false);
                EXPECT_EQ(viewed.records, expect) << what << " views chunk=" << chunk;
                EXPECT_EQ(viewed.steps, inline_read.steps) << what << " views chunk=" << chunk;
            }
        }
    };

    const std::vector<Record> striped_recs = generate(Workload::kUniform, 8 * kB * kD + 5, 41);
    const BlockRun striped = write_striped(arr, striped_recs);
    check(striped, striped_recs, "striped");
    // Staging a striped run charges nothing until the first read().
    arr.set_async(true);
    const ReadThrough staged = read_through(arr, striped, 3 * kB + 1, /*staged=*/2 * kB);
    arr.set_async(false);
    EXPECT_EQ(staged.records, striped_recs);
    EXPECT_EQ(staged.steps, read_through(arr, striped, 3 * kB + 1).steps);
    arr.set_async(true);
    const ReadThrough staged_views = read_through(arr, striped, 3 * kB + 1, 2 * kB, true);
    arr.set_async(false);
    EXPECT_EQ(staged_views.records, striped_recs);
    EXPECT_EQ(staged_views.steps, staged.steps);

    for (const std::uint32_t g : {1u, 2u, 4u}) {
        VirtualDisks vd(arr, kD / g);
        const std::uint32_t v = vd.vblock_records();
        const std::vector<Record> data = generate(Workload::kUniform, 11 * v, 50 + g);
        // Eleven virtual blocks, round-robin over the vdisks in tracks of up
        // to D'; block 4 is short, and so is the final block.
        const std::vector<std::uint32_t> counts = {v, v, v, v, v / 2 + 1, v, v, v, v, v, 3};
        VRun run;
        std::vector<Record> expect;
        std::uint32_t h = 0;
        for (std::size_t k = 0; k < counts.size();) {
            const std::size_t n = std::min<std::size_t>(vd.count(), counts.size() - k);
            std::vector<std::uint32_t> vds(n);
            for (auto& x : vds) x = h++ % vd.count();
            const std::vector<BlockOp> ops = vd.write_track(
                vds, std::span<const Record>(data).subspan(k * v, n * v));
            for (std::size_t j = 0; j < n; ++j, ++k) {
                run.append(std::span<const BlockOp>(ops).subspan(j * g, g), counts[k]);
                expect.insert(expect.end(), data.begin() + static_cast<std::ptrdiff_t>(k * v),
                              data.begin() + static_cast<std::ptrdiff_t>(k * v + counts[k]));
            }
        }
        EXPECT_EQ(run.group(), g);
        EXPECT_EQ(run.n_records, expect.size());
        check(run, expect, ("g=" + std::to_string(g)).c_str());
    }
}

TEST(VirtualDisks, DefaultCountIsDivisorNearCubeRoot) {
    EXPECT_EQ(VirtualDisks::default_virtual_count(1), 1u);
    EXPECT_EQ(VirtualDisks::default_virtual_count(8), 2u);
    EXPECT_EQ(VirtualDisks::default_virtual_count(64), 4u);
    EXPECT_EQ(VirtualDisks::default_virtual_count(27), 3u);
    // Always a divisor:
    for (std::uint32_t d = 1; d <= 64; ++d) {
        EXPECT_EQ(d % VirtualDisks::default_virtual_count(d), 0u) << d;
    }
    // Exponent 1.0 means full independence (D' = D).
    EXPECT_EQ(VirtualDisks::default_virtual_count(12, 1.0), 12u);
}

TEST(VirtualDisks, RejectsNonDivisor) {
    DiskArray arr(6, 2);
    EXPECT_THROW(VirtualDisks(arr, 4), std::invalid_argument);
    EXPECT_THROW(VirtualDisks(arr, 0), std::invalid_argument);
    EXPECT_NO_THROW(VirtualDisks(arr, 3));
}

TEST(VirtualDisks, WriteTrackIsOneStepAndReadsBack) {
    DiskArray arr(8, 2);
    VirtualDisks vd(arr, 2); // group = 4, vblock = 8 records
    EXPECT_EQ(vd.group_size(), 4u);
    EXPECT_EQ(vd.vblock_records(), 8u);
    auto recs = generate(Workload::kUniform, 16, 3);
    std::vector<std::uint32_t> vds = {0, 1};
    const std::vector<BlockOp> ops = vd.write_track(vds, recs);
    EXPECT_EQ(arr.stats().write_steps, 1u);
    EXPECT_EQ(arr.stats().blocks_written, 8u);
    std::vector<Record> out(16);
    arr.read_batch(ops, out);
    EXPECT_EQ(out, recs);
    EXPECT_EQ(arr.stats().read_steps, 1u);
}

TEST(VirtualDisks, DuplicateVdiskInTrackIsViolation) {
    DiskArray arr(4, 2);
    VirtualDisks vd(arr, 2);
    auto recs = generate(Workload::kUniform, 8, 4);
    std::vector<std::uint32_t> vds = {1, 1};
    EXPECT_THROW(vd.write_track(vds, recs), ModelViolation);
}

TEST(VirtualDisks, BatchedVblockReadsMinimalSteps) {
    DiskArray arr(4, 2);
    VirtualDisks vd(arr, 2); // group 2, vblock = 4 records
    // Write 3 vblocks on vdisk 0, 1 on vdisk 1 (4 tracks... do 3 tracks).
    std::vector<BlockOp> all;
    auto recs = generate(Workload::kUniform, 4, 5);
    for (int i = 0; i < 3; ++i) {
        std::vector<std::uint32_t> vds = {0};
        const std::vector<BlockOp> ops = vd.write_track(vds, recs);
        all.insert(all.end(), ops.begin(), ops.end());
    }
    {
        std::vector<std::uint32_t> vds = {1};
        const std::vector<BlockOp> ops = vd.write_track(vds, recs);
        all.insert(all.end(), ops.begin(), ops.end());
    }
    const auto before = arr.stats().read_steps;
    std::vector<Record> out(16);
    arr.read_batch(all, out);
    // 3 vblocks on vdisk 0 gate the batch: 3 steps.
    EXPECT_EQ(arr.stats().read_steps - before, 3u);
}

TEST(PdmConfig, Validation) {
    PdmConfig ok{.n = 1000, .m = 64, .d = 4, .b = 8, .p = 2};
    EXPECT_NO_THROW(ok.validate());
    EXPECT_NO_THROW(ok.validate(true));
    PdmConfig big_db{.n = 1000, .m = 64, .d = 8, .b = 8, .p = 2}; // DB > M/2
    EXPECT_THROW(big_db.validate(), std::invalid_argument);
    PdmConfig bad_p{.n = 1000, .m = 64, .d = 4, .b = 8, .p = 100}; // P > M
    EXPECT_THROW(bad_p.validate(), std::invalid_argument);
    PdmConfig internal{.n = 50, .m = 64, .d = 4, .b = 8, .p = 1}; // N <= M
    EXPECT_NO_THROW(internal.validate());
    EXPECT_THROW(internal.validate(true), std::invalid_argument);
}

TEST(PdmConfig, FormulasMatchHand) {
    PdmConfig cfg{.n = 1 << 20, .m = 1 << 16, .d = 8, .b = 64, .p = 1};
    // optimal = (N/DB) * log(N/B) / log(M/B) = 2048 * 14/10.
    EXPECT_NEAR(cfg.optimal_ios(), 2048.0 * 14.0 / 10.0, 1e-6);
    EXPECT_NEAR(cfg.optimal_work(), static_cast<double>(1 << 20) * 20.0, 1e-6);
    EXPECT_EQ(cfg.blocks(), (1u << 20) / 64);
    EXPECT_EQ(cfg.memoryloads(), 16u);
    EXPECT_GT(cfg.striped_merge_ios(), 2.0 * 2048.0); // at least 2 passes
}

TEST(IoStats, Arithmetic) {
    IoStats a{10, 5, 100, 50};
    IoStats b{4, 2, 40, 20};
    IoStats d = a - b;
    EXPECT_EQ(d.read_steps, 6u);
    EXPECT_EQ(d.io_steps(), 9u);
    b += d;
    EXPECT_EQ(b.read_steps, a.read_steps);
    d.reset();
    EXPECT_EQ(d.io_steps(), 0u);
}

TEST(FileBackedArray, EndToEndRoundTrip) {
    DiskArray arr(4, 8, DiskBackend::kFile, "/tmp");
    auto recs = generate(Workload::kUniform, 500, 12);
    BlockRun run = write_striped(arr, recs);
    auto out = read_run(arr, run);
    EXPECT_EQ(out, recs);
}

} // namespace
} // namespace balsort
