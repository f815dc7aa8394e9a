// Tests for the crash-consistency and I/O-deadline layer (DESIGN.md §13):
// checkpoint record serialization and file framing, atomic replacement
// (the .tmp orphan guard), DiskArray snapshot/restore, the release
// quarantine, seeded hang faults, and the deadline -> TimedOutIo -> parity
// failover path with its recovery-side accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/balance_sort.hpp"
#include "core/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "pdm/disk_array.hpp"
#include "pdm/faulty_disk.hpp"
#include "pdm/mem_disk.hpp"
#include "pdm/striping.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

namespace fs = std::filesystem;

std::string tmp_path(const char* name) {
    return (fs::temp_directory_path() / name).string();
}

std::vector<Record> make_block(std::size_t b, std::uint64_t tag) {
    std::vector<Record> blk(b);
    for (std::size_t i = 0; i < b; ++i) blk[i] = {tag * 100 + i, tag};
    return blk;
}

/// Block index of the live bucket's first virtual block in rich_record().
constexpr std::uint64_t kLiveBlockTag = 0x5a5a000000000000ull;

/// A checkpoint record exercising every optional branch of the codec:
/// multiple frames (with and without buckets), consumed/equal-class/
/// sketch-pivot/repositioned buckets, a live emit buffer, nonzero meters,
/// and a real array snapshot with fault state and checksum sidecars.
CheckpointRecord rich_record() {
    CheckpointRecord rec;
    rec.seq = 17;
    rec.resumes = 2;
    rec.n = 4096;
    rec.m = 512;
    rec.p = 4;
    rec.d = 4;
    rec.b = 8;
    rec.dv = 2;
    rec.backend = 1;
    rec.synchronized_writes = 1;

    CheckpointFrame root;
    root.n = 4096;
    root.depth = 0;
    root.has_pivots = true;
    root.pivots.keys = {10, 20, 30};
    root.has_buckets = true;
    root.next_bucket = 2;
    root.buckets.emplace_back(); // consumed: serialized empty
    BucketOutput live;
    // Five virtual blocks of g = d/dv = 2 ops each, alternating vdisks 1
    // and 0 as Balance would write them: 4 full blocks of 16 records and a
    // 13-record tail. The block indices are distinctive so tests can find
    // them in the encoded payload.
    for (std::uint32_t k = 0; k < 5; ++k) {
        const std::uint32_t h = (k + 1) % 2;
        const std::array<BlockOp, 2> ops{BlockOp{2 * h, kLiveBlockTag + k},
                                         BlockOp{2 * h + 1, kLiveBlockTag + k}};
        live.run.append(ops, k < 4 ? 16 : 13);
    }
    live.min_key = 21;
    live.max_key = 29;
    live.has_sketch_pivots = true;
    live.sketch_pivots.keys = {23, 27};
    live.repositioned = true;
    root.buckets.push_back(live);
    BucketOutput eq;
    eq.is_equal_class = true;
    eq.min_key = eq.max_key = 30;
    root.buckets.push_back(eq);
    rec.frames.push_back(root);

    CheckpointFrame child;
    child.n = 77;
    child.depth = 1;
    child.has_pivots = true;
    child.pivots.keys = {24};
    rec.frames.push_back(child); // pivots only: balance not yet run

    rec.out_run.blocks = {{0, 0}, {1, 0}, {2, 0}};
    rec.out_run.n_records = 24;
    rec.out_buffer = {{1, 2}, {3, 4}, {5, 6}};
    rec.out_next_disk = 3;

    rec.comparisons = 1000;
    rec.moves = 2000;
    rec.collectives = 30;
    rec.pram_steps = 400;
    rec.io_delta.read_steps = 50;
    rec.io_delta.write_steps = 40;
    rec.io_delta.blocks_read = 180;
    rec.io_delta.blocks_written = 150;
    rec.io_delta.transient_retries = 3;
    rec.io_delta.io_timeouts = 1;
    rec.io_delta.engine_busy_seconds = 0.25;

    rec.levels = 2;
    rec.s_used = 3;
    rec.base_cases = 5;
    rec.equal_class_records = 12;
    rec.max_bucket_records = 1500;
    rec.bucket_bound = 2048;
    rec.worst_bucket_read_ratio = 1.25;
    rec.balance.tracks = 64;
    rec.balance.direct_blocks = 100;
    rec.balance.invariant1_held = true;
    rec.balance.invariant2_held = true;

    // A real snapshot (fault layer + checksums + parity) beats a
    // hand-built one: it covers the layers' actual export paths.
    FaultTolerance ft;
    ft.inject.seed = 99;
    ft.inject.read_transient_rate = 0.1;
    ft.checksums = true;
    ft.parity = true;
    DiskArray disks(2, 4, DiskBackend::kMemory, ".", Constraint::kIndependentDisks, ft);
    for (std::uint32_t d = 0; d < 2; ++d) {
        const std::uint64_t blk = disks.allocate(d);
        BlockOp op{d, blk};
        auto data = make_block(4, d + 1);
        disks.write_step({&op, 1}, data);
    }
    disks.release(0, disks.allocate(0)); // populate a free list
    rec.disks = disks.snapshot();
    return rec;
}

TEST(CheckpointCodec, RoundTripsEveryField) {
    const CheckpointRecord rec = rich_record();
    const std::vector<std::uint8_t> payload = encode_checkpoint(rec);
    const CheckpointRecord back = decode_checkpoint(payload.data(), payload.size());
    // Spot-check structure, then pin full equality via re-encoding.
    EXPECT_EQ(back.seq, 17u);
    EXPECT_EQ(back.resumes, 2u);
    ASSERT_EQ(back.frames.size(), 2u);
    EXPECT_EQ(back.frames[0].next_bucket, 2u);
    ASSERT_EQ(back.frames[0].buckets.size(), 3u);
    EXPECT_EQ(back.frames[0].buckets[0].run.n_records, 0u); // consumed
    EXPECT_EQ(back.frames[0].buckets[1].run.n_records, 77u);
    EXPECT_TRUE(back.frames[0].buckets[1].repositioned);
    EXPECT_TRUE(back.frames[0].buckets[1].has_sketch_pivots);
    EXPECT_TRUE(back.frames[0].buckets[2].is_equal_class);
    EXPECT_FALSE(back.frames[1].has_buckets);
    EXPECT_EQ(back.out_buffer.size(), 3u);
    EXPECT_EQ(back.io_delta.io_timeouts, 1u);
    EXPECT_DOUBLE_EQ(back.io_delta.engine_busy_seconds, 0.25);
    ASSERT_EQ(back.disks.disks.size(), 2u);
    EXPECT_TRUE(back.disks.has_parity_sidecar);
    EXPECT_EQ(encode_checkpoint(back), payload);
}

/// Offset of the first op's block index of live virtual block `k` in an
/// encoded rich_record() payload.
std::size_t live_block_offset(const std::vector<std::uint8_t>& payload, std::uint32_t k) {
    const std::uint64_t tag = kLiveBlockTag + k;
    std::uint8_t pattern[sizeof tag];
    std::memcpy(pattern, &tag, sizeof tag);
    const auto it = std::search(payload.begin(), payload.end(), pattern, pattern + sizeof tag);
    EXPECT_NE(it, payload.end());
    return static_cast<std::size_t>(it - payload.begin());
}

// A bucket run is a flat op list with an implied group size, so the
// decoder must refuse a record whose virtual blocks the flat layout cannot
// express: a ragged op count, or a vdisk that disagrees with the first
// op's disk. Both are corruption, reported as IoError (never an abort).
TEST(CheckpointCodec, RejectsUnrealizableBucketRuns) {
    const std::vector<std::uint8_t> payload = encode_checkpoint(rich_record());
    ASSERT_NO_THROW(decode_checkpoint(payload.data(), payload.size()));
    // Layout per virtual block: u32 vdisk, u64 op count, (u32 disk, u64
    // block) per op, u32 count.
    {
        std::vector<std::uint8_t> bad = payload;
        const std::size_t vdisk_at = live_block_offset(bad, 0) - 16;
        ASSERT_EQ(bad[vdisk_at], 1u);
        bad[vdisk_at] = 0; // ops sit on disks 2-3, i.e. vdisk 1
        EXPECT_THROW(decode_checkpoint(bad.data(), bad.size()), IoError);
    }
    {
        // Second virtual block keeps one of its two ops: 2 ops, then 1.
        std::vector<std::uint8_t> bad = payload;
        const std::size_t block_at = live_block_offset(bad, 1);
        const std::size_t n_ops_at = block_at - 12;
        ASSERT_EQ(bad[n_ops_at], 2u);
        bad[n_ops_at] = 1;
        const auto second_op = bad.begin() + static_cast<std::ptrdiff_t>(block_at + 8);
        bad.erase(second_op, second_op + 12);
        EXPECT_THROW(decode_checkpoint(bad.data(), bad.size()), IoError);
    }
}

TEST(CheckpointFile, AtomicWriteThenLoad) {
    const std::string path = tmp_path("balsort_ck_roundtrip.ck");
    const CheckpointRecord rec = rich_record();
    write_checkpoint_atomic(path, rec);
    EXPECT_FALSE(fs::exists(path + ".tmp")) << "tmp file must not outlive the rename";
    const CheckpointRecord back = load_checkpoint(path);
    EXPECT_EQ(encode_checkpoint(back), encode_checkpoint(rec));
    // Overwrite in place: the atomic-replace path, not create-new.
    CheckpointRecord rec2 = rec;
    rec2.seq = 18;
    write_checkpoint_atomic(path, rec2);
    EXPECT_EQ(load_checkpoint(path).seq, 18u);
    fs::remove(path);
}

// Satellite: the RAII unlink guard. When the durable-replace protocol
// fails after the tmp file exists (here: the final rename hits a
// directory squatting on the target path), the guard must remove the
// orphan instead of leaking one scratch file per crash-loop iteration.
TEST(CheckpointFile, FailedRenameLeavesNoTmpOrphan) {
    const std::string path = tmp_path("balsort_ck_squatter");
    fs::remove_all(path);
    fs::create_directory(path); // rename(tmp, path) will fail
    EXPECT_THROW(write_checkpoint_atomic(path, rich_record()), IoError);
    EXPECT_FALSE(fs::exists(path + ".tmp")) << "orphaned tmp after failed rename";
    fs::remove_all(path);
}

TEST(CheckpointFile, LoadRejectsMissingTruncatedAndCorrupt) {
    const std::string path = tmp_path("balsort_ck_corrupt.ck");
    fs::remove(path);
    EXPECT_THROW(load_checkpoint(path), IoError); // missing

    write_checkpoint_atomic(path, rich_record());
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 32u);

    auto rewrite = [&](const std::vector<char>& img) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(img.data(), static_cast<std::streamsize>(img.size()));
    };

    std::vector<char> truncated(bytes.begin(), bytes.begin() + static_cast<long>(bytes.size() / 2));
    rewrite(truncated);
    EXPECT_THROW(load_checkpoint(path), IoError);

    std::vector<char> flipped = bytes;
    flipped[bytes.size() - 1] ^= 0x40; // payload corruption -> CRC mismatch
    rewrite(flipped);
    EXPECT_THROW(load_checkpoint(path), IoError);

    std::vector<char> badmagic = bytes;
    badmagic[0] ^= 0xff;
    rewrite(badmagic);
    EXPECT_THROW(load_checkpoint(path), IoError);

    rewrite(bytes); // pristine image still loads
    EXPECT_NO_THROW(load_checkpoint(path));
    fs::remove(path);
}

// ------------------------------------------------------- array snapshot

TEST(DiskArraySnapshotTest, RestoreRewindsAllocatorHealthAndSidecars) {
    FaultTolerance ft;
    ft.inject.seed = 7;
    ft.inject.read_transient_rate = 0.05;
    ft.checksums = true;
    DiskArray disks(2, 4, DiskBackend::kMemory, ".", Constraint::kIndependentDisks, ft);

    const std::uint64_t b0 = disks.allocate(0);
    BlockOp op{0, b0};
    auto data = make_block(4, 42);
    disks.write_step({&op, 1}, data);
    disks.release(0, disks.allocate(0)); // one free-listed block
    const DiskArraySnapshot snap = disks.snapshot();
    const std::uint64_t hw0 = disks.high_water(0);
    const std::uint64_t free0 = disks.free_blocks(0);

    // Diverge: burn allocator space, RNG draws, and checksum slots.
    for (int i = 0; i < 5; ++i) {
        const std::uint64_t nb = disks.allocate(1);
        BlockOp w{1, nb};
        auto d2 = make_block(4, 50 + static_cast<std::uint64_t>(i));
        disks.write_step({&w, 1}, d2);
    }
    std::vector<Record> out(4);
    disks.read_step({&op, 1}, out);

    disks.restore(snap);
    EXPECT_EQ(disks.high_water(0), hw0);
    EXPECT_EQ(disks.free_blocks(0), free0);
    // The restored snapshot re-exports identically (fault RNG streams
    // included) — the property resume relies on.
    const DiskArraySnapshot again = disks.snapshot();
    ASSERT_EQ(again.disks.size(), snap.disks.size());
    for (std::size_t d = 0; d < snap.disks.size(); ++d) {
        EXPECT_EQ(again.disks[d].next_free, snap.disks[d].next_free);
        EXPECT_EQ(again.disks[d].free_blocks, snap.disks[d].free_blocks);
        ASSERT_EQ(again.disks[d].has_fault_state, snap.disks[d].has_fault_state);
        if (snap.disks[d].has_fault_state) {
            EXPECT_EQ(again.disks[d].fault_state.read_rng, snap.disks[d].fault_state.read_rng);
            EXPECT_EQ(again.disks[d].fault_state.ops, snap.disks[d].fault_state.ops);
        }
    }
    // The original block still reads back clean through the restored
    // checksum sidecar.
    disks.read_step({&op, 1}, out);
    EXPECT_EQ(out, data);
}

// ------------------------------------------------------ release quarantine

TEST(ReleaseQuarantine, ParksReleasesUntilDurableBoundary) {
    DiskArray disks(2, 4);
    const std::uint64_t a = disks.allocate(0);
    const std::uint64_t b = disks.allocate(0);
    EXPECT_EQ(b, a + 1);

    disks.set_release_quarantine(true);
    disks.release(0, a);
    // Parked, not free: the allocator must not hand the block back out.
    EXPECT_EQ(disks.free_blocks(0), 0u);
    EXPECT_EQ(disks.allocate(0), b + 1);

    disks.flush_release_quarantine();
    EXPECT_EQ(disks.free_blocks(0), 1u);
    EXPECT_EQ(disks.allocate(0), a); // shallow reuse resumes

    // Turning the quarantine off flushes stragglers.
    disks.release(0, b);
    EXPECT_EQ(disks.free_blocks(0), 0u);
    disks.set_release_quarantine(false);
    EXPECT_EQ(disks.free_blocks(0), 1u);
}

// ------------------------------------------------------------- hang faults

TEST(HangFaults, DeterministicScheduleAndCleanCompletion) {
    FaultSpec spec;
    spec.seed = 5;
    spec.hang_every_ops = 3;
    spec.hang_duration_us = 200; // long enough to count, short enough to test
    FaultInjectingDisk disk(std::make_unique<MemDisk>(4), spec, 0);
    auto blk = make_block(4, 1);
    disk.write_block(0, blk);
    std::vector<Record> out(4);
    for (int i = 0; i < 9; ++i) disk.read_block(0, out);
    // Reads 3, 6, 9 hang; the hang clock never counts writes.
    EXPECT_EQ(disk.injected_hangs(), 3u);
    EXPECT_EQ(out, blk) << "a hung read still completes successfully";

    // State export/import resumes the same schedule mid-stream.
    const FaultInjectingDisk::State st = disk.export_state();
    FaultInjectingDisk disk2(std::make_unique<MemDisk>(4), spec, 0);
    disk2.write_block(0, blk);
    disk2.import_state(st);
    for (int i = 0; i < 3; ++i) disk2.read_block(0, out);
    EXPECT_EQ(disk2.injected_hangs(), 4u); // read 12 of the logical stream
}

TEST(HangFaults, RateBasedStreamIndependentOfOtherFaultKinds) {
    // Enabling hangs must not perturb the transient-fault sequence of the
    // same seed: the streams are separate by construction.
    FaultSpec plain;
    plain.seed = 11;
    plain.read_transient_rate = 0.3;
    FaultSpec hanging = plain;
    hanging.read_hang_rate = 0.5;
    hanging.hang_duration_us = 1;

    auto run = [](const FaultSpec& spec) {
        FaultInjectingDisk d(std::make_unique<MemDisk>(4), spec, 2);
        auto blk = make_block(4, 3);
        d.write_block(1, blk);
        std::vector<Record> out(4);
        std::vector<bool> errs;
        for (int i = 0; i < 40; ++i) {
            try {
                d.read_block(1, out);
                errs.push_back(false);
            } catch (const TransientIoError&) {
                errs.push_back(true);
            }
        }
        return std::pair(errs, d.injected_hangs());
    };
    const auto [errs_plain, hangs_plain] = run(plain);
    const auto [errs_hang, hangs_hang] = run(hanging);
    EXPECT_EQ(errs_plain, errs_hang);
    EXPECT_EQ(hangs_plain, 0u);
    EXPECT_GT(hangs_hang, 0u);
}

// ---------------------------------------------- deadline -> parity failover

TEST(DeadlineFailover, TimedOutReadsServedFromParityWithCleanModelCounts) {
    PdmConfig cfg{.n = 4096, .m = 512, .d = 4, .b = 8, .p = 2};
    auto input = generate(Workload::kUniform, cfg.n, 42);

    // Deadlines are a worker-executor feature: both arrays run on it.
    SortJobConfig opt;
    SortReport plain_rep;
    std::vector<Record> plain;
    {
        DiskArray disks(cfg.d, cfg.b);
        disks.set_async(true);
        plain = balance_sort_records(disks, input, cfg, opt, &plain_rep);
    }

    FaultTolerance ft;
    ft.inject.seed = 13;
    ft.inject.hang_every_ops = 60;      // a handful of hangs per disk
    ft.inject.hang_duration_us = 30000; // 30ms: far past the deadline
    ft.deadline_us = 2000;              // 2ms read deadline
    ft.parity = true;                    // failover target
    ft.checksums = true;
    SortReport rep;
    MetricsRegistry reg;
    SortJobConfig mopt = opt;
    mopt.obs_policy.metrics = &reg;
    DiskArray disks(cfg.d, cfg.b, DiskBackend::kMemory, ".", Constraint::kIndependentDisks, ft);
    disks.set_async(true);
    const std::vector<Record> sorted = balance_sort_records(disks, input, cfg, mopt, &rep);

    // Deadlines fired and were served by reconstruction, not by waiting.
    EXPECT_GT(rep.io.io_timeouts, 0u);
    EXPECT_GT(rep.io.reconstructions, 0u);
#ifndef BALSORT_NO_OBS
    EXPECT_EQ(reg.counter("io.timeouts").value(), rep.io.io_timeouts);
#endif
    // The paper's measure is untouched by recovery traffic, and the output
    // is the correct sort.
    EXPECT_EQ(rep.io.read_steps, plain_rep.io.read_steps);
    EXPECT_EQ(rep.io.write_steps, plain_rep.io.write_steps);
    EXPECT_EQ(sorted, plain);
    // No disk was declared dead: slow is not failed.
    EXPECT_EQ(rep.disks_failed, 0u);
}

TEST(DeadlineFailover, BackoffJitterKeepsRetrySequenceDeterministic) {
    // Jitter scales sleeps, never decisions: two identical runs with
    // jitter on retry identically and sort identically.
    PdmConfig cfg{.n = 2048, .m = 512, .d = 4, .b = 8, .p = 2};
    auto input = generate(Workload::kZipf, cfg.n, 9);
    FaultTolerance ft;
    ft.inject.seed = 21;
    ft.inject.read_transient_rate = 0.01;
    ft.inject.write_transient_rate = 0.01;
    ft.backoff_base_us = 1;
    ft.backoff_jitter = true;
    auto run = [&](SortReport& rep) {
        DiskArray disks(cfg.d, cfg.b, DiskBackend::kMemory, ".",
                        Constraint::kIndependentDisks, ft);
        return balance_sort_records(disks, input, cfg, {}, &rep);
    };
    SortReport r1, r2;
    const auto s1 = run(r1);
    const auto s2 = run(r2);
    EXPECT_GT(r1.io.transient_retries, 0u);
    EXPECT_EQ(r1.io.transient_retries, r2.io.transient_retries);
    EXPECT_EQ(r1.io.io_steps(), r2.io.io_steps());
    EXPECT_EQ(s1, s2);
    std::vector<Record> expect = input;
    std::stable_sort(expect.begin(), expect.end(),
                     [](const Record& a, const Record& b) { return a.key < b.key; });
    EXPECT_EQ(s1, expect);
}

} // namespace
} // namespace balsort
