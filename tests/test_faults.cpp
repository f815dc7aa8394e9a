// Tests for the fault-tolerance layer (DESIGN.md §8): CRC32 + checksummed
// blocks, deterministic fault injection, FileDisk error paths, and the
// DiskArray recovery ladder — bounded retry, parity reconstruction,
// degraded-mode reads/writes after a permanent single-disk failure — up to
// a full balance_sort surviving a seeded fault storm bit-for-bit
// reproducibly.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "core/balance_sort.hpp"
#include "pdm/checksum.hpp"
#include "pdm/disk_array.hpp"
#include "pdm/faulty_disk.hpp"
#include "pdm/file_disk.hpp"
#include "pdm/mem_disk.hpp"
#include "pdm/striping.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

std::vector<Record> make_block(std::size_t b, std::uint64_t tag) {
    std::vector<Record> blk(b);
    for (std::size_t i = 0; i < b; ++i) blk[i] = {tag * 100 + i, tag};
    return blk;
}

// ---------------------------------------------------------------- checksum

TEST(Crc32, KnownVector) {
    // The canonical CRC-32 check value: crc32("123456789") = 0xcbf43926.
    const char msg[] = "123456789";
    EXPECT_EQ(crc32(msg, 9), 0xcbf43926u);
    EXPECT_EQ(crc32(msg, 0), 0u);
}

TEST(ChecksummedDisk, RoundTripAndGapBlocksPass) {
    ChecksummedDisk d(std::make_unique<MemDisk>(4), 0);
    auto blk = make_block(4, 9);
    d.write_block(3, blk); // blocks 0-2 become zero-filled gaps, no CRC
    std::vector<Record> out(4);
    d.read_block(3, out);
    EXPECT_EQ(out, blk);
    EXPECT_NO_THROW(d.read_block(0, out)); // gap: unverified pass-through
    EXPECT_TRUE(d.has_checksum(3));
    EXPECT_FALSE(d.has_checksum(0));
}

TEST(ChecksummedDisk, DetectsCorruptionUnderneath) {
    ChecksummedDisk d(std::make_unique<MemDisk>(4), 7);
    d.write_block(0, make_block(4, 1));
    // Corrupt the stored image below the checksum layer.
    auto evil = make_block(4, 1);
    evil[2].key ^= 1;
    d.inner().write_block(0, evil);
    std::vector<Record> out(4);
    try {
        d.read_block(0, out);
        FAIL() << "corruption not detected";
    } catch (const CorruptBlock& e) {
        EXPECT_EQ(e.disk(), 7u);
        EXPECT_EQ(e.block(), 0u);
    }
}

TEST(ChecksummedDisk, MarkLostInvalidatesUntilRewritten) {
    ChecksummedDisk d(std::make_unique<MemDisk>(2), 0);
    auto blk = make_block(2, 5);
    d.write_block(1, blk);
    d.mark_lost(1);
    std::vector<Record> out(2);
    EXPECT_THROW(d.read_block(1, out), CorruptBlock);
    d.write_block(1, blk); // a successful rewrite clears the flag
    EXPECT_NO_THROW(d.read_block(1, out));
    EXPECT_EQ(out, blk);
}

// ---------------------------------------------------------- fault injector

/// A MemDisk with blocks [0, n) already written, so a faulted (dropped)
/// write never leaves a later read pointing at an unallocated block.
std::unique_ptr<MemDisk> prefilled_disk(std::uint64_t n, std::size_t b) {
    auto d = std::make_unique<MemDisk>(b);
    const auto blk = make_block(b, 0);
    for (std::uint64_t i = 0; i < n; ++i) d->write_block(i, blk);
    return d;
}

/// Drive `n_ops` alternating writes/reads, recording which ops faulted.
std::vector<int> fault_trace(FaultInjectingDisk& d, int n_ops) {
    std::vector<int> trace;
    auto blk = make_block(4, 1);
    std::vector<Record> out(4);
    for (int i = 0; i < n_ops; ++i) {
        try {
            if (i % 2 == 0) {
                d.write_block(static_cast<std::uint64_t>(i) / 2, blk);
            } else {
                d.read_block(static_cast<std::uint64_t>(i) / 2, out);
            }
            trace.push_back(0);
        } catch (const TransientIoError&) {
            trace.push_back(1);
        } catch (const DiskFailed&) {
            trace.push_back(2);
        }
    }
    return trace;
}

TEST(FaultInjectingDisk, SameSeedSameFaultSequence) {
    FaultSpec spec;
    spec.seed = 42;
    spec.read_transient_rate = 0.2;
    spec.write_transient_rate = 0.2;
    FaultInjectingDisk a(prefilled_disk(200, 4), spec, 3);
    FaultInjectingDisk b(prefilled_disk(200, 4), spec, 3);
    const auto ta = fault_trace(a, 400);
    const auto tb = fault_trace(b, 400);
    EXPECT_EQ(ta, tb);
    EXPECT_GT(a.injected_read_errors() + a.injected_write_errors(), 0u);
    EXPECT_EQ(a.injected_read_errors(), b.injected_read_errors());
    EXPECT_EQ(a.injected_write_errors(), b.injected_write_errors());

    // A different seed gives a different sequence (with 400 ops at rate
    // .2, collision probability is negligible).
    spec.seed = 43;
    FaultInjectingDisk c(prefilled_disk(200, 4), spec, 3);
    EXPECT_NE(fault_trace(c, 400), ta);

    // Different disk ids decorrelate too.
    spec.seed = 42;
    FaultInjectingDisk e(prefilled_disk(200, 4), spec, 4);
    EXPECT_NE(fault_trace(e, 400), ta);
}

TEST(FaultInjectingDisk, DiesPermanentlyAfterConfiguredOps) {
    FaultSpec spec;
    spec.seed = 7;
    spec.die_after_ops = 10;
    FaultInjectingDisk d(std::make_unique<MemDisk>(4), spec, 0);
    auto blk = make_block(4, 2);
    for (std::uint64_t i = 0; i < 10; ++i) EXPECT_NO_THROW(d.write_block(i, blk));
    EXPECT_TRUE(d.alive());
    EXPECT_THROW(d.write_block(10, blk), DiskFailed);
    EXPECT_FALSE(d.alive());
    std::vector<Record> out(4);
    EXPECT_THROW(d.read_block(0, out), DiskFailed); // dead forever
    EXPECT_EQ(d.size_blocks(), 10u);                // metadata survives death
}

TEST(FaultInjectingDisk, SilentCorruptionIsCaughtByChecksumLayer) {
    for (const bool torn : {true, false}) {
        FaultSpec spec;
        spec.seed = 11;
        if (torn) {
            spec.torn_write_rate = 1.0;
        } else {
            spec.bit_flip_rate = 1.0;
        }
        ChecksummedDisk d(
            std::make_unique<FaultInjectingDisk>(std::make_unique<MemDisk>(8), spec, 0), 0);
        d.write_block(0, make_block(8, 3)); // silently corrupted below
        std::vector<Record> out(8);
        EXPECT_THROW(d.read_block(0, out), CorruptBlock) << (torn ? "torn" : "flip");
    }
}

// ------------------------------------------------------- FileDisk hardening

TEST(FileDisk, HugeBlockIndexIsRejectedNotWrapped) {
    FileDisk d("/tmp/balsort_overflow_test.bin", 4);
    auto blk = make_block(4, 1);
    // index * block_bytes would overflow off_t: must throw, not wrap into
    // a bogus small offset.
    EXPECT_THROW(d.write_block(std::uint64_t{1} << 60, blk), std::invalid_argument);
}

TEST(FileDisk, TruncatedFileReadsAsCorruptNotErrno) {
    const std::string path = "/tmp/balsort_truncate_test.bin";
    FileDisk d(path, 4);
    d.write_block(0, make_block(4, 1));
    ASSERT_EQ(::truncate(path.c_str(), 0), 0);
    std::vector<Record> out(4);
    // EOF inside an allocated block is lost data (CorruptBlock), and the
    // message names the block and offset rather than a stale errno.
    try {
        d.read_block(0, out);
        FAIL() << "truncated read did not throw";
    } catch (const CorruptBlock& e) {
        EXPECT_NE(std::string(e.what()).find("block 0"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("byte offset 0"), std::string::npos);
    }
}

TEST(FileDisk, UnallocatedReadIsStillModelViolation) {
    FileDisk d("/tmp/balsort_model_test.bin", 4);
    std::vector<Record> out(4);
    EXPECT_THROW(d.read_block(0, out), ModelViolation);
}

// ------------------------------------------------------ DiskArray recovery

FaultTolerance transient_ft(double rate, std::uint64_t seed) {
    FaultTolerance ft;
    ft.inject.seed = seed;
    ft.inject.read_transient_rate = rate;
    ft.inject.write_transient_rate = rate;
    ft.max_retries = 8;
    return ft;
}

TEST(DiskArrayFaults, TransientErrorsAreRetriedInvisibly) {
    FaultTolerance ft = transient_ft(0.2, 99);
    DiskArray arr(4, 8, DiskBackend::kMemory, ".", Constraint::kIndependentDisks, ft);
    auto recs = generate(Workload::kUniform, 400, 5);
    BlockRun run = write_striped(arr, recs);
    EXPECT_EQ(read_run(arr, run), recs);
    EXPECT_GT(arr.stats().transient_retries, 0u);
    // Model accounting is untouched by recovery: steps as if fault-free.
    DiskArray clean(4, 8);
    BlockRun crun = write_striped(clean, recs);
    (void)read_run(clean, crun);
    EXPECT_EQ(arr.stats().io_steps(), clean.stats().io_steps());
}

TEST(DiskArrayFaults, WithoutParityDeathPropagates) {
    FaultTolerance ft;
    ft.inject.seed = 1;
    ft.inject.die_after_ops = 4;
    ft.die_disk = 1;
    DiskArray arr(2, 4, DiskBackend::kMemory, ".", Constraint::kIndependentDisks, ft);
    auto recs = generate(Workload::kUniform, 64, 6);
    EXPECT_THROW(
        {
            BlockRun run = write_striped(arr, recs);
            (void)read_run(arr, run);
        },
        DiskFailed);
}

TEST(DiskArrayFaults, ParityReconstructsManuallyCorruptedBlock) {
    FaultTolerance ft;
    ft.checksums = true;
    ft.parity = true;
    DiskArray arr(4, 4, DiskBackend::kMemory, ".", Constraint::kIndependentDisks, ft);
    auto recs = generate(Workload::kUniform, 64, 7);
    BlockRun run = write_striped(arr, recs);
    // reconstruct_block must agree with the stored data for every block.
    std::vector<Record> direct(4), rebuilt(4);
    for (const auto& op : run.blocks) {
        arr.disk_for_testing(op.disk).read_block(op.block, direct);
        arr.reconstruct_block(op.disk, op.block, rebuilt);
        EXPECT_EQ(direct, rebuilt) << "disk " << op.disk << " block " << op.block;
    }
}

TEST(DiskArrayFaults, SilentBitRotIsDetectedReconstructedAndScrubbed) {
    FaultTolerance ft;
    ft.checksums = true;
    ft.parity = true;
    DiskArray arr(4, 8, DiskBackend::kMemory, ".", Constraint::kIndependentDisks, ft);
    auto recs = generate(Workload::kUniform, 512, 8);
    BlockRun run = write_striped(arr, recs);
    // Flip one bit *underneath* the checksum layer on disk 1, block 2 —
    // silent corruption the way a real device would rot.
    auto& cs = dynamic_cast<ChecksummedDisk&>(arr.disk_for_testing(1));
    std::vector<Record> img(8);
    cs.inner().read_block(2, img);
    img[5].payload ^= std::uint64_t{1} << 17;
    cs.inner().write_block(2, img);

    EXPECT_EQ(read_run(arr, run), recs); // CRC catches it, parity rebuilds it
    EXPECT_EQ(arr.stats().corrupt_blocks, 1u);
    EXPECT_EQ(arr.stats().reconstructions, 1u);
    EXPECT_EQ(arr.health(1).corrupt_blocks, 1u);

    // The scrub wrote the corrected image back: a raw re-read of the inner
    // device now matches the CRC again, so a second pass is recovery-free.
    EXPECT_EQ(read_run(arr, run), recs);
    EXPECT_EQ(arr.stats().reconstructions, 1u);
}

TEST(DiskArrayFaults, SingleDiskDeathServedInDegradedMode) {
    FaultTolerance ft;
    ft.inject.seed = 31;
    ft.inject.die_after_ops = 12;
    ft.die_disk = 2;
    ft.checksums = true;
    ft.parity = true;
    DiskArray arr(4, 4, DiskBackend::kMemory, ".", Constraint::kIndependentDisks, ft);
    auto recs = generate(Workload::kUniform, 400, 9);
    BlockRun run = write_striped(arr, recs); // disk 2 dies part-way through
    EXPECT_EQ(read_run(arr, run), recs);     // every lost block reconstructed
    EXPECT_FALSE(arr.health(2).alive);
    EXPECT_TRUE(arr.health(0).alive);
    EXPECT_GT(arr.stats().degraded_writes, 0u);
    EXPECT_GT(arr.stats().reconstructions, 0u);
    EXPECT_GT(arr.health(2).reconstructions, 0u);
}

TEST(DiskArrayFaults, ParityCarriedBlockOfDeadDiskIsADoubleFailureForPeers) {
    FaultTolerance ft;
    ft.inject.seed = 31;
    ft.inject.die_after_ops = 12;
    ft.die_disk = 2;
    ft.checksums = true;
    ft.parity = true;
    DiskArray arr(4, 4, DiskBackend::kMemory, ".", Constraint::kIndependentDisks, ft);
    auto recs = generate(Workload::kUniform, 400, 9);
    BlockRun run = write_striped(arr, recs); // disk 2 dies part-way through
    ASSERT_FALSE(arr.health(2).alive);
    ASSERT_GT(arr.health(2).degraded_writes, 0u);

    // A stripe written after the death: disk 2's image there was absorbed
    // by parity (degraded write) and exists nowhere else.
    const std::uint64_t stored = arr.disk_for_testing(2).size_blocks();
    std::uint64_t carried = ~std::uint64_t{0};
    for (const auto& op : run.blocks) {
        if (op.disk == 2 && op.block >= stored) {
            carried = op.block;
            break;
        }
    }
    ASSERT_NE(carried, ~std::uint64_t{0});

    // The carried block itself reconstructs fine — that is degraded mode.
    std::vector<Record> buf(4);
    arr.reconstruct_block(2, carried, buf);

    // But reconstructing a *peer* at that stripe needs the carried image,
    // which cannot be read back from the dead disk. Treating it as zeros
    // (the never-written convention) would return garbage with a clean
    // checksum; it must surface as a double failure instead.
    EXPECT_THROW(arr.reconstruct_block(0, carried, buf), UnrecoverableIo);
}

TEST(DiskArrayFaults, ParityRequiresIndependentDisks) {
    FaultTolerance ft;
    ft.parity = true;
    EXPECT_THROW(DiskArray(4, 2, DiskBackend::kMemory, ".", Constraint::kAggarwalVitter, ft),
                 std::invalid_argument);
}

// --- inline executor: a failed op is recovered before the next op runs ---
//
// With rate faults on every disk and a budget of one retry, the order of a
// disk's reads decides which of them exhausts the budget. Reconstructing
// op 0 of a read step reads every peer, and later ops of the same step read
// those peers too — so the step's outcome, recovery counters and
// fault-stream positions pin the order the ladder runs in. They must equal
// a replay of op-then-ladder order on standalone injectors seeded like the
// array's data disks.

/// Standalone injectors seeded like a DiskArray's data disks, block 0
/// written once on each, replaying reads under the array's retry budget.
struct LadderReplay {
    std::vector<std::unique_ptr<FaultInjectingDisk>> disks;
    std::vector<std::uint64_t> retries;
    std::uint64_t reconstructions = 0;
    std::uint32_t max_retries;

    LadderReplay(const FaultTolerance& ft, std::uint32_t d, std::size_t b)
        : retries(d, 0), max_retries(ft.max_retries) {
        for (std::uint32_t i = 0; i < d; ++i) {
            disks.push_back(
                std::make_unique<FaultInjectingDisk>(std::make_unique<MemDisk>(b), ft.inject, i));
            disks.back()->write_block(0, make_block(b, i));
        }
    }
    /// One retried read of block 0; false once the budget is exhausted.
    bool read(std::uint32_t d) {
        std::vector<Record> out(disks[d]->block_size());
        for (std::uint32_t attempt = 0;; ++attempt) {
            try {
                disks[d]->read_block(0, out);
                return true;
            } catch (const TransientIoError&) {
                if (attempt >= max_retries) return false;
                ++retries[d];
            }
        }
    }
    /// Parity reconstruction of disk `d`: every peer is read in disk order;
    /// false on a double failure.
    bool reconstruct(std::uint32_t d) {
        for (std::uint32_t peer = 0; peer < disks.size(); ++peer) {
            if (peer != d && !read(peer)) return false;
        }
        ++reconstructions;
        return true;
    }
    /// Op then its ladder, op by op: the inline executor's order.
    bool step_op_then_ladder() {
        for (std::uint32_t d = 0; d < disks.size(); ++d) {
            if (!read(d) && !reconstruct(d)) return false;
        }
        return true;
    }
    /// Every op, then the ladders: a batch recovered once it completed.
    bool step_ops_then_ladders() {
        std::vector<bool> ok;
        for (std::uint32_t d = 0; d < disks.size(); ++d) ok.push_back(read(d));
        for (std::uint32_t d = 0; d < disks.size(); ++d) {
            if (!ok[d] && !reconstruct(d)) return false;
        }
        return true;
    }
};

TEST(DiskArrayFaults, InlineLadderRunsBeforeTheNextOp) {
    constexpr std::uint32_t kD = 3;
    constexpr std::uint32_t kB = 4;
    FaultTolerance ft;
    ft.inject.read_transient_rate = 0.4;
    ft.max_retries = 1;
    ft.parity = true;
    // Pick the first seed where op 0 exhausts its retries (so it needs
    // reconstruction), the op-then-ladder step survives, and the other
    // order would end differently — the step is order-sensitive.
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 5000 && !found; ++seed) {
        ft.inject.seed = seed;
        LadderReplay inline_order(ft, kD, kB), batch_order(ft, kD, kB), op0(ft, kD, kB);
        if (op0.read(0) || !inline_order.step_op_then_ladder()) continue;
        found = !batch_order.step_ops_then_ladders() ||
                batch_order.retries != inline_order.retries ||
                batch_order.reconstructions != inline_order.reconstructions;
    }
    ASSERT_TRUE(found) << "no order-sensitive seed in range";
    const LadderReplay expect = [&] {
        LadderReplay r(ft, kD, kB);
        r.step_op_then_ladder();
        return r;
    }();

    DiskArray arr(kD, kB, DiskBackend::kMemory, ".", Constraint::kIndependentDisks, ft);
    std::vector<BlockOp> ops;
    std::vector<Record> data;
    for (std::uint32_t d = 0; d < kD; ++d) {
        ops.push_back(BlockOp{d, 0});
        const auto blk = make_block(kB, d);
        data.insert(data.end(), blk.begin(), blk.end());
    }
    arr.write_step(ops, data);
    std::vector<Record> out(data.size());
    arr.read_step(ops, out);

    EXPECT_EQ(out, data);
    EXPECT_GE(expect.reconstructions, 1u);
    EXPECT_EQ(arr.stats().reconstructions, expect.reconstructions);
    std::uint64_t total_retries = 0;
    for (std::uint32_t d = 0; d < kD; ++d) {
        SCOPED_TRACE("disk " + std::to_string(d));
        const auto& fi = dynamic_cast<const FaultInjectingDisk&>(arr.disk_for_testing(d));
        EXPECT_EQ(arr.health(d).transient_retries, expect.retries[d]);
        EXPECT_EQ(fi.ops_issued(), expect.disks[d]->ops_issued());
        EXPECT_EQ(fi.injected_read_errors(), expect.disks[d]->injected_read_errors());
        total_retries += expect.retries[d];
    }
    EXPECT_EQ(arr.stats().transient_retries, total_retries);
}

TEST(IoStatsFaults, ArithmeticCoversRecoveryCounters) {
    IoStats a;
    a.transient_retries = 5;
    a.reconstructions = 2;
    a.parity_blocks_written = 7;
    a.rmw_reads = 3;
    IoStats b = a;
    b += a;
    EXPECT_EQ(b.transient_retries, 10u);
    EXPECT_EQ((b - a).reconstructions, 2u);
    EXPECT_EQ(a.recovery_blocks(), 5u + 2u + 7u + 3u);
}

// ------------------------------------------------- end-to-end balance_sort

struct SoakResult {
    std::vector<Record> sorted;
    SortReport report;
};

/// One sort on a faulty memory-backed array, on the inline executor or
/// (`workers`) the per-disk worker executor.
SoakResult run_faulty_sort(const PdmConfig& cfg, const FaultTolerance& ft,
                           std::uint64_t data_seed, bool workers = false) {
    DiskArray disks(cfg.d, cfg.b, DiskBackend::kMemory, ".", Constraint::kIndependentDisks, ft);
    disks.set_async(workers);
    auto input = generate(Workload::kUniform, cfg.n, data_seed);
    SortJobConfig opt;
    opt.io_policy.synchronized_writes = true;
    SoakResult r;
    r.sorted = balance_sort_records(disks, input, cfg, opt, &r.report);
    return r;
}

TEST(BalanceSortFaults, SurvivesFaultStormAndSingleDiskDeath) {
    // The ISSUE acceptance scenario: transient rate >= 1e-3, one permanent
    // single-disk failure mid-sort, synchronized writes + parity on.
    PdmConfig cfg{.n = 4000, .m = 512, .d = 4, .b = 8, .p = 4};
    FaultTolerance ft;
    // Parity recovers any *single* failure per stripe; a storm seed must be
    // one whose fault sequence never lands a bit flip on the stripe a dead
    // disk needs for reconstruction (a genuine double failure no RAID-5
    // survives). 2029 is such a seed for the split read/write streams.
    ft.inject.seed = 2029;
    ft.inject.read_transient_rate = 5e-3;
    ft.inject.write_transient_rate = 5e-3;
    ft.inject.bit_flip_rate = 1e-3;
    ft.inject.die_after_ops = 300; // mid-sort: input alone is 125 blocks over 4 disks
    ft.die_disk = 1;
    ft.checksums = true;
    ft.parity = true;

    auto a = run_faulty_sort(cfg, ft, 77);
    EXPECT_TRUE(is_sorted_permutation_of(generate(Workload::kUniform, cfg.n, 77), a.sorted));

    // Health observability: the storm showed up in the report.
    EXPECT_EQ(a.report.disks_failed, 1u);
    EXPECT_GT(a.report.io.transient_retries, 0u);
    EXPECT_GT(a.report.io.reconstructions, 0u);
    EXPECT_GT(a.report.io.degraded_writes, 0u);
    EXPECT_GT(a.report.io.parity_blocks_written, 0u);

    // Determinism extends to fault handling: a second identical run
    // reproduces the identical fault sequence and I/O accounting.
    auto b = run_faulty_sort(cfg, ft, 77);
    EXPECT_EQ(b.sorted, a.sorted);
    EXPECT_EQ(a.report.io.io_steps(), b.report.io.io_steps());
    EXPECT_EQ(a.report.io.transient_retries, b.report.io.transient_retries);
    EXPECT_EQ(a.report.io.corrupt_blocks, b.report.io.corrupt_blocks);
    EXPECT_EQ(a.report.io.reconstructions, b.report.io.reconstructions);
    EXPECT_EQ(a.report.io.degraded_writes, b.report.io.degraded_writes);
}

// --- the worker executor under faults (DESIGN.md §9) ---
// Both executors run every request through the same retry loop and the
// same recovery ladder. Worker recovery runs on the submitting thread after
// drain(), per-disk FIFO preserves each kind's submission order, and the
// injector draws reads and writes from separate streams — so a faulty sort
// on the workers reproduces the inline executor's recovery counters
// exactly for every rate-based fault, as long as recovery I/O does not
// itself interleave with further random faults (transient-only and
// torn-writes below). `die_after_ops` is an op-ORDER fault across both
// kinds, which prefetch legitimately reorders: there the guarantee is the
// same failed disk, the same model accounting, the same sorted output, and
// perfect run-to-run determinism — checked for the death case and for the
// full combined storm. Each pair runs on the same kind of memory-backed
// array; only set_async differs.

TEST(BalanceSortFaults, AsyncTransientStormMatchesSyncCountersExactly) {
    // Transients are retried in place on the owning disk's worker, at the
    // same position in that disk's fault stream as the inline executor's
    // retries, so every counter — including the retry count — must match
    // bit-for-bit.
    PdmConfig cfg{.n = 4000, .m = 512, .d = 4, .b = 8, .p = 4};
    const FaultTolerance ft = transient_ft(5e-3, 31);

    auto sync = run_faulty_sort(cfg, ft, 81, /*workers=*/false);
    auto async = run_faulty_sort(cfg, ft, 81, /*workers=*/true);

    EXPECT_GT(sync.report.io.transient_retries, 0u); // the storm was real
    EXPECT_EQ(async.sorted, sync.sorted);
    EXPECT_EQ(async.report.io.io_steps(), sync.report.io.io_steps());
    EXPECT_EQ(async.report.io.blocks_read, sync.report.io.blocks_read);
    EXPECT_EQ(async.report.io.blocks_written, sync.report.io.blocks_written);
    EXPECT_EQ(async.report.io.transient_retries, sync.report.io.transient_retries);
    EXPECT_EQ(async.report.io.corrupt_blocks, 0u);
    // ... and it really went through the engine.
    EXPECT_GT(async.report.io.async_block_ops, 0u);
    EXPECT_EQ(sync.report.io.async_block_ops, 0u);
}

TEST(BalanceSortFaults, AsyncMidSortDiskDeathDegradesIdenticallyToSync) {
    // The death op count straddles reads and writes, so prefetch may shift
    // the exact op it lands on; what must NOT shift: the same disk dies,
    // the model's step accounting is untouched by recovery, the sort
    // still completes with the identical output, and the async run is
    // reproducible down to the last recovery counter.
    PdmConfig cfg{.n = 4000, .m = 512, .d = 4, .b = 8, .p = 4};
    FaultTolerance ft;
    ft.inject.seed = 7;
    ft.inject.die_after_ops = 300;
    ft.die_disk = 1;
    ft.checksums = true;
    ft.parity = true;

    auto sync = run_faulty_sort(cfg, ft, 82, /*workers=*/false);
    auto async = run_faulty_sort(cfg, ft, 82, /*workers=*/true);

    EXPECT_EQ(sync.report.disks_failed, 1u);
    EXPECT_EQ(async.report.disks_failed, 1u);
    EXPECT_GT(sync.report.io.reconstructions, 0u);
    EXPECT_GT(async.report.io.reconstructions, 0u);
    EXPECT_GT(sync.report.io.degraded_writes, 0u);
    EXPECT_GT(async.report.io.degraded_writes, 0u);
    EXPECT_EQ(async.sorted, sync.sorted);
    EXPECT_EQ(async.report.io.io_steps(), sync.report.io.io_steps());
    EXPECT_EQ(async.report.io.blocks_read, sync.report.io.blocks_read);
    EXPECT_EQ(async.report.io.blocks_written, sync.report.io.blocks_written);
    EXPECT_GT(async.report.io.async_block_ops, 0u);

    auto again = run_faulty_sort(cfg, ft, 82, /*workers=*/true);
    EXPECT_EQ(again.sorted, async.sorted);
    EXPECT_EQ(again.report.io.reconstructions, async.report.io.reconstructions);
    EXPECT_EQ(again.report.io.degraded_writes, async.report.io.degraded_writes);
    EXPECT_EQ(again.report.io.parity_blocks_written, async.report.io.parity_blocks_written);
}

TEST(DiskArrayFaults, AsyncTornWritesMatchSyncCountersExactly) {
    // Torn writes are decided at write time; write order per disk is the
    // submission order on both executors (and with parity on, writes run
    // inline anyway), so the same set of blocks tears. The read-back phase
    // then detects and reconstructs the same set.
    FaultTolerance ft;
    ft.inject.seed = 12;
    ft.inject.torn_write_rate = 0.05;
    ft.checksums = true;
    ft.parity = true;
    ft.scrub_on_reconstruct = false; // keep each disk's op stream read-only here

    auto recs = generate(Workload::kUniform, 1000, 9);
    auto run_once = [&](bool use_async) {
        DiskArray arr(4, 8, DiskBackend::kMemory, ".", Constraint::kIndependentDisks, ft);
        if (use_async) arr.set_async(true);
        BlockRun run = write_striped(arr, recs);
        std::vector<Record> out = read_run(arr, run);
        arr.drain_async();
        return std::pair<std::vector<Record>, IoStats>(std::move(out), arr.stats());
    };
    auto [sync_out, sync_stats] = run_once(false);
    auto [async_out, async_stats] = run_once(true);

    EXPECT_EQ(sync_out, recs);
    EXPECT_EQ(async_out, recs);
    EXPECT_GT(sync_stats.corrupt_blocks, 0u); // some writes really tore
    EXPECT_EQ(async_stats.corrupt_blocks, sync_stats.corrupt_blocks);
    EXPECT_EQ(async_stats.reconstructions, sync_stats.reconstructions);
    EXPECT_EQ(async_stats.read_steps, sync_stats.read_steps);
    EXPECT_EQ(async_stats.write_steps, sync_stats.write_steps);
}

TEST(BalanceSortFaults, AsyncFaultStormIsDeterministic) {
    // The full storm (transients + bit flips + mid-sort death) interleaves
    // recovery I/O with randomly-faulting algorithmic I/O; there the worker
    // batch boundary can legitimately reorder recovery ops relative to
    // peers' later reads, so cross-executor equality is not guaranteed.
    // What is guaranteed — and what this pins down — is that the worker
    // executor is itself perfectly reproducible and still sorts through
    // the storm.
    PdmConfig cfg{.n = 4000, .m = 512, .d = 4, .b = 8, .p = 4};
    FaultTolerance ft;
    ft.inject.seed = 2029; // survives as single failures in both modes
    ft.inject.read_transient_rate = 5e-3;
    ft.inject.write_transient_rate = 5e-3;
    ft.inject.bit_flip_rate = 1e-3;
    ft.inject.die_after_ops = 300;
    ft.die_disk = 1;
    ft.checksums = true;
    ft.parity = true;

    auto a = run_faulty_sort(cfg, ft, 77, /*workers=*/true);
    EXPECT_TRUE(is_sorted_permutation_of(generate(Workload::kUniform, cfg.n, 77), a.sorted));
    EXPECT_EQ(a.report.disks_failed, 1u);
    EXPECT_GT(a.report.io.transient_retries, 0u);
    EXPECT_GT(a.report.io.reconstructions, 0u);
    EXPECT_GT(a.report.io.degraded_writes, 0u);
    EXPECT_GT(a.report.io.async_block_ops, 0u);

    auto b = run_faulty_sort(cfg, ft, 77, /*workers=*/true);
    EXPECT_EQ(b.sorted, a.sorted);
    EXPECT_EQ(b.report.io.io_steps(), a.report.io.io_steps());
    EXPECT_EQ(b.report.io.transient_retries, a.report.io.transient_retries);
    EXPECT_EQ(b.report.io.corrupt_blocks, a.report.io.corrupt_blocks);
    EXPECT_EQ(b.report.io.reconstructions, a.report.io.reconstructions);
    EXPECT_EQ(b.report.io.degraded_writes, a.report.io.degraded_writes);
}

TEST(BalanceSortFaults, SynchronizedWritesMakeParityRmwFree) {
    // §6's claim, measured: with every write fully striped at a common
    // fresh index, parity upkeep needs zero read-modify-write reads.
    PdmConfig cfg{.n = 4000, .m = 512, .d = 4, .b = 8, .p = 2};
    FaultTolerance ft;
    ft.checksums = true;
    ft.parity = true;
    DiskArray disks(cfg.d, cfg.b, DiskBackend::kMemory, ".", Constraint::kIndependentDisks, ft);
    auto input = generate(Workload::kUniform, cfg.n, 13);
    SortJobConfig opt;
    opt.io_policy.synchronized_writes = true;
    SortReport rep;
    auto sorted = balance_sort_records(disks, input, cfg, opt, &rep);
    EXPECT_TRUE(is_sorted_by_key(sorted));
    EXPECT_GT(rep.io.parity_blocks_written, 0u);
    EXPECT_EQ(rep.io.rmw_reads, 0u);
    EXPECT_EQ(rep.io.reconstructions, 0u);
}

TEST(BalanceSortFaults, CleanRunStepCountUnchangedByFaultMachinery) {
    // Checksums + parity must not disturb the paper's I/O measure.
    PdmConfig cfg{.n = 2000, .m = 256, .d = 4, .b = 4, .p = 2};
    auto input = generate(Workload::kUniform, cfg.n, 3);
    SortJobConfig opt;
    opt.io_policy.synchronized_writes = true;
    SortReport plain, guarded;
    {
        DiskArray disks(cfg.d, cfg.b);
        (void)balance_sort_records(disks, input, cfg, opt, &plain);
    }
    {
        FaultTolerance ft;
        ft.checksums = true;
        ft.parity = true;
        DiskArray disks(cfg.d, cfg.b, DiskBackend::kMemory, ".", Constraint::kIndependentDisks,
                        ft);
        (void)balance_sort_records(disks, input, cfg, opt, &guarded);
    }
    EXPECT_EQ(plain.io.io_steps(), guarded.io.io_steps());
    EXPECT_EQ(plain.io.blocks_written, guarded.io.blocks_written);
}

} // namespace
} // namespace balsort
