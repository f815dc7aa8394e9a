// Tests for the per-disk worker executor (DESIGN.md §9): AsyncEngine
// semantics (per-disk FIFO, deferred failures, retry counting), DiskArray's
// worker entry points (charge-at-submit accounting, prefetch +
// charge-at-consume, write-behind), and the end-to-end guarantee that a
// sort run on the workers is bit-identical to the inline executor on the
// same kind of array in everything the model measures — io_steps,
// structure counters, output — while actually routing its blocks through
// the worker threads.
#include <gtest/gtest.h>

#include <filesystem>

#include "balsort.hpp"
#include "pdm/async_engine.hpp"
#include "pdm/faulty_disk.hpp"
#include "pdm/mem_disk.hpp"

namespace balsort {
namespace {

std::vector<Record> make_block(std::size_t b, std::uint64_t tag) {
    std::vector<Record> blk(b);
    for (std::size_t i = 0; i < b; ++i) blk[i] = {tag * 100 + i, tag};
    return blk;
}

// ------------------------------------------------------------- AsyncEngine

TEST(AsyncEngine, PerDiskFifoMakesReadAfterWriteSafe) {
    // A read submitted after a write of the same block, in the same batch,
    // must see the written data — the FIFO guarantee call sites rely on.
    constexpr std::size_t kB = 4;
    std::vector<std::unique_ptr<MemDisk>> disks;
    std::vector<Disk*> tops;
    for (int i = 0; i < 2; ++i) {
        disks.push_back(std::make_unique<MemDisk>(kB));
        tops.push_back(disks.back().get());
    }
    AsyncEngine engine(tops, /*max_retries=*/0, /*backoff_base_us=*/0);

    constexpr std::uint64_t kBlocksPerDisk = 16;
    std::vector<std::vector<Record>> images;
    std::vector<Record> readback(2 * kBlocksPerDisk * kB);
    std::vector<IoRequest> requests;
    for (std::uint64_t blk = 0; blk < kBlocksPerDisk; ++blk) {
        for (std::uint32_t d = 0; d < 2; ++d) {
            images.push_back(make_block(kB, blk * 2 + d));
            IoRequest w;
            w.kind = IoRequest::Kind::kWrite;
            w.disk = d;
            w.block = blk;
            w.write_data = images.back().data();
            requests.push_back(w);
            IoRequest r;
            r.kind = IoRequest::Kind::kRead;
            r.disk = d;
            r.block = blk;
            r.read_buf = readback.data() + (blk * 2 + d) * kB;
            requests.push_back(r);
        }
    }
    AsyncBatch batch = engine.submit(std::move(requests));
    const auto& comps = engine.wait(batch);
    ASSERT_EQ(comps.size(), 4 * kBlocksPerDisk);
    for (std::size_t i = 0; i < comps.size(); ++i) {
        EXPECT_TRUE(comps[i].ok);
        EXPECT_EQ(comps[i].request_index, i); // ordered by submission index
    }
    for (std::uint64_t k = 0; k < 2 * kBlocksPerDisk; ++k) {
        EXPECT_EQ(std::vector<Record>(readback.begin() + static_cast<std::ptrdiff_t>(k * kB),
                                      readback.begin() + static_cast<std::ptrdiff_t>((k + 1) * kB)),
                  images[k])
            << "slot " << k;
    }
    const AsyncEngineMetrics m = engine.metrics();
    EXPECT_EQ(m.block_ops, 4 * kBlocksPerDisk);
    // A whole batch in one submit: the queue really got deep.
    EXPECT_GT(m.max_in_flight, 1u);
}

TEST(AsyncEngine, NonTransientFailureIsDeferredNotThrown) {
    auto disk = std::make_unique<MemDisk>(4);
    AsyncEngine engine({disk.get()}, 3, 0);
    std::vector<Record> buf(4);
    IoRequest r;
    r.kind = IoRequest::Kind::kRead;
    r.disk = 0;
    r.block = 7; // never written: ModelViolation below
    r.read_buf = buf.data();
    AsyncBatch batch = engine.submit({r});
    const auto& comps = engine.wait(batch); // does not throw
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_FALSE(comps[0].ok);
    ASSERT_TRUE(comps[0].error != nullptr);
    EXPECT_THROW(std::rethrow_exception(comps[0].error), ModelViolation);
    // wait() is idempotent.
    EXPECT_FALSE(engine.wait(batch)[0].ok);
    EXPECT_TRUE(engine.done(batch));
}

TEST(AsyncEngine, TransientRetriesAreCountedAndDeterministic) {
    auto run_once = [](std::uint64_t& retries_out) {
        FaultSpec spec;
        spec.seed = 404;
        spec.read_transient_rate = 0.3;
        auto base = std::make_unique<MemDisk>(4);
        const auto blk = make_block(4, 1);
        for (std::uint64_t i = 0; i < 64; ++i) base->write_block(i, blk);
        FaultInjectingDisk faulty(std::move(base), spec, 0);
        AsyncEngine engine({&faulty}, /*max_retries=*/16, 0);
        std::vector<Record> buf(64 * 4);
        std::vector<IoRequest> reqs(64);
        for (std::uint64_t i = 0; i < 64; ++i) {
            reqs[i].kind = IoRequest::Kind::kRead;
            reqs[i].disk = 0;
            reqs[i].block = i;
            reqs[i].read_buf = buf.data() + i * 4;
        }
        AsyncBatch batch = engine.submit(std::move(reqs));
        retries_out = 0;
        for (const auto& c : engine.wait(batch)) {
            EXPECT_TRUE(c.ok);
            retries_out += c.transient_retries;
        }
    };
    std::uint64_t a = 0, b = 0;
    run_once(a);
    run_once(b);
    EXPECT_GT(a, 0u); // 64 reads at rate .3: retries essentially certain
    EXPECT_EQ(a, b);  // per-disk FIFO + seeded stream => same fault sequence
}

// ------------------------------------------------- DiskArray async routing

TEST(DiskArrayAsync, StepAccountingAndDataBitIdenticalToSync) {
    auto recs = generate(Workload::kUniform, 3000, 21);
    IoStats sync_stats, async_stats;
    std::vector<Record> sync_out, async_out;
    {
        DiskArray arr(4, 8);
        BlockRun run = write_striped(arr, recs);
        sync_out = read_run(arr, run);
        sync_stats = arr.stats();
    }
    {
        DiskArray arr(4, 8);
        arr.set_async(true);
        BlockRun run = write_striped(arr, recs);
        async_out = read_run(arr, run);
        arr.drain_async();
        async_stats = arr.stats();
        EXPECT_TRUE(arr.async_enabled());
    }
    EXPECT_EQ(async_out, sync_out);
    EXPECT_EQ(async_stats.read_steps, sync_stats.read_steps);
    EXPECT_EQ(async_stats.write_steps, sync_stats.write_steps);
    EXPECT_EQ(async_stats.blocks_read, sync_stats.blocks_read);
    EXPECT_EQ(async_stats.blocks_written, sync_stats.blocks_written);
    // ... but the async run really went through the engine.
    EXPECT_GT(async_stats.async_block_ops, 0u);
    EXPECT_GT(async_stats.max_in_flight, 1u);
    EXPECT_EQ(sync_stats.async_block_ops, 0u);
}

TEST(DiskArrayAsync, PrefetchChargesAtConsumeNotSubmit) {
    DiskArray arr(2, 4);
    arr.set_async(true);
    auto recs = generate(Workload::kUniform, 64, 3);
    BlockRun run = write_striped(arr, recs);
    arr.drain_async();
    const IoStats before = arr.stats();

    std::vector<Record> buf(run.blocks.size() * 4);
    DiskArray::ReadTicket t = arr.prefetch_read(run.blocks, buf);
    EXPECT_EQ(arr.stats().read_steps, before.read_steps); // physical only
    arr.complete_read(t);
    EXPECT_EQ(arr.stats().read_steps, before.read_steps); // still uncharged
    arr.charge_read_batch(run.blocks);                    // the model cost
    const IoStats after = arr.stats();
    EXPECT_EQ(after.read_steps - before.read_steps, run.read_steps(2));
    EXPECT_EQ(after.blocks_read - before.blocks_read, run.n_blocks());
    // Data arrived through the uncharged path.
    for (std::uint64_t i = 0; i < recs.size(); ++i) EXPECT_EQ(buf[i], recs[i]);
}

TEST(DiskArrayAsync, WriteBehindPermanentFailureSurfaces) {
    // Without parity a permanently failed write has nowhere to go: the
    // deferred DiskFailed must reach the caller (at a later write or at
    // drain), never be swallowed.
    FaultTolerance ft;
    ft.inject.seed = 5;
    ft.inject.die_after_ops = 6;
    ft.die_disk = 0;
    DiskArray arr(2, 4, DiskBackend::kMemory, ".", Constraint::kIndependentDisks, ft);
    arr.set_async(true);
    auto recs = generate(Workload::kUniform, 256, 4);
    EXPECT_THROW(
        {
            BlockRun run = write_striped(arr, recs);
            arr.drain_async();
            (void)run;
        },
        DiskFailed);
    EXPECT_FALSE(arr.health(0).alive);
}

TEST(DiskArrayAsync, SetAsyncOffFoldsMetricsAndRestoresSyncPath) {
    DiskArray arr(2, 4);
    arr.set_async(true);
    auto recs = generate(Workload::kUniform, 128, 6);
    BlockRun run = write_striped(arr, recs);
    EXPECT_EQ(read_run(arr, run), recs);
    arr.set_async(false);
    EXPECT_FALSE(arr.async_enabled());
    const std::uint64_t ops_after_disable = arr.stats().async_block_ops;
    EXPECT_GT(ops_after_disable, 0u); // folded, not lost
    // Back on the inline executor: further I/O charges steps but no engine
    // ops.
    BlockRun run2 = write_striped(arr, recs);
    EXPECT_EQ(read_run(arr, run2), recs);
    EXPECT_EQ(arr.stats().async_block_ops, ops_after_disable);
}

// -------------------------------------------------- end-to-end balance_sort

TEST(BalanceSortAsync, ReportBitIdenticalToSyncOnMemoryBackend) {
    PdmConfig cfg{.n = 20000, .m = 1024, .d = 8, .b = 8, .p = 2};
    auto input = generate(Workload::kUniform, cfg.n, 17);
    SortReport sync_rep, async_rep;
    std::vector<Record> sync_sorted, async_sorted;
    {
        DiskArray disks(cfg.d, cfg.b); // inline executor
        sync_sorted = balance_sort_records(disks, input, cfg, SortOptions{}, &sync_rep);
        EXPECT_FALSE(disks.async_enabled());
    }
    {
        DiskArray disks(cfg.d, cfg.b);
        disks.set_async(true); // the same kind of array on the workers
        async_sorted = balance_sort_records(disks, input, cfg, SortOptions{}, &async_rep);
        // The sort left a memory-backed array's executor as its owner set it.
        EXPECT_TRUE(disks.async_enabled());
    }
    EXPECT_EQ(async_sorted, sync_sorted);
    EXPECT_EQ(async_rep.io.io_steps(), sync_rep.io.io_steps());
    EXPECT_EQ(async_rep.io.blocks_read, sync_rep.io.blocks_read);
    EXPECT_EQ(async_rep.io.blocks_written, sync_rep.io.blocks_written);
    EXPECT_EQ(async_rep.s_used, sync_rep.s_used);
    EXPECT_EQ(async_rep.levels, sync_rep.levels);
    EXPECT_EQ(async_rep.base_cases, sync_rep.base_cases);
    EXPECT_EQ(async_rep.d_virtual, sync_rep.d_virtual);
    EXPECT_EQ(async_rep.equal_class_records, sync_rep.equal_class_records);
    // Overlap metrics: only the async run shows engine activity.
    EXPECT_GT(async_rep.io.async_block_ops, 0u);
    EXPECT_GT(async_rep.io.max_in_flight, 1u);
    EXPECT_GT(async_rep.io.engine_busy_seconds, 0.0);
    EXPECT_EQ(sync_rep.io.async_block_ops, 0u);
    EXPECT_EQ(sync_rep.io.engine_busy_seconds, 0.0);
}

TEST(BalanceSortAsync, FileBackendAutoEnablesTheEngine) {
    PdmConfig cfg{.n = 6000, .m = 512, .d = 4, .b = 8, .p = 2};
    auto input = generate(Workload::kUniform, cfg.n, 23);
    const std::string dir = std::filesystem::temp_directory_path().string();
    SortReport auto_rep, off_rep;
    std::vector<Record> auto_sorted, off_sorted;
    {
        DiskArray disks(cfg.d, cfg.b, DiskBackend::kFile, dir);
        auto_sorted = balance_sort_records(disks, input, cfg, SortOptions{}, &auto_rep);
        // The workers are scoped to the sort: the caller's array is back on
        // the inline executor afterwards.
        EXPECT_FALSE(disks.async_enabled());
    }
    {
        DiskArray disks(cfg.d, cfg.b); // memory-backed: inline unless set
        off_sorted = balance_sort_records(disks, input, cfg, SortOptions{}, &off_rep);
    }
    EXPECT_GT(auto_rep.io.async_block_ops, 0u); // file-backed sorts run on the workers
    EXPECT_EQ(off_rep.io.async_block_ops, 0u);
    EXPECT_EQ(auto_sorted, off_sorted);
    EXPECT_EQ(auto_rep.io.io_steps(), off_rep.io.io_steps());
}

// ------------------------------------------------- SortOptions::validate()

TEST(SortOptionsValidate, RejectsSketchWithSqrtLevelPolicy) {
    SortOptions opt;
    opt.pivot_method = PivotMethod::kStreamingSketch;
    opt.bucket_policy = BucketPolicy::kSqrtLevel;
    EXPECT_THROW(opt.validate(8), std::invalid_argument);
}

TEST(SortOptionsValidate, RejectsSTargetWithoutFixedPolicy) {
    SortOptions opt;
    opt.s_target = 4; // policy left at kPaperPdm
    EXPECT_THROW(opt.validate(8), std::invalid_argument);
    opt.bucket_policy = BucketPolicy::kFixed;
    EXPECT_NO_THROW(opt.validate(8));
}

TEST(SortOptionsValidate, RejectsDVirtualNotDividingD) {
    SortOptions opt;
    opt.d_virtual = 3;
    EXPECT_THROW(opt.validate(8), std::invalid_argument);
    opt.d_virtual = 4;
    EXPECT_NO_THROW(opt.validate(8));
    opt.d_virtual = 16; // larger than D
    EXPECT_THROW(opt.validate(8), std::invalid_argument);
}

TEST(SortOptionsValidate, BalanceSortRejectsIncoherentOptionsUpFront) {
    PdmConfig cfg{.n = 1000, .m = 256, .d = 4, .b = 4, .p = 1};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(Workload::kUniform, cfg.n, 1);
    SortOptions opt;
    opt.s_target = 4; // without kFixed: previously silently implied
    EXPECT_THROW((void)balance_sort_records(disks, input, cfg, opt, nullptr),
                 std::invalid_argument);
}

} // namespace
} // namespace balsort
