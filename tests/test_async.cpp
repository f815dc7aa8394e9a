// Tests for the per-disk worker executor (DESIGN.md §9): AsyncEngine
// semantics (per-disk FIFO, deferred failures, retry counting), DiskArray's
// worker entry points (charge-at-submit accounting, prefetch +
// charge-at-consume, write-behind), and the end-to-end guarantee that a
// sort run on the workers is bit-identical to the inline executor on the
// same kind of array in everything the model measures — io_steps,
// structure counters, output — while actually routing its blocks through
// the worker threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>

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

// ------------------------------------------------- AsyncEngine under load

/// A memory disk that hangs on demand: while its gate is closed every
/// operation blocks inside the disk, as a stuck device would.
class GatedDisk final : public Disk {
public:
    explicit GatedDisk(std::size_t b) : inner_(b) {}

    std::size_t block_size() const override { return inner_.block_size(); }
    std::uint64_t size_blocks() const override { return inner_.size_blocks(); }
    void read_block(std::uint64_t index, std::span<Record> out) const override {
        pass();
        inner_.read_block(index, out);
    }
    void write_block(std::uint64_t index, std::span<const Record> in) override {
        pass();
        inner_.write_block(index, in);
    }

    MemDisk& inner() { return inner_; }
    void close() {
        std::lock_guard<std::mutex> lock(mu_);
        open_ = false;
    }
    void open() {
        {
            std::lock_guard<std::mutex> lock(mu_);
            open_ = true;
        }
        cv_.notify_all();
    }
    /// Operations that reached the disk (including ones still blocked).
    std::uint64_t entered() const { return entered_.load(); }

private:
    void pass() const {
        entered_.fetch_add(1);
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return open_; });
    }

    MemDisk inner_;
    mutable std::mutex mu_;
    mutable std::condition_variable cv_;
    bool open_ = true;
    mutable std::atomic<std::uint64_t> entered_{0};
};

/// Opens a gated disk when the test leaves its scope — on a failed
/// assertion too — so the engine's workers can be joined.
struct Reopen {
    GatedDisk& disk;
    ~Reopen() { disk.open(); }
};

/// Poll (with short sleeps) until `pred` holds; false after ~10 s.
template <class Pred>
bool eventually(Pred pred) {
    for (int i = 0; i < 10000; ++i) {
        if (pred()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
}

TEST(AsyncEngineStress, ConcurrentSubmittersKeepPerDiskFifo) {
    // Four submitters stream mixed batches over every disk while a fifth
    // thread drains. Each submitter owns its own blocks, and each batch
    // writes one new block per disk, reads it back in the same batch, and
    // reads the block the previous (possibly still queued) batch wrote:
    // per-disk FIFO must make both reads see the written images.
    constexpr std::uint32_t kDisks = 4;
    constexpr std::size_t kB = 4;
    constexpr int kThreads = 4;
    constexpr std::uint64_t kRounds = 400;
    constexpr std::size_t kWindow = 3; // batches a submitter keeps in flight
    constexpr std::size_t kPerBatch = 3 * kDisks;
    std::vector<std::unique_ptr<MemDisk>> disks;
    std::vector<Disk*> tops;
    for (std::uint32_t d = 0; d < kDisks; ++d) {
        disks.push_back(std::make_unique<MemDisk>(kB));
        tops.push_back(disks.back().get());
    }
    AsyncEngine engine(tops, /*max_retries=*/0, /*backoff_base_us=*/0);

    struct InFlight {
        AsyncBatch batch;
        std::vector<Record> images;   ///< per disk: the block this batch writes
        std::vector<Record> readback; ///< per disk: same-batch read
        std::vector<Record> prev;     ///< per disk: previous batch's block
        std::vector<Record> prev_images;
    };
    std::atomic<int> submitters_left{kThreads};
    std::atomic<std::uint64_t> mismatches{0}, failures{0}, drains{0};
    auto submitter = [&](int t) {
        std::deque<InFlight> window;
        std::vector<Record> last_images;
        auto settle = [&](InFlight& f, bool poll) {
            if (poll) {
                while (!engine.done(f.batch)) std::this_thread::yield();
            }
            for (const IoCompletion& c : engine.wait(f.batch)) failures += c.ok ? 0 : 1;
            if (f.readback != f.images) ++mismatches;
            if (f.prev != f.prev_images) ++mismatches;
        };
        for (std::uint64_t round = 0; round < kRounds; ++round) {
            const std::uint64_t blk = round * kThreads + static_cast<std::uint64_t>(t);
            InFlight f;
            f.images.resize(kDisks * kB);
            for (std::size_t i = 0; i < f.images.size(); ++i) {
                f.images[i] = {blk * 1000 + i, static_cast<std::uint64_t>(t)};
            }
            f.readback.resize(kDisks * kB);
            const bool has_prev = round > 0;
            if (has_prev) {
                f.prev.resize(kDisks * kB);
                f.prev_images = last_images;
            }
            std::vector<IoRequest> reqs;
            for (std::uint32_t k = 0; k < kDisks; ++k) {
                // Rotate the disk order so batches interleave differently.
                const std::uint32_t d = (k + static_cast<std::uint32_t>(round)) % kDisks;
                reqs.push_back({.kind = IoRequest::Kind::kWrite,
                                .disk = d,
                                .block = blk,
                                .write_data = f.images.data() + d * kB});
                reqs.push_back({.disk = d, .block = blk, .read_buf = f.readback.data() + d * kB});
                if (has_prev) {
                    reqs.push_back({.disk = d,
                                    .block = blk - kThreads,
                                    .read_buf = f.prev.data() + d * kB});
                } else {
                    // Keep every batch the same size: a second read-back.
                    reqs.push_back(
                        {.disk = d, .block = blk, .read_buf = f.readback.data() + d * kB});
                }
            }
            f.batch = engine.submit(std::move(reqs));
            last_images = f.images;
            window.push_back(std::move(f));
            if (window.size() > kWindow) {
                settle(window.front(), round % 2 == 0);
                window.pop_front();
            }
        }
        while (!window.empty()) {
            settle(window.front(), false);
            window.pop_front();
        }
        --submitters_left;
    };
    std::thread drainer([&] {
        while (submitters_left.load() > 0) {
            engine.drain();
            ++drains;
        }
    });
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) threads.emplace_back(submitter, t);
    for (auto& th : threads) th.join();
    drainer.join();
    engine.drain();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_GT(drains.load(), 0u);
    const AsyncEngineMetrics m = engine.metrics();
    EXPECT_EQ(m.block_ops, kThreads * kRounds * kPerBatch);
    // A batch is counted in flight all at once; at most kWindow + 1 batches
    // per submitter are outstanding.
    EXPECT_GE(m.max_in_flight, kPerBatch);
    EXPECT_LE(m.max_in_flight, kThreads * (kWindow + 1) * kPerBatch);
    EXPECT_EQ(engine.timeouts(), 0u);
    for (std::uint32_t depth : engine.per_disk_in_flight()) EXPECT_EQ(depth, 0u);
}

TEST(AsyncEngineStress, BatchCompletesWhileAnotherDiskIsBlocked) {
    // Completing a batch must not wait for the engine to go idle: a batch
    // on disk 0 finishes while disk 1 hangs inside a write.
    constexpr std::size_t kB = 4;
    MemDisk free_disk(kB);
    GatedDisk stuck(kB);
    AsyncEngine engine({&free_disk, &stuck}, 0, 0);
    const auto img = make_block(kB, 7);
    // wait() runs on its own thread so a wait that needs the engine idle
    // fails below instead of hanging the test; the gate reopens before
    // that thread is joined.
    std::future<std::vector<IoCompletion>> waited;
    stuck.close();
    Reopen reopen{stuck};
    AsyncBatch hung = engine.submit(
        {{.kind = IoRequest::Kind::kWrite, .disk = 1, .block = 0, .write_data = img.data()}});
    ASSERT_TRUE(eventually([&] { return stuck.entered() == 1; }));

    constexpr std::uint64_t kBlocks = 32;
    std::vector<std::vector<Record>> images;
    for (std::uint64_t i = 0; i < kBlocks; ++i) images.push_back(make_block(kB, i));
    std::vector<Record> readback(kBlocks * kB);
    std::vector<IoRequest> reqs;
    for (std::uint64_t i = 0; i < kBlocks; ++i) {
        reqs.push_back({.kind = IoRequest::Kind::kWrite,
                        .disk = 0,
                        .block = i,
                        .write_data = images[i].data()});
        reqs.push_back({.disk = 0, .block = i, .read_buf = readback.data() + i * kB});
    }
    AsyncBatch quick = engine.submit(std::move(reqs));
    waited = std::async(std::launch::async, [&] { return engine.wait(quick); });
    ASSERT_EQ(waited.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    for (const IoCompletion& c : waited.get()) EXPECT_TRUE(c.ok);
    for (std::uint64_t i = 0; i < kBlocks; ++i) {
        EXPECT_TRUE(std::equal(images[i].begin(), images[i].end(),
                               readback.begin() + static_cast<std::ptrdiff_t>(i * kB)));
    }
    EXPECT_FALSE(engine.done(hung));
    EXPECT_EQ(engine.per_disk_in_flight(), (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(engine.metrics().block_ops, 2 * kBlocks);

    stuck.open();
    EXPECT_TRUE(engine.wait(hung)[0].ok);
    engine.drain();
    EXPECT_EQ(engine.metrics().block_ops, 2 * kBlocks + 1);
    EXPECT_EQ(engine.metrics().max_in_flight, 2 * kBlocks + 1);
}

TEST(AsyncEngineStress, DeadlineExpiresHungReadsWhileOtherDisksComplete) {
    // Disk 0 hangs inside its first read; two more reads queue behind it.
    // Past the deadline the watchdog completes all three as TimedOutIo —
    // the executing one abandoned, the queued ones unlinked unexecuted —
    // while disks 1 and 2 keep serving batches throughout.
    constexpr std::size_t kB = 4;
    constexpr std::uint64_t kDeadlineUs = 300'000;
    GatedDisk hung_disk(kB);
    MemDisk d1(kB), d2(kB);
    const auto img = make_block(kB, 3);
    for (std::uint64_t i = 0; i < 3; ++i) {
        hung_disk.inner().write_block(i, img);
        d1.write_block(i, img);
        d2.write_block(i, img);
    }
    AsyncEngine engine({&hung_disk, &d1, &d2}, 0, 0, kDeadlineUs);
    hung_disk.close();
    const Record sentinel{0xdead, 0xbeef};
    std::vector<Record> hung_buf(3 * kB, sentinel);
    std::vector<IoRequest> hung_reqs;
    for (std::uint64_t i = 0; i < 3; ++i) {
        hung_reqs.push_back({.disk = 0, .block = i, .read_buf = hung_buf.data() + i * kB});
    }
    AsyncBatch hung = engine.submit(std::move(hung_reqs));
    Reopen reopen{hung_disk};
    ASSERT_TRUE(eventually([&] { return hung_disk.entered() == 1; }));

    constexpr int kOtherBatches = 20;
    for (int k = 0; k < kOtherBatches; ++k) {
        std::vector<Record> buf(2 * kB);
        AsyncBatch other = engine.submit({{.disk = 1, .block = 1, .read_buf = buf.data()},
                                          {.disk = 2, .block = 2, .read_buf = buf.data() + kB}});
        for (const IoCompletion& c : engine.wait(other)) EXPECT_TRUE(c.ok);
        EXPECT_TRUE(std::equal(img.begin(), img.end(), buf.begin()));
        if (k == 0) {
            EXPECT_FALSE(engine.done(hung)); // others finish first
        }
    }

    ASSERT_TRUE(eventually([&] { return engine.done(hung); }));
    const auto& comps = engine.wait(hung);
    ASSERT_EQ(comps.size(), 3u);
    for (const IoCompletion& c : comps) {
        EXPECT_FALSE(c.ok);
        EXPECT_THROW(std::rethrow_exception(c.error), TimedOutIo);
    }
    EXPECT_EQ(engine.timeouts(), 3u);
    EXPECT_EQ(hung_disk.entered(), 1u); // the queued two never ran
    EXPECT_EQ(engine.metrics().block_ops, 2u * kOtherBatches + 3);

    // The abandoned read returns late; its data must not land.
    hung_disk.open();
    ASSERT_TRUE(eventually([&] { return engine.per_disk_in_flight()[0] == 0; }));
    engine.drain();
    for (const Record& r : hung_buf) EXPECT_EQ(r, sentinel);
    EXPECT_EQ(hung_disk.entered(), 1u);
    EXPECT_EQ(engine.timeouts(), 3u);
    EXPECT_EQ(engine.metrics().block_ops, 2u * kOtherBatches + 3);
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
        sync_sorted = balance_sort_records(disks, input, cfg, SortJobConfig{}, &sync_rep);
        EXPECT_FALSE(disks.async_enabled());
    }
    {
        DiskArray disks(cfg.d, cfg.b);
        disks.set_async(true); // the same kind of array on the workers
        async_sorted = balance_sort_records(disks, input, cfg, SortJobConfig{}, &async_rep);
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
        auto_sorted = balance_sort_records(disks, input, cfg, SortJobConfig{}, &auto_rep);
        // The workers are scoped to the sort: the caller's array is back on
        // the inline executor afterwards.
        EXPECT_FALSE(disks.async_enabled());
    }
    {
        DiskArray disks(cfg.d, cfg.b); // memory-backed: inline unless set
        off_sorted = balance_sort_records(disks, input, cfg, SortJobConfig{}, &off_rep);
    }
    EXPECT_GT(auto_rep.io.async_block_ops, 0u); // file-backed sorts run on the workers
    EXPECT_EQ(off_rep.io.async_block_ops, 0u);
    EXPECT_EQ(auto_sorted, off_sorted);
    EXPECT_EQ(auto_rep.io.io_steps(), off_rep.io.io_steps());
}

// ------------------------------------ SortJobConfig::validate(d), per rule

TEST(SortOptionsValidate, RejectsSketchWithSqrtLevelPolicy) {
    SortJobConfig opt;
    opt.pivot_method = PivotMethod::kStreamingSketch;
    opt.bucket_policy = BucketPolicy::kSqrtLevel;
    EXPECT_THROW(opt.validate(8), std::invalid_argument);
}

TEST(SortOptionsValidate, RejectsSTargetWithoutFixedPolicy) {
    SortJobConfig opt;
    opt.s_target = 4; // policy left at kPaperPdm
    EXPECT_THROW(opt.validate(8), std::invalid_argument);
    opt.bucket_policy = BucketPolicy::kFixed;
    EXPECT_NO_THROW(opt.validate(8));
}

TEST(SortOptionsValidate, RejectsDVirtualNotDividingD) {
    SortJobConfig opt;
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
    SortJobConfig opt;
    opt.s_target = 4; // without kFixed: never silently implied
    EXPECT_THROW((void)balance_sort_records(disks, input, cfg, opt, nullptr),
                 std::invalid_argument);
    EXPECT_EQ(disks.stats().blocks_written, 0u);
}

} // namespace
} // namespace balsort
