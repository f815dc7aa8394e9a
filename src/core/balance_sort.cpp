#include "core/balance_sort.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "core/checkpoint.hpp"
#include "core/sort_pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"
#include "util/math.hpp"

namespace balsort {

std::uint32_t default_bucket_count(const PdmConfig& cfg, std::uint32_t vblock_records) {
    const std::uint64_t mb = std::max<std::uint64_t>(2, cfg.m / cfg.b);
    auto s = static_cast<std::uint32_t>(iroot(mb, 4));
    // Staging limit: Balance's block arena holds 2(2S-1) + D' virtual
    // blocks besides a memoryload (BlockFill); 4S * V <= M keeps that extra
    // within one memoryload.
    const std::uint64_t cap = cfg.m / (4ull * std::max<std::uint32_t>(vblock_records, 1));
    if (cap >= 2) s = static_cast<std::uint32_t>(std::min<std::uint64_t>(s, cap));
    return std::max<std::uint32_t>(2, s);
}

namespace {

/// Scoped enable/restore of the array's worker executor around one sort,
/// so a sort never leaks executor state into the caller's array (and
/// nested / sequential sorts compose).
class AsyncGuard {
public:
    explicit AsyncGuard(DiskArray& disks) : disks_(disks), prev_(disks.async_enabled()) {
        disks_.set_async(true);
    }
    ~AsyncGuard() {
        try {
            disks_.set_async(prev_);
        } catch (...) {
            // Unwinding: a deferred write failure was already surfaced (or
            // will surface as the sort's own exception); don't mask it.
        }
    }
    AsyncGuard(const AsyncGuard&) = delete;
    AsyncGuard& operator=(const AsyncGuard&) = delete;

private:
    DiskArray& disks_;
    bool prev_;
};

/// Scoped release-quarantine mode (DESIGN.md §13): while checkpointing,
/// freed blocks must not re-enter the allocator until the next durable
/// boundary, or a crash replay could find its data overwritten. Restores
/// the caller's mode on exit (leaving quarantine flushes any stragglers).
class QuarantineGuard {
public:
    QuarantineGuard(DiskArray& disks, bool enable)
        : disks_(disks), prev_(disks.release_quarantine()) {
        disks_.set_release_quarantine(enable || prev_);
    }
    ~QuarantineGuard() {
        try {
            disks_.set_release_quarantine(prev_);
        } catch (...) {
            // Unwinding past a failed sort: nothing to add.
        }
    }
    QuarantineGuard(const QuarantineGuard&) = delete;
    QuarantineGuard& operator=(const QuarantineGuard&) = delete;

private:
    DiskArray& disks_;
    bool prev_;
};

/// The sort proper, on a configuration the entry points validated.
BlockRun sort_validated(DiskArray& disks, const BlockRun& input, const PdmConfig& cfg,
                        const SortJobConfig& job, SortReport* report) {
    const auto t_entry = std::chrono::steady_clock::now();
    BS_REQUIRE(input.n_records == cfg.n, "balance_sort: cfg.n != input.n_records");
    const std::uint32_t dv = job.d_virtual != 0
                                 ? job.d_virtual
                                 : VirtualDisks::default_virtual_count(disks.num_disks());
    Executor* const shared_exec = job.compute_policy.shared_executor;
    std::uint32_t threads = job.compute_policy.threads;
    if (threads == 0) {
        if (shared_exec != nullptr) {
            threads = std::min<std::uint32_t>(
                cfg.p, static_cast<std::uint32_t>(shared_exec->workers()) + 1);
        } else {
            const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
            threads = std::min<std::uint32_t>(cfg.p, std::max(hw, 1u) * 2);
        }
    }
    // Observability first: DriverState binds the installed tracer at
    // construction and the AsyncGuard below creates the engine (which binds
    // its instruments in its constructor), so both must see the tracer and
    // registry already published. Null sinks leave any ambient
    // installation (e.g. the CLI's whole-run guard) untouched.
    TracerInstallGuard trace_guard(job.obs_policy.trace);
    MetricsInstallGuard metrics_guard(job.obs_policy.metrics);
    // Sampling covers exactly the sort's extent; start()/stop() nest by
    // refcount, so concurrent scheduler jobs sharing one profiler stack.
    ProfilerScope profile_guard(job.obs_policy.profiler);
    DriverState st(disks, cfg, job, dv, threads, report);
    Span sort_span(st.tracer, "balance_sort", "sort",
                   st.tracer != nullptr ? st.tracer->lane("sort") : 0);
    sort_span.arg("records", static_cast<std::int64_t>(cfg.n));

    // A file-backed array runs the sort on the per-disk worker executor
    // (real I/O to overlap), scoped to the sort: the caller's own layout
    // and read-back stay inline, where engine spin-up and hand-offs would
    // only add latency (DESIGN.md §9). A memory-backed array runs whichever
    // executor its owner chose with set_async. Under a bound job channel
    // (sort service, DESIGN.md §14) the engine is shared infrastructure
    // owned by the scheduler: one job toggling it would stall or
    // reconfigure its neighbours mid-flight, so the guard is skipped and
    // the scheduler's setting stands. All model deltas then come from the
    // per-job channel, never the shared array counters.
    const bool channel_bound = disks.job_channel_bound();
    std::optional<AsyncGuard> async_guard;
    if (!channel_bound && disks.backend() == DiskBackend::kFile) async_guard.emplace(disks);

    // Land the caller's own write-behind (the input layout, on an array
    // already on the workers) first: its retries and stall are folded in
    // when reaped, and must not leak into this sort's report depending on
    // when that happens.
    disks.drain_async();
    const IoStats before = channel_bound ? disks.job_stats() : disks.stats();

    // ---- Crash consistency (DESIGN.md §13). ----
    const DurabilityPolicy& dur = job.durability_policy;
    const bool checkpointing = !dur.checkpoint_path.empty();
    QuarantineGuard quarantine_guard(disks, checkpointing);
    std::unique_ptr<Checkpointer> checkpointer;
    if (checkpointing) {
        checkpointer = std::make_unique<Checkpointer>(dur.checkpoint_path, st, before);
        st.checkpointer = checkpointer.get();
    }
    ResumeCursor cursor;
    ResumeCursor* resume = nullptr;
    IoStats io_resumed{};
    if (!dur.resume_from.empty()) {
        CheckpointRecord rec = load_checkpoint(dur.resume_from);
        BS_REQUIRE(rec.n == cfg.n && rec.m == cfg.m && rec.p == cfg.p &&
                       rec.d == disks.num_disks() && rec.b == disks.block_size() &&
                       rec.dv == dv && rec.backend == static_cast<std::uint8_t>(disks.backend()) &&
                       rec.synchronized_writes ==
                           (job.io_policy.synchronized_writes ? 1 : 0),
                   "resume: checkpoint was written under a different configuration");
        disks.restore(rec.disks);
        st.meter.add_comparisons(rec.comparisons);
        st.meter.add_moves(rec.moves);
        st.meter.add_collectives(rec.collectives);
        st.cost.charge_steps(rec.pram_steps);
        st.out.restore(rec.out_run, rec.out_buffer, rec.out_next_disk);
        if (report != nullptr) {
            report->levels = rec.levels;
            report->s_used = rec.s_used;
            report->base_cases = rec.base_cases;
            report->equal_class_records = rec.equal_class_records;
            report->max_bucket_records = rec.max_bucket_records;
            report->bucket_bound = rec.bucket_bound;
            report->worst_bucket_read_ratio = rec.worst_bucket_read_ratio;
            report->balance = rec.balance;
        }
        io_resumed = rec.io_delta;
        checkpointer->arm_resume(rec);
        for (auto& frame : rec.frames) cursor.frames.push_back(std::move(frame));
        resume = &cursor;
        if (MetricsRegistry* reg = metrics(); reg != nullptr) {
            reg->counter("recovery.resumes").add();
        }
    }

    SourceFactory top = [&disks, &input]() -> std::unique_ptr<RecordSource> {
        return std::make_unique<RunSource>(disks, input);
    };
    SortPipeline pipeline(st);
    pipeline.run(top, cfg.n, resume);
    BlockRun result = st.out.finish();
    // Land every write-behind stripe and settle stall/busy accounting
    // before the report snapshot (and before callers read the output).
    disks.drain_async();
    BS_MODEL_CHECK(result.n_records == cfg.n, "balance_sort: output record count mismatch");

    if (report != nullptr) {
        report->io = io_resumed;
        report->io += (channel_bound ? disks.job_stats() : disks.stats()) - before;
        report->checkpoints_written = checkpointer != nullptr ? checkpointer->seq() : 0;
        report->resumes = checkpointer != nullptr ? checkpointer->resumes() : 0;
        report->optimal_ios = cfg.optimal_ios();
        report->io_ratio = report->optimal_ios > 0
                               ? static_cast<double>(report->io.io_steps()) / report->optimal_ios
                               : 0;
        report->comparisons = st.meter.comparisons();
        report->moves = st.meter.moves();
        report->pram_time = static_cast<double>(st.cost.steps());
        report->optimal_work = cfg.optimal_work();
        report->work_ratio =
            report->optimal_work > 0 ? report->pram_time / report->optimal_work : 0;
        report->d_virtual = dv;
        report->disks_failed = 0;
        for (std::uint32_t i = 0; i < disks.num_disks(); ++i) {
            if (!disks.health_snapshot(i).alive) ++report->disks_failed;
        }
        st.profile.compute_tasks = st.compute.tasks.load(std::memory_order_relaxed);
        st.profile.compute_stolen = st.compute.stolen.load(std::memory_order_relaxed);
        st.profile.compute_helped = st.compute.helped.load(std::memory_order_relaxed);
        // Time budget (DESIGN.md §16): pool-wait from this sort's compute
        // channel, io-wait from the engine stalls attributed to this run's
        // I/O accounting. gate_wait_seconds stays 0 here — the fairness
        // gate is service machinery, and the scheduler (which owns the
        // gate) patches it into the job-level budget.
        st.profile.pool_wait_seconds =
            static_cast<double>(st.compute.wait_ns.load(std::memory_order_relaxed)) * 1e-9;
        st.profile.io_wait_seconds = report->io.engine_stall_seconds;
        report->phases = st.profile;
        if (job.io_policy.shared_pool == nullptr) {
            // A shared pool's hit/miss counters mix every co-scheduled
            // job's traffic; only a private pool's stats describe this run.
            const BufferPool::Stats pstats = st.buffers.stats();
            report->phases.pool_hits = pstats.hits;
            report->phases.pool_misses = pstats.misses;
        }
        report->elapsed_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t_entry).count();
    }
    return result;
}

} // namespace

BlockRun balance_sort(DiskArray& disks, const BlockRun& input, const PdmConfig& cfg,
                      const SortJobConfig& job, SortReport* report) {
    cfg.validate();
    job.validate(disks.num_disks());
    return sort_validated(disks, input, cfg, job, report);
}

std::vector<Record> balance_sort_records(DiskArray& disks, std::vector<Record> records,
                                         const PdmConfig& cfg, const SortJobConfig& job,
                                         SortReport* report) {
    cfg.validate();
    job.validate(disks.num_disks());
    BS_REQUIRE(records.size() == cfg.n, "balance_sort_records: cfg.n != records.size()");
    BlockRun input = write_striped(disks, records);
    BlockRun output = sort_validated(disks, input, cfg, job, report);
    return read_run(disks, output);
}

} // namespace balsort
