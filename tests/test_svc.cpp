// Tests for the concurrent sort service (DESIGN.md §14).
//
// The service's core guarantee — a job's model accounting and sorted
// output are byte-identical whether it runs alone or next to neighbours
// on the shared array — is checked across a backend × engine matrix by
// re-running the same specs solo (max_active=1) and concurrently and
// comparing per-job hashes and counters. Lifecycle (cancel mid-phase,
// cancel while queued, unknown ids), admission control (spec validation,
// queue capacity, scratch budget charge/release), the exclusive
// checkpoint path, manifests, the job-config policy validation, and the
// BufferPool retention cap ride along.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/sort_config.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "pdm/disk_array.hpp"
#include "svc/sort_scheduler.hpp"
#include "util/buffer_pool.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

/// The time-budget guarantee (DESIGN.md §16): every bucket is non-negative
/// and the split sums to the job's elapsed wall-clock within 1%.
void expect_budget_closed(const JobStatus& st) {
    const TimeBudget& b = st.budget;
    EXPECT_GE(b.compute_seconds, 0.0);
    EXPECT_GE(b.io_wait_seconds, 0.0);
    EXPECT_GE(b.gate_wait_seconds, 0.0);
    EXPECT_GE(b.pool_wait_seconds, 0.0);
    EXPECT_GE(b.other_seconds, 0.0);
    EXPECT_NEAR(b.elapsed_seconds, st.elapsed_seconds, 1e-9);
    const double sum = b.compute_seconds + b.io_wait_seconds + b.gate_wait_seconds +
                       b.pool_wait_seconds + b.other_seconds;
    EXPECT_NEAR(sum, b.elapsed_seconds, 0.01 * std::max(b.elapsed_seconds, 1e-6))
        << st.name << ": budget does not close (sum " << sum << " vs elapsed "
        << b.elapsed_seconds << ")";
}

DiskArray make_array(DiskBackend backend) {
    return backend == DiskBackend::kFile
               ? DiskArray(8, 64, DiskBackend::kFile,
                           std::filesystem::temp_directory_path().string())
               : DiskArray(8, 64);
}

/// `count` distinct-workload specs, sized to finish quickly but still run
/// multiple merge levels (n >> m).
std::vector<JobSpec> make_specs(std::size_t count) {
    const Workload kinds[] = {Workload::kUniform,      Workload::kZipf,
                              Workload::kOrganPipe,    Workload::kNearlySorted,
                              Workload::kDuplicateHeavy, Workload::kGaussian,
                              Workload::kReverse,      Workload::kAllEqual};
    std::vector<JobSpec> specs;
    for (std::size_t i = 0; i < count; ++i) {
        JobSpec s;
        s.workload = kinds[i % (sizeof(kinds) / sizeof(kinds[0]))];
        s.name = std::string(to_string(s.workload)) + "-" + std::to_string(i);
        s.n = 16384 + 2048 * i;
        s.m = 2048;
        s.p = 2;
        s.seed = 77 + i;
        s.config.threads(2);
        specs.push_back(std::move(s));
    }
    return specs;
}

/// One schedule on a fresh array. A memory-backed array runs the inline
/// executor unless `workers`; the scheduler turns a file-backed array's
/// workers on itself.
std::vector<JobStatus> run_schedule(const std::vector<JobSpec>& specs, DiskBackend backend,
                                    bool workers, std::uint32_t max_active) {
    DiskArray disks = make_array(backend);
    disks.set_async(workers);
    SchedulerConfig cfg;
    cfg.max_active = max_active;
    SortScheduler sched(disks, cfg);
    for (const JobSpec& s : specs) {
        AdmissionResult adm = sched.submit(s);
        EXPECT_TRUE(adm.admitted) << s.name << ": " << adm.reason;
    }
    return sched.wait_all();
}

/// The matrix body: solo goldens on a fresh array, then the concurrent
/// schedule on another fresh array, per-job quantities must match exactly.
void expect_concurrent_matches_solo(DiskBackend backend, bool workers, std::size_t n_jobs,
                                    std::uint32_t max_active) {
    const auto specs = make_specs(n_jobs);
    const auto solo = run_schedule(specs, backend, workers, /*max_active=*/1);
    const auto conc = run_schedule(specs, backend, workers, max_active);
    ASSERT_EQ(solo.size(), specs.size());
    ASSERT_EQ(conc.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].name);
        ASSERT_EQ(solo[i].state, JobState::kSucceeded) << solo[i].error;
        ASSERT_EQ(conc[i].state, JobState::kSucceeded) << conc[i].error;
        EXPECT_EQ(conc[i].output_hash, solo[i].output_hash);
        EXPECT_EQ(conc[i].io.io_steps(), solo[i].io.io_steps());
        EXPECT_EQ(conc[i].report.io.read_steps, solo[i].report.io.read_steps);
        EXPECT_EQ(conc[i].report.io.write_steps, solo[i].report.io.write_steps);
        EXPECT_EQ(conc[i].report.io.blocks_read, solo[i].report.io.blocks_read);
        EXPECT_EQ(conc[i].report.io.blocks_written, solo[i].report.io.blocks_written);
        EXPECT_EQ(conc[i].report.s_used, solo[i].report.s_used);
        EXPECT_EQ(conc[i].report.levels, solo[i].report.levels);
        // Every job's wall-clock budget must close, solo and concurrent
        // alike (DESIGN.md §16).
        expect_budget_closed(solo[i]);
        expect_budget_closed(conc[i]);
    }
}

// "Sync" runs the inline executor, "Async" the per-disk workers. A
// file-backed array is always on the workers while a scheduler owns it.
TEST(SvcMatrixTest, MemorySyncFourJobs) {
    expect_concurrent_matches_solo(DiskBackend::kMemory, /*workers=*/false, 4, 4);
}

TEST(SvcMatrixTest, MemoryAsyncEightJobs) {
    expect_concurrent_matches_solo(DiskBackend::kMemory, /*workers=*/true, 8, 4);
}

TEST(SvcMatrixTest, FileWorkerTwoJobs) {
    // The caller leaves the array inline; the scheduler turns the workers on.
    expect_concurrent_matches_solo(DiskBackend::kFile, /*workers=*/false, 2, 2);
}

TEST(SvcMatrixTest, FileAsyncFourJobs) {
    // The caller already enabled the workers; the scheduler keeps them.
    expect_concurrent_matches_solo(DiskBackend::kFile, /*workers=*/true, 4, 4);
}

// ---------------------------------------------------------------------------
// Shared compute executor (DESIGN.md §15)
// ---------------------------------------------------------------------------

/// Like run_schedule, but with explicit control over the scheduler's
/// compute executor: shared (one pool, `executor_threads` workers) or
/// per-job private pools.
std::vector<JobStatus> run_schedule_exec(const std::vector<JobSpec>& specs,
                                         std::uint32_t max_active, bool share_executor,
                                         std::uint32_t executor_threads) {
    DiskArray disks = make_array(DiskBackend::kMemory);
    SchedulerConfig cfg;
    cfg.max_active = max_active;
    cfg.share_executor = share_executor;
    cfg.executor_threads = executor_threads;
    SortScheduler sched(disks, cfg);
    for (const JobSpec& s : specs) {
        AdmissionResult adm = sched.submit(s);
        EXPECT_TRUE(adm.admitted) << s.name << ": " << adm.reason;
    }
    return sched.wait_all();
}

/// Jobs asking for 4 compute lanes on an executor sized to exactly honor
/// them (3 workers + the job thread), independent of the host's core count.
std::vector<JobSpec> make_wide_specs(std::size_t count) {
    auto specs = make_specs(count);
    for (JobSpec& s : specs) s.config.threads(4);
    return specs;
}

TEST(SvcExecutorTest, SharedExecutorConcurrentMatchesSolo) {
    // The tentpole guarantee at width 4: one executor serving 4 jobs at
    // once produces, per job, the same sorted output AND the same charged
    // model quantities as the same jobs trickled through one at a time.
    const auto specs = make_wide_specs(4);
    const auto solo = run_schedule_exec(specs, /*max_active=*/1, /*share=*/true, 3);
    const auto conc = run_schedule_exec(specs, /*max_active=*/4, /*share=*/true, 3);
    ASSERT_EQ(solo.size(), specs.size());
    ASSERT_EQ(conc.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].name);
        ASSERT_EQ(solo[i].state, JobState::kSucceeded) << solo[i].error;
        ASSERT_EQ(conc[i].state, JobState::kSucceeded) << conc[i].error;
        EXPECT_EQ(conc[i].output_hash, solo[i].output_hash);
        EXPECT_EQ(conc[i].io.io_steps(), solo[i].io.io_steps());
        EXPECT_EQ(conc[i].report.comparisons, solo[i].report.comparisons);
        EXPECT_EQ(conc[i].report.moves, solo[i].report.moves);
        EXPECT_EQ(conc[i].report.pram_time, solo[i].report.pram_time);
        EXPECT_EQ(conc[i].report.s_used, solo[i].report.s_used);
        EXPECT_EQ(conc[i].report.levels, solo[i].report.levels);
        // Per-job compute accounting: the chunk structure is input-
        // deterministic, so the task count matches solo exactly; only the
        // stolen/helped split is schedule-dependent.
        EXPECT_GT(conc[i].report.phases.compute_tasks, 0u);
        EXPECT_EQ(conc[i].report.phases.compute_tasks, solo[i].report.phases.compute_tasks);
        EXPECT_LE(conc[i].report.phases.compute_stolen + conc[i].report.phases.compute_helped,
                  conc[i].report.phases.compute_tasks);
    }
}

TEST(SvcExecutorTest, PrivateExecutorsMatchSharedExecutor) {
    // share_executor=false gives every job its own pool; all model
    // quantities must still match the shared-pool schedule (width is what
    // the charges key on, never the physical pool).
    const auto specs = make_wide_specs(3);
    const auto shared = run_schedule_exec(specs, /*max_active=*/3, /*share=*/true, 3);
    const auto priv = run_schedule_exec(specs, /*max_active=*/3, /*share=*/false, 0);
    ASSERT_EQ(shared.size(), specs.size());
    ASSERT_EQ(priv.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].name);
        ASSERT_EQ(shared[i].state, JobState::kSucceeded) << shared[i].error;
        ASSERT_EQ(priv[i].state, JobState::kSucceeded) << priv[i].error;
        EXPECT_EQ(priv[i].output_hash, shared[i].output_hash);
        EXPECT_EQ(priv[i].io.io_steps(), shared[i].io.io_steps());
        EXPECT_EQ(priv[i].report.comparisons, shared[i].report.comparisons);
        EXPECT_EQ(priv[i].report.moves, shared[i].report.moves);
    }
}

TEST(SvcExecutorTest, ExternalSharedExecutorIsRejected) {
    DiskArray disks(8, 64);
    SortScheduler sched(disks, SchedulerConfig{});
    Executor outside(1);
    JobSpec bad;
    bad.name = "outside-exec";
    bad.n = 16384;
    bad.m = 2048;
    bad.p = 2;
    bad.config.compute(ComputePolicy{}.executor(&outside));
    const AdmissionResult r = sched.submit(bad);
    EXPECT_FALSE(r.admitted);
    EXPECT_NE(r.reason.find("Executor"), std::string::npos) << r.reason;
}

TEST(SvcExecutorTest, OverwideThreadsRejectedAtAdmission) {
    // submit() validates the config with the scheduler's executor wired
    // in, so a lane cap the shared executor cannot honor is rejected as an
    // AdmissionResult, not a mid-run job failure.
    DiskArray disks(8, 64);
    SchedulerConfig cfg;
    cfg.executor_threads = 1; // 1 worker + the submitting thread = 2 lanes max
    SortScheduler sched(disks, cfg);

    JobSpec bad;
    bad.name = "overwide";
    bad.n = 16384;
    bad.m = 2048;
    bad.p = 2;
    bad.config.threads(3);
    const AdmissionResult r = sched.submit(bad);
    EXPECT_FALSE(r.admitted);
    EXPECT_NE(r.reason.find("executor"), std::string::npos) << r.reason;

    JobSpec ok = bad;
    ok.name = "at-capacity";
    ok.config.threads(2);
    const AdmissionResult a = sched.submit(ok);
    ASSERT_TRUE(a.admitted) << a.reason;
    EXPECT_EQ(sched.wait(a.id).state, JobState::kSucceeded);
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

JobSpec big_spec(const std::string& name) {
    JobSpec s;
    s.name = name;
    s.n = 1u << 18; // long enough that cancel lands mid-sort
    s.m = 2048;
    s.p = 2;
    s.config.threads(2);
    return s;
}

JobSpec small_spec(const std::string& name, std::uint64_t seed = 5) {
    JobSpec s;
    s.name = name;
    s.n = 16384;
    s.m = 2048;
    s.p = 2;
    s.seed = seed;
    s.config.threads(2);
    return s;
}

TEST(SvcLifecycleTest, CancelMidPhaseLeavesArrayHealthy) {
    DiskArray disks(8, 64);
    SchedulerConfig cfg;
    cfg.max_active = 1;
    SortScheduler sched(disks, cfg);

    const AdmissionResult victim = sched.submit(big_spec("victim"));
    ASSERT_TRUE(victim.admitted) << victim.reason;
    while (sched.status(victim.id).state == JobState::kQueued) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(sched.cancel(victim.id));
    const JobStatus cancelled = sched.wait(victim.id);
    EXPECT_EQ(cancelled.state, JobState::kCancelled);
    EXPECT_FALSE(sched.cancel(victim.id)); // terminal: nothing to cancel

    // The shared array must be fully reclaimed: a fresh job still succeeds
    // with solo-identical accounting.
    const AdmissionResult after = sched.submit(small_spec("after"));
    ASSERT_TRUE(after.admitted) << after.reason;
    const JobStatus done = sched.wait(after.id);
    ASSERT_EQ(done.state, JobState::kSucceeded) << done.error;

    const auto golden = run_schedule({small_spec("after")}, DiskBackend::kMemory,
                                     /*workers=*/false, 1);
    ASSERT_EQ(golden.size(), 1u);
    EXPECT_EQ(done.output_hash, golden[0].output_hash);
    EXPECT_EQ(done.io.io_steps(), golden[0].io.io_steps());
}

TEST(SvcLifecycleTest, CancelQueuedJobIsImmediate) {
    DiskArray disks(8, 64);
    SchedulerConfig cfg;
    cfg.max_active = 1;
    SortScheduler sched(disks, cfg);

    const AdmissionResult head = sched.submit(big_spec("head"));
    ASSERT_TRUE(head.admitted) << head.reason;
    const AdmissionResult queued = sched.submit(small_spec("queued"));
    ASSERT_TRUE(queued.admitted) << queued.reason;

    ASSERT_TRUE(sched.cancel(queued.id));
    EXPECT_EQ(sched.wait(queued.id).state, JobState::kCancelled);

    sched.cancel(head.id); // don't wait out the big sort
    const JobState head_state = sched.wait(head.id).state;
    EXPECT_TRUE(head_state == JobState::kCancelled || head_state == JobState::kSucceeded);
}

TEST(SvcLifecycleTest, UnknownIdsAreRejected) {
    DiskArray disks(8, 64);
    SortScheduler sched(disks, SchedulerConfig{});
    EXPECT_THROW(sched.status(9999), std::invalid_argument);
    EXPECT_FALSE(sched.cancel(9999));
}

TEST(SvcLifecycleTest, ExclusiveCheckpointJobRunsAmongNeighbours) {
    const auto dir = std::filesystem::temp_directory_path() / "balsort_svc_test_ck";
    std::filesystem::create_directories(dir);
    const std::string ck_path = (dir / "job.ck").string();
    std::filesystem::remove(ck_path);

    DiskArray disks(8, 64);
    SchedulerConfig cfg;
    cfg.max_active = 2;
    SortScheduler sched(disks, cfg);

    JobSpec ck = small_spec("checkpointed", 11);
    ck.config.durability(DurabilityPolicy{}.checkpoint(ck_path));

    const AdmissionResult a = sched.submit(small_spec("before", 12));
    const AdmissionResult b = sched.submit(ck);
    const AdmissionResult c = sched.submit(small_spec("while", 13));
    ASSERT_TRUE(a.admitted) << a.reason;
    ASSERT_TRUE(b.admitted) << b.reason;
    ASSERT_TRUE(c.admitted) << c.reason;
    for (const JobStatus& st : sched.wait_all()) {
        EXPECT_EQ(st.state, JobState::kSucceeded) << st.name << ": " << st.error;
    }
    std::filesystem::remove_all(dir);
}

TEST(SvcLifecycleTest, ManifestWrittenPerSucceededJob) {
    const auto dir = std::filesystem::temp_directory_path() / "balsort_svc_test_manifests";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    DiskArray disks(8, 64);
    SchedulerConfig cfg;
    cfg.max_active = 2;
    cfg.manifest_dir = dir.string();
    SortScheduler sched(disks, cfg);

    const AdmissionResult adm = sched.submit(small_spec("manifested", 21));
    ASSERT_TRUE(adm.admitted) << adm.reason;
    ASSERT_EQ(sched.wait(adm.id).state, JobState::kSucceeded);

    const auto path = dir / ("job-" + std::to_string(adm.id) + "-manifested.json");
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(SvcAdmissionTest, SpecValidationRejectsWithReason) {
    DiskArray disks(8, 64);
    SortScheduler sched(disks, SchedulerConfig{});
    const JobSpec base = small_spec("base");

    {
        JobSpec bad = base;
        bad.priority = 0;
        const AdmissionResult r = sched.submit(bad);
        EXPECT_FALSE(r.admitted);
        EXPECT_NE(r.reason.find("priority"), std::string::npos) << r.reason;
    }
    {
        std::atomic<bool> flag{false};
        JobSpec bad = base;
        bad.config.cancel(&flag);
        const AdmissionResult r = sched.submit(bad);
        EXPECT_FALSE(r.admitted);
        EXPECT_NE(r.reason.find("cancel"), std::string::npos) << r.reason;
    }
    {
        BufferPool pool;
        JobSpec bad = base;
        bad.config.io(IoPolicy{}.pool(&pool));
        const AdmissionResult r = sched.submit(bad);
        EXPECT_FALSE(r.admitted);
        EXPECT_NE(r.reason.find("shared"), std::string::npos) << r.reason;
    }
    {
        Tracer tracer;
        JobSpec bad = base;
        bad.config.observability(ObsPolicy{}.tracer(&tracer));
        const AdmissionResult r = sched.submit(bad);
        EXPECT_FALSE(r.admitted);
        EXPECT_NE(r.reason.find("observability"), std::string::npos) << r.reason;
    }
    {
        ProgressSink sink;
        JobSpec bad = base;
        bad.config.obs_policy.progress = &sink;
        const AdmissionResult r = sched.submit(bad);
        EXPECT_FALSE(r.admitted);
        EXPECT_NE(r.reason.find("progress"), std::string::npos) << r.reason;
    }
    {
        JobSpec bad = base;
        bad.m = 0; // PdmConfig::validate rejects
        const AdmissionResult r = sched.submit(bad);
        EXPECT_FALSE(r.admitted);
        EXPECT_FALSE(r.reason.empty());
    }
    {
        // A per-job retention cap is coherent on its own; the scheduler's
        // shared pool replaces the private pool it would have sized, so
        // the job runs instead of failing the shared-pool validation.
        JobSpec capped = base;
        capped.config.io(IoPolicy{}.pool_retain(4096));
        const AdmissionResult r = sched.submit(capped);
        ASSERT_TRUE(r.admitted) << r.reason;
        const JobStatus st = sched.wait(r.id);
        EXPECT_EQ(st.state, JobState::kSucceeded) << st.error;
    }
}

TEST(SvcAdmissionTest, ZeroCapacityQueueRejectsEverything) {
    DiskArray disks(8, 64);
    SchedulerConfig cfg;
    cfg.queue_capacity = 0;
    SortScheduler sched(disks, cfg);
    const AdmissionResult r = sched.submit(small_spec("nope"));
    EXPECT_FALSE(r.admitted);
    EXPECT_NE(r.reason.find("queue full"), std::string::npos) << r.reason;
}

TEST(SvcAdmissionTest, FullQueueRejectsUntilSlotsFree) {
    DiskArray disks(8, 64);
    SchedulerConfig cfg;
    cfg.max_active = 1;
    cfg.queue_capacity = 1;
    SortScheduler sched(disks, cfg);

    const AdmissionResult running = sched.submit(big_spec("running"));
    ASSERT_TRUE(running.admitted) << running.reason;
    const AdmissionResult queued = sched.submit(small_spec("queued"));
    ASSERT_TRUE(queued.admitted) << queued.reason;

    const AdmissionResult overflow = sched.submit(small_spec("overflow"));
    EXPECT_FALSE(overflow.admitted);
    EXPECT_NE(overflow.reason.find("queue full"), std::string::npos) << overflow.reason;

    sched.cancel(running.id);
    sched.cancel(queued.id);
    sched.wait_all();
}

TEST(SvcAdmissionTest, ScratchBudgetChargesAndReleases) {
    DiskArray disks(8, 64); // B = 64: estimate = 4 * ceil(n / 64)
    SchedulerConfig cfg;
    cfg.max_active = 1;
    cfg.scratch_block_budget = 5000;
    SortScheduler sched(disks, cfg);

    JobSpec mid = small_spec("mid");
    mid.n = 64000; // estimate 4000 <= 5000
    EXPECT_EQ(sched.estimate_scratch_blocks(mid), 4000u);

    JobSpec whale = small_spec("whale");
    whale.n = 1u << 20; // estimate 65536 > whole budget
    const AdmissionResult too_big = sched.submit(whale);
    EXPECT_FALSE(too_big.admitted);
    EXPECT_NE(too_big.reason.find("over the whole budget"), std::string::npos) << too_big.reason;

    const AdmissionResult first = sched.submit(mid);
    ASSERT_TRUE(first.admitted) << first.reason;
    JobSpec second_spec = mid;
    second_spec.name = "mid-2";
    const AdmissionResult second = sched.submit(second_spec);
    EXPECT_FALSE(second.admitted); // 4000 committed + 4000 > 5000
    EXPECT_NE(second.reason.find("exhausted"), std::string::npos) << second.reason;

    // Terminal jobs release their charge: after the first finishes the
    // same spec is admissible again.
    ASSERT_EQ(sched.wait(first.id).state, JobState::kSucceeded);
    const AdmissionResult again = sched.submit(second_spec);
    EXPECT_TRUE(again.admitted) << again.reason;
    EXPECT_EQ(sched.wait(again.id).state, JobState::kSucceeded);
}

// ---------------------------------------------------------------------------
// Live observatory (DESIGN.md §16)
// ---------------------------------------------------------------------------

TEST(SvcObservatoryTest, QueuedStatusReportsPositionAndReason) {
    DiskArray disks(8, 64);
    SchedulerConfig cfg;
    cfg.max_active = 1;
    SortScheduler sched(disks, cfg);

    const AdmissionResult running = sched.submit(big_spec("running"));
    ASSERT_TRUE(running.admitted) << running.reason;
    const AdmissionResult first = sched.submit(small_spec("first-queued"));
    ASSERT_TRUE(first.admitted) << first.reason;
    const AdmissionResult second = sched.submit(small_spec("second-queued"));
    ASSERT_TRUE(second.admitted) << second.reason;

    const JobStatus head = sched.status(first.id);
    if (head.state == JobState::kQueued) {
        EXPECT_EQ(head.queue_position, 0u);
        EXPECT_NE(head.waiting_reason.find("active slots"), std::string::npos)
            << head.waiting_reason;
    }
    const JobStatus tail = sched.status(second.id);
    if (tail.state == JobState::kQueued) {
        EXPECT_EQ(tail.queue_position, 1u);
        EXPECT_NE(tail.waiting_reason.find("behind 1 queued job"), std::string::npos)
            << tail.waiting_reason;
    }
    // A running job reports no queue diagnostics.
    const JobStatus active = sched.status(running.id);
    if (active.state == JobState::kRunning) {
        EXPECT_TRUE(active.waiting_reason.empty());
    }

    sched.cancel(running.id);
    sched.cancel(first.id);
    sched.cancel(second.id);
    sched.wait_all();
}

TEST(SvcObservatoryTest, ProgressAdvancesAndFreezesAtDone) {
    DiskArray disks(8, 64);
    SchedulerConfig cfg;
    cfg.max_active = 1;
    SortScheduler sched(disks, cfg);
    const AdmissionResult adm = sched.submit(big_spec("tracked"));
    ASSERT_TRUE(adm.admitted) << adm.reason;

    // Progress must move through real pipeline phases while running. Poll
    // for the whole life of the job (generous cap only as a hang guard):
    // under slowdowns like TSan the first live phase can appear seconds in.
    bool saw_live_phase = false;
    for (int i = 0; i < 120'000; ++i) {
        const JobStatus st = sched.status(adm.id);
        if (st.state != JobState::kQueued && st.state != JobState::kRunning) break;
        if (st.state == JobState::kRunning && st.progress.records_total > 0 &&
            st.progress.phase != "idle") {
            saw_live_phase = true;
            EXPECT_LE(st.progress.records_emitted, st.progress.records_total);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const JobStatus done = sched.wait(adm.id);
    ASSERT_EQ(done.state, JobState::kSucceeded) << done.error;
    EXPECT_TRUE(saw_live_phase);
    EXPECT_EQ(done.progress.phase, "done");
    EXPECT_EQ(done.progress.records_emitted, done.progress.records_total);
    EXPECT_EQ(done.progress.records_total, big_spec("tracked").n);
    EXPECT_EQ(done.progress.eta_seconds, 0.0);
    EXPECT_GT(done.progress.io_steps, 0u);
    expect_budget_closed(done);
}

// Compiled out with obs: the publish paths guard on metrics(), which is
// constexpr nullptr under BALSORT_NO_OBS, so the registry never fills and
// there is nothing to scrape.
#ifndef BALSORT_NO_OBS
TEST(SvcObservatoryTest, ExpositionServesMidRunDuringConcurrentSort) {
    DiskArray disks(8, 64);
    MetricsRegistry registry;
    SchedulerConfig cfg;
    cfg.max_active = 4;
    cfg.metrics = &registry;
    SortScheduler sched(disks, cfg);

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 4; ++i) {
        AdmissionResult adm = sched.submit(big_spec("expo" + std::to_string(i)));
        ASSERT_TRUE(adm.admitted) << adm.reason;
        ids.push_back(adm.id);
    }
    // Scrape mid-run: wait until at least one job is running, then render.
    std::string mid;
    for (int i = 0; i < 2000 && mid.empty(); ++i) {
        for (std::uint64_t id : ids) {
            if (sched.status(id).state == JobState::kRunning) {
                sched.publish_stats();
                mid = exposition_text(registry);
                break;
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_FALSE(mid.empty()) << "no job was ever observed running";
    EXPECT_NE(mid.find("# TYPE balsort_svc_jobs_active gauge"), std::string::npos);
    EXPECT_NE(mid.find("balsort_executor_queue_depth"), std::string::npos);
    // Exposition format sanity: every non-comment line is "name value" with
    // a parseable numeric value.
    std::istringstream lines(mid);
    std::string line;
    std::size_t samples = 0;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#') continue;
        const auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        const std::string value = line.substr(space + 1);
        char* end = nullptr;
        std::strtod(value.c_str(), &end);
        EXPECT_TRUE(end != nullptr && *end == '\0') << line;
        ++samples;
    }
    EXPECT_GT(samples, 10u);

    for (const JobStatus& st : sched.wait_all()) {
        EXPECT_EQ(st.state, JobState::kSucceeded) << st.name << ": " << st.error;
    }
    // After the last job, the live gauges settle back to idle.
    sched.publish_stats();
    const std::string after = exposition_text(registry);
    EXPECT_NE(after.find("balsort_svc_jobs_active 0"), std::string::npos);
    EXPECT_NE(after.find("balsort_svc_jobs_queued 0"), std::string::npos);
}
#endif // BALSORT_NO_OBS

#ifndef BALSORT_NO_OBS
TEST(SvcObservatoryTest, FlightRecorderOverheadGuard) {
    // The flight recorder is always on — this is the overhead guard: with
    // the recorder demonstrably recording (note_count advances), every
    // model quantity stays byte-identical across repeat runs, and the dump
    // is well-formed Chrome-trace JSON.
    const std::uint64_t notes_before = FlightRecorder::instance().note_count();
    const auto specs = make_specs(2);
    const auto a = run_schedule(specs, DiskBackend::kMemory, /*workers=*/true, 2);
    const auto b = run_schedule(specs, DiskBackend::kMemory, /*workers=*/true, 2);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(specs[i].name);
        ASSERT_EQ(a[i].state, JobState::kSucceeded) << a[i].error;
        ASSERT_EQ(b[i].state, JobState::kSucceeded) << b[i].error;
        EXPECT_EQ(a[i].io.io_steps(), b[i].io.io_steps());
        EXPECT_EQ(a[i].output_hash, b[i].output_hash);
    }
    EXPECT_GT(FlightRecorder::instance().note_count(), notes_before)
        << "recorder saw no events during two schedules";

    std::ostringstream dump;
    FlightRecorder::instance().dump(dump);
    const std::string json = dump.str();
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 40);
    EXPECT_EQ(json.substr(json.size() - 2), "]}");
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}
#endif

// ---------------------------------------------------------------------------
// SortJobConfig policy validation
// ---------------------------------------------------------------------------

TEST(SvcConfigTest, PolicyValidationRejectsIncoherentCombos) {
    BufferPool pool;
    EXPECT_THROW(IoPolicy{}.pool(&pool).pool_retain(123).validate(), std::invalid_argument);
    EXPECT_NO_THROW(IoPolicy{}.pool(&pool).validate());
    EXPECT_NO_THROW(IoPolicy{}.pool_retain(123).validate());

    EXPECT_THROW(DurabilityPolicy{}.resume("ck.bin").validate(), std::invalid_argument);
    EXPECT_THROW(DurabilityPolicy{}.hook([](std::uint64_t) {}).validate(),
                 std::invalid_argument);
    EXPECT_NO_THROW(DurabilityPolicy{}.checkpoint("ck.bin").resume("ck.bin").validate());

    EXPECT_NO_THROW(SortJobConfig{}.validate(8));
    EXPECT_THROW(SortJobConfig{}.io(IoPolicy{}.pool(&pool).pool_retain(123)).validate(8),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// BufferPool retention cap
// ---------------------------------------------------------------------------

TEST(SvcBufferPoolTest, UncappedPoolRetainsEverything) {
    BufferPool pool; // cap = 0: unlimited retention, nothing ever dropped
    { BufferPool::Lease a = pool.acquire(100); EXPECT_EQ(a->size(), 100u); }
    BufferPool::Stats st = pool.stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.dropped, 0u);
    EXPECT_GE(st.retained_records, 100u);

    { BufferPool::Lease b = pool.acquire(80); } // served from the recycled buffer
    st = pool.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.dropped, 0u);

    {
        BufferPool::Lease a = pool.acquire(1000);
        BufferPool::Lease b = pool.acquire(2000);
    }
    st = pool.stats();
    EXPECT_EQ(st.dropped, 0u);
    EXPECT_GE(st.retained_records, 3000u);
    EXPECT_GE(st.high_water_records, st.retained_records);
}

TEST(SvcBufferPoolTest, RetentionCapDropsBeyondCap) {
    BufferPool pool(500);
    {
        BufferPool::Lease a = pool.acquire(400);
        BufferPool::Lease b = pool.acquire(400);
    } // first return retained (400 <= 500), second would exceed the cap
    const BufferPool::Stats st = pool.stats();
    EXPECT_EQ(st.dropped, 1u);
    EXPECT_LE(st.retained_records, 500u);
}

TEST(SvcBufferPoolTest, NullPoolYieldsUnpooledLease) {
    BufferPool::Lease lease = BufferPool::acquire_from(nullptr, 64);
    ASSERT_EQ(lease->size(), 64u);
    (*lease)[0] = Record{1, 2};
    EXPECT_EQ((*lease)[0].key, 1u);
}

} // namespace
} // namespace balsort
