#pragma once
/// \file sort_scheduler.hpp
/// balsortd's core: a concurrent multi-job sort scheduler over one shared
/// DiskArray (DESIGN.md §14).
///
/// The scheduler owns the service plumbing around N concurrent
/// balance_sort jobs on one array:
///
///  * admission control — a bounded queue plus a scratch-block budget;
///    submit() rejects with a reason instead of queueing unboundedly or
///    letting one huge job wedge the array;
///  * fair I/O — every job's channel gate routes through one IoArbiter
///    (deficit round-robin over charged steps, weighted by JobSpec::
///    priority, scaled by SchedulerConfig::fairness);
///  * lifecycle — submit/status/cancel/wait; each job runs on its own
///    worker thread with a bound JobIoChannel, so its model accounting
///    comes out byte-identical to a solo run (tested), and a failed or
///    cancelled job's scratch is drained and reclaimed without touching
///    the neighbours;
///  * isolation — one job's disk death, timeout, or cancellation never
///    poisons another job's accounting or unwinds its thread: write-behind
///    failures are attributed to the owning channel (parked and rethrown
///    on *its* next drain), and checkpointing jobs — whose boundaries
///    snapshot the whole array — run exclusively.
///
/// Threading: public methods are callable from any thread. Worker threads
/// take the array's internal lock only via DiskArray's public surface;
/// the fairness gate always blocks *outside* that lock.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/phase_profile.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "pdm/disk_array.hpp"
#include "pdm/job_channel.hpp"
#include "pram/executor.hpp"
#include "svc/io_arbiter.hpp"
#include "svc/job.hpp"
#include "util/buffer_pool.hpp"

namespace balsort {

struct SchedulerConfig {
    /// Concurrent worker threads (jobs actually driving the array).
    std::uint32_t max_active = 4;
    /// Admitted-but-not-terminal jobs beyond the active set; submit()
    /// rejects once full.
    std::uint32_t queue_capacity = 16;
    /// Total scratch blocks the admitted (queued + running) jobs may need,
    /// by the 4*ceil(n/B) estimate; 0 = unlimited. One job larger than the
    /// whole budget is rejected outright.
    std::uint64_t scratch_block_budget = 0;
    /// IoArbiter quantum scale (see io_arbiter.hpp); <= 0 disables
    /// arbitration.
    double fairness = 1.0;
    /// Share one BufferPool across all jobs (recycles staging buffers
    /// between jobs); off gives each job its own per-sort pool.
    bool share_buffer_pool = true;
    /// Share one work-stealing Executor across all jobs' compute
    /// (DESIGN.md §15): concurrent base-case sorts, selections, and merges
    /// interleave on one worker set instead of oversubscribing the machine
    /// with a pool per job. Per-job task accounting stays separate
    /// (ComputeChannel), and every model quantity is byte-identical to a
    /// private-pool run (the logical width never depends on sharing). Off
    /// gives each job its own private executor.
    bool share_executor = true;
    /// Worker-thread count of the shared executor; 0 = hardware
    /// concurrency. Jobs see a logical width of min(p, workers + 1) unless
    /// their ComputePolicy::threads pins one.
    std::uint32_t executor_threads = 0;
    /// Retention cap of the shared pool (records); 0 = unlimited.
    std::uint64_t shared_pool_retain_records = 0;
    /// When non-empty, write one RunManifest JSON per succeeded job into
    /// this directory (must exist): <dir>/job-<id>-<name>.json.
    std::string manifest_dir;
    /// Ambient observability for the service's lifetime: installed once by
    /// the scheduler, shared by every job (per-job lanes keep the
    /// timelines apart). Jobs must leave their ObsPolicy sinks null.
    Tracer* trace = nullptr;
    MetricsRegistry* metrics = nullptr;
};

/// Outcome of SortScheduler::submit — admission control's answer.
struct AdmissionResult {
    bool admitted = false;
    std::uint64_t id = 0; ///< valid when admitted
    std::string reason;   ///< why not, when rejected
};

class SortScheduler {
public:
    /// The array must outlive the scheduler. On a file-backed array the
    /// scheduler turns the per-disk worker executor on for its lifetime
    /// and restores the previous state on destruction; a memory-backed
    /// array keeps the executor its owner chose with set_async. Jobs never
    /// toggle the executor themselves (balance_sort skips its guard under
    /// a bound channel).
    explicit SortScheduler(DiskArray& disks, SchedulerConfig cfg = {});
    /// Cancels queued and running jobs, waits for workers, restores the
    /// array's engine state.
    ~SortScheduler();

    SortScheduler(const SortScheduler&) = delete;
    SortScheduler& operator=(const SortScheduler&) = delete;

    /// Admission control: validates the spec, checks queue and scratch
    /// budget, and either enqueues (possibly starting immediately) or
    /// rejects with a reason. Never throws on a rejectable condition.
    AdmissionResult submit(JobSpec spec);

    /// Point-in-time view; running jobs report live channel accounting.
    /// Throws std::invalid_argument for an unknown id.
    JobStatus status(std::uint64_t id) const;

    /// Request cancellation. A queued job is cancelled immediately; a
    /// running job observes the flag at its next pipeline boundary and
    /// unwinds (scratch reclaimed). Returns false for terminal/unknown ids.
    bool cancel(std::uint64_t id);

    /// Block until the job is terminal; returns its final status.
    JobStatus wait(std::uint64_t id);

    /// Wait for every admitted job; statuses in submission order.
    std::vector<JobStatus> wait_all();

    /// The scratch estimate admission charges for a spec: input run +
    /// output run + bucket scratch ~= 4 * ceil(n / B) blocks.
    std::uint64_t estimate_scratch_blocks(const JobSpec& spec) const;

    /// Fairness-gate observability (waits, refill rounds).
    IoArbiter::Stats arbiter_stats() const { return arbiter_.stats(); }

    /// Publish a point-in-time view of the service's live gauges into the
    /// installed MetricsRegistry (DESIGN.md §16): executor queue depth /
    /// steals (via Executor::publish_metrics), per-job DRR deficit and
    /// progress, per-disk async in-flight depth, shared-pool occupancy,
    /// and the active/queued job counts. No-op without a registry.
    /// balsortd's stats endpoint calls this before rendering exposition
    /// text, so a scrape always sees fresh values.
    void publish_stats();

private:
    struct Job {
        std::uint64_t id = 0;
        JobSpec spec;
        JobState state = JobState::kQueued;
        JobIoChannel channel;
        std::atomic<bool> cancel{false};
        std::thread worker;
        bool join_claimed = false; ///< a waiter took ownership of join()
        bool exclusive = false;    ///< checkpointing job: runs solo
        std::uint64_t scratch_estimate = 0;
        std::string error;
        SortReport report;
        std::uint64_t output_hash = 0;
        double elapsed_seconds = 0;
        IoStats final_io; ///< channel accounting frozen at termination
        /// Live pipeline progress, written by the sort's driver via
        /// ObsPolicy::progress (DESIGN.md §16).
        ProgressSink progress;
        /// Worker start time (kRunning: the live-elapsed origin).
        std::chrono::steady_clock::time_point started_at{};
        /// Wall-clock of the non-sort service segments of execute() —
        /// input generation, verify + hash, manifest — net of the gate /
        /// engine waits those segments themselves incurred.
        double other_seconds = 0;
        /// Final wall-clock split, filled at termination.
        TimeBudget budget;
    };

    /// Start queued jobs while slots allow (mu_ held). Exclusive jobs wait
    /// for an empty array and block later starts until they finish
    /// (head-of-line, deliberately: their checkpoints snapshot everything).
    void maybe_start_locked();
    /// `cfg` with the scheduler's shared pool and executor wired in — the
    /// configuration a job runs under, so admission validates exactly that.
    SortJobConfig wire_shared(SortJobConfig cfg);
    void run_job(Job& job);
    /// The job body (worker thread, channel bound). Returns the report,
    /// output hash and elapsed time via `job`; throws on failure.
    void execute(Job& job);
    JobStatus snapshot_locked(const Job& job) const;
    void finish(Job& job, JobState terminal, const std::string& error);
    /// Why a queued job has not started yet (mu_ held).
    std::string waiting_reason_locked(const Job& job) const;
    /// The job's wall-clock split (mu_ held): measured waits first, compute
    /// as the clamped remainder so the buckets always sum to elapsed.
    TimeBudget budget_locked(const Job& job, double elapsed, double io_wait,
                             double pool_wait) const;

    DiskArray& disks_;
    SchedulerConfig cfg_;
    IoArbiter arbiter_;
    BufferPool shared_pool_;
    TracerInstallGuard trace_guard_;
    MetricsInstallGuard metrics_guard_;
    /// The jobs' shared compute executor (null when share_executor is off).
    /// Declared after the install guards so its destructor-time metric
    /// publication still sees the registry installed.
    std::unique_ptr<Executor> executor_;
    bool prev_async_ = false;

    mutable std::mutex mu_;
    std::condition_variable terminal_cv_; ///< signalled on every terminal transition
    std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
    std::deque<Job*> queue_; ///< admitted, not yet started (FIFO)
    std::uint32_t active_ = 0;
    bool exclusive_running_ = false;
    std::uint64_t scratch_committed_ = 0; ///< sum of admitted estimates
    std::uint64_t next_id_ = 1;
};

} // namespace balsort
