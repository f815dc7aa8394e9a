#include "svc/sort_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/run_manifest.hpp"
#include "pdm/striping.hpp"
#include "util/math.hpp"

namespace balsort {

namespace {

/// Fill a status's live progress from the job's sink (DESIGN.md §16).
/// The completion fraction is phase-weighted: the pivot/balance front work
/// is ~kFrontWeight of a typical run's wall-clock (the PhaseProfile splits
/// across the test matrix), and the emitted-records fraction anchors the
/// rest. `records_emitted` is monotone, so the estimate only moves forward
/// even though the recursion revisits phases.
void fill_progress(JobStatus& s, const ProgressSink& sink, double elapsed) {
    const std::uint32_t phase = sink.phase_id.load(std::memory_order_relaxed);
    s.progress.phase = ProgressSink::phase_name(phase);
    s.progress.records_emitted = sink.records_emitted.load(std::memory_order_relaxed);
    s.progress.records_total = sink.records_total.load(std::memory_order_relaxed);
    s.progress.io_steps = s.io.io_steps();
    constexpr double kFrontWeight = 0.35;
    double frac = 0;
    switch (phase) {
        case ProgressSink::kIdle: frac = 0; break;
        case ProgressSink::kPivot: frac = 0.1 * kFrontWeight; break;
        case ProgressSink::kBalance: frac = 0.6 * kFrontWeight; break;
        default: frac = kFrontWeight; break;
    }
    if (s.progress.records_total > 0) {
        const double emit_frac = static_cast<double>(s.progress.records_emitted) /
                                 static_cast<double>(s.progress.records_total);
        frac = std::max(frac, kFrontWeight + (1.0 - kFrontWeight) * emit_frac);
    }
    if (phase == ProgressSink::kDone) frac = 1;
    if (frac >= 1) {
        s.progress.eta_seconds = 0;
    } else if (frac > 0.02) {
        s.progress.eta_seconds = elapsed * (1 - frac) / frac;
    } else {
        s.progress.eta_seconds = -1;
    }
}

} // namespace

SortScheduler::SortScheduler(DiskArray& disks, SchedulerConfig cfg)
    : disks_(disks),
      cfg_(std::move(cfg)),
      arbiter_(cfg_.fairness),
      shared_pool_(cfg_.shared_pool_retain_records),
      trace_guard_(cfg_.trace),
      metrics_guard_(cfg_.metrics),
      executor_(cfg_.share_executor ? std::make_unique<Executor>(cfg_.executor_threads)
                                    : nullptr),
      prev_async_(disks.async_enabled()) {
    BS_REQUIRE(cfg_.max_active >= 1, "SchedulerConfig: max_active must be >= 1");
    if (disks_.backend() == DiskBackend::kFile) disks_.set_async(true);
}

SortScheduler::~SortScheduler() {
    std::vector<std::uint64_t> ids;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto& [id, job] : jobs_) ids.push_back(id);
    }
    for (std::uint64_t id : ids) cancel(id);
    for (std::uint64_t id : ids) wait(id);
    try {
        disks_.set_async(prev_async_);
    } catch (...) {
        // Destructor: a straggling deferred failure has no job left to
        // surface to; the array itself stays consistent.
    }
}

std::uint64_t SortScheduler::estimate_scratch_blocks(const JobSpec& spec) const {
    const std::uint64_t n = spec.records.empty() ? spec.n : spec.records.size();
    // Input run + output run + ~2x transient bucket storage; the same
    // O(N)-space argument the paper makes, with its small constant.
    return 4 * std::max<std::uint64_t>(1, ceil_div(n, disks_.block_size()));
}

AdmissionResult SortScheduler::submit(JobSpec spec) {
    AdmissionResult res;
    // ---- spec validation (reject-with-reason, never throw). ----
    try {
        const std::uint64_t n = spec.records.empty() ? spec.n : spec.records.size();
        BS_REQUIRE(spec.priority >= 1, "JobSpec: priority must be >= 1");
        BS_REQUIRE(spec.config.cancel_flag == nullptr,
                   "JobSpec: the scheduler owns cancellation; use SortScheduler::cancel()");
        BS_REQUIRE(spec.config.io_policy.shared_pool == nullptr,
                   "JobSpec: the scheduler wires the shared BufferPool; leave "
                   "IoPolicy::shared_pool null");
        BS_REQUIRE(spec.config.compute_policy.shared_executor == nullptr,
                   "JobSpec: the scheduler wires the shared Executor; leave "
                   "ComputePolicy::shared_executor null");
        BS_REQUIRE(spec.config.obs_policy.trace == nullptr &&
                       spec.config.obs_policy.metrics == nullptr,
                   "JobSpec: per-job observability sinks would fight over the process-wide "
                   "installation; use SchedulerConfig::trace/metrics");
        BS_REQUIRE(spec.config.obs_policy.progress == nullptr,
                   "JobSpec: the scheduler publishes each job's progress; read it through "
                   "SortScheduler::status()");
        PdmConfig pdm;
        pdm.n = n;
        pdm.m = spec.m;
        pdm.d = disks_.num_disks();
        pdm.b = disks_.block_size();
        pdm.p = spec.p;
        pdm.validate();
        // Validated as it will run, shared executor included, so a lane cap
        // the executor cannot honor is an AdmissionResult rejection rather
        // than a mid-run job failure.
        wire_shared(spec.config).validate(disks_.num_disks());
    } catch (const std::exception& e) {
        res.reason = e.what();
        return res;
    }

    const std::uint64_t estimate = estimate_scratch_blocks(spec);
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= cfg_.queue_capacity) {
        std::ostringstream os;
        os << "admission queue full (" << queue_.size() << " of " << cfg_.queue_capacity
           << " slots)";
        res.reason = os.str();
        return res;
    }
    if (cfg_.scratch_block_budget != 0) {
        if (estimate > cfg_.scratch_block_budget) {
            std::ostringstream os;
            os << "job needs ~" << estimate << " scratch blocks, over the whole budget of "
               << cfg_.scratch_block_budget;
            res.reason = os.str();
            return res;
        }
        if (scratch_committed_ + estimate > cfg_.scratch_block_budget) {
            std::ostringstream os;
            os << "scratch budget exhausted: " << scratch_committed_ << " of "
               << cfg_.scratch_block_budget << " blocks committed, job needs ~" << estimate;
            res.reason = os.str();
            return res;
        }
    }

    auto job = std::make_unique<Job>();
    job->id = next_id_++;
    job->spec = std::move(spec);
    job->exclusive = !job->spec.config.durability_policy.checkpoint_path.empty();
    job->scratch_estimate = estimate;
    Job* raw = job.get();
    jobs_.emplace(raw->id, std::move(job));
    queue_.push_back(raw);
    scratch_committed_ += estimate;
    res.admitted = true;
    res.id = raw->id;
    maybe_start_locked();
    return res;
}

void SortScheduler::maybe_start_locked() {
    while (!queue_.empty() && !exclusive_running_) {
        Job* job = queue_.front();
        if (job->exclusive) {
            // A checkpointing job's boundaries drain and snapshot the whole
            // array, so it runs alone. Head-of-line blocking is deliberate:
            // letting later jobs jump the queue would starve it forever.
            if (active_ > 0) break;
            exclusive_running_ = true;
        } else if (active_ >= cfg_.max_active) {
            break;
        }
        queue_.pop_front();
        job->state = JobState::kRunning;
        job->started_at = std::chrono::steady_clock::now();
        ++active_;
        arbiter_.add(job->id, job->spec.priority);
        job->worker = std::thread([this, job]() { run_job(*job); });
    }
}

void SortScheduler::run_job(Job& job) {
    const auto t0 = std::chrono::steady_clock::now();
    JobState terminal = JobState::kSucceeded;
    std::string error;
    try {
        execute(job);
    } catch (const JobCancelled&) {
        terminal = JobState::kCancelled;
    } catch (const std::exception& e) {
        terminal = JobState::kFailed;
        error = e.what();
    } catch (...) {
        terminal = JobState::kFailed;
        error = "unknown exception";
    }
    if (terminal == JobState::kFailed) {
        // Preserve the flight recorder's view of how the job died: the
        // note lands in this worker's ring, and the dump (when a path is
        // configured) snapshots every thread's recent history.
        flight_note("job.failed", "svc", static_cast<std::int64_t>(job.id));
        flight_auto_dump("job.failed");
    }
    // The channel is unbound here (execute's binding is scoped); return
    // whatever the job still owns — everything, after a failure or
    // cancellation mid-phase — to the shared allocator.
    try {
        disks_.reclaim_job_blocks(job.channel);
    } catch (const std::exception& e) {
        if (terminal == JobState::kSucceeded) {
            terminal = JobState::kFailed;
            error = e.what();
        }
    }
    job.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    finish(job, terminal, error);
}

SortJobConfig SortScheduler::wire_shared(SortJobConfig cfg) {
    if (cfg_.share_buffer_pool) {
        // The shared pool's retention is fixed at construction; a per-job
        // cap would only have sized the private pool this replaces.
        cfg.io_policy.shared_pool = &shared_pool_;
        cfg.io_policy.pool_retain_records = IoPolicy::kPoolRetainAuto;
    }
    if (executor_ != nullptr) cfg.compute_policy.shared_executor = executor_.get();
    return cfg;
}

void SortScheduler::execute(Job& job) {
    const auto t_enter = std::chrono::steady_clock::now();
    const JobSpec& spec = job.spec;
    std::vector<Record> input =
        spec.records.empty() ? generate(spec.workload, spec.n, spec.seed) : spec.records;

    PdmConfig pdm;
    pdm.n = input.size();
    pdm.m = spec.m;
    pdm.d = disks_.num_disks();
    pdm.b = disks_.block_size();
    pdm.p = spec.p;

    SortJobConfig cfg = wire_shared(spec.config);
    cfg.cancel(&job.cancel);
    cfg.obs_policy.progress = &job.progress;

    // Fairness: every charged step passes the arbiter before the array's
    // internal lock (the gate contract). The wrapper times the charge —
    // that wall-clock is the job's arbiter-gate-wait budget bucket
    // (DESIGN.md §16); the arbiter itself shapes interleaving only.
    job.channel.gate = [this, &job](std::uint64_t steps) {
        const auto t0 = std::chrono::steady_clock::now();
        arbiter_.charge(job.id, steps);
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        job.channel.gate_wait_ns.fetch_add(static_cast<std::uint64_t>(ns),
                                           std::memory_order_relaxed);
    };

    Tracer* tr = tracer();
    const std::uint32_t lane = tr != nullptr ? tr->lane("job:" + spec.name) : 0;
    Span job_span(tr, "job", "svc", lane);
    job_span.arg("records", static_cast<std::int64_t>(pdm.n));
    job_span.arg("job_id", static_cast<std::int64_t>(job.id));

    JobChannelBinding bind(disks_, &job.channel);
    std::vector<Record> sorted;
    // Wall-clock the gate + engine waits this channel has accrued so far,
    // so the service segments below can be accounted net of them (a wait
    // during striping belongs to its own budget bucket, not to "other").
    auto waited = [this, &job]() {
        return static_cast<double>(job.channel.gate_wait_ns.load(std::memory_order_relaxed)) *
                   1e-9 +
               disks_.channel_stats(job.channel).engine_stall_seconds;
    };
    std::chrono::steady_clock::time_point t_post{};
    double waited_at_post = 0;
    try {
        BlockRun in_run = write_striped(disks_, input);
        // Pre-sort service segment: input generation + striping. Written
        // under mu_: status() reads other_seconds for the live budget.
        {
            const double seg = std::max(
                0.0,
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t_enter)
                        .count() -
                    waited());
            std::lock_guard<std::mutex> lock(mu_);
            job.other_seconds += seg;
        }
        BlockRun out = balance_sort(disks_, in_run, pdm, cfg, &job.report);
        t_post = std::chrono::steady_clock::now();
        waited_at_post = waited();
        sorted = read_run(disks_, out);
        for (const BlockOp& op : in_run.blocks) disks_.release(op);
        for (const BlockOp& op : out.blocks) disks_.release(op);
        disks_.drain_async();
    } catch (...) {
        // Land this job's in-flight work while the channel is still bound
        // so unbinding leaves nothing of ours in the engine. A deferred
        // failure surfacing here is this job's own; the original exception
        // wins.
        try {
            disks_.drain_async();
        } catch (...) {
        }
        throw;
    }

    job.output_hash = fnv1a_records(sorted);
    if (spec.verify &&
        !is_sorted_permutation_of(std::move(input), std::move(sorted))) {
        throw ModelViolation("job '" + spec.name +
                             "': output is not a sorted permutation of the input");
    }

    if (!cfg_.manifest_dir.empty()) {
        RunManifest mani;
        mani.tool = "balsortd";
        mani.algo = "balance";
        mani.cfg = pdm;
        mani.report = job.report;
        std::ostringstream path;
        path << cfg_.manifest_dir << "/job-" << job.id << '-' << spec.name << ".json";
        mani.write_json_file(path.str());
    }

    // Post-sort service segment: read-back + release, output hash, verify,
    // manifest — again net of the waits the read-back itself spent.
    {
        const double seg = std::max(
            0.0, std::chrono::duration<double>(std::chrono::steady_clock::now() - t_post).count() -
                     (waited() - waited_at_post));
        std::lock_guard<std::mutex> lock(mu_);
        job.other_seconds += seg;
    }
}

void SortScheduler::finish(Job& job, JobState terminal, const std::string& error) {
    {
        std::lock_guard<std::mutex> lock(mu_);
        job.state = terminal;
        job.error = error;
        job.final_io = disks_.channel_stats(job.channel);
        // Close the wall-clock budget while the final accounting is at
        // hand. pool-wait only exists when the sort completed (the report
        // carries it out of the driver); a job that died mid-sort reports
        // the remainder as compute.
        job.budget = budget_locked(job, job.elapsed_seconds, job.final_io.engine_stall_seconds,
                                   terminal == JobState::kSucceeded
                                       ? job.report.phases.pool_wait_seconds
                                       : 0.0);
        --active_;
        if (job.exclusive) exclusive_running_ = false;
        scratch_committed_ -= job.scratch_estimate;
        arbiter_.remove(job.id);
        maybe_start_locked();
    }
    terminal_cv_.notify_all();
}

JobStatus SortScheduler::snapshot_locked(const Job& job) const {
    JobStatus s;
    s.id = job.id;
    s.name = job.spec.name;
    s.state = job.state;
    s.error = job.error;
    switch (job.state) {
        case JobState::kQueued: {
            const auto it = std::find(queue_.begin(), queue_.end(), &job);
            if (it != queue_.end()) {
                s.queue_position = static_cast<std::uint64_t>(it - queue_.begin());
            }
            s.waiting_reason = waiting_reason_locked(job);
            break;
        }
        case JobState::kRunning: {
            s.io = disks_.channel_stats(job.channel);
            const auto fp = disks_.channel_footprint(job.channel);
            s.scratch_blocks_live = fp.blocks_live;
            s.scratch_blocks_high_water = fp.blocks_high_water;
            const double elapsed = std::chrono::duration<double>(
                                       std::chrono::steady_clock::now() - job.started_at)
                                       .count();
            s.elapsed_seconds = elapsed;
            // Live budget: pool-wait is only visible once the driver hands
            // its report back, so mid-run it rides inside compute.
            s.budget = budget_locked(job, elapsed, s.io.engine_stall_seconds, 0.0);
            fill_progress(s, job.progress, elapsed);
            break;
        }
        case JobState::kSucceeded:
        case JobState::kFailed:
        case JobState::kCancelled:
            s.io = job.final_io;
            s.report = job.report;
            s.output_hash = job.output_hash;
            s.elapsed_seconds = job.elapsed_seconds;
            s.scratch_blocks_high_water = job.channel.blocks_high_water;
            s.budget = job.budget;
            fill_progress(s, job.progress, job.elapsed_seconds);
            if (job.state == JobState::kSucceeded) s.progress.eta_seconds = 0;
            break;
    }
    return s;
}

std::string SortScheduler::waiting_reason_locked(const Job& job) const {
    std::ostringstream os;
    if (exclusive_running_) {
        os << "an exclusive (checkpointing) job holds the array";
        return os.str();
    }
    const Job* head = queue_.empty() ? nullptr : queue_.front();
    if (head == &job) {
        if (job.exclusive && active_ > 0) {
            os << "exclusive job waiting for the array to drain (" << active_
               << " job(s) still active)";
        } else if (active_ >= cfg_.max_active) {
            os << "all " << cfg_.max_active << " active slots are busy";
        } else {
            os << "start pending";
        }
        return os.str();
    }
    const auto it = std::find(queue_.begin(), queue_.end(), &job);
    const auto pos = it != queue_.end() ? it - queue_.begin() : 0;
    os << "behind " << pos << " queued job(s)";
    if (head != nullptr && head->exclusive) {
        os << " (head-of-line exclusive job runs solo)";
    } else if (active_ >= cfg_.max_active) {
        os << " (all " << cfg_.max_active << " active slots are busy)";
    }
    return os.str();
}

TimeBudget SortScheduler::budget_locked(const Job& job, double elapsed, double io_wait,
                                        double pool_wait) const {
    TimeBudget b;
    b.elapsed_seconds = elapsed;
    b.io_wait_seconds = io_wait;
    b.gate_wait_seconds =
        static_cast<double>(job.channel.gate_wait_ns.load(std::memory_order_relaxed)) * 1e-9;
    b.pool_wait_seconds = pool_wait;
    // Independent timers can overshoot the envelope by their own overhead;
    // scale the waits into it rather than report a >100% split, then
    // derive compute as the remainder so the budget closes exactly:
    // compute + io + gate + pool + other == elapsed.
    double waits = b.io_wait_seconds + b.gate_wait_seconds + b.pool_wait_seconds;
    if (waits > elapsed && waits > 0) {
        const double scale = elapsed / waits;
        b.io_wait_seconds *= scale;
        b.gate_wait_seconds *= scale;
        b.pool_wait_seconds *= scale;
        waits = elapsed;
    }
    b.other_seconds = std::max(0.0, std::min(job.other_seconds, elapsed - waits));
    b.compute_seconds = std::max(0.0, elapsed - waits - b.other_seconds);
    return b;
}

void SortScheduler::publish_stats() {
    MetricsRegistry* reg = metrics();
    if (reg == nullptr) return;
    if (executor_ != nullptr) executor_->publish_metrics();
    for (const auto& lane : arbiter_.lanes()) {
        reg->gauge("svc.job." + std::to_string(lane.job) + ".drr_deficit").set(lane.deficit);
    }
    const std::vector<std::uint32_t> inflight = disks_.async_in_flight();
    for (std::size_t d = 0; d < inflight.size(); ++d) {
        reg->gauge("svc.disk." + std::to_string(d) + ".in_flight")
            .set(static_cast<std::int64_t>(inflight[d]));
    }
    const BufferPool::Stats pool = shared_pool_.stats();
    reg->gauge("svc.pool.retained_records")
        .set(static_cast<std::int64_t>(pool.retained_records));
    reg->gauge("svc.pool.high_water_records")
        .set(static_cast<std::int64_t>(pool.high_water_records));
    std::lock_guard<std::mutex> lock(mu_);
    reg->gauge("svc.jobs_active").set(static_cast<std::int64_t>(active_));
    reg->gauge("svc.jobs_queued").set(static_cast<std::int64_t>(queue_.size()));
    for (const auto& [id, job] : jobs_) {
        if (job->state != JobState::kRunning) continue;
        const std::string prefix = "svc.job." + std::to_string(id);
        reg->gauge(prefix + ".records_emitted")
            .set(static_cast<std::int64_t>(
                job->progress.records_emitted.load(std::memory_order_relaxed)));
        reg->gauge(prefix + ".records_total")
            .set(static_cast<std::int64_t>(
                job->progress.records_total.load(std::memory_order_relaxed)));
    }
}

JobStatus SortScheduler::status(std::uint64_t id) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    BS_REQUIRE(it != jobs_.end(), "SortScheduler::status: unknown job id");
    return snapshot_locked(*it->second);
}

bool SortScheduler::cancel(std::uint64_t id) {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    Job& job = *it->second;
    switch (job.state) {
        case JobState::kQueued: {
            queue_.erase(std::find(queue_.begin(), queue_.end(), &job));
            job.state = JobState::kCancelled;
            scratch_committed_ -= job.scratch_estimate;
            maybe_start_locked();
            lock.unlock();
            terminal_cv_.notify_all();
            return true;
        }
        case JobState::kRunning:
            job.cancel.store(true, std::memory_order_relaxed);
            return true;
        case JobState::kSucceeded:
        case JobState::kFailed:
        case JobState::kCancelled:
            return false;
    }
    return false;
}

JobStatus SortScheduler::wait(std::uint64_t id) {
    std::thread to_join;
    {
        std::unique_lock<std::mutex> lock(mu_);
        auto it = jobs_.find(id);
        BS_REQUIRE(it != jobs_.end(), "SortScheduler::wait: unknown job id");
        Job& job = *it->second;
        terminal_cv_.wait(lock, [&job]() {
            return job.state != JobState::kQueued && job.state != JobState::kRunning;
        });
        if (job.worker.joinable() && !job.join_claimed) {
            job.join_claimed = true;
            to_join = std::move(job.worker);
        }
    }
    if (to_join.joinable()) to_join.join();
    return status(id);
}

std::vector<JobStatus> SortScheduler::wait_all() {
    std::vector<std::uint64_t> ids;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto& [id, job] : jobs_) ids.push_back(id);
    }
    std::vector<JobStatus> out;
    out.reserve(ids.size());
    for (std::uint64_t id : ids) out.push_back(wait(id));
    return out;
}

} // namespace balsort
