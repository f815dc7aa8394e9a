#pragma once
/// \file sort_config.hpp
/// The job-oriented sort configuration (DESIGN.md §14).
///
/// `SortOptions` grew into a flat bag of ~18 knobs spanning four concerns.
/// `SortJobConfig` regroups them: the algorithmic knobs stay top-level,
/// while the environmental ones move into three validated policy structs —
///
///   IoPolicy          — how the sort drives the array (buffer pooling,
///                       prefetch, synchronized writes),
///   DurabilityPolicy  — crash consistency (checkpoint/resume paths, the
///                       chaos hook),
///   ObsPolicy         — observability sinks (tracer, metrics registry).
///
/// Each policy validates itself; `SortJobConfig::validate()` composes them
/// with the algorithmic checks. `options()` flattens back to the legacy
/// `SortOptions`, which remains the internal carrier (and the compatibility
/// surface for existing call sites). Builder-style setters return `*this`
/// so a config reads as one declarative expression:
///
///   auto cfg = SortJobConfig{}
///                  .pivots(PivotMethod::kStreamingSketch)
///                  .io(IoPolicy{}.synchronized(true))
///                  .durability(DurabilityPolicy{}.checkpoint("ck.bin"));
///   balance_sort(disks, input, pdm, cfg, &report);

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "core/balance_sort.hpp"

namespace balsort {

/// How the sort drives the disk array (DESIGN.md §9-§10). Everything here
/// changes wall-clock and memory behaviour only — model quantities
/// (io_steps(), counters, output bytes) are identical for every setting.
struct IoPolicy {
    bool pool_buffers = true;
    bool cross_bucket_prefetch = true;
    bool synchronized_writes = false;
    /// BufferPool retention cap in records; SortOptions::kPoolRetainAuto
    /// keeps the historical 4*M sizing, 0 means unlimited retention.
    std::uint64_t pool_retain_records = SortOptions::kPoolRetainAuto;
    /// Caller-owned staging pool shared across jobs (sort service); null
    /// gives the sort its own pool.
    BufferPool* shared_pool = nullptr;

    IoPolicy& pooled(bool v) { pool_buffers = v; return *this; }
    IoPolicy& prefetch(bool v) { cross_bucket_prefetch = v; return *this; }
    IoPolicy& synchronized(bool v) { synchronized_writes = v; return *this; }
    IoPolicy& pool_retain(std::uint64_t records) { pool_retain_records = records; return *this; }
    IoPolicy& pool(BufferPool* p) { shared_pool = p; return *this; }

    /// Rejects incoherent combinations (std::invalid_argument): a shared
    /// pool or retention cap with pooling off is a silent no-op the caller
    /// almost certainly did not intend.
    void validate() const;
};

/// Crash consistency (DESIGN.md §13): checkpoint-at-boundaries and resume.
struct DurabilityPolicy {
    std::string checkpoint_path;
    std::string resume_from;
    /// Test/chaos hook fired after each boundary's durable write.
    std::function<void(std::uint64_t)> on_checkpoint;

    DurabilityPolicy& checkpoint(std::string path) {
        checkpoint_path = std::move(path);
        return *this;
    }
    DurabilityPolicy& resume(std::string path) {
        resume_from = std::move(path);
        return *this;
    }
    DurabilityPolicy& hook(std::function<void(std::uint64_t)> fn) {
        on_checkpoint = std::move(fn);
        return *this;
    }

    /// resume_from requires checkpoint_path (the resumed run keeps
    /// checkpointing where the interrupted one stopped).
    void validate() const;
};

/// Compute parallelism (DESIGN.md §15): how many logical PRAM lanes the
/// sort's internal algorithms run with, and which work-stealing executor
/// fans them out. Every WorkMeter/PramCost charge depends only on the
/// resolved lane count, never on where tasks physically execute — a job on
/// a shared executor reports the same model quantities as one with a
/// private pool.
struct ComputePolicy {
    /// Cap on logical compute lanes; 0 = min(cfg.p, a hardware-derived
    /// default) — or, with a shared executor, min(cfg.p, workers() + 1).
    std::uint32_t threads = 0;
    /// Borrowed executor shared across jobs (the sort scheduler installs
    /// its own here); null gives the sort a private Executor when the
    /// resolved lane count exceeds 1.
    Executor* shared_executor = nullptr;

    ComputePolicy& lanes(std::uint32_t t) { threads = t; return *this; }
    ComputePolicy& executor(Executor* e) { shared_executor = e; return *this; }

    /// Rejects a lane cap the shared executor cannot honor
    /// (std::invalid_argument): at most workers() + the submitting thread.
    void validate() const;
};

/// Observability sinks (DESIGN.md §11), both off by default. Tracing
/// observes, never perturbs.
struct ObsPolicy {
    Tracer* trace = nullptr;
    MetricsRegistry* metrics = nullptr;
    /// Sampling CPU profiler (DESIGN.md §17); the sort holds a
    /// ProfilerScope for its duration. Caller-owned, like the tracer.
    Profiler* profiler = nullptr;

    ObsPolicy& tracer(Tracer* t) { trace = t; return *this; }
    ObsPolicy& registry(MetricsRegistry* m) { metrics = m; return *this; }
    ObsPolicy& sampler(Profiler* p) { profiler = p; return *this; }

    void validate() const;
};

/// The job-oriented sort configuration: algorithmic knobs top-level,
/// environmental concerns grouped into the three policies above.
struct SortJobConfig {
    // --- algorithm (the paper's knobs) ---
    std::uint32_t s_target = 0;
    BucketPolicy bucket_policy = BucketPolicy::kPaperPdm;
    PivotMethod pivot_method = PivotMethod::kSamplingPass;
    InternalSort internal_sort = InternalSort::kParallelMerge;
    std::uint32_t d_virtual = 0;
    BalanceOptions balance_opts{};
    bool reposition_buckets = false;
    /// Cooperative cancellation flag (DESIGN.md §14); owned by the caller.
    const std::atomic<bool>* cancel_flag = nullptr;

    // --- policies ---
    IoPolicy io_policy{};
    ComputePolicy compute_policy{};
    DurabilityPolicy durability_policy{};
    ObsPolicy obs_policy{};

    // --- builder setters ---
    SortJobConfig& buckets(std::uint32_t s, BucketPolicy policy = BucketPolicy::kFixed) {
        s_target = s;
        bucket_policy = policy;
        return *this;
    }
    SortJobConfig& bucket_rule(BucketPolicy policy) { bucket_policy = policy; return *this; }
    SortJobConfig& pivots(PivotMethod m) { pivot_method = m; return *this; }
    SortJobConfig& base_case(InternalSort s) { internal_sort = s; return *this; }
    SortJobConfig& virtual_disks(std::uint32_t dv) { d_virtual = dv; return *this; }
    SortJobConfig& balance(const BalanceOptions& b) { balance_opts = b; return *this; }
    SortJobConfig& threads(std::uint32_t t) { compute_policy.threads = t; return *this; }
    SortJobConfig& reposition(bool v) { reposition_buckets = v; return *this; }
    SortJobConfig& cancel(const std::atomic<bool>* flag) { cancel_flag = flag; return *this; }
    SortJobConfig& io(IoPolicy p) { io_policy = p; return *this; }
    SortJobConfig& compute(ComputePolicy p) { compute_policy = p; return *this; }
    SortJobConfig& durability(DurabilityPolicy p) { durability_policy = std::move(p); return *this; }
    SortJobConfig& observability(ObsPolicy p) { obs_policy = p; return *this; }

    /// Composes the three policy validations with the algorithmic checks
    /// SortOptions::validate performs (sketch×sqrt-level, s_target policy,
    /// d_virtual divisibility against the array's D).
    void validate(std::uint32_t d) const;

    /// Flatten to the legacy carrier. Lossless: every SortOptions field is
    /// populated from exactly one SortJobConfig field.
    SortOptions options() const;
};

/// Job-config entry points — same contracts as the SortOptions overloads
/// in balance_sort.hpp; `cfg.options()` is the bridge.
BlockRun balance_sort(DiskArray& disks, const BlockRun& input, const PdmConfig& pdm,
                      const SortJobConfig& cfg, SortReport* report = nullptr);
std::vector<Record> balance_sort_records(DiskArray& disks, std::vector<Record> records,
                                         const PdmConfig& pdm, const SortJobConfig& cfg,
                                         SortReport* report = nullptr);

} // namespace balsort
