#pragma once
/// \file sort_config.hpp
/// The sort configuration (DESIGN.md §14): one struct, `SortJobConfig`,
/// carries every knob of a sort from the caller into the pipeline.
///
/// The paper's knobs (bucket count S, virtual disks D', pivot method) and
/// the other algorithmic choices are top-level fields; the environmental
/// concerns are grouped into four policy structs —
///
///   IoPolicy          — how the sort drives the array (synchronized
///                       writes, a shared buffer pool),
///   ComputePolicy     — compute lanes and the executor they run on,
///   DurabilityPolicy  — crash consistency (checkpoint/resume paths, the
///                       chaos hook),
///   ObsPolicy         — observability sinks (tracer, metrics registry,
///                       profiler, progress).
///
/// `SortJobConfig::validate()` composes the policies' own checks with the
/// algorithmic cross-checks; balance_sort() calls it once, on entry, and
/// the pipeline reads the validated struct directly. Builder-style setters
/// return `*this` so a config reads as one declarative expression:
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

#include "core/balance.hpp"
#include "core/phase_profile.hpp"

namespace balsort {

class BufferPool;
class Executor;
class MetricsRegistry;
class Profiler;
class Tracer;

/// How each level's partition elements are obtained.
enum class PivotMethod {
    /// §5 / [ViSa]: a dedicated read pass per level that multi-selects
    /// centered stride samples from each memoryload. Paper-faithful.
    kSamplingPass,
    /// Extension: the parent's Balance pass feeds each bucket through a
    /// deterministic Munro-Paterson quantile sketch, so recursive levels
    /// skip their pivot read pass entirely — one full pass per level
    /// saved, same determinism, with a self-correcting quality guarantee
    /// (see quantile_sketch.hpp). The top level still pays one sampling
    /// pass. Not available with BucketPolicy::kSqrtLevel (the child S is
    /// unknown while the parent runs).
    kStreamingSketch,
};

/// How the bucket count S is chosen at each recursion level.
enum class BucketPolicy {
    /// The paper's PDM rule (§5): S = (M/B)^(1/4) at every level, clamped
    /// so the staging buffers fit in memory. (Default when s_target == 0.)
    kPaperPdm,
    /// Fixed S = s_target at every level.
    kFixed,
    /// The hierarchy rule (§4.3): S = sqrt(n_level / D') re-evaluated per
    /// level — the square-root decomposition giving loglog recursion depth.
    kSqrtLevel,
};

/// How the sort drives the disk array (DESIGN.md §9-§10). Everything here
/// changes wall-clock and memory behaviour only — model quantities
/// (io_steps(), counters, output bytes) are identical for every setting.
/// Staging buffers always recycle through a BufferPool, and on the async
/// engine the next bucket is always staged behind the current base case
/// (DESIGN.md §10).
struct IoPolicy {
    /// §6: perform only fully striped (synchronized) write operations —
    /// every bucket write step lands at one common block index across the
    /// array (error-checking/parity friendly), trading disk space for the
    /// property. I/O step counts are unchanged.
    bool synchronized_writes = false;
    /// When set, stage through this caller-owned pool instead of a
    /// per-sort one — the sort service shares one pool across concurrent
    /// jobs. Report pool stats are then left at zero (the shared pool's
    /// counters aggregate every job).
    BufferPool* shared_pool = nullptr;

    IoPolicy& synchronized(bool v) { synchronized_writes = v; return *this; }
    IoPolicy& pool(BufferPool* p) { shared_pool = p; return *this; }
};

/// Crash consistency (DESIGN.md §13): checkpoint-at-boundaries and resume.
struct DurabilityPolicy {
    /// Off ("") by default. When set, the sort writes a crash-consistent
    /// checkpoint record to this path at every pipeline boundary (after
    /// the pivot pass, after Balance, after each consumed bucket) — atomic
    /// tmp+fsync+rename, so a crash at any instant leaves a loadable
    /// record. Checkpointing changes no model quantity (io_steps(), counts,
    /// output bytes); only which physical scratch blocks freed storage
    /// lands on (releases are quarantined until the next durable boundary)
    /// and wall-clock.
    std::string checkpoint_path;
    /// Resume an interrupted sort from this checkpoint file. Requires
    /// checkpoint_path (the resumed run keeps checkpointing), the same
    /// configuration the record echoes, and an array whose scratch still
    /// holds the interrupted run's blocks (the same live array, or file
    /// disks re-opened via ScratchOptions::adopt). The resumed run
    /// produces the byte-identical output run and model accounting as an
    /// uninterrupted run (tested by tests/chaos).
    std::string resume_from;
    /// Test/chaos hook fired after each boundary's durable write with its
    /// cumulative sequence number; it may throw (or _exit) to simulate a
    /// crash exactly at the boundary.
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

    /// resume_from and on_checkpoint each require checkpoint_path (the
    /// resumed run keeps checkpointing; the hook fires only on a write).
    void validate() const;
};

/// Compute parallelism (DESIGN.md §15): how many logical PRAM lanes the
/// sort's internal algorithms run with, and which work-stealing executor
/// fans them out. Every WorkMeter/PramCost charge depends only on the
/// resolved lane count, never on where tasks physically execute — a job on
/// a shared executor reports the same model quantities as one with a
/// private pool.
struct ComputePolicy {
    /// Cap on logical compute lanes (the PRAM charge still uses cfg.p);
    /// 0 = min(cfg.p, a hardware-derived default) — or, with a shared
    /// executor, min(cfg.p, workers() + 1).
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

/// Observability sinks (DESIGN.md §11, §16, §17), all off (null) by
/// default. Every sink observes, never perturbs — io_steps(), the observer
/// sequence, and the output are bit-identical with them on or off (tested).
struct ObsPolicy {
    /// Installed process-wide for the sort's duration: pipeline phases
    /// emit timeline spans, engine workers emit per-disk op spans, the
    /// array records per-op latency histograms.
    Tracer* trace = nullptr;
    MetricsRegistry* metrics = nullptr;
    /// Sampling CPU profiler (DESIGN.md §17): the sort holds a
    /// ProfilerScope for its duration, so SIGPROF samples every thread's
    /// stacks into the profiler's rings. Caller-owned, like the tracer;
    /// the caller dumps it after the sort returns.
    Profiler* profiler = nullptr;
    /// Live progress sink (DESIGN.md §16): the pipeline publishes its
    /// current phase and records-emitted count into these atomics as it
    /// runs, so a watcher (SortScheduler::status(), the balsortd ticker)
    /// can show progress and a phase-weighted ETA. The sort scheduler
    /// installs its per-job sink here.
    ProgressSink* progress = nullptr;

    ObsPolicy& tracer(Tracer* t) { trace = t; return *this; }
    ObsPolicy& registry(MetricsRegistry* m) { metrics = m; return *this; }
    ObsPolicy& sampler(Profiler* p) { profiler = p; return *this; }
};

/// The sort configuration: algorithmic knobs top-level, environmental
/// concerns grouped into the policies above.
struct SortJobConfig {
    // --- algorithm (the paper's knobs) ---
    /// Bucket-count target S for BucketPolicy::kFixed; with the default
    /// policy, 0 selects the paper's (M/B)^(1/4) (§5).
    std::uint32_t s_target = 0;
    /// Per-level S selection rule; s_target != 0 requires kFixed.
    BucketPolicy bucket_policy = BucketPolicy::kPaperPdm;
    PivotMethod pivot_method = PivotMethod::kSamplingPass;
    /// Number of virtual disks D'; 0 selects the divisor of D nearest
    /// D^(1/3) (§4.1 partial striping). Must divide D when given.
    std::uint32_t d_virtual = 0;
    /// Balance knobs (matching strategy, aux rule, defer policy, ...).
    BalanceOptions balance_opts{};
    /// §4.4: after Balance, rewrite each bucket that will recurse into
    /// consecutive locations on each virtual disk/hierarchy (one extra
    /// swept read + streamed write per level). On the Block-Transfer
    /// hierarchies this repositioning is what keeps every subsequent
    /// bucket access a cheap stream instead of an S-fold interleaved
    /// sweep — the role the paper assigns to the [ACSa] generalized
    /// matrix transposition. Costs extra I/O steps on the plain PDM, so
    /// it is off by default.
    bool reposition_buckets = false;
    /// Cooperative cancellation (DESIGN.md §14), owned by the caller: when
    /// non-null and set, the pipeline throws JobCancelled at the next
    /// node/bucket boundary. The array stays healthy; in-flight async work
    /// is completed first by normal unwinding.
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
    SortJobConfig& virtual_disks(std::uint32_t dv) { d_virtual = dv; return *this; }
    SortJobConfig& balance(const BalanceOptions& b) { balance_opts = b; return *this; }
    SortJobConfig& threads(std::uint32_t t) { compute_policy.threads = t; return *this; }
    SortJobConfig& reposition(bool v) { reposition_buckets = v; return *this; }
    SortJobConfig& cancel(const std::atomic<bool>* flag) { cancel_flag = flag; return *this; }
    SortJobConfig& io(IoPolicy p) { io_policy = p; return *this; }
    SortJobConfig& compute(ComputePolicy p) { compute_policy = p; return *this; }
    SortJobConfig& durability(DurabilityPolicy p) { durability_policy = std::move(p); return *this; }
    SortJobConfig& observability(ObsPolicy p) { obs_policy = p; return *this; }

    /// Rejects incoherent configurations with a clear message
    /// (std::invalid_argument): the policies' own checks, plus
    /// kStreamingSketch with kSqrtLevel (the child S is unknown while the
    /// parent runs), s_target != 0 with a non-kFixed policy, and a
    /// d_virtual that does not divide the array's D.
    void validate(std::uint32_t d) const;
};

} // namespace balsort
