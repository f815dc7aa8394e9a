#pragma once
/// \file balance_sort.hpp
/// Balance Sort on the parallel disk model — the paper's Theorem 1
/// algorithm (Algorithm 1 with the §5 adaptations) and the library's
/// flagship entry point.
///
/// Recursion: while a level's input exceeds the memory capacity M, compute
/// S-1 partition elements by memoryload sampling, run Balance to split the
/// input into buckets spread evenly over the virtual disks, and recurse on
/// each bucket in key order; a level with at most M records is read, sorted
/// with the P internal processors, and appended to the (striped) output.
///
/// Measured quantities (`SortReport`) map one-to-one onto the paper's
/// claims: parallel I/O steps (Theorem 1 / Eq. 1), internal work and PRAM
/// time (Theorem 1), bucket read-balance ratios (Theorem 4), rebalancing
/// effort (Theorem 5), and Invariants 1-2.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "core/balance.hpp"
#include "core/phase_profile.hpp"
#include "pdm/config.hpp"
#include "pdm/io_stats.hpp"
#include "pdm/striping.hpp"

namespace balsort {

class BufferPool;
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

/// Which engine sorts a base-case memoryload with the P processors (§5's
/// internal-processing toolbox: Cole's merge sort [Col] vs the
/// Rajasekaran-Reif radix path [RaR]).
enum class InternalSort {
    kParallelMerge, ///< comparison-based, stable (default)
    kParallelRadix, ///< LSD radix on the 64-bit keys, stable
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

/// NOTE (DESIGN.md §14): SortOptions is the legacy flat flag-bag, kept so
/// existing call sites compile unchanged. New code should prefer the
/// builder-style SortJobConfig (core/sort_config.hpp), which groups these
/// knobs into validated IoPolicy / DurabilityPolicy / ObsPolicy sub-structs
/// and flattens to a SortOptions via SortJobConfig::options().
struct SortOptions {
    /// Bucket-count target S for BucketPolicy::kFixed; with the default
    /// policy, 0 selects the paper's (M/B)^(1/4) (§5).
    std::uint32_t s_target = 0;
    /// Per-level S selection rule. kPaperPdm unless s_target != 0, in
    /// which case kFixed is implied; set kSqrtLevel for hierarchies.
    BucketPolicy bucket_policy = BucketPolicy::kPaperPdm;
    /// Pivot computation method (see PivotMethod).
    PivotMethod pivot_method = PivotMethod::kSamplingPass;
    /// Base-case internal sorting engine (see InternalSort).
    InternalSort internal_sort = InternalSort::kParallelMerge;
    /// Number of virtual disks D'; 0 selects the divisor of D nearest
    /// D^(1/3) (§4.1 partial striping). Must divide D when given.
    std::uint32_t d_virtual = 0;
    /// Balance knobs (matching strategy, aux rule, defer policy, ...).
    BalanceOptions balance{};
    /// Cap on real worker threads (the PRAM charge still uses cfg.p);
    /// 0 = min(cfg.p, hardware threads) — or, with a borrowed `executor`,
    /// min(cfg.p, executor->workers() + 1).
    std::uint32_t max_threads = 0;
    /// Borrowed work-stealing executor to fan compute out on (the sort
    /// service shares one across concurrent jobs, DESIGN.md §15). Null:
    /// the sort owns a private Executor when the resolved thread count
    /// exceeds 1. The logical width — and therefore every WorkMeter /
    /// PramCost charge — depends only on the resolved thread count, never
    /// on the executor's physical worker count, so sharing changes no
    /// model quantity.
    Executor* executor = nullptr;
    /// §4.4: after Balance, rewrite each bucket that will recurse into
    /// consecutive locations on each virtual disk/hierarchy (one extra
    /// swept read + streamed write per level). On the Block-Transfer
    /// hierarchies this repositioning is what keeps every subsequent
    /// bucket access a cheap stream instead of an S-fold interleaved
    /// sweep — the role the paper assigns to the [ACSa] generalized
    /// matrix transposition. Costs extra I/O steps on the plain PDM, so
    /// it is off by default; the hierarchy driver enables it for BT/UMH.
    bool reposition_buckets = false;
    /// §6: perform only fully striped (synchronized) write operations —
    /// every bucket write step lands at one common block index across the
    /// array (error-checking/parity friendly), trading disk space for the
    /// property. I/O step counts are unchanged.
    bool synchronized_writes = false;
    /// Recycle record staging buffers (base-case loads, Balance staging,
    /// stream-copy chunks, prefetch windows) through a per-sort BufferPool
    /// sized to a few memoryloads (DESIGN.md §10). Off falls back to
    /// hoisted per-pass buffers; results are identical either way.
    bool pool_buffers = true;
    /// Cross-bucket I/O–compute overlap (DESIGN.md §10): while one
    /// bucket's base case sorts on the thread pool, the next bucket's
    /// memoryload is physically prefetched through the async engine.
    /// Model costs are charged at consumption, so io_steps(), the observer
    /// sequence, and the output are bit-identical to the serial driver.
    /// Only effective when the async engine is on.
    bool cross_bucket_prefetch = true;
    /// Observability (DESIGN.md §11), both off (null) by default. When set,
    /// balance_sort installs them process-wide for the sort's duration:
    /// pipeline phases emit timeline spans, engine workers emit per-disk op
    /// spans, the array records per-op latency histograms. Tracing observes,
    /// never perturbs — io_steps(), the observer sequence, and the output
    /// are bit-identical with these on or off (tested).
    Tracer* trace = nullptr;
    MetricsRegistry* metrics = nullptr;
    /// Sampling CPU profiler (DESIGN.md §17), off (null) by default. When
    /// set, balance_sort holds a ProfilerScope for the sort's duration:
    /// SIGPROF samples every thread's stacks into the profiler's rings.
    /// Sampling observes CPU time only — model quantities and the output
    /// are bit-identical with it on or off (overhead-guard tested). The
    /// caller owns the profiler and dumps it (folded stacks / trace lane)
    /// after the sort returns.
    Profiler* profiler = nullptr;
    /// Crash consistency (DESIGN.md §13), off ("") by default. When set,
    /// the sort writes a crash-consistent checkpoint record to this path
    /// at every pipeline boundary (after the pivot pass, after Balance,
    /// after each consumed bucket) — atomic tmp+fsync+rename, so a crash
    /// at any instant leaves a loadable record. Checkpointing changes no
    /// model quantity (io_steps(), counts, output bytes); only which
    /// physical scratch blocks freed storage lands on (releases are
    /// quarantined until the next durable boundary) and wall-clock.
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

    /// Retention cap (records) of the per-sort BufferPool; kPoolRetainAuto
    /// sizes it to a few memoryloads (4*M, the historical constant), 0
    /// passes through as "unlimited retention" (DESIGN.md §10). The sort
    /// scheduler sizes this per job mix.
    static constexpr std::uint64_t kPoolRetainAuto = ~std::uint64_t{0};
    std::uint64_t pool_retain_records = kPoolRetainAuto;
    /// When set (and pool_buffers is on), stage through this caller-owned
    /// pool instead of a per-sort one — the sort service shares one pool
    /// across concurrent jobs. Report pool stats are then left at zero
    /// (the shared pool's counters aggregate every job).
    BufferPool* shared_pool = nullptr;
    /// Cooperative cancellation (DESIGN.md §14): when non-null and set, the
    /// pipeline throws JobCancelled at the next node/bucket boundary. The
    /// array stays healthy; in-flight async work is completed first by
    /// normal unwinding.
    const std::atomic<bool>* cancel = nullptr;
    /// Live progress sink (DESIGN.md §16): when non-null the pipeline
    /// publishes its current phase and records-emitted count into these
    /// atomics as it runs, so a watcher (SortScheduler::status(), the
    /// balsortd ticker) can show progress and a phase-weighted ETA.
    /// Observability only — no model quantity reads it.
    ProgressSink* progress = nullptr;

    /// Reject incoherent option combinations with a clear message
    /// (std::invalid_argument): kStreamingSketch + kSqrtLevel (child S
    /// unknown while the parent runs), s_target != 0 with a non-kFixed
    /// policy (previously silently implied kFixed), d_virtual not
    /// dividing d, max_threads exceeding what a borrowed executor can
    /// honor (workers() + the submitting thread). Called by
    /// balance_sort()/hier_sort() on entry.
    void validate(std::uint32_t d) const;
};

/// Fields every sort-family report shares (SortReport, HierSortReport —
/// one definition instead of per-report duplicates).
struct ReportBase {
    /// Wall clock of the whole operation (entry to return).
    double elapsed_seconds = 0;
};

struct SortReport : ReportBase {
    // --- I/O measure (Theorem 1) ---
    IoStats io;
    double optimal_ios = 0;      ///< Eq. 1 formula for this instance
    double io_ratio = 0;         ///< measured / formula

    // --- internal-processing measure (Theorem 1) ---
    std::uint64_t comparisons = 0;
    std::uint64_t moves = 0;
    double pram_time = 0;        ///< charged PRAM steps with P processors
    double optimal_work = 0;     ///< (N/P) log N
    double work_ratio = 0;       ///< pram_time / optimal_work

    // --- structure ---
    std::uint32_t s_used = 0;    ///< first-level bucket target S
    std::uint32_t d_virtual = 0; ///< D' actually used
    std::uint32_t levels = 0;    ///< recursion depth reached
    std::uint64_t base_cases = 0;
    std::uint64_t equal_class_records = 0; ///< emitted via equal-class fast path

    // --- fault tolerance (DESIGN.md §8) ---
    // The recovery counters themselves (retries, corruptions detected,
    // parity reconstructions, degraded writes) arrive inside `io`.
    std::uint32_t disks_failed = 0; ///< data disks permanently dead at the end

    // --- crash consistency (DESIGN.md §13) ---
    // Recovery bookkeeping, never folded into io_steps(): the paper's
    // measure is algorithmic I/O, and a resumed run must report the same
    // model quantities as an uninterrupted one.
    std::uint64_t checkpoints_written = 0; ///< durable boundaries, cumulative across resumes
    std::uint64_t resumes = 0;             ///< resume generations folded into this run

    // --- balance quality (Theorem 4, Invariants) ---
    BalanceStats balance;
    double worst_bucket_read_ratio = 1.0; ///< max over buckets: steps/optimal
    std::uint64_t max_bucket_records = 0; ///< largest first-level bucket
    std::uint64_t bucket_bound = 0;       ///< analytic bound for comparison

    // --- staged pipeline observability (DESIGN.md §10) ---
    /// Per-stage wall clock, buffer-pool hit/miss, cross-bucket overlap.
    /// elapsed_seconds (ReportBase) is always >=
    /// phases.phase_seconds() - phases.overlap_hidden_seconds (tested).
    PhaseProfile phases;
};

/// Sort `input` (a striped run on `disks`) under configuration `cfg`;
/// returns the sorted output as a fresh striped run. `input` is left
/// intact on disk. Throws ModelViolation if any machine-model rule or
/// paper invariant would be broken.
BlockRun balance_sort(DiskArray& disks, const BlockRun& input, const PdmConfig& cfg,
                      const SortOptions& opt = {}, SortReport* report = nullptr);

/// Convenience for examples/tests: load `records` onto the array (striped),
/// sort, and return the sorted records (also verifying the run layout).
std::vector<Record> balance_sort_records(DiskArray& disks, std::vector<Record> records,
                                         const PdmConfig& cfg, const SortOptions& opt = {},
                                         SortReport* report = nullptr);

/// The paper's default bucket count for the PDM: max(2, floor((M/B)^(1/4))),
/// clamped so 2S virtual blocks of staging fit in M/2.
std::uint32_t default_bucket_count(const PdmConfig& cfg, std::uint32_t vblock_records);

} // namespace balsort
