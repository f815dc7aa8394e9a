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

#include <cstdint>
#include <vector>

#include "core/balance.hpp"
#include "core/phase_profile.hpp"
#include "core/sort_config.hpp"
#include "pdm/config.hpp"
#include "pdm/io_stats.hpp"
#include "pdm/striping.hpp"

namespace balsort {

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

/// Sort `input` (a striped run on `disks`) on machine `cfg` under
/// configuration `job`; returns the sorted output as a fresh striped run.
/// `input` is left intact on disk. Throws std::invalid_argument for an
/// incoherent `cfg` or `job` (before touching the array) and
/// ModelViolation if any machine-model rule or paper invariant would be
/// broken.
BlockRun balance_sort(DiskArray& disks, const BlockRun& input, const PdmConfig& cfg,
                      const SortJobConfig& job = {}, SortReport* report = nullptr);

/// Convenience for examples/tests: load `records` onto the array (striped),
/// sort, and return the sorted records (also verifying the run layout).
/// Validates `cfg` and `job` before the layout writes anything.
std::vector<Record> balance_sort_records(DiskArray& disks, std::vector<Record> records,
                                         const PdmConfig& cfg, const SortJobConfig& job = {},
                                         SortReport* report = nullptr);

/// The paper's default bucket count for the PDM: max(2, floor((M/B)^(1/4))),
/// clamped so 2S virtual blocks of staging fit in M/2.
std::uint32_t default_bucket_count(const PdmConfig& cfg, std::uint32_t vblock_records);

} // namespace balsort
