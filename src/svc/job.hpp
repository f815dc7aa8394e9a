#pragma once
/// \file job.hpp
/// The sort service's job vocabulary (DESIGN.md §14).
///
/// A `JobSpec` describes one sort as data: what to sort (a workload recipe
/// or caller-provided records), the per-job machine parameters (M, P — the
/// array supplies D and B), the `SortJobConfig`, and scheduling attributes
/// (priority weight, verification). The scheduler turns an admitted spec
/// into a `JobStatus` lifecycle: kQueued → kRunning → one terminal state.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/balance_sort.hpp"
#include "pdm/io_stats.hpp"
#include "util/record.hpp"
#include "util/workload.hpp"

namespace balsort {

/// One sort job as data. Self-contained: everything the scheduler needs to
/// run the sort on its shared array.
struct JobSpec {
    /// Human-readable label (manifest file names, tracer lanes, errors).
    std::string name = "job";
    /// Input recipe: `records`, when non-empty, is sorted as-is (and `n` is
    /// ignored); otherwise `n` records of `workload` are generated from
    /// `seed` on the job's worker thread.
    std::uint64_t n = 1u << 16;
    Workload workload = Workload::kUniform;
    std::uint64_t seed = 1;
    std::vector<Record> records;
    /// Per-job PDM parameters. D and B come from the shared array.
    std::uint64_t m = 1u << 12; ///< memory capacity (records)
    std::uint32_t p = 4;        ///< charged CPUs
    /// The sort configuration (validated at admission).
    SortJobConfig config{};
    /// Fairness weight: a weight-2 job earns twice the I/O-step quantum of
    /// a weight-1 neighbour per arbiter round. Must be >= 1.
    std::uint32_t priority = 1;
    /// Check the output is a sorted permutation of the input before
    /// declaring success: keys in order and the input's multiset
    /// fingerprint, folded while the records stream through the job's
    /// M-record buffer (StreamCheck; no copy of the input).
    bool verify = true;
    /// Front-end hint (balsortd `profile=` key): where to write this job's
    /// folded CPU stacks after the run. The scheduler itself ignores it —
    /// the front end wires a shared Profiler into obs_policy.profiler
    /// (start/stop nest by refcount, so concurrent profiled jobs compose)
    /// and dumps to this path once the jobs drain. Samples are process-
    /// wide: with overlapping profiled jobs each dump covers the union.
    std::string profile_path;
};

enum class JobState : std::uint8_t {
    kQueued,    ///< admitted, waiting for an active slot
    kRunning,   ///< worker thread driving the shared array
    kSucceeded, ///< output verified (if requested); report/hash valid
    kFailed,    ///< error holds the reason; scratch reclaimed
    kCancelled, ///< cancel() honoured; scratch reclaimed
};

inline const char* to_string(JobState s) {
    switch (s) {
        case JobState::kQueued: return "queued";
        case JobState::kRunning: return "running";
        case JobState::kSucceeded: return "succeeded";
        case JobState::kFailed: return "failed";
        case JobState::kCancelled: return "cancelled";
    }
    return "?";
}

/// Live progress of one job (DESIGN.md §16): which pipeline phase it is
/// in, how much of the output has landed, and a phase-weighted ETA.
/// Observability only — none of this feeds model accounting.
struct JobProgress {
    /// Pipeline phase name ("idle", "pivot", "balance", "base-case",
    /// "emit", "done"); recursion revisits phases, so this oscillates.
    std::string phase = "idle";
    std::uint64_t records_emitted = 0; ///< records appended to the output so far
    std::uint64_t records_total = 0;   ///< the job's N (0 until the sort starts)
    std::uint64_t io_steps = 0;        ///< model steps charged so far
    /// Estimated seconds to completion; < 0 means unknown (not started, or
    /// too early for the completion fraction to be meaningful).
    double eta_seconds = -1;
};

/// Where one job's wall-clock went (DESIGN.md §16). The buckets partition
/// `elapsed_seconds`: the measured waits (gate, engine, pool) and the
/// service's own overhead come first, and `compute_seconds` is the
/// remainder — so the budget sums to elapsed by construction:
///
///   compute + io_wait + gate_wait + pool_wait + other == elapsed.
struct TimeBudget {
    double elapsed_seconds = 0;
    /// Derived remainder (clamped >= 0): time the job's threads were
    /// actually sorting rather than waiting on shared infrastructure.
    double compute_seconds = 0;
    /// Engine I/O stalls attributed to this job's channel (consumption
    /// waited on a physical read/write).
    double io_wait_seconds = 0;
    /// Time blocked in the IoArbiter fairness gate.
    double gate_wait_seconds = 0;
    /// Time external joins parked on the shared Executor waiting for
    /// another job's tasks to drain.
    double pool_wait_seconds = 0;
    /// Service overhead outside the sort proper: input generation,
    /// verification + hashing, manifest writing.
    double other_seconds = 0;
};

/// A point-in-time view of one job. For running jobs `io` is a live
/// snapshot of the job's channel; for terminal jobs it is final.
struct JobStatus {
    std::uint64_t id = 0;
    std::string name;
    JobState state = JobState::kQueued;
    /// This job's model accounting (per-channel; byte-identical to a solo
    /// run of the same spec — the service's core guarantee).
    IoStats io;
    std::uint64_t scratch_blocks_live = 0;
    std::uint64_t scratch_blocks_high_water = 0;
    /// kFailed: what went wrong.
    std::string error;
    /// kSucceeded: the sort's full report and an order-sensitive FNV-1a
    /// hash of the sorted output (solo-vs-concurrent comparisons).
    SortReport report;
    std::uint64_t output_hash = 0;
    double elapsed_seconds = 0;
    /// Live progress + ETA (kRunning: updated as the pipeline advances;
    /// terminal: frozen at the final phase).
    JobProgress progress;
    /// Wall-clock split (kRunning: live partial view; terminal: final and
    /// closed — the buckets sum to elapsed_seconds).
    TimeBudget budget;
    /// kQueued only: 0-based position in the admission queue.
    std::uint64_t queue_position = 0;
    /// kQueued only: why the job has not started (slots busy, exclusive
    /// job holding or waiting for the array, ...).
    std::string waiting_reason;
};

/// Order-sensitive FNV-1a over (key, payload) pairs — the service's output
/// fingerprint (same constants as the pipeline golden tests). `h` is the
/// running hash (default: FNV's offset basis), so a stream hashes chunk by
/// chunk: fold each chunk into the previous chunk's result.
inline std::uint64_t fnv1a_records(std::span<const Record> records,
                                   std::uint64_t h = 1469598103934665603ull) {
    constexpr std::uint64_t kPrime = 1099511628211ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= kPrime;
        }
    };
    for (const Record& r : records) {
        mix(r.key);
        mix(r.payload);
    }
    return h;
}

} // namespace balsort
