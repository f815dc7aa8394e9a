#pragma once
// Run analyzer: turns the artifacts a run already emits — Chrome trace
// (tracer.hpp) + run manifest (run_manifest.hpp) — into answers
// (DESIGN.md §17). Pure JSON-in/report-out so balsort_obs stays free of
// core dependencies; tools/balsort_analyze.cpp is a thin CLI over this.
//
// Three questions, straight from the paper's performance claim:
//
//  * Critical path — segment the whole-sort span's extent by what bounds
//    each instant: an active phase span (compute, possibly with I/O hidden
//    under it), disk-engine activity with no phase running (exposed I/O),
//    or neither (other: scheduling gaps, admission, teardown). The
//    segments sum to the elapsed span by construction; the attribution is
//    the payload, and the sum doubles as a self-check against the
//    manifest's elapsed_seconds.
//
//  * Overlap efficiency — io_busy is the union of per-disk engine-op
//    spans; the part covered by phase spans was hidden behind compute,
//    the rest was exposed. hidden / busy == 1.0 means the prefetch
//    pipeline hid every I/O second (the Rahn/Sanders/Singler ideal).
//
//  * Disk skew — per-disk busy-union max/mean. Invariant 1 promises every
//    disk within one block of even, so skew ~1.0; a hot disk shows here
//    before it shows in the step counts.
//
// The --diff half is the repo's one two-channel comparator, behind both
// `balsort_analyze --diff` and benchgate: it compares two manifests or two
// bench suites, model quantities on raw JSON number tokens (any drift
// FAILs) and wall-clock numbers inside a relative band (drift WARNs). The
// policy is stated in DESIGN.md §12. See diff_documents().
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace balsort {

class JsonValue;

/// One named quantity of seconds — a critical-path segment class or a
/// stall-budget row.
struct AnalyzeRow {
    std::string name;
    double seconds = 0;
};

/// Per-disk busy time (union of that disk's engine-op spans).
struct DiskBusy {
    std::string lane; ///< e.g. "disk 3 io"
    double busy_seconds = 0;
};

struct AnalyzeReport {
    // Run identity (manifest).
    std::string tool;
    std::string algo;
    std::int64_t n = 0;
    std::int64_t d = 0;
    std::int64_t p = 0;
    double manifest_elapsed_seconds = 0;

    // Span graph (trace).
    std::uint64_t trace_events = 0;
    std::uint64_t profile_samples = 0;
    std::uint64_t prefetch_pairs = 0;
    std::uint64_t staged_pairs = 0;
    bool have_sort_span = false;      ///< false → extent fell back to trace bounds
    double span_elapsed_seconds = 0;  ///< balance_sort span duration

    /// Critical-path segments, descending seconds; sums to
    /// critical_path_seconds == span_elapsed_seconds by construction.
    std::vector<AnalyzeRow> critical_path;
    double critical_path_seconds = 0;

    // Overlap attribution.
    double io_busy_seconds = 0;
    double io_hidden_seconds = 0;
    double io_exposed_seconds = 0;
    double overlap_efficiency = 0; ///< hidden / busy; 1.0 when no I/O spans

    // Disk utilization.
    std::vector<DiskBusy> disks;
    double disk_skew = 1.0; ///< max busy / mean busy; Invariant-1 ideal 1.0

    /// Stall budget from the manifest (io-wait / gate-wait / pool-wait /
    /// compute), descending seconds.
    std::vector<AnalyzeRow> stalls;

    std::vector<std::string> warnings;
};

/// Analyzes one run from its serialized artifacts. Returns nullopt and
/// sets *err on parse failure; analysis of a well-formed but sparse trace
/// succeeds with warnings instead.
std::optional<AnalyzeReport> analyze_run(const std::string& trace_json,
                                         const std::string& manifest_json, std::string* err);

/// Human-readable report (the CLI default).
void write_analyze_text(std::ostream& os, const AnalyzeReport& r);
/// Machine-readable report (CI artifact).
void write_analyze_json(std::ostream& os, const AnalyzeReport& r);

/// Relative wall-clock band of the comparator: a wall number that moves
/// by more than ±25% of the old value WARNs.
inline constexpr double kWallBand = 0.25;

/// Outcome of diffing two run documents: one line per finding, each
/// starting with its verdict ("FAIL " or "WARN ").
struct DiffResult {
    int fails = 0; ///< findings that fail a gate (exit 1)
    int warns = 0; ///< advisory findings
    std::vector<std::string> lines;
};

/// Diffs `a` (old, the baseline) against `b` (new) when both are
/// schema-valid balsort-bench-v1 suites or both are run manifests.
/// Suites: a different suite id FAILs; rows pair by variant id; config,
/// model and invariant tokens compare byte-exactly (FAIL); wall_seconds,
/// a different smoke flag and a row present in only one suite WARN.
/// Manifests: the config/io/report/balance counters compare byte-exactly
/// (FAIL), the *_seconds fields are banded (WARN). Returns nullopt and
/// sets *err when the documents are not such a pair.
std::optional<DiffResult> diff_documents(const JsonValue& a, const JsonValue& b,
                                         std::string* err);

} // namespace balsort
