#pragma once
// Canonical bench-result schema (DESIGN.md §12): the one JSON shape every
// bench binary emits under `--json <path>`, its writer, and its
// schema-checked reader, which the comparator (obs/analyze.hpp) and
// benchgate's history ledger consume.
//
// A BenchSuite is one binary's run: suite id, provenance the harness passes
// in (git describe + timestamp — the library never shells out), and one
// BenchResult per measured row/variant. Each result carries the instance
// (PdmConfig), the *model quantities* — parallel I/O steps, blocks moved,
// charged PRAM time, work ratio, the Invariant 1–2 flags — and the wall
// clock. Model quantities are deterministic by design (pinned by the
// PR 3 goldens), so the gate diffs them byte-exactly; wall clock is
// machine-dependent and only tolerance-banded.
//
// Schema (version bumps when a field changes meaning):
//   {"schema":"balsort-bench-v1","bench":ID,"git_describe":S,"timestamp":S,
//    "smoke":B,"results":[
//      {"bench":ID,"variant":S,
//       "config":{"n","m","d","b","p"},
//       "model":{"io_steps","read_steps","write_steps","blocks",
//                "pram_time","work_ratio"},
//       "invariants":{"invariant1","invariant2"},
//       "wall_seconds":F}]}
#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "pdm/config.hpp"

namespace balsort {

class JsonValue;
struct SortReport;

struct BenchResult {
    std::string bench;   ///< suite id, repeated per row for self-describing rows
    std::string variant; ///< stable row id, e.g. "defaults" or "n=16384"
    PdmConfig cfg{};

    // Model quantities — deterministic, gated byte-exactly.
    std::uint64_t io_steps = 0;
    std::uint64_t read_steps = 0;
    std::uint64_t write_steps = 0;
    std::uint64_t blocks = 0; ///< blocks_read + blocks_written
    double pram_time = 0;     ///< charged PRAM steps (integer-valued)
    double work_ratio = 0;
    bool invariant1 = true;
    bool invariant2 = true;

    // Real-machine measure — tolerance-banded by the gate.
    double wall_seconds = 0;

    /// Lift the gated fields out of a SortReport.
    static BenchResult from_report(std::string bench, std::string variant, const PdmConfig& cfg,
                                   const SortReport& rep, double wall_seconds);

    void write_json(std::ostream& os) const;
};

struct BenchSuite {
    std::string bench;        ///< suite id, e.g. "pipeline"
    std::string git_describe; ///< harness-provided (empty when unknown)
    std::string timestamp;    ///< harness-provided, ISO-8601 UTC by convention
    bool smoke = false;       ///< CI-sized instance?
    std::vector<BenchResult> results;

    void write_json(std::ostream& os) const;
    std::string to_json() const;
    bool write_json_file(const std::string& path) const;
};

/// The gated keys of a row, in emission order: the schema check, the
/// comparator and the history ledger all read these lists.
extern const std::array<const char*, 5> kBenchConfigKeys;
extern const std::array<const char*, 6> kBenchModelKeys;
extern const std::array<const char*, 2> kBenchInvariantKeys;

/// One row of a read suite. The gated groups stay raw JSON nodes, so model
/// quantities compare on their source tokens.
struct BenchRowView {
    std::string variant;
    const JsonValue* config = nullptr;
    const JsonValue* model = nullptr;
    const JsonValue* invariants = nullptr;
    const JsonValue* wall_seconds = nullptr; ///< null when the row has none
};

/// A schema-checked balsort-bench-v1 document. It points into the
/// JsonValue it was read from, which must outlive it.
struct BenchSuiteView {
    std::string bench;
    std::string git_describe; ///< empty when the harness had none
    std::string timestamp;
    bool smoke = false;
    std::vector<BenchRowView> rows;

    const BenchRowView* find(const std::string& variant) const;
};

/// True when `doc` declares `"schema":"balsort-bench-v1"`.
bool is_bench_suite(const JsonValue& doc);

/// Reads a parsed balsort-bench-v1 document: a bench id, a results array,
/// and per row a variant id, every config and model key as a number and
/// both invariants as bools. Returns nullopt and sets *err to the first
/// violation otherwise.
std::optional<BenchSuiteView> read_bench_suite(const JsonValue& doc, std::string* err);

} // namespace balsort
