#pragma once
/// Shared helpers for the EXPERIMENTS.md bench harnesses. Each bench binary
/// prints the paper-style table(s) for one experiment id; absolute numbers
/// are simulator-specific, the *shapes* (ratios, crossovers, who-wins) are
/// the reproduction targets.
///
/// Canonical results (DESIGN.md §12): every converted bench also emits a
/// BenchSuite under a uniform `--json <path>` flag — one BenchResult per
/// measured row with the instance config, the deterministic model
/// quantities, and the wall clock — which `benchgate` diffs against the
/// committed baselines in bench/baselines/.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/balance_sort.hpp"
#include "obs/bench_result.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/workload.hpp"

namespace balsort::bench {

inline void banner(const std::string& id, const std::string& claim) {
    std::cout << "\n=== " << id << " ===\n" << claim << "\n\n";
}

/// Run Balance Sort on a fresh in-memory array; returns the report.
/// A wrong output is a bench bug: it throws (propagating to a proper
/// message and nonzero exit) rather than core-dumping via abort().
inline SortReport run_balance_sort(const PdmConfig& cfg, Workload w, std::uint64_t seed,
                                   SortJobConfig opt = {}) {
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(w, cfg.n, seed);
    SortReport rep;
    auto sorted = balance_sort_records(disks, input, cfg, opt, &rep);
    if (!is_sorted_permutation_of(input, sorted)) {
        throw std::runtime_error("BENCH BUG: output is not a sorted permutation of the input");
    }
    return rep;
}

/// A BenchSuite shell for this binary's run. Provenance is passed in by the
/// harness (benches never shell out): BALSORT_GIT_DESCRIBE and
/// BALSORT_BENCH_TIMESTAMP, both optional — CI exports them, local runs
/// simply leave them empty.
inline BenchSuite make_suite(std::string id, bool smoke) {
    BenchSuite suite;
    suite.bench = std::move(id);
    suite.smoke = smoke;
    if (const char* g = std::getenv("BALSORT_GIT_DESCRIBE")) suite.git_describe = g;
    if (const char* t = std::getenv("BALSORT_BENCH_TIMESTAMP")) suite.timestamp = t;
    return suite;
}

/// The uniform `--json <path>` flag: returns the path or nullptr.
inline const char* json_flag(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) return argv[i + 1];
    }
    return nullptr;
}

/// The uniform `--smoke` flag (CI-sized instances).
inline bool smoke_flag(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) return true;
    }
    return false;
}

/// Write the suite and report on stdout; returns false (for exit codes) on
/// I/O failure.
inline bool write_suite(const BenchSuite& suite, const char* path) {
    if (path == nullptr) return true;
    if (!suite.write_json_file(path)) {
        std::cerr << "BENCH BUG: cannot write " << path << "\n";
        return false;
    }
    std::cout << "wrote " << path << " (" << suite.results.size() << " results)\n";
    return true;
}

} // namespace balsort::bench
