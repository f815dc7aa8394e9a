#pragma once
/// \file hier_sort.hpp
/// Balance Sort on parallel memory hierarchies (§4, Theorems 2-3).
///
/// The H physical hierarchies of Figure 4 are modelled as H lanes of a
/// DiskArray with block size 1 (one record per depth per lane); partial
/// striping groups them into H' ~ H^(1/3) virtual hierarchies exactly as
/// §4.1 prescribes, and the identical Balance machinery of balance.hpp
/// runs on top. A HierarchyMeter prices every track by the underlying
/// model's rule (HMM: f(depth); BT: stream-aware f(depth)+t; UMH: bus
/// tower), and charges T(H) interconnect time per processed track plus the
/// base-case sort terms — yielding the charged "time for sorting" that
/// Theorems 2 and 3 bound.
///
/// Also here: the paper's Algorithm 2 (ComputePartitionElements) as a
/// standalone, testable routine — the hierarchy-model pivot method based on
/// [AAC, ViSb] (G recursively sorted groups, every ⌊log N⌋-th element).

#include <cstdint>
#include <memory>
#include <vector>

#include "core/balance_sort.hpp"
#include "hierarchy/meter.hpp"
#include "pram/executor.hpp"

namespace balsort {

/// Which hierarchy model a P-* sort runs on.
struct HierModelSpec {
    /// 8 bytes wide so no padding follows it: gtest names parameterised
    /// cases after a byte dump of the parameter, and padding would put
    /// leftover stack bytes into those names.
    enum class Family : std::uint64_t { kHmm, kBt, kUmh } family = Family::kHmm;
    CostFn f = CostFn::log(); ///< for HMM/BT
    double umh_rho = 4.0;     ///< for UMH
    double umh_nu = 1.0;      ///< for UMH

    static HierModelSpec hmm(CostFn f) { return {Family::kHmm, f, 0, 0}; }
    static HierModelSpec bt(CostFn f) { return {Family::kBt, f, 0, 0}; }
    static HierModelSpec umh(double rho, double nu) {
        return {Family::kUmh, CostFn::log(), rho, nu};
    }

    std::unique_ptr<AccessModel> make(std::uint32_t lanes) const;
    std::string name() const;
};

struct HierSortConfig {
    std::uint32_t h = 64;          ///< physical hierarchies H
    std::uint32_t h_virtual = 0;   ///< H'; 0 = divisor of H nearest H^(1/3)
    HierModelSpec model{};
    Interconnect interconnect = Interconnect::kPram;
    std::uint32_t s_target = 0;    ///< bucket count; 0 = §4.3's choice
    BalanceOptions balance{};
    /// Observability sinks (DESIGN.md §11, §17), passed unchanged into the
    /// underlying balance_sort's SortJobConfig. Charged model quantities
    /// are unaffected; spans/histograms describe the simulated lane traffic.
    ObsPolicy obs{};
    /// Crash consistency (DESIGN.md §13), passed unchanged into the
    /// underlying balance_sort's SortJobConfig. Caveat: the charged
    /// hierarchy_time is observer-driven, so a resumed run's hierarchy
    /// accounting reflects only the post-resume traffic (the checkpoint
    /// preserves the PDM model quantities; the lane meter restarts).
    DurabilityPolicy durability{};
};

struct HierSortReport : ReportBase {
    double hierarchy_time = 0;    ///< charged lane-access time
    double interconnect_charge = 0;
    double total_time = 0;
    double formula = 0;           ///< the theorem's predicted value
    double ratio = 0;             ///< total_time / formula
    std::uint64_t tracks = 0;
    SortReport mechanics;         ///< underlying Balance Sort observables
                                  ///  (incl. PhaseProfile — the hierarchy
                                  ///  driver runs the same staged pipeline)
    // elapsed_seconds (ReportBase): wall clock of the whole hier_sort.
};

/// Sort `records` on the configured parallel hierarchy; returns them
/// sorted. Time is *charged* per the model; data movement really happens.
std::vector<Record> hier_sort(std::vector<Record> records, const HierSortConfig& cfg,
                              HierSortReport* report = nullptr);

/// §4.3's bucket count for P-HMM: min{ceil(sqrt(N/H')), sqrt(H')} family
/// (clamped to >= 2). Depends only on the level size and H'.
std::uint32_t hier_bucket_count(std::uint64_t n, std::uint32_t h_virtual);

/// Theorem 2 (P-HMM) predicted sorting time for f(x) = log x:
///   (N/H) log(N/H) log log(N/H)  [PRAM]; hypercube adds the T(H) term.
double theorem2_time_log(std::uint64_t n, std::uint32_t h, Interconnect ic);
/// Theorem 2 for f(x) = x^alpha: (N/H)^(alpha+1) + (N/H) log N  [PRAM].
double theorem2_time_power(std::uint64_t n, std::uint32_t h, double alpha, Interconnect ic);
/// Theorem 3 (P-BT) predicted time (all alpha regimes + log).
double theorem3_time_log(std::uint64_t n, std::uint32_t h, Interconnect ic);
double theorem3_time_power(std::uint64_t n, std::uint32_t h, double alpha, Interconnect ic);

/// Algorithm 2 (ComputePartitionElements), in-memory and faithful:
/// partition into G groups, sort each, set aside every ⌊log N⌋-th element
/// into C, sort C, and pick every ⌊N/((S-1) log N)⌋-th element of C.
/// Returns S-1 (or fewer, after dedup) pivot keys. Guarantees every bucket
/// has fewer than 2N/S records (tested).
PivotSet algorithm2_partition_elements(std::span<const Record> records, std::uint32_t g_groups,
                                       std::uint32_t s_target, const Parallel& pool,
                                       WorkMeter* meter = nullptr);

} // namespace balsort
