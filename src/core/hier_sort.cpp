#include "core/hier_sort.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "pram/parallel_sort.hpp"
#include "util/math.hpp"
#include "util/workload.hpp"

namespace balsort {

std::unique_ptr<AccessModel> HierModelSpec::make(std::uint32_t lanes) const {
    switch (family) {
        case Family::kHmm: return std::make_unique<HmmModel>(f);
        case Family::kBt: return std::make_unique<BtModel>(f, lanes);
        case Family::kUmh: return std::make_unique<UmhModel>(umh_rho, umh_nu);
    }
    BS_REQUIRE(false, "HierModelSpec: unknown family");
    return nullptr;
}

std::string HierModelSpec::name() const {
    switch (family) {
        case Family::kHmm: return "P-HMM[f=" + f.name() + "]";
        case Family::kBt: return "P-BT[f=" + f.name() + "]";
        case Family::kUmh: return "P-UMH";
    }
    return "unknown";
}

std::uint32_t hier_bucket_count(std::uint64_t n, std::uint32_t h_virtual) {
    // §4.3's square-root decomposition: S ~ sqrt(N/H'), so each bucket has
    // ~sqrt(N*H') records and the recursion depth is O(log log N) — the
    // source of Theorem 2's loglog(N/H) factor. (The printed regime
    // constants min{.,.} are garbled in the SPAA scan; the loglog level
    // count pins this reading down.) Clamped to at least 2 buckets.
    const double hv = std::max<std::uint32_t>(h_virtual, 1);
    const double s = std::max(2.0, std::sqrt(static_cast<double>(n) / hv));
    return static_cast<std::uint32_t>(s);
}

std::vector<Record> hier_sort(std::vector<Record> records, const HierSortConfig& cfg,
                              HierSortReport* report) {
    const auto t_entry = std::chrono::steady_clock::now();
    BS_REQUIRE(cfg.h >= 1, "hier_sort: need at least one hierarchy");
    const std::uint64_t n = records.size();
    if (n <= 1) return records;

    const std::uint32_t hv = cfg.h_virtual != 0
                                 ? cfg.h_virtual
                                 : VirtualDisks::default_virtual_count(cfg.h);
    SortJobConfig job;
    job.virtual_disks(hv).balance(cfg.balance).observability(cfg.obs).durability(cfg.durability);
    if (cfg.s_target != 0) {
        job.buckets(cfg.s_target, BucketPolicy::kFixed);
    } else {
        job.bucket_rule(BucketPolicy::kSqrtLevel); // §4.3, per level
    }
    // Reject an incoherent hierarchy config before the lanes hold anything.
    job.validate(cfg.h);
    // NOTE on §4.4: the paper repositions buckets on BT hierarchies via
    // the [ACSa] generalized matrix transposition, whose O((N/H)
    // (loglog)^4) cost relies on sub-block piecewise moves — below this
    // simulator's block granularity. A block-granular reposition
    // (SortJobConfig::reposition_buckets) re-sweeps the level region per
    // bucket and measures slightly worse, so it stays opt-in; the
    // resulting measured/formula drift for BT with alpha >= 1 is
    // quantified in EXPERIMENTS.md.

    // The H hierarchies are lanes of a block-size-1 array (one record per
    // depth per lane); partial striping and the Balance machinery are the
    // PDM ones, re-priced by the HierarchyMeter.
    DiskArray lanes(cfg.h, /*b=*/1);
    HierarchyMeter meter(cfg.model.make(cfg.h), cfg.interconnect, cfg.h);

    // Loading the input is not part of the sorting time: attach the
    // observer only after the initial layout.
    BlockRun input = write_striped(lanes, records);
    lanes.set_step_observer(
        [&meter](bool is_read, std::span<const BlockOp> ops) { meter.on_step(is_read, ops); });

    PdmConfig pdm;
    pdm.n = n;
    pdm.m = std::max<std::uint64_t>(3ull * cfg.h, 2ull * cfg.h + 2); // base case N <= 3H
    pdm.d = cfg.h;
    pdm.b = 1;
    pdm.p = cfg.h;

    SortReport mech;
    BlockRun output = balance_sort(lanes, input, pdm, job, &mech);
    lanes.set_step_observer(nullptr);

    // Base-case internal sorts: each track of H records sorted on the
    // interconnect costs T(H) (Algorithm 1 lines (1)-(3)); ~N/H tracks
    // pass through base cases in total.
    meter.charge_interconnect_units(static_cast<double>(ceil_div(n, cfg.h)));

    std::vector<Record> sorted = read_run(lanes, output);

    if (report != nullptr) {
        report->hierarchy_time = meter.hierarchy_time();
        report->interconnect_charge = meter.interconnect_charges();
        report->total_time = meter.total_time();
        report->tracks = meter.tracks();
        report->mechanics = mech;
        double formula = 0;
        switch (cfg.model.family) {
            case HierModelSpec::Family::kHmm:
                formula = cfg.model.f.kind() == CostFn::Kind::kLog
                              ? theorem2_time_log(n, cfg.h, cfg.interconnect)
                              : theorem2_time_power(n, cfg.h, cfg.model.f.alpha(),
                                                    cfg.interconnect);
                break;
            case HierModelSpec::Family::kBt:
                formula = cfg.model.f.kind() == CostFn::Kind::kLog
                              ? theorem3_time_log(n, cfg.h, cfg.interconnect)
                              : theorem3_time_power(n, cfg.h, cfg.model.f.alpha(),
                                                    cfg.interconnect);
                break;
            case HierModelSpec::Family::kUmh:
                // [ViN]'s P-UMH bounds reduce to the BT α=1 shape for our
                // parameterization; reuse it as the reference curve.
                formula = theorem3_time_power(n, cfg.h, 1.0, cfg.interconnect);
                break;
        }
        report->formula = formula;
        report->ratio = formula > 0 ? report->total_time / formula : 0;
        report->elapsed_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t_entry).count();
    }
    return sorted;
}

namespace {

double nh(std::uint64_t n, std::uint32_t h) {
    return static_cast<double>(n) / static_cast<double>(h);
}

/// The hypercube variants replace the PRAM's log N comparison term with
/// (log N / log H) * T(H) (Theorems 2-3 statements).
double comparison_term(std::uint64_t n, std::uint32_t h, Interconnect ic) {
    const double logn = paper_log(static_cast<double>(n));
    if (ic == Interconnect::kPram) return logn;
    return logn / paper_log(static_cast<double>(h)) *
           interconnect_time(ic, static_cast<double>(h));
}

} // namespace

double theorem2_time_log(std::uint64_t n, std::uint32_t h, Interconnect ic) {
    const double x = nh(n, h);
    const double base = x * paper_log(x) * paper_log(paper_log(x));
    if (ic == Interconnect::kPram) return base;
    return base + x * comparison_term(n, h, ic);
}

double theorem2_time_power(std::uint64_t n, std::uint32_t h, double alpha, Interconnect ic) {
    const double x = nh(n, h);
    return std::pow(x, alpha + 1.0) + x * comparison_term(n, h, ic);
}

double theorem3_time_log(std::uint64_t n, std::uint32_t h, Interconnect ic) {
    // Theta((N/H) log N) with the hypercube comparison-term substitution.
    return nh(n, h) * comparison_term(n, h, ic);
}

double theorem3_time_power(std::uint64_t n, std::uint32_t h, double alpha, Interconnect ic) {
    const double x = nh(n, h);
    if (alpha < 1.0) {
        return x * comparison_term(n, h, ic); // Theta((N/H) log N)
    }
    if (alpha == 1.0) {
        const double lx = paper_log(x);
        return x * (lx * lx + comparison_term(n, h, ic));
    }
    return std::pow(x, alpha) + x * comparison_term(n, h, ic);
}

PivotSet algorithm2_partition_elements(std::span<const Record> records, std::uint32_t g_groups,
                                       std::uint32_t s_target, const Parallel& pool,
                                       WorkMeter* meter) {
    const std::uint64_t n = records.size();
    BS_REQUIRE(g_groups >= 1, "algorithm2: need G >= 1");
    BS_REQUIRE(s_target >= 2, "algorithm2: need S >= 2");
    if (n == 0) return {};

    const std::uint64_t group_len = ceil_div(n, g_groups);
    const std::uint64_t stride = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(paper_log(static_cast<double>(n))));

    // Lines (1)-(2): sort each group ("recursively" — the in-memory
    // stand-in is one parallel merge sort per group) and set aside every
    // ⌊log N⌋-th element into C.
    std::vector<std::uint64_t> c;
    c.reserve(n / stride + g_groups);
    std::vector<Record> group;
    for (std::uint64_t start = 0; start < n; start += group_len) {
        const std::uint64_t len = std::min(group_len, n - start);
        group.assign(records.begin() + static_cast<std::ptrdiff_t>(start),
                     records.begin() + static_cast<std::ptrdiff_t>(start + len));
        parallel_merge_sort(group, pool, meter);
        for (std::uint64_t r = stride; r <= len; r += stride) {
            c.push_back(group[r - 1].key);
        }
    }

    // Line (3): sort C (binary merge sort in the paper; std::sort here —
    // the I/O pattern is not being metered in this in-memory variant).
    std::sort(c.begin(), c.end());
    if (meter != nullptr) {
        meter->add_comparisons(c.size() * std::max<std::uint64_t>(1, ilog2_ceil(c.size() | 1)));
    }

    // Line (4): e_j := the ⌊j*N/((S-1) log N)⌋-th smallest element of C,
    // i.e. every (N/((S-1) log N))-th sample, which is every
    // (|C| / (S-1))-th element of C since |C| ~ N / log N.
    PivotSet out;
    if (c.empty()) return out;
    const std::uint64_t step = std::max<std::uint64_t>(1, c.size() / s_target);
    for (std::uint64_t r = step; r < c.size(); r += step) {
        out.keys.push_back(c[r]);
        if (out.keys.size() + 1 >= s_target) break;
    }
    out.keys.erase(std::unique(out.keys.begin(), out.keys.end()), out.keys.end());
    return out;
}

} // namespace balsort
