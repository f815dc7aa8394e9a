// EXP-T3-PBT — Theorem 3: deterministic sorting time on P-BT across the
// f(x) regimes (log x; x^a for a<1, a=1, a>1), PRAM and hypercube
// interconnects. Known deviation (EXPERIMENTS.md): bucket reads jump
// between interleaved block ranges, penalties the paper's repositioning +
// "touch" machinery [ACSa] would amortize — ratios sit above 1 by a
// bounded constant but must stay FLAT in N.
#include "bench_common.hpp"
#include "core/hier_sort.hpp"

using namespace balsort;
using namespace balsort::bench;

namespace {

void sweep(const HierModelSpec& spec, Interconnect ic, const char* label) {
    Table t({"N", "hier time", "total", "formula", "ratio"});
    for (std::uint64_t n = 1 << 12; n <= (1 << 16); n <<= 1) {
        HierSortConfig cfg;
        cfg.h = 64;
        cfg.model = spec;
        cfg.interconnect = ic;
        auto input = generate(Workload::kUniform, n, n ^ 0xb7);
        HierSortReport rep;
        auto sorted = hier_sort(input, cfg, &rep);
        if (!is_sorted_by_key(sorted)) {
            std::cerr << "BENCH BUG: unsorted P-BT output\n";
            std::abort();
        }
        t.add_row({Table::num(n), Table::fixed(rep.hierarchy_time, 0),
                   Table::fixed(rep.total_time, 0), Table::fixed(rep.formula, 0),
                   Table::fixed(rep.ratio, 2)});
    }
    std::cout << label << " (H=64; ratio must stay flat):\n";
    t.print(std::cout);
    std::cout << '\n';
}

} // namespace

int main() {
    banner("EXP-T3-PBT",
           "Theorem 3: optimal deterministic sorting on P-BT (Fig. 3b hierarchies).\n"
           "Reproduction target: charged-time/formula flat in N for every f regime;\n"
           "BT strictly cheaper than HMM at equal f thanks to streaming.");

    sweep(HierModelSpec::bt(CostFn::log()), Interconnect::kPram, "f(x)=log x, EREW PRAM");
    sweep(HierModelSpec::bt(CostFn::power(0.5)), Interconnect::kPram, "f(x)=x^0.5 (a<1), PRAM");
    sweep(HierModelSpec::bt(CostFn::power(1.0)), Interconnect::kPram, "f(x)=x^1 (a=1), PRAM");
    sweep(HierModelSpec::bt(CostFn::power(1.5)), Interconnect::kPram, "f(x)=x^1.5 (a>1), PRAM");
    sweep(HierModelSpec::bt(CostFn::log()), Interconnect::kHypercube, "f(x)=log x, hypercube");

    {
        // BT vs HMM at equal f: the block-transfer win.
        Table t({"f(x)", "HMM hier time", "BT hier time", "BT/HMM"});
        for (double alpha : {0.5, 1.0}) {
            HierSortConfig cfg;
            cfg.h = 32;
            auto input = generate(Workload::kUniform, 1 << 14, 9);
            HierSortReport hmm_rep, bt_rep;
            cfg.model = HierModelSpec::hmm(CostFn::power(alpha));
            (void)hier_sort(input, cfg, &hmm_rep);
            cfg.model = HierModelSpec::bt(CostFn::power(alpha));
            (void)hier_sort(input, cfg, &bt_rep);
            t.add_row({"x^" + Table::fixed(alpha, 1), Table::fixed(hmm_rep.hierarchy_time, 0),
                       Table::fixed(bt_rep.hierarchy_time, 0),
                       Table::fixed(bt_rep.hierarchy_time / hmm_rep.hierarchy_time, 2)});
        }
        std::cout << "Block transfer vs plain HMM at N=2^14, H=32 (BT/HMM < 1):\n";
        t.print(std::cout);
    }

    {
        // P-UMH (the [ViN] extension the paper mentions in §3/§6).
        Table t({"UMH (rho,nu)", "total time", "tracks"});
        for (auto [rho, nu] : {std::pair{4.0, 1.0}, std::pair{4.0, 0.5},
                               std::pair{8.0, 1.0}}) {
            HierSortConfig cfg;
            cfg.h = 32;
            cfg.model = HierModelSpec::umh(rho, nu);
            auto input = generate(Workload::kUniform, 1 << 14, 5);
            HierSortReport rep;
            (void)hier_sort(input, cfg, &rep);
            // Appends, not a `"(" + ...` chain: GCC 12 at -O3 reports a
            // false -Werror=restrict inside libstdc++ for the latter.
            std::string label = "(";
            label += Table::fixed(rho, 0);
            label += ',';
            label += Table::fixed(nu, 1);
            label += ')';
            t.add_row({label, Table::fixed(rep.total_time, 0), Table::num(rep.tracks)});
        }
        std::cout << "\nP-UMH variants (deterministic versions of [ViN]):\n";
        t.print(std::cout);
    }
    return 0;
}
