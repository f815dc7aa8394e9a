// EXP-T1-IO — Theorem 1 / Eq. 1: the parallel I/O count of Balance Sort is
// Theta((N/DB) * log(N/B)/log(M/B)). We sweep N over 64x and show the
// measured/formula ratio staying in a flat constant band (the paper's
// optimality claim), plus the M/B sweep governing the log base.
//
// Flags: --smoke (CI-sized sweeps: N to 2^17, M/B sweep at N=2^16, workload
// sweep at N=2^15), --json PATH (canonical balsort-bench-v1 suite for
// benchgate; variant ids "n=...", "m=...", "w=...").
#include "bench_common.hpp"

using namespace balsort;
using namespace balsort::bench;

int main(int argc, char** argv) {
    const bool smoke = smoke_flag(argc, argv);
    const char* json_path = json_flag(argc, argv);
    banner("EXP-T1-IO",
           "Theorem 1: Balance Sort sorts with Theta((N/DB) log(N/B)/log(M/B)) parallel I/Os.\n"
           "Reproduction target: measured/formula ratio FLAT in N (a constant, ~paper's\n"
           "claimed optimality); ratio insensitive to workload.");

    BenchSuite suite = make_suite("t1_io", smoke);
    auto measure = [&suite](const std::string& variant, const PdmConfig& cfg, Workload w,
                            std::uint64_t seed, SortJobConfig opt = {}) {
        Timer timer;
        SortReport rep = run_balance_sort(cfg, w, seed, opt);
        suite.results.push_back(
            BenchResult::from_report("t1_io", variant, cfg, rep, timer.seconds()));
        return rep;
    };

    {
        Table t({"N", "M", "D", "B", "I/O steps", "formula", "ratio", "util"});
        const std::uint64_t n_max = smoke ? (1 << 17) : (1 << 20);
        for (std::uint64_t n = 1 << 14; n <= n_max; n <<= 1) {
            PdmConfig cfg{.n = n, .m = 1 << 12, .d = 8, .b = 16, .p = 2};
            auto rep = measure("n=" + std::to_string(n), cfg, Workload::kUniform, n);
            t.add_row({Table::num(n), Table::num(cfg.m), Table::num(cfg.d), Table::num(cfg.b),
                       Table::num(rep.io.io_steps()), Table::fixed(rep.optimal_ios, 0),
                       Table::fixed(rep.io_ratio, 2), Table::fixed(rep.io.utilization(cfg.d), 2)});
        }
        std::cout << "N sweep (ratio must stay flat):\n";
        t.print(std::cout);
    }

    {
        Table t({"M/B", "S used", "levels", "I/O steps", "formula", "ratio"});
        const std::uint64_t sweep_n = smoke ? (1 << 16) : (1 << 19);
        for (std::uint64_t m : {std::uint64_t{1} << 10, std::uint64_t{1} << 12,
                                std::uint64_t{1} << 14}) {
            PdmConfig cfg{.n = sweep_n, .m = m, .d = 8, .b = 16, .p = 2};
            auto rep = measure("m=" + std::to_string(m), cfg, Workload::kUniform, m);
            t.add_row({Table::num(m / cfg.b), Table::num(rep.s_used), Table::num(rep.levels),
                       Table::num(rep.io.io_steps()), Table::fixed(rep.optimal_ios, 0),
                       Table::fixed(rep.io_ratio, 2)});
        }
        if (!smoke) {
            // The 2^16 memoryload holds the whole 2^19 input: degenerate
            // single-level sort, informative in the table but a separate row.
            PdmConfig cfg{.n = sweep_n, .m = std::uint64_t{1} << 16, .d = 8, .b = 16, .p = 2};
            auto rep = measure("m=65536", cfg, Workload::kUniform, 1 << 16);
            t.add_row({Table::num(cfg.m / cfg.b), Table::num(rep.s_used), Table::num(rep.levels),
                       Table::num(rep.io.io_steps()), Table::fixed(rep.optimal_ios, 0),
                       Table::fixed(rep.io_ratio, 2)});
        }
        std::cout << "\nM/B sweep at N=2^" << (smoke ? 16 : 19)
                  << " (more memory => fewer levels => fewer I/Os):\n";
        t.print(std::cout);
    }

    {
        Table t({"workload", "I/O steps", "ratio"});
        const std::uint64_t n = smoke ? (1 << 15) : (1 << 18);
        for (Workload w : all_workloads()) {
            PdmConfig cfg{.n = n, .m = 1 << 12, .d = 8, .b = 16, .p = 2};
            auto rep = measure(std::string("w=") + to_string(w), cfg, w, 7);
            t.add_row({to_string(w), Table::num(rep.io.io_steps()),
                       Table::fixed(rep.io_ratio, 2)});
        }
        std::cout << "\nWorkload sweep at N=2^" << (smoke ? 15 : 18)
                  << " (determinism: no bad inputs):\n";
        t.print(std::cout);
    }
    if (!write_suite(suite, json_path)) return 1;
    return 0;
}
