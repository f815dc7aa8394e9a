// EXP-FAULTS — fault soak for the DESIGN.md §8 recovery layer. Sweeps the
// injected transient-error rate (with checksums + parity + synchronized
// writes on) and separately kills one disk mid-sort, verifying after every
// run that the output is still the sorted permutation of the input and
// that the paper's I/O-step measure is untouched by recovery traffic. The
// table quantifies the *price* of durability: recovery block transfers
// (retries + RMW reads + parity writes + reconstructions) relative to the
// model's data transfers.
#include "bench_common.hpp"
#include "pdm/disk_array.hpp"

using namespace balsort;
using namespace balsort::bench;

namespace {

struct SoakRow {
    SortReport rep;
    bool ok = false;
    std::uint64_t clean_steps = 0;
};

SoakRow soak(const PdmConfig& cfg, const FaultTolerance& ft, std::uint64_t seed) {
    SoakRow r;
    auto input = generate(Workload::kUniform, cfg.n, seed);
    SortJobConfig opt;
    opt.io_policy.synchronized_writes = true;
    {
        DiskArray disks(cfg.d, cfg.b, DiskBackend::kMemory, ".", Constraint::kIndependentDisks,
                        ft);
        auto sorted = balance_sort_records(disks, input, cfg, opt, &r.rep);
        r.ok = is_sorted_permutation_of(input, sorted);
    }
    {
        DiskArray disks(cfg.d, cfg.b);
        SortReport clean;
        (void)balance_sort_records(disks, input, cfg, opt, &clean);
        r.clean_steps = clean.io.io_steps();
    }
    return r;
}

std::string pct(std::uint64_t part, std::uint64_t whole) {
    return Table::fixed(100.0 * static_cast<double>(part) / static_cast<double>(whole), 1) + "%";
}

} // namespace

int main() {
    banner("EXP-FAULTS",
           "Fault soak (DESIGN.md §8): Balance Sort under injected transient errors,\n"
           "silent bit rot, and a permanent single-disk failure, with checksummed\n"
           "blocks + one parity disk + the paper's §6 synchronized writes.\n"
           "Reproduction target: every run completes with correctly sorted output,\n"
           "the model I/O-step count is IDENTICAL to the fault-free run (recovery is\n"
           "charged separately), and recovery overhead scales with the fault rate.");

    const PdmConfig cfg{.n = 1 << 15, .m = 1 << 11, .d = 8, .b = 16, .p = 4};

    {
        Table t({"transient rate", "sorted", "steps", "clean steps", "retries", "parity wr",
                 "rmw rd", "reconstr", "recovery/data"});
        for (const double rate : {0.0, 1e-4, 1e-3, 1e-2, 5e-2}) {
            FaultTolerance ft;
            ft.inject.seed = 0xb5;
            ft.inject.read_transient_rate = rate;
            ft.inject.write_transient_rate = rate;
            ft.max_retries = 12;
            ft.checksums = true;
            ft.parity = true;
            SoakRow r = soak(cfg, ft, 1);
            const std::uint64_t data = r.rep.io.blocks_read + r.rep.io.blocks_written;
            t.add_row({Table::fixed(rate, 4), r.ok ? "yes" : "NO", Table::num(r.rep.io.io_steps()),
                       Table::num(r.clean_steps), Table::num(r.rep.io.transient_retries),
                       Table::num(r.rep.io.parity_blocks_written), Table::num(r.rep.io.rmw_reads),
                       Table::num(r.rep.io.reconstructions),
                       pct(r.rep.io.recovery_blocks(), data)});
            if (!r.ok || r.rep.io.io_steps() != r.clean_steps) {
                std::cerr << "BENCH BUG: fault soak violated its invariants\n";
                return 1;
            }
        }
        std::cout << "Transient-rate sweep, N=2^15, D=8, B=16 (+1 parity disk):\n";
        t.print(std::cout);
    }

    {
        Table t({"scenario", "sorted", "steps", "clean steps", "dead", "degraded wr",
                 "reconstr", "corrupt", "recovery/data"});
        // One parity disk tolerates any single failure; silent rot while a
        // disk is ALSO dead is a double failure and correctly throws
        // UnrecoverableIo, so the storm combines death with transients
        // (retryable) rather than with corruption.
        struct Scen {
            const char* name;
            double bit_flip, transient;
            std::uint64_t die_after;
        };
        for (const Scen& s : {Scen{"bit rot 1e-3", 1e-3, 1e-3, 0},
                              Scen{"disk death @1k ops", 0.0, 1e-3, 1000},
                              Scen{"storm: 2% transients + death", 0.0, 2e-2, 1000}}) {
            FaultTolerance ft;
            ft.inject.seed = 0xf0;
            ft.inject.read_transient_rate = s.transient;
            ft.inject.write_transient_rate = s.transient;
            ft.inject.bit_flip_rate = s.bit_flip;
            ft.inject.die_after_ops = s.die_after;
            ft.max_retries = 12;
            ft.die_disk = s.die_after ? 3 : FaultTolerance::kNoDisk;
            ft.checksums = true;
            ft.parity = true;
            SoakRow r = soak(cfg, ft, 2);
            const std::uint64_t data = r.rep.io.blocks_read + r.rep.io.blocks_written;
            t.add_row({s.name, r.ok ? "yes" : "NO", Table::num(r.rep.io.io_steps()),
                       Table::num(r.clean_steps), Table::num(r.rep.disks_failed),
                       Table::num(r.rep.io.degraded_writes), Table::num(r.rep.io.reconstructions),
                       Table::num(r.rep.io.corrupt_blocks),
                       pct(r.rep.io.recovery_blocks(), data)});
            if (!r.ok || r.rep.io.io_steps() != r.clean_steps) {
                std::cerr << "BENCH BUG: fault soak violated its invariants\n";
                return 1;
            }
        }
        std::cout << "\nCatastrophe scenarios (same config; all survive via parity):\n";
        t.print(std::cout);
    }
    return 0;
}
