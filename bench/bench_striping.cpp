// EXP-STRIPE — the striping discussion of §1: merge sort over striped
// disks is deterministic but loses a multiplicative
// log(M/B)/log(M/(DB)) factor as D grows; Balance Sort keeps the disks
// independent and stays optimal. The penalty regime is D*B approaching M
// (fan-in collapsing to 2 while M/B stays large): we sweep D up to M/2B
// and show the crossover, then widen the gap with N at the largest D.
#include "baselines/striped_merge.hpp"
#include "bench_common.hpp"

using namespace balsort;
using namespace balsort::bench;

namespace {

struct Row {
    std::uint64_t stripe_ios, balance_ios, sketch_ios;
    std::uint32_t fan_in, passes;
};

Row run_pair(const PdmConfig& cfg, std::uint64_t seed) {
    auto input = generate(Workload::kUniform, cfg.n, seed);
    Row r{};
    {
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        StripedMergeReport rep;
        (void)striped_merge_sort(disks, run, cfg, &rep);
        r.stripe_ios = rep.io.io_steps();
        r.fan_in = rep.fan_in;
        r.passes = rep.passes;
    }
    {
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        SortReport rep;
        (void)balance_sort(disks, run, cfg, {}, &rep);
        r.balance_ios = rep.io.io_steps();
    }
    {
        // The streaming-sketch pivot variant: 2 passes per level instead
        // of 3 (the paper-faithful sampling pass is charged separately in
        // the column before).
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        SortJobConfig opt;
        opt.pivot_method = PivotMethod::kStreamingSketch;
        SortReport rep;
        (void)balance_sort(disks, run, cfg, opt, &rep);
        r.sketch_ios = rep.io.io_steps();
    }
    return r;
}

} // namespace

int main() {
    banner("EXP-STRIPE",
           "Striping penalty (paper §1): striped merge sort's I/O count is inflated by\n"
           "~log(M/B)/log(M/(DB)) as D grows toward M/B. Reproduction target: striping\n"
           "wins at small D (it is plain optimal merge sort there), Balance Sort wins\n"
           "once striping's fan-in collapses, and the gap then grows with N.");

    // M/B = 4096 (so S = 8 and the distribution tree is shallow), B small
    // so D can approach M/2B = 2048 where striping's fan-in hits 2.
    const std::uint64_t m = 1 << 14;
    const std::uint32_t b = 4;
    {
        const std::uint64_t n = 1 << 20;
        Table t({"D", "stripe fan-in", "stripe I/Os", "balance I/Os", "balance+sketch I/Os",
                 "stripe/sketch", "predicted factor", "winner"});
        for (std::uint32_t d : {16u, 64u, 256u, 512u, 1024u, 2048u}) {
            PdmConfig cfg{.n = n, .m = m, .d = d, .b = b, .p = 1};
            Row r = run_pair(cfg, d);
            const double adv = static_cast<double>(r.stripe_ios) /
                               static_cast<double>(r.sketch_ios);
            const double predicted =
                paper_log(static_cast<double>(m) / b) /
                paper_log(std::max(2.0, static_cast<double>(m) / (static_cast<double>(d) * b)));
            t.add_row({Table::num(d), Table::num(r.fan_in), Table::num(r.stripe_ios),
                       Table::num(r.balance_ios), Table::num(r.sketch_ios),
                       Table::fixed(adv, 2), Table::fixed(predicted, 2),
                       adv > 1.0 ? "balance" : "striping"});
        }
        std::cout << "D sweep at N=2^20, M=2^14, B=4 (crossover as fan-in collapses):\n";
        t.print(std::cout);
    }
    {
        Table t({"N", "stripe passes", "stripe I/Os", "balance I/Os", "balance+sketch I/Os",
                 "stripe/sketch"});
        for (std::uint64_t n = 1 << 19; n <= (1 << 23); n <<= 1) {
            PdmConfig cfg{.n = n, .m = m, .d = 1024, .b = b, .p = 1};
            Row r = run_pair(cfg, n);
            t.add_row({Table::num(n), Table::num(r.passes), Table::num(r.stripe_ios),
                       Table::num(r.balance_ios), Table::num(r.sketch_ios),
                       Table::fixed(static_cast<double>(r.stripe_ios) /
                                        static_cast<double>(r.sketch_ios),
                                    2)});
        }
        std::cout << "\nN sweep at D=1024 (fan-in 2): striping gains a merge pass per\n"
                     "DOUBLING of N, Balance Sort a level per S=8-fold growth — the\n"
                     "log(M/B)/log(M/DB) slope gap of the theorem. The advantage column\n"
                     "therefore grows steadily with N:\n";
        t.print(std::cout);
    }
    return 0;
}
