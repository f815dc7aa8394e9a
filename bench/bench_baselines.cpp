// EXP-BASELINES — head-to-head I/O counts of every sorting algorithm in
// the library on the same instances: Balance Sort (this paper), Greed
// Sort [NoV], the randomized Vitter-Shriver distribution sort [ViSa], and
// striped merge sort. Expected shape: the three optimal algorithms sit
// within small constants of each other and of Eq. 1; striping falls
// behind at D=16; determinism shows in Balance Sort's zero variance.
#include "baselines/greed_sort.hpp"
#include "baselines/rand_dist.hpp"
#include "baselines/striped_merge.hpp"
#include "bench_common.hpp"

using namespace balsort;
using namespace balsort::bench;

int main() {
    banner("EXP-BASELINES",
           "Algorithm shoot-out on identical instances (N=2^18, M=2^11, D=16, B=8).\n"
           "Reproduction target: BalanceSort ~ GreedSort ~ randomized [ViSa] (all optimal,\n"
           "small-constant apart); striped merge pays the log(M/B)/log(M/DB) penalty.");

    PdmConfig cfg{.n = 1 << 18, .m = 1 << 11, .d = 16, .b = 8, .p = 1};
    std::cout << "Theorem-1 formula for this instance: " << Table::fixed(cfg.optimal_ios(), 0)
              << " I/Os\n\n";

    for (Workload w : {Workload::kUniform, Workload::kGaussian, Workload::kZipf,
                       Workload::kSorted, Workload::kDuplicateHeavy}) {
        auto input = generate(w, cfg.n, 17);
        Table t({"algorithm", "I/O steps", "vs formula", "wall (ms)"});
        {
            DiskArray disks(cfg.d, cfg.b);
            BlockRun run = write_striped(disks, input);
            SortReport rep;
            Timer timer;
            (void)balance_sort(disks, run, cfg, {}, &rep);
            t.add_row({"Balance Sort (this paper)", Table::num(rep.io.io_steps()),
                       Table::fixed(rep.io_ratio, 2), Table::fixed(timer.millis(), 0)});
        }
        {
            DiskArray disks(cfg.d, cfg.b);
            BlockRun run = write_striped(disks, input);
            GreedSortReport rep;
            Timer timer;
            (void)greed_sort(disks, run, cfg, &rep);
            t.add_row({"Greed Sort [NoV]", Table::num(rep.io.io_steps()),
                       Table::fixed(rep.io_ratio, 2), Table::fixed(timer.millis(), 0)});
        }
        {
            DiskArray disks(cfg.d, cfg.b);
            BlockRun run = write_striped(disks, input);
            GreedApproxReport rep;
            Timer timer;
            (void)greed_sort_approximate(disks, run, cfg, &rep);
            t.add_row({"Greed Sort approx+cleanup", Table::num(rep.io.io_steps()),
                       Table::fixed(rep.io_ratio, 2), Table::fixed(timer.millis(), 0)});
        }
        {
            DiskArray disks(cfg.d, cfg.b);
            BlockRun run = write_striped(disks, input);
            SortJobConfig opt;
            opt.pivot_method = PivotMethod::kStreamingSketch;
            SortReport rep;
            Timer timer;
            (void)balance_sort(disks, run, cfg, opt, &rep);
            t.add_row({"Balance Sort + sketch pivots", Table::num(rep.io.io_steps()),
                       Table::fixed(rep.io_ratio, 2), Table::fixed(timer.millis(), 0)});
        }
        {
            DiskArray disks(cfg.d, cfg.b);
            BlockRun run = write_striped(disks, input);
            RandDistReport rep;
            Timer timer;
            (void)rand_dist_sort(disks, run, cfg, 1, &rep);
            t.add_row({"randomized dist. [ViSa]", Table::num(rep.io.io_steps()),
                       Table::fixed(rep.io_ratio, 2), Table::fixed(timer.millis(), 0)});
        }
        {
            DiskArray disks(cfg.d, cfg.b);
            BlockRun run = write_striped(disks, input);
            StripedMergeReport rep;
            Timer timer;
            (void)striped_merge_sort(disks, run, cfg, &rep);
            t.add_row({"striped merge sort", Table::num(rep.io.io_steps()),
                       Table::fixed(rep.io_ratio, 2), Table::fixed(timer.millis(), 0)});
        }
        std::cout << "workload: " << to_string(w) << '\n';
        t.print(std::cout);
        std::cout << '\n';
    }
    return 0;
}
