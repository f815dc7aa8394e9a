// EXP-ABLATION — design-choice ablations called out in DESIGN.md:
//  (a) partial-striping exponent (D' = D^s for s in {0, 1/3, 1/2, 1}),
//  (b) bucket count S vs the paper's (M/B)^(1/4),
//  (c) matching strategy (greedy / randomized / derandomized),
//  (d) auxiliary-matrix rule (paper median vs [Arg] twice-average),
//  (e) assignment policy (cyclic vs least-loaded),
//  (f) defer policy (Algorithm 5 verbatim vs rebalance-all).
#include "bench_common.hpp"

using namespace balsort;
using namespace balsort::bench;

int main() {
    banner("EXP-ABLATION",
           "Design-choice ablations on a fixed instance (N=2^18, M=2^12, D=8, B=16,\n"
           "gaussian). The paper's defaults should be on (or near) the Pareto frontier.");

    const PdmConfig cfg{.n = 1 << 18, .m = 1 << 12, .d = 8, .b = 16, .p = 2};
    const Workload w = Workload::kGaussian;

    {
        Table t({"D'", "I/O steps", "worst bucket ratio", "matched", "deferred"});
        for (std::uint32_t dv : {1u, 2u, 4u, 8u}) {
            SortJobConfig opt;
            opt.d_virtual = dv;
            auto rep = run_balance_sort(cfg, w, 1, opt);
            t.add_row({Table::num(dv), Table::num(rep.io.io_steps()),
                       Table::fixed(rep.worst_bucket_read_ratio, 3),
                       Table::num(rep.balance.matched_blocks),
                       Table::num(rep.balance.deferred_blocks)});
        }
        std::cout << "(a) partial striping D' (paper default: divisor nearest D^(1/3) = 2):\n";
        t.print(std::cout);
    }
    {
        Table t({"S", "levels", "I/O steps", "PRAM time"});
        for (std::uint32_t s : {2u, 4u, 8u, 16u}) {
            SortJobConfig opt;
            opt.s_target = s;
            opt.bucket_policy = BucketPolicy::kFixed;
            auto rep = run_balance_sort(cfg, w, 2, opt);
            t.add_row({Table::num(s), Table::num(rep.levels), Table::num(rep.io.io_steps()),
                       Table::fixed(rep.pram_time, 0)});
        }
        std::cout << "\n(b) bucket count S (paper default (M/B)^(1/4) = 4):\n";
        t.print(std::cout);
    }
    {
        Table t({"matching", "I/O steps", "wall (ms)", "max rounds/track"});
        for (auto strat : {MatchStrategy::kGreedy, MatchStrategy::kRandomized,
                           MatchStrategy::kDerandomized}) {
            SortJobConfig opt;
            opt.balance_opts.matching = strat;
            Timer timer;
            auto rep = run_balance_sort(cfg, w, 3, opt);
            t.add_row({to_string(strat), Table::num(rep.io.io_steps()),
                       Table::fixed(timer.millis(), 0),
                       Table::num(rep.balance.max_rounds_per_track)});
        }
        std::cout << "\n(c) Fast-Partial-Match engine:\n";
        t.print(std::cout);
    }
    {
        Table t({"aux rule", "I/O steps", "worst bucket ratio", "matched"});
        for (auto aux : {AuxRule::kPaperMedian, AuxRule::kArgTwiceAvg}) {
            SortJobConfig opt;
            opt.balance_opts.aux = aux;
            auto rep = run_balance_sort(cfg, w, 4, opt);
            t.add_row({aux == AuxRule::kPaperMedian ? "paper median" : "[Arg] twice-avg",
                       Table::num(rep.io.io_steps()),
                       Table::fixed(rep.worst_bucket_read_ratio, 3),
                       Table::num(rep.balance.matched_blocks)});
        }
        std::cout << "\n(d) auxiliary-matrix rule (the [Arg] January-1993 alternative):\n";
        t.print(std::cout);
    }
    {
        Table t({"assignment", "matched", "deferred", "worst bucket ratio", "I/O steps"});
        for (auto assign : {AssignPolicy::kCyclic, AssignPolicy::kLeastLoaded,
                            AssignPolicy::kMinCostMatching}) {
            SortJobConfig opt;
            opt.balance_opts.assign = assign;
            auto rep = run_balance_sort(cfg, w, 5, opt);
            const char* name = assign == AssignPolicy::kCyclic ? "cyclic"
                               : assign == AssignPolicy::kLeastLoaded
                                   ? "least-loaded"
                                   : "min-cost matching (§6)";
            t.add_row({name, Table::num(rep.balance.matched_blocks),
                       Table::num(rep.balance.deferred_blocks),
                       Table::fixed(rep.worst_bucket_read_ratio, 3),
                       Table::num(rep.io.io_steps())});
        }
        std::cout << "\n(e) tentative assignment policy (incl. the §6 min-cost conjecture):\n";
        t.print(std::cout);
    }
    {
        Table t({"defer policy", "deferred", "tracks", "I/O steps"});
        for (auto defer : {DeferPolicy::kPaperDefer, DeferPolicy::kRebalanceAll}) {
            SortJobConfig opt;
            opt.balance_opts.defer = defer;
            auto rep = run_balance_sort(cfg, w, 6, opt);
            t.add_row({defer == DeferPolicy::kPaperDefer ? "paper (Algorithm 5)" : "rebalance-all",
                       Table::num(rep.balance.deferred_blocks), Table::num(rep.balance.tracks),
                       Table::num(rep.io.io_steps())});
        }
        std::cout << "\n(f) defer policy:\n";
        t.print(std::cout);
    }
    {
        Table t({"pivot method", "read steps", "write steps", "I/O ratio"});
        for (auto method : {PivotMethod::kSamplingPass, PivotMethod::kStreamingSketch}) {
            SortJobConfig opt;
            opt.pivot_method = method;
            auto rep = run_balance_sort(cfg, w, 7, opt);
            t.add_row({method == PivotMethod::kSamplingPass ? "sampling pass (§5, paper)"
                                                            : "streaming sketch (extension)",
                       Table::num(rep.io.read_steps), Table::num(rep.io.write_steps),
                       Table::fixed(rep.io_ratio, 2)});
        }
        std::cout << "\n(f2) pivot method — the sketch drops one read pass per recursive level:\n";
        t.print(std::cout);
    }
    {
        // §6's striped-writes feature: same I/O count, extra space.
        Table t({"write mode", "I/O steps", "blocks written", "space (blocks alloc'd)"});
        for (bool synced : {false, true}) {
            DiskArray disks(cfg.d, cfg.b);
            auto input = generate(w, cfg.n, 8);
            SortJobConfig opt;
            opt.io_policy.synchronized_writes = synced;
            SortReport rep;
            auto sorted = balance_sort_records(disks, input, cfg, opt, &rep);
            if (!is_sorted_by_key(sorted)) std::abort();
            std::uint64_t hw = 0;
            for (std::uint32_t d = 0; d < cfg.d; ++d) hw += disks.high_water(d);
            t.add_row({synced ? "synchronized (striped only)" : "independent",
                       Table::num(rep.io.io_steps()), Table::num(rep.io.blocks_written),
                       Table::num(hw)});
        }
        std::cout << "\n(g) §6 synchronized-writes mode (striped-only writes, parity-friendly):\n";
        t.print(std::cout);
    }
    return 0;
}
