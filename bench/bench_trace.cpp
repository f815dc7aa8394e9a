// EXP-TRACE — access-pattern analysis of the sorting algorithms on the
// D-disk array, via the IoTrace recorder: effective parallelism (blocks
// per step vs D), per-disk traffic balance, and per-disk sequentiality
// (the seek-avoidance §1's blocking argument cares about). Merge-based
// methods stream; distribution methods scatter — the trace quantifies the
// trade Balance Sort's load balancing wins back.
#include "baselines/greed_sort.hpp"
#include "baselines/striped_merge.hpp"
#include "bench_common.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "pdm/trace.hpp"

#include <chrono>
#include <cstdio>

using namespace balsort;
using namespace balsort::bench;

namespace {

struct TraceRow {
    double parallelism, imbalance, sequential;
    std::uint64_t steps;
};

template <typename SortFn>
TraceRow traced(const PdmConfig& cfg, const std::vector<Record>& input, SortFn&& sort_fn) {
    DiskArray disks(cfg.d, cfg.b);
    BlockRun run = write_striped(disks, input);
    IoTrace trace;
    trace.attach(disks);
    sort_fn(disks, run);
    trace.detach();
    TraceRow row;
    row.parallelism = trace.mean_parallelism();
    row.imbalance = trace.disk_imbalance(cfg.d);
    row.sequential = trace.sequential_fraction(cfg.d);
    row.steps = trace.steps().size();
    return row;
}

// One rung of the observability overhead ladder: the same sort, plus an
// explicit dose of instrumentation — ring traffic (`notes` synthetic flight
// events), optionally a full Chrome-trace dump inside the timed region, and
// optionally the sampling profiler armed for the sort's duration. The model
// quantities come from the sort alone, so they must be byte-identical
// across rungs — that is the guard the gated baseline enforces: observers
// may cost wall time, never I/O steps.
BenchResult ladder_rung(const char* variant, const PdmConfig& cfg, std::uint64_t notes,
                        bool dump, bool profile = false) {
    const auto t0 = std::chrono::steady_clock::now();
    Profiler profiler;
    SortJobConfig opt;
    if (profile) opt.obs_policy.profiler = &profiler;
    SortReport rep = run_balance_sort(cfg, Workload::kUniform, 5, opt);
    for (std::uint64_t i = 0; i < notes; ++i) {
        flight_note("bench.tick", "bench", static_cast<std::int64_t>(i));
    }
#ifndef BALSORT_NO_OBS
    if (dump) {
        const std::string path = "BENCH_trace_flight.json";
        if (!FlightRecorder::instance().dump_file(path)) {
            throw std::runtime_error("BENCH BUG: flight dump failed");
        }
        std::remove(path.c_str());
    }
#else
    (void)dump;
#endif
    const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return BenchResult::from_report("trace", variant, cfg, rep, wall);
}

} // namespace

int main(int argc, char** argv) {
    const bool smoke = smoke_flag(argc, argv);
    const char* json_path = json_flag(argc, argv);
    banner("EXP-TRACE",
           "I/O access-pattern analysis (N=2^17, M=2^11, D=8, B=16, uniform).\n"
           "Reproduction target: Balance Sort keeps effective parallelism near D and\n"
           "per-disk traffic balanced (the whole point of the X/A matrices), while\n"
           "remaining competitive on sequentiality.");

    PdmConfig cfg{.n = 1 << 17, .m = 1 << 11, .d = 8, .b = 16, .p = 1};
    auto input = generate(Workload::kUniform, cfg.n, 5);

    Table t({"algorithm", "I/O steps", "blocks/step (D=8)", "disk imbalance", "seq. fraction"});
    {
        auto row = traced(cfg, input, [&](DiskArray& d, const BlockRun& r) {
            (void)balance_sort(d, r, cfg, {}, nullptr);
        });
        t.add_row({"Balance Sort", Table::num(row.steps), Table::fixed(row.parallelism, 2),
                   Table::fixed(row.imbalance, 3), Table::fixed(row.sequential, 2)});
    }
    {
        SortJobConfig opt;
        opt.pivot_method = PivotMethod::kStreamingSketch;
        auto row = traced(cfg, input, [&](DiskArray& d, const BlockRun& r) {
            (void)balance_sort(d, r, cfg, opt, nullptr);
        });
        t.add_row({"Balance Sort + sketch", Table::num(row.steps),
                   Table::fixed(row.parallelism, 2), Table::fixed(row.imbalance, 3),
                   Table::fixed(row.sequential, 2)});
    }
    {
        auto row = traced(cfg, input, [&](DiskArray& d, const BlockRun& r) {
            (void)greed_sort(d, r, cfg, nullptr);
        });
        t.add_row({"Greed Sort", Table::num(row.steps), Table::fixed(row.parallelism, 2),
                   Table::fixed(row.imbalance, 3), Table::fixed(row.sequential, 2)});
    }
    {
        auto row = traced(cfg, input, [&](DiskArray& d, const BlockRun& r) {
            (void)striped_merge_sort(d, r, cfg, nullptr);
        });
        t.add_row({"striped merge", Table::num(row.steps), Table::fixed(row.parallelism, 2),
                   Table::fixed(row.imbalance, 3), Table::fixed(row.sequential, 2)});
    }
    t.print(std::cout);

    {
        // Parallelism histogram of Balance Sort: how many steps move k blocks.
        DiskArray disks(cfg.d, cfg.b);
        BlockRun run = write_striped(disks, input);
        IoTrace trace;
        trace.attach(disks);
        (void)balance_sort(disks, run, cfg, {}, nullptr);
        trace.detach();
        auto hist = trace.parallelism_histogram(cfg.d);
        Table h({"blocks in step", "steps"});
        for (std::size_t k = 1; k < hist.size(); ++k) {
            h.add_row({Table::num(k), Table::num(hist[k])});
        }
        std::cout << "\nBalance Sort parallelism histogram (full steps dominate):\n";
        h.print(std::cout);
    }

    {
        // Observability overhead ladder. The flight recorder is always on,
        // so the rungs dose it: baseline (the sort's own notes only), ring
        // (plus a burst of synthetic ring writes), ring+dump (plus a full
        // Chrome-trace serialization), profiler (SIGPROF sampling armed for
        // the sort's duration). Model quantities are identical by
        // construction; the gate pins them byte-exactly and tolerance-bands
        // the wall clock — observers must stay off the model ledger.
        PdmConfig lcfg{.n = smoke ? (1u << 15) : (1u << 17), .m = 1 << 11, .d = 8, .b = 16, .p = 1};
        const std::uint64_t notes = smoke ? 50'000 : 500'000;
        BenchSuite suite = make_suite("trace", smoke);
        suite.results.push_back(ladder_rung("recorder=baseline", lcfg, 0, false));
        suite.results.push_back(ladder_rung("recorder=ring", lcfg, notes, false));
        suite.results.push_back(ladder_rung("recorder=ring+dump", lcfg, notes, true));
        suite.results.push_back(ladder_rung("recorder=profiler", lcfg, 0, false, true));

        Table l({"rung", "I/O steps", "wall (s)"});
        for (const auto& r : suite.results) {
            l.add_row({r.variant, Table::num(r.io_steps), Table::fixed(r.wall_seconds, 3)});
        }
        std::cout << "\nObservability overhead ladder (N=" << lcfg.n << ", " << notes
                  << " synthetic notes per dosed ring rung):\n";
        l.print(std::cout);

        if (!write_suite(suite, json_path)) return 1;
    }
    return 0;
}
