// EXP-ASYNC — the DESIGN.md §9 wall-clock-vs-model-cost separation, measured.
// The same sort runs on the inline executor (a memory-backed array: the
// caller's thread runs every block op) and on the per-disk worker executor
// (a file-backed array, where balance_sort turns the workers on), both
// under the same device model. Reproduction target: the worker run is
// bit-identical in every model quantity (sorted output, I/O steps, blocks
// moved, structure counters) — the executor may only change *when*
// physical transfers happen, never what the model charges — while
// wall-clock drops because the D per-disk workers overlap transfers with
// each other and with computation. A DeviceModel throttle (positioning
// latency + streaming cost per block op, charged on the executing thread)
// stands in for real device physics: page-cached scratch files otherwise
// serve blocks at memcpy speed, hiding exactly the serialization the
// workers remove. Variant ids stay "sync" (inline) and "async" (workers):
// bench/baselines/async.json pins them.
#include "bench_common.hpp"
#include "pdm/disk_array.hpp"

using namespace balsort;
using namespace balsort::bench;

namespace {

struct RunResult {
    SortReport rep;
    std::vector<Record> sorted;
    double wall_s = 0;
};

RunResult run_one(const PdmConfig& cfg, const std::vector<Record>& input, bool workers,
                  DeviceModel dev) {
    DiskArray disks(cfg.d, cfg.b, workers ? DiskBackend::kFile : DiskBackend::kMemory, "/tmp",
                    Constraint::kIndependentDisks, {}, dev);
    RunResult r;
    Timer timer;
    r.sorted = balance_sort_records(disks, input, cfg, SortJobConfig{}, &r.rep);
    r.wall_s = timer.seconds();
    return r;
}

/// Everything the model charges must be identical with the engine on or off.
bool model_identical(const RunResult& sync, const RunResult& async_r) {
    const IoStats& a = sync.rep.io;
    const IoStats& b = async_r.rep.io;
    return sync.sorted == async_r.sorted && a.read_steps == b.read_steps &&
           a.write_steps == b.write_steps && a.blocks_read == b.blocks_read &&
           a.blocks_written == b.blocks_written && sync.rep.s_used == async_r.rep.s_used &&
           sync.rep.levels == async_r.rep.levels && sync.rep.base_cases == async_r.rep.base_cases &&
           sync.rep.d_virtual == async_r.rep.d_virtual;
}

} // namespace

int main(int argc, char** argv) {
    const char* json_path = json_flag(argc, argv);
    banner("EXP-ASYNC",
           "Per-disk worker executor (DESIGN.md §9): Balance Sort on the inline executor\n"
           "(sync: memory-backed) vs the worker executor (async: file-backed), under a\n"
           "device model charging each block op its positioning latency + transfer time\n"
           "on the executing thread. Reproduction target: sorted output, I/O steps,\n"
           "blocks moved, and structure counters are BIT-IDENTICAL across executors\n"
           "(the executor never changes model cost), while prefetch + write-behind\n"
           "overlap the D disks for >= 1.5x wall-clock on the throttled runs.");

    const PdmConfig cfg{.n = 1 << 15, .m = 1 << 11, .d = 8, .b = 16, .p = 4};
    auto input = generate(Workload::kUniform, cfg.n, 42);

    struct Device {
        const char* name;
        const char* id; ///< stable variant-id stem for the canonical suite
        DeviceModel dev;
        bool required; ///< the >=1.5x target applies (throttled runs only)
    };
    const Device devices[] = {
        {"latency 100us", "latency100us", DeviceModel{.latency_us = 100, .us_per_record = 0.2},
         true},
        {"latency 300us", "latency300us", DeviceModel{.latency_us = 300, .us_per_record = 0.2},
         true},
        {"raw page cache", "pagecache", DeviceModel{}, false},
    };

    Table t({"device", "mode", "wall (s)", "I/O steps", "blocks", "engine busy (s)",
             "stall (s)", "async ops", "in-flight", "speedup"});
    bool ok = true;
    BenchSuite suite = make_suite("async", /*smoke=*/false);
    for (const Device& d : devices) {
        RunResult sync = run_one(cfg, input, /*workers=*/false, d.dev);
        RunResult async_r = run_one(cfg, input, /*workers=*/true, d.dev);
        if (!is_sorted_permutation_of(input, sync.sorted)) {
            std::cerr << "BENCH BUG: sync output is not a sorted permutation\n";
            return 1;
        }
        if (!model_identical(sync, async_r)) {
            std::cerr << "BENCH BUG: worker run diverged from inline in a model quantity\n";
            return 1;
        }
        suite.results.push_back(BenchResult::from_report(
            "async", std::string(d.id) + "/sync", cfg, sync.rep, sync.wall_s));
        suite.results.push_back(BenchResult::from_report(
            "async", std::string(d.id) + "/async", cfg, async_r.rep, async_r.wall_s));
        const double speedup = sync.wall_s / async_r.wall_s;
        for (const RunResult* r : {&sync, &async_r}) {
            const bool is_async = r == &async_r;
            t.add_row({d.name, is_async ? "async" : "sync", Table::fixed(r->wall_s, 2),
                       Table::num(r->rep.io.io_steps()),
                       Table::num(r->rep.io.blocks_read + r->rep.io.blocks_written),
                       Table::fixed(r->rep.io.engine_busy_seconds, 2),
                       Table::fixed(r->rep.io.engine_stall_seconds, 2),
                       Table::num(r->rep.io.async_block_ops), Table::num(r->rep.io.max_in_flight),
                       is_async ? Table::fixed(speedup, 2) + "x" : std::string{"-"}});
        }
        if (async_r.rep.io.async_block_ops == 0 || async_r.rep.io.max_in_flight < 2) {
            std::cerr << "BENCH BUG: the worker executor never overlapped requests\n";
            return 1;
        }
        if (d.required && speedup < 1.5) {
            std::cerr << "BENCH BUG: throttled speedup " << speedup << " below the 1.5x target\n";
            ok = false;
        }
    }
    t.print(std::cout);
    std::cout << "\n(raw page-cache row is informational: with no device latency there is\n"
                 "little to overlap, and its inline arm copies blocks in memory)\n";
    if (!write_suite(suite, json_path)) return 1;
    return ok ? 0 : 1;
}
