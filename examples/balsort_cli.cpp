// balsort_cli — a miniature external-sort utility built on the library:
// sorts a binary file of 16-byte records (u64 key, u64 payload) through a
// bounded amount of memory, using file-backed simulated parallel disks as
// scratch. The "downstream user" artifact: everything flows through the
// public API. The file work is the library's `sort_file` (DESIGN.md §9):
// input and output stream through one M-record buffer, so peak memory
// depends on M, D and B, not on the input size, and every run checks its
// own output on the way (keys in order, and the same multiset fingerprint
// as the input). The output file appears only if the check passes, and any
// failure exits 1 with "balsort_cli: <reason>". What is left here is the
// flags, the sort step for each --algo, and the artifacts.
//
//   balsort_cli <input.bin> <output.bin> [--mem RECORDS] [--disks D]
//               [--block RECORDS] [--scratch DIR] [--algo balance|greed|merge]
//               [--sketch] [--stats] [--trace OUT.json] [--metrics-json OUT.json]
//               [--manifest OUT.json] [--balance-timeline OUT.json]
//               [--profile OUT.folded] [--profile-hz N]
//               [--checkpoint FILE] [--resume]
//
//   balsort_cli --selftest        # generate, sort, verify, clean up
//
// --trace writes a Chrome trace_event timeline (open in Perfetto or
// chrome://tracing), --metrics-json a latency-histogram snapshot,
// --manifest a RunManifest bundling config, report, and metrics
// (DESIGN.md §11), and --balance-timeline the per-track balance-quality
// recorder (DESIGN.md §12; balance algo only — it also rides along inside
// the manifest when both flags are given). --profile samples the run's
// CPU stacks (SIGPROF, DESIGN.md §17) into a collapsed/folded-stack file
// (flamegraph.pl / speedscope ready); with --trace the samples also land
// on "profile N" lanes of the timeline. Sampling changes no model
// quantity. --selftest composes with the artifact flags: the generated
// run writes the same trace/manifest/profile outputs, which is how CI
// produces its reference artifacts.
#include <sys/resource.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "balsort.hpp"
// Baselines are internals, not part of the facade: include them directly.
#include "baselines/greed_sort.hpp"
#include "baselines/striped_merge.hpp"
#include "cli_number.hpp"
#include "util/function_ref.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace balsort;

namespace {

struct CliOptions {
    const char* argv0 = "balsort_cli";
    std::string input, output;
    std::uint64_t mem = 1 << 16;
    std::uint32_t disks = 8;
    std::uint32_t block = 256;
    std::string scratch = "/tmp";
    std::string algo = "balance";
    std::uint32_t threads = 0; ///< compute lanes; 0 = the library default
    std::string trace_path, metrics_path, manifest_path, timeline_path;
    std::string profile_path;
    std::uint32_t profile_hz = 997;
    std::string checkpoint;
    bool resume = false;
    bool sketch = false;
    bool stats = false;
    bool selftest = false;
    // Whether the size knobs came from the command line (selftest keeps
    // its small defaults otherwise).
    bool mem_set = false, disks_set = false, block_set = false;
};

[[noreturn]] void usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " <input.bin> <output.bin> [--mem R] [--disks D] [--block R]\n"
                 "          [--scratch DIR] [--algo balance|greed|merge] [--threads T]\n"
                 "          [--sketch] [--stats]\n"
                 "          [--trace OUT.json] [--metrics-json OUT.json] [--manifest OUT.json]\n"
                 "          [--balance-timeline OUT.json] [--profile OUT.folded] [--profile-hz N]\n"
                 "          [--checkpoint FILE] [--resume]\n"
                 "       "
              << argv0 << " --selftest\n";
    std::exit(2);
}

CliOptions parse(int argc, char** argv) {
    CliOptions o;
    o.argv0 = argv[0];
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        // A non-negative decimal no larger than `max`, or a usage error.
        auto number = [&](std::uint64_t max) -> std::uint64_t {
            const std::string v = next();
            const std::optional<std::uint64_t> x = parse_decimal(v, max);
            if (!x) {
                std::cerr << "balsort_cli: " << a << " needs a number up to " << max << ", got '"
                          << v << "'\n";
                usage(argv[0]);
            }
            return *x;
        };
        constexpr std::uint64_t kU32 = 0xffffffffu;
        if (a == "--mem") {
            o.mem = number(~std::uint64_t{0});
            o.mem_set = true;
        } else if (a == "--disks") {
            o.disks = static_cast<std::uint32_t>(number(kU32));
            o.disks_set = true;
        } else if (a == "--block") {
            o.block = static_cast<std::uint32_t>(number(kU32));
            o.block_set = true;
        } else if (a == "--scratch") {
            o.scratch = next();
        } else if (a == "--algo") {
            o.algo = next();
        } else if (a == "--threads") {
            o.threads = static_cast<std::uint32_t>(number(kU32));
        } else if (a == "--trace") {
            o.trace_path = next();
        } else if (a == "--metrics-json") {
            o.metrics_path = next();
        } else if (a == "--manifest") {
            o.manifest_path = next();
        } else if (a == "--balance-timeline") {
            o.timeline_path = next();
        } else if (a == "--profile") {
            o.profile_path = next();
        } else if (a == "--profile-hz") {
            o.profile_hz = static_cast<std::uint32_t>(number(kU32));
        } else if (a == "--checkpoint") {
            o.checkpoint = next();
        } else if (a == "--resume") {
            o.resume = true;
        } else if (a == "--sketch") {
            o.sketch = true;
        } else if (a == "--stats") {
            o.stats = true;
        } else if (a == "--selftest") {
            o.selftest = true;
        } else if (!a.empty() && a[0] == '-') {
            usage(argv[0]);
        } else {
            positional.push_back(a);
        }
    }
    if (!o.selftest) {
        if (positional.size() != 2) usage(argv[0]);
        o.input = positional[0];
        o.output = positional[1];
    }
    return o;
}

/// Seconds in a getrusage time field.
double seconds(const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

int run(const CliOptions& o) {
    // An impossible machine shape or flag combination is a usage error,
    // reported before any input is read or scratch file created.
    try {
        PdmConfig{.n = 1, .m = o.mem, .d = o.disks, .b = o.block, .p = 1}.validate();
    } catch (const std::invalid_argument& e) {
        std::cerr << "balsort_cli: " << e.what() << '\n';
        usage(o.argv0);
    }
    // Crash restartability (DESIGN.md §13): pin the scratch files under
    // names derived from the checkpoint path and keep them across crashes,
    // so a --resume invocation can adopt the interrupted run's blocks.
    const bool checkpointing = !o.checkpoint.empty();
    if ((checkpointing || o.resume) && o.algo != "balance") {
        std::cerr << "--checkpoint/--resume require --algo balance\n";
        return 2;
    }
    if (o.resume && !checkpointing) {
        std::cerr << "--resume requires --checkpoint FILE (the same one the crashed run used)\n";
        return 2;
    }
    if (o.algo != "balance" && o.algo != "greed" && o.algo != "merge") {
        std::cerr << "unknown --algo " << o.algo << '\n';
        return 2;
    }
    if (o.resume && !std::ifstream(o.checkpoint)) {
        // Fail before the array pins its scratch files: nothing would remove them.
        throw IoError("checkpoint: cannot open '" + o.checkpoint + "'");
    }
    ScratchOptions scratch;
    if (checkpointing) {
        scratch.tag = "ck_";
        for (const char c : o.checkpoint) {
            scratch.tag += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
        }
        scratch.adopt = o.resume;
        scratch.keep = true; // a crash must leave the blocks behind for --resume
    }
    DiskArray disks(o.disks, o.block, DiskBackend::kFile, o.scratch,
                    Constraint::kIndependentDisks, {}, {}, scratch);

    // Observability (DESIGN.md §11): install the tracer/registry for the
    // whole run so the layout and read-back I/O is captured too, not just
    // the sort. The manifest embeds the metrics snapshot, so --manifest
    // alone also turns collection on.
    const bool want_metrics = !o.metrics_path.empty() || !o.manifest_path.empty();
    Tracer tracer;
    MetricsRegistry metrics_reg;
    TracerInstallGuard trace_guard(o.trace_path.empty() ? nullptr : &tracer);
    MetricsInstallGuard metrics_guard(want_metrics ? &metrics_reg : nullptr);
    // --profile: one sampler for the whole run; the sort's own
    // ProfilerScope nests by refcount inside the scope below.
    std::unique_ptr<Profiler> profiler;
    if (!o.profile_path.empty()) {
        ProfilerConfig pcfg;
        pcfg.hz = o.profile_hz;
        profiler = std::make_unique<Profiler>(pcfg);
    }

    // The library's driver streams the file in and out through one
    // M-record buffer and renames the output into place once it is checked.
    Timer timer;
    PdmConfig cfg{.n = 0, .m = o.mem, .d = o.disks, .b = o.block, .p = 1};
    SortReport report; // fed to --manifest and --stats; fully populated by balance only
    BalanceTimeline timeline; // --balance-timeline recorder (balance algo only)
    const bool want_timeline = !o.timeline_path.empty();
    const double verify_s = sort_file(o.input, o.output, disks, o.mem, [&](const BlockRun& in) {
        cfg.n = in.n_records;
        if (o.algo == "balance") {
            BalanceOptions bal;
            bal.timeline = want_timeline ? &timeline : nullptr;
            SortJobConfig job;
            if (o.sketch) job.pivots(PivotMethod::kStreamingSketch);
            // --threads caps the real compute lanes (work-stealing executor);
            // the charged PRAM model still uses cfg.p processors.
            if (o.threads != 0) job.threads(o.threads);
            job.balance(bal)
                .observability(ObsPolicy{}
                                   .tracer(o.trace_path.empty() ? nullptr : &tracer)
                                   .registry(want_metrics ? &metrics_reg : nullptr)
                                   .sampler(profiler.get()));
            DurabilityPolicy dur;
            dur.checkpoint(o.checkpoint);
            if (o.resume) dur.resume(o.checkpoint);
            job.durability(std::move(dur));
            return balance_sort(disks, in, cfg, job, &report);
        }
        ProfilerScope profile_scope(profiler.get());
        BlockRun out;
        if (o.algo == "greed") {
            GreedSortReport rep;
            out = greed_sort(disks, in, cfg, &rep);
            report.io = rep.io;
        } else {
            StripedMergeReport rep;
            out = striped_merge_sort(disks, in, cfg, &rep);
            report.io = rep.io;
        }
        return out;
    });

    if (checkpointing) {
        // The sort completed and the output landed: recovery state is no
        // longer needed. Release the pinned scratch (removed when `disks`
        // destructs) and the checkpoint record itself.
        disks.set_keep_scratch(false);
        std::error_code ec;
        std::filesystem::remove(o.checkpoint, ec);
        std::filesystem::remove(o.checkpoint + ".tmp", ec);
    }
    if (cfg.n == 0) return 0; // an empty input sorts to an empty output

    if (profiler != nullptr) {
        // Samples land in the trace too (one "profile N" lane per sampled
        // thread) — before the trace file below is serialized.
        if (!o.trace_path.empty()) profiler->emit_to_tracer(&tracer);
        if (!profiler->folded_file(o.profile_path)) {
            std::cerr << "cannot write " << o.profile_path << '\n';
            return 1;
        }
    }
    if (!o.trace_path.empty()) tracer.write_chrome_trace_file(o.trace_path);
    if (!o.metrics_path.empty()) metrics_reg.write_json_file(o.metrics_path);
    if (want_timeline) {
        if (o.algo != "balance") {
            std::cerr << "--balance-timeline only applies to --algo balance; nothing recorded\n";
        }
        if (!timeline.write_json_file(o.timeline_path)) {
            std::cerr << "cannot write " << o.timeline_path << '\n';
            return 1;
        }
    }
    if (!o.manifest_path.empty()) {
        RunManifest manifest;
        manifest.tool = "balsort_cli";
        manifest.algo = o.algo + (o.sketch ? "+sketch" : "");
        manifest.cfg = cfg;
        manifest.report = report;
        manifest.metrics = want_metrics ? &metrics_reg : nullptr;
        manifest.timeline = want_timeline && o.algo == "balance" ? &timeline : nullptr;
        manifest.write_json_file(o.manifest_path);
    }

    if (o.stats) {
        const IoStats& io = report.io;
        const PhaseProfile& phases = report.phases;
        const double sort_elapsed = report.elapsed_seconds;
        rusage use{};
        getrusage(RUSAGE_SELF, &use);
        Table t({"metric", "value"});
        t.add_row({"records", Table::num(cfg.n)});
        t.add_row({"algorithm", o.algo + (o.sketch ? "+sketch" : "")});
        t.add_row({"parallel I/O steps", Table::num(io.io_steps())});
        t.add_row({"scratch bytes moved",
                   Table::num((io.blocks_read + io.blocks_written) * cfg.b * sizeof(Record))});
        t.add_row({"disk utilization", Table::fixed(100.0 * io.utilization(cfg.d), 1) + "%"});
        t.add_row({"recovery blocks", Table::num(io.recovery_blocks())});
        t.add_row({"io timeouts", Table::num(io.io_timeouts)});
        t.add_row({"checkpoints written", Table::num(report.checkpoints_written)});
        t.add_row({"resumes", Table::num(report.resumes)});
        t.add_row({"wall time (s)", Table::fixed(timer.seconds(), 2)});
        t.add_row({"verify (s)", Table::fixed(verify_s, 3)});
        // ru_maxrss is in KiB.
        t.add_row({"peak RSS (MB)", Table::fixed(static_cast<double>(use.ru_maxrss) / 1024.0, 1)});
        t.add_row({"user CPU (s)", Table::fixed(seconds(use.ru_utime), 2)});
        t.add_row({"system CPU (s)", Table::fixed(seconds(use.ru_stime), 2)});
        if (o.algo == "balance") {
            t.add_row({"sort elapsed (s)", Table::fixed(sort_elapsed, 2)});
            t.add_row({"  pivot phase (s)", Table::fixed(phases.pivot_seconds, 2)});
            t.add_row({"  balance phase (s)", Table::fixed(phases.balance_seconds, 2)});
            t.add_row({"  base-case phase (s)", Table::fixed(phases.base_case_seconds, 2)});
            t.add_row({"  emit phase (s)", Table::fixed(phases.emit_seconds, 2)});
            t.add_row({"staged prefetches", Table::num(phases.staged_prefetches)});
            t.add_row({"overlap hidden (s)", Table::fixed(phases.overlap_hidden_seconds, 3)});
            t.add_row({"pool hit rate", Table::fixed(100.0 * phases.pool_hit_rate(), 1) + "%"});
            // Stall-attribution budget (DESIGN.md §16): the same
            // compute/wait split balsortd's result table shows per job.
            t.add_row({"budget: compute (s)", Table::fixed(phases.compute_seconds(sort_elapsed), 2)});
            t.add_row({"budget: io-wait (s)", Table::fixed(phases.io_wait_seconds, 2)});
            t.add_row({"budget: gate-wait (s)", Table::fixed(phases.gate_wait_seconds, 2)});
            t.add_row({"budget: pool-wait (s)", Table::fixed(phases.pool_wait_seconds, 2)});
        }
        if (profiler != nullptr) {
            t.add_row({"profile samples", Table::num(profiler->sample_count())});
            t.add_row({"profile dropped", Table::num(profiler->dropped_samples())});
        }
        t.print(std::cout);
    }
    return 0;
}

/// Run `body`; a failure is reported as "balsort_cli: <reason>", exit 1.
int guarded(FunctionRef<int()> body) {
    try {
        return body();
    } catch (const std::exception& e) {
        std::cerr << "balsort_cli: " << e.what() << '\n';
        return 1;
    }
}

int selftest(const CliOptions& parsed) {
    // Per-process names: concurrent selftests (ctest -j) must not see each
    // other's files.
    const std::string stem = "/tmp/balsort_cli_selftest_" + std::to_string(getpid());
    const std::string in = stem + "_in.bin";
    const std::string out = stem + "_out.bin";
    const std::string bad = stem + "_bad.bin";
    const auto data = generate(Workload::kZipf, 200000, 1);
    const auto bytes = static_cast<std::streamsize>(data.size() * sizeof(Record));
    if (std::ofstream f(in, std::ios::binary);
        !f.write(reinterpret_cast<const char*>(data.data()), bytes)) {
        throw std::runtime_error("cannot write " + in);
    }
    // Artifact and shape flags ride along (CI generates its reference
    // trace/manifest/profile via `--selftest --disks 8 --trace ...`);
    // only memory shrinks to selftest scale unless explicitly set.
    CliOptions o = parsed;
    o.selftest = false;
    o.input = in;
    o.output = out;
    if (!o.mem_set) o.mem = 1 << 13;
    if (!o.disks_set) o.disks = 4;
    if (!o.block_set) o.block = 64;
    o.stats = true;
    if (const int rc = run(o); rc != 0) {
        std::filesystem::remove(in);
        return rc;
    }
    // An exact check of the output, independent of the fused one.
    std::vector<Record> sorted(data.size());
    const bool ok = std::filesystem::file_size(out) == static_cast<std::uintmax_t>(bytes) &&
                    std::ifstream(out, std::ios::binary)
                        .read(reinterpret_cast<char*>(sorted.data()), bytes) &&
                    is_sorted_permutation_of(data, sorted);
    std::filesystem::remove(out);

    // The fused check must refuse a corrupted stream: a sort that returns
    // the sorted output with one payload bit flipped goes through the same
    // commit path, which must fail and leave no file behind.
    sorted[sorted.size() / 2].payload ^= 1;
    std::cout << "selftest: feeding a corrupted stream to the output check (expect a refusal)\n";
    DiskArray disks(o.disks, o.block);
    const int bad_rc = guarded([&] {
        sort_file(in, bad, disks, o.mem,
                  [&](const BlockRun&) { return write_striped(disks, sorted); });
        return 0;
    });
    std::filesystem::remove(in);
    const bool refused = bad_rc != 0 && !std::filesystem::exists(bad) &&
                         !std::filesystem::exists(bad + ".tmp");
    if (!refused) std::cout << "selftest: a corrupted output stream was not refused\n";
    std::cout << (ok && refused ? "selftest OK\n" : "selftest FAILED\n");
    return ok && refused ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    const CliOptions o = parse(argc, argv);
    return guarded([&] { return o.selftest ? selftest(o) : run(o); });
}
