// Chaos-replay harness (DESIGN.md §13): kill a checkpointing sort at every
// phase/bucket boundary — and at seeded random parallel I/O steps — with
// real process kills (fork + _exit), resume it in a fresh process that
// adopts the crashed run's scratch files, and assert the recovered run is
// indistinguishable from an uninterrupted one: byte-identical output hash
// and identical model accounting (read/write steps, block counts,
// cumulative checkpoint sequence). A chained scenario crashes twice across
// two resume generations. Finally, a scheduled-hang scenario must complete
// through the deadline -> parity failover with io.timeouts > 0 recorded in
// the run manifest.
//
// Usage: chaos_replay [--seed N] [--dir PATH]
// Exit status 0 = every scenario held.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/balance_sort.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/run_manifest.hpp"
#include "pdm/disk_array.hpp"
#include "pdm/striping.hpp"
#include "util/random.hpp"
#include "util/workload.hpp"

namespace fs = std::filesystem;
using namespace balsort;

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr int kKillExit = 137; // the classic SIGKILL-style status

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

const PdmConfig kCfg{.n = 2500, .m = 512, .d = 4, .b = 8, .p = 2};
constexpr std::uint64_t kInputSeed = 4242;

int failures = 0;

void check(bool ok, const std::string& what) {
    if (!ok) {
        std::cerr << "FAIL: " << what << "\n";
        ++failures;
    }
}

struct Result {
    std::uint64_t out_hash = 0, read_steps = 0, write_steps = 0;
    std::uint64_t blocks_read = 0, blocks_written = 0;
    std::uint64_t checkpoints = 0, resumes = 0;
};

/// The sort under chaos, run inside a forked child. Crashes via _exit at
/// the requested boundary sequence number or observer step count; on a
/// clean finish, writes the Result to `result_path` and exits 0.
[[noreturn]] void child_main(const fs::path& dir, bool resume, std::uint64_t kill_boundary,
                             std::uint64_t kill_step, const fs::path& result_path) {
    ScratchOptions scratch;
    scratch.tag = "chaos";
    scratch.adopt = resume;
    scratch.keep = true; // a crash must leave the blocks behind
    DiskArray disks(kCfg.d, kCfg.b, DiskBackend::kFile, dir.string(),
                    Constraint::kIndependentDisks, {}, {}, scratch);
    std::uint64_t steps = 0;
    disks.set_step_observer([&steps, kill_step](bool, std::span<const BlockOp>) {
        if (kill_step != 0 && ++steps == kill_step) ::_exit(kKillExit);
    });
    auto records = generate(Workload::kUniform, kCfg.n, kInputSeed);
    // The input layout is deterministic, so the resuming generation simply
    // re-lays it out: identical blocks land at identical indices before
    // restore() rewinds the allocator to the checkpointed cut.
    const BlockRun input = write_striped(disks, records);
    SortJobConfig opt;
    DurabilityPolicy& dur = opt.durability_policy;
    dur.checkpoint_path = (dir / "chaos.ck").string();
    if (resume && fs::exists(dur.checkpoint_path)) dur.resume_from = dur.checkpoint_path;
    if (kill_boundary != 0) {
        dur.on_checkpoint = [kill_boundary](std::uint64_t seq) {
            if (seq == kill_boundary) ::_exit(kKillExit);
        };
    }
    SortReport rep;
    const BlockRun out = balance_sort(disks, input, kCfg, opt, &rep);
    Result r;
    r.out_hash = kFnvOffset;
    for (const Record& rec : read_run(disks, out)) {
        r.out_hash = fnv1a(r.out_hash, rec.key);
        r.out_hash = fnv1a(r.out_hash, rec.payload);
    }
    r.read_steps = rep.io.read_steps;
    r.write_steps = rep.io.write_steps;
    r.blocks_read = rep.io.blocks_read;
    r.blocks_written = rep.io.blocks_written;
    r.checkpoints = rep.checkpoints_written;
    r.resumes = rep.resumes;
    std::ofstream os(result_path, std::ios::trunc);
    os << r.out_hash << ' ' << r.read_steps << ' ' << r.write_steps << ' ' << r.blocks_read
       << ' ' << r.blocks_written << ' ' << r.checkpoints << ' ' << r.resumes << '\n';
    os.close();
    ::_exit(os ? 0 : 66);
}

/// Fork, run child_main, reap; returns the child's exit status (or -1 if
/// it died on a signal).
int spawn(const fs::path& dir, bool resume, std::uint64_t kill_boundary, std::uint64_t kill_step,
          const fs::path& result_path) {
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::cerr << "fork failed: " << std::strerror(errno) << "\n";
        std::exit(2);
    }
    if (pid == 0) child_main(dir, resume, kill_boundary, kill_step, result_path);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

Result read_result(const fs::path& result_path) {
    std::ifstream is(result_path);
    Result r;
    is >> r.out_hash >> r.read_steps >> r.write_steps >> r.blocks_read >> r.blocks_written >>
        r.checkpoints >> r.resumes;
    check(static_cast<bool>(is), "result file unreadable: " + result_path.string());
    return r;
}

/// Wipe one scenario's durable state: checkpoint + scratch block files.
void reset(const fs::path& dir) {
    for (const auto& entry : fs::directory_iterator(dir)) {
        fs::remove_all(entry.path());
    }
}

void expect_matches_golden(const Result& r, const Result& golden, const std::string& label) {
    check(r.out_hash == golden.out_hash, label + ": output hash differs");
    check(r.read_steps == golden.read_steps, label + ": read_steps differ");
    check(r.write_steps == golden.write_steps, label + ": write_steps differ");
    check(r.blocks_read == golden.blocks_read, label + ": blocks_read differ");
    check(r.blocks_written == golden.blocks_written, label + ": blocks_written differ");
    check(r.checkpoints == golden.checkpoints, label + ": checkpoint seq not cumulative");
}

/// Scheduled hangs + read deadline: the sort must complete through parity
/// failover, never block, and surface the timeouts in the manifest.
void hang_scenario(const fs::path& dir) {
    FaultTolerance ft;
    ft.inject.seed = 77;
    ft.inject.hang_every_ops = 50;
    ft.inject.hang_duration_us = 30000;
    ft.deadline_us = 2000;
    ft.parity = true;
    ft.checksums = true;
    MetricsRegistry reg;
    DiskArray disks(kCfg.d, kCfg.b, DiskBackend::kFile, dir.string(),
                    Constraint::kIndependentDisks, ft);
    auto records = generate(Workload::kUniform, kCfg.n, kInputSeed);
    SortJobConfig opt;
    opt.obs_policy.metrics = &reg;
    SortReport rep;
    const auto sorted = balance_sort_records(disks, std::move(records), kCfg, opt, &rep);
    check(std::is_sorted(sorted.begin(), sorted.end(),
                         [](const Record& a, const Record& b) { return a.key < b.key; }),
          "hang scenario: output not sorted");
    check(rep.io.io_timeouts > 0, "hang scenario: no deadline ever fired");
    RunManifest manifest;
    manifest.tool = "chaos_replay";
    manifest.algo = "balance";
    manifest.cfg = kCfg;
    manifest.report = rep;
    manifest.metrics = &reg;
    const std::string json = manifest.to_json();
    const auto pos = json.find("\"io_timeouts\":");
    check(pos != std::string::npos, "hang scenario: manifest lacks io_timeouts");
    if (pos != std::string::npos) {
        check(json.compare(pos, 16, "\"io_timeouts\":0,") != 0 &&
                  json.compare(pos, 16, "\"io_timeouts\":0}") != 0,
              "hang scenario: manifest io_timeouts is zero");
    }
    std::cout << "hang scenario: " << rep.io.io_timeouts << " timeouts, "
              << rep.io.reconstructions << " reconstructions\n";
}

#ifndef BALSORT_NO_OBS
/// Flight recorder (DESIGN.md §16): a deadline expiry mid-sort must
/// auto-dump every thread's recent trace ring to the configured path — the
/// post-mortem artifact the service relies on after a fault. The dump must
/// exist, be non-empty, and be well-formed Chrome-trace JSON (CI re-checks
/// it with `python3 -m json.tool`).
void flight_dump_scenario(const fs::path& dir) {
    const fs::path dump_path = dir / "flight.json";
    fs::remove(dump_path);
    FlightRecorder::instance().set_auto_dump_path(dump_path.string());

    FaultTolerance ft;
    ft.inject.seed = 77;
    ft.inject.hang_every_ops = 50;
    ft.inject.hang_duration_us = 30000;
    ft.deadline_us = 2000;
    ft.parity = true;
    ft.checksums = true;
    DiskArray disks(kCfg.d, kCfg.b, DiskBackend::kFile, dir.string(),
                    Constraint::kIndependentDisks, ft);
    auto records = generate(Workload::kUniform, kCfg.n, kInputSeed);
    SortReport rep;
    const auto sorted = balance_sort_records(disks, std::move(records), kCfg, {}, &rep);
    FlightRecorder::instance().set_auto_dump_path(""); // disarm for later scenarios

    check(sorted.size() == kCfg.n, "flight scenario: output size wrong");
    check(rep.io.io_timeouts > 0, "flight scenario: no deadline ever fired");
    // auto_dump() writes under a pid+ordinal-suffixed name so concurrent
    // failing processes can't clobber each other; the recorder reports
    // the actual path it wrote.
    const fs::path written = FlightRecorder::instance().last_auto_dump_path();
    check(!written.empty(), "flight scenario: no dump produced on deadline expiry");
    check(fs::exists(written), "flight scenario: reported dump path does not exist");
    check(written.parent_path() == dump_path.parent_path() &&
              written.filename().string().rfind("flight.", 0) == 0,
          "flight scenario: dump name not derived from the configured path");
    std::ifstream is(written);
    std::stringstream buf;
    buf << is.rdbuf();
    const std::string json = buf.str();
    check(json.size() > 2, "flight scenario: dump is empty");
    check(json.rfind("{\"traceEvents\":[", 0) == 0, "flight scenario: dump is not a trace JSON");
    check(json.find("io.deadline_expired") != std::string::npos,
          "flight scenario: dump lacks the deadline event");
    std::cout << "flight dump: " << json.size() << " bytes at " << written << "\n";
}
#endif

} // namespace

int main(int argc, char** argv) {
    std::uint64_t seed = 12345;
    fs::path dir;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--seed" && i + 1 < argc) {
            seed = std::stoull(argv[++i]);
        } else if (a == "--dir" && i + 1 < argc) {
            dir = argv[++i];
        } else {
            std::cerr << "usage: chaos_replay [--seed N] [--dir PATH]\n";
            return 2;
        }
    }
    if (dir.empty()) {
        dir = fs::temp_directory_path() / ("balsort_chaos_" + std::to_string(::getpid()));
    }
    fs::create_directories(dir);
    const fs::path result_path = dir / "result.txt";
    std::cout << "chaos_replay: seed " << seed << ", dir " << dir << "\n";

    // Golden: one uninterrupted checkpointing run.
    reset(dir);
    check(spawn(dir, false, 0, 0, result_path) == 0, "golden run failed");
    const Result golden = read_result(result_path);
    check(golden.checkpoints > 4, "config writes too few boundaries to be interesting");
    check(golden.resumes == 0, "golden run claims a resume");
    std::cout << "golden: " << golden.checkpoints << " boundaries, "
              << golden.read_steps + golden.write_steps << " io steps\n";

    // Kill at EVERY durable boundary, resume in a fresh process.
    for (std::uint64_t k = 1; k <= golden.checkpoints; ++k) {
        const std::string label = "boundary kill " + std::to_string(k);
        reset(dir);
        check(spawn(dir, false, k, 0, result_path) == kKillExit, label + ": child not killed");
        check(spawn(dir, true, 0, 0, result_path) == 0, label + ": resume failed");
        const Result r = read_result(result_path);
        expect_matches_golden(r, golden, label);
        check(r.resumes == 1, label + ": resume generation not counted");
    }
    std::cout << "boundary kills: " << golden.checkpoints << " scenarios ok\n";

    // Kill at seeded random parallel steps (mid-phase, between boundaries).
    Xoshiro256 rng(seed);
    const std::uint64_t step_span = golden.read_steps + golden.write_steps;
    for (int i = 0; i < 6; ++i) {
        const std::uint64_t s = 1 + rng() % step_span;
        const std::string label = "random kill at step " + std::to_string(s);
        reset(dir);
        const int status = spawn(dir, false, 0, s, result_path);
        if (status == 0) continue; // step count past this child's total: ran clean
        check(status == kKillExit, label + ": unexpected child status");
        check(spawn(dir, true, 0, 0, result_path) == 0, label + ": resume failed");
        const Result r = read_result(result_path);
        expect_matches_golden(r, golden, label);
        check(r.resumes <= 1, label + ": unexpected resume count");
    }
    std::cout << "random kills: ok\n";

    // Chained: two crashes across two resume generations.
    {
        const std::uint64_t k1 = std::max<std::uint64_t>(1, golden.checkpoints / 3);
        const std::uint64_t k2 = std::max(k1 + 1, 2 * golden.checkpoints / 3);
        reset(dir);
        check(spawn(dir, false, k1, 0, result_path) == kKillExit, "chained: first kill");
        check(spawn(dir, true, k2, 0, result_path) == kKillExit, "chained: second kill");
        check(spawn(dir, true, 0, 0, result_path) == 0, "chained: final resume failed");
        const Result r = read_result(result_path);
        expect_matches_golden(r, golden, "chained");
        check(r.resumes == 2, "chained: expected two resume generations");
        std::cout << "chained kill (" << k1 << ", " << k2 << "): ok\n";
    }

    reset(dir);
    hang_scenario(dir);

#ifndef BALSORT_NO_OBS
    reset(dir);
    flight_dump_scenario(dir);
#endif

    fs::remove_all(dir);
    if (failures != 0) {
        std::cerr << failures << " chaos check(s) failed (seed " << seed << ")\n";
        return 1;
    }
    std::cout << "chaos_replay: all scenarios held (seed " << seed << ")\n";
    return 0;
}
