// balsortd — the sort service front end (DESIGN.md §14): drives N
// concurrent sort jobs from a job-file over ONE shared disk array through
// the SortScheduler (admission control, deficit-round-robin I/O fairness,
// per-job accounting channels).
//
//   balsortd <job-file> [--disks D] [--block B] [--backend mem|file]
//            [--scratch DIR] [--max-active K] [--fairness F]
//            [--queue CAP] [--budget BLOCKS] [--manifest-dir DIR]
//            [--trace OUT.json] [--serial] [--stats-port PORT]
//            [--stats-file PATH] [--tick SECONDS] [--flight-dump PATH]
//   balsortd --selftest [--scratch DIR] [--stats-port PORT] [--stats-file PATH]
//
// Live observability (DESIGN.md §16): --stats-port serves Prometheus-style
// exposition text over HTTP/1.0 on 127.0.0.1 (try
// `curl localhost:PORT/metrics`); --stats-file rewrites the same text to a
// file every --tick seconds (plus a final snapshot) for socketless CI;
// --tick also prints a per-job progress/ETA line to stderr each interval;
// --flight-dump arms the flight recorder's auto-dump path (a Chrome-trace
// JSON of the last moments of every thread, written on faults, deadline
// expiries, and job failures); on a clean exit the same path gets a final
// dump, so the flag always yields a trace to open in about://tracing.
//
// Job-file format: one job per line, whitespace-separated key=value
// pairs; '#' starts a comment. Keys (all optional, sane defaults):
//   name=<label>  n=<records>  workload=<uniform|gaussian|zipf|sorted|
//   reverse|nearly-sorted|dup-heavy|organ-pipe|all-equal>
//   seed=<u64>  m=<records>  p=<cpus>  priority=<weight>  verify=<0|1>
//   threads=<lanes>  (compute lanes on the scheduler's shared executor;
//   0/default = min(p, executor workers + 1))
//   profile=<OUT.folded>  (sample the job's CPU stacks — SIGPROF,
//   DESIGN.md §17 — and write collapsed/folded stacks to this path after
//   the jobs drain; one process-wide sampler is shared, so overlapping
//   profiled jobs each get the union of samples)
//
// Example job-file (4 mixed jobs):
//   name=alpha n=200000 workload=uniform seed=1 m=8192 p=2
//   name=beta  n=150000 workload=zipf    seed=2 m=8192 p=2 priority=2
//   name=gamma n=100000 workload=sorted  seed=3 m=4096 p=1
//   name=delta n=250000 workload=organ-pipe seed=4 m=16384 p=2
//
// --serial runs the same jobs back-to-back (max_active=1) for a quick
// aggregate-throughput comparison; bench_svc measures this properly.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <fstream>
#include <optional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "balsort.hpp"
#include "cli_number.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace balsort;

namespace {

[[noreturn]] void usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " <job-file> [--disks D] [--block B] [--backend mem|file]\n"
                 "          [--scratch DIR] [--max-active K] [--fairness F] [--queue CAP]\n"
                 "          [--budget BLOCKS] [--manifest-dir DIR] [--trace OUT.json] [--serial]\n"
                 "          [--stats-port PORT] [--stats-file PATH] [--tick SECONDS]\n"
                 "          [--flight-dump PATH]\n"
                 "       "
              << argv0 << " --selftest [--scratch DIR] [--stats-port PORT] [--stats-file PATH]\n";
    std::exit(2);
}

/// A bad flag or job-file field: "balsortd: <reason>", usage, exit 2 —
/// before anything has created a scratch file.
[[noreturn]] void config_error(const char* argv0, const std::string& reason) {
    std::cerr << "balsortd: " << reason << '\n';
    usage(argv0);
}

constexpr std::uint64_t kU32 = 0xffffffffu;

/// `v` as a non-negative decimal no larger than `max`, or a usage error
/// naming `what` (the flag or job-file field).
std::uint64_t parse_number(const char* argv0, const std::string& what, const std::string& v,
                           std::uint64_t max) {
    const std::optional<std::uint64_t> x = parse_decimal(v, max);
    if (!x) {
        config_error(argv0, what + " needs a number up to " + std::to_string(max) + ", got '" +
                                v + "'");
    }
    return *x;
}

/// `v` as a finite decimal fraction, or a usage error naming `what`.
double parse_real(const char* argv0, const std::string& what, const std::string& v) {
    const std::optional<double> x = parse_finite(v);
    if (!x) config_error(argv0, what + " needs a number, got '" + v + "'");
    return *x;
}

/// Observability front-end options (DESIGN.md §16).
struct StatsOptions {
    int port = -1;         ///< >= 0: serve exposition text on 127.0.0.1:port (0 = ephemeral)
    std::string file;      ///< non-empty: rewrite exposition text here every tick
    double tick = 0;       ///< > 0: progress/ETA ticker interval (seconds)
};

/// Serves Prometheus-style exposition text for one scheduler: a minimal
/// HTTP/1.0 responder on 127.0.0.1 (any request path gets the metrics) and
/// an optional periodic file snapshot. Every render calls
/// SortScheduler::publish_stats() first, so a scrape always sees live
/// gauges (executor queue depth, DRR deficits, per-disk in-flight, pool
/// occupancy, per-job progress).
class StatsService {
public:
    StatsService(SortScheduler& sched, MetricsRegistry& reg, const StatsOptions& opt)
        : sched_(sched), reg_(reg), file_(opt.file),
          interval_(opt.tick > 0 ? opt.tick : 0.5) {
        if (opt.port >= 0) open_server(opt.port);
        thread_ = std::thread([this] { loop(); });
    }
    ~StatsService() {
        stop_.store(true, std::memory_order_relaxed);
        if (thread_.joinable()) thread_.join();
        if (listen_fd_ >= 0) ::close(listen_fd_);
        if (!file_.empty()) write_file(); // final snapshot survives exit
    }
    StatsService(const StatsService&) = delete;
    StatsService& operator=(const StatsService&) = delete;

    /// The bound port (resolves --stats-port 0 to the kernel's pick).
    int port() const { return port_; }

private:
    std::string render() {
        sched_.publish_stats();
        return exposition_text(reg_);
    }

    void write_file() {
        sched_.publish_stats();
        write_exposition_file(reg_, file_);
    }

    void open_server(int port) {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd_ < 0) {
            std::cerr << "balsortd: cannot open stats socket\n";
            return;
        }
        const int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
            ::listen(listen_fd_, 8) != 0) {
            std::cerr << "balsortd: cannot bind stats port " << port << '\n';
            ::close(listen_fd_);
            listen_fd_ = -1;
            return;
        }
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
            port_ = ntohs(bound.sin_port);
        }
        std::cout << "stats: serving http://127.0.0.1:" << port_ << "/metrics\n";
    }

    void loop() {
        auto last_file = std::chrono::steady_clock::now();
        while (!stop_.load(std::memory_order_relaxed)) {
            if (listen_fd_ >= 0) {
                pollfd p{};
                p.fd = listen_fd_;
                p.events = POLLIN;
                if (::poll(&p, 1, 100) > 0 && (p.revents & POLLIN) != 0) serve_one();
            } else {
                std::this_thread::sleep_for(std::chrono::milliseconds(100));
            }
            const auto now = std::chrono::steady_clock::now();
            if (!file_.empty() &&
                std::chrono::duration<double>(now - last_file).count() >= interval_) {
                write_file();
                last_file = now;
            }
        }
    }

    void serve_one() {
        const int client = ::accept(listen_fd_, nullptr, nullptr);
        if (client < 0) return;
        char req[1024];
        (void)::recv(client, req, sizeof req, 0); // request line is irrelevant
        const std::string body = render();
        std::ostringstream os;
        os << "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: "
           << body.size() << "\r\nConnection: close\r\n\r\n"
           << body;
        const std::string resp = os.str();
        std::size_t off = 0;
        while (off < resp.size()) {
            const ssize_t w = ::send(client, resp.data() + off, resp.size() - off, 0);
            if (w <= 0) break;
            off += static_cast<std::size_t>(w);
        }
        ::close(client);
    }

    SortScheduler& sched_;
    MetricsRegistry& reg_;
    std::string file_;
    double interval_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
    int listen_fd_ = -1;
    int port_ = -1;
};

/// One progress line per non-terminal job, printed to stderr so the result
/// table on stdout stays machine-readable.
void print_progress(SortScheduler& sched, const std::vector<std::uint64_t>& ids) {
    for (std::uint64_t id : ids) {
        const JobStatus st = sched.status(id);
        if (st.state == JobState::kRunning) {
            std::ostringstream os;
            os << "[" << st.name << "] " << st.progress.phase << ' '
               << st.progress.records_emitted << '/' << st.progress.records_total
               << " records, io_steps=" << st.progress.io_steps;
            if (st.progress.eta_seconds >= 0) {
                os << ", eta " << Table::fixed(st.progress.eta_seconds, 1) << "s";
            }
            std::cerr << os.str() << '\n';
        } else if (st.state == JobState::kQueued) {
            std::cerr << "[" << st.name << "] queued at position " << st.queue_position << ": "
                      << st.waiting_reason << '\n';
        }
    }
}

bool parse_workload(const std::string& s, Workload* out) {
    for (Workload w : all_workloads()) {
        if (to_string(w) == s) {
            *out = w;
            return true;
        }
    }
    return false;
}

/// One job per line: whitespace-separated key=value pairs, '#' comments.
/// Every job is checked against the D x B array it will share, so a job
/// the scheduler could only reject is a usage error up front.
std::vector<JobSpec> parse_job_file(const char* argv0, const std::string& path, std::uint32_t d,
                                    std::uint32_t b) {
    std::ifstream in(path);
    if (!in) {
        std::cerr << "cannot open job-file " << path << '\n';
        std::exit(1);
    }
    std::vector<JobSpec> specs;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::string where = path + ':' + std::to_string(lineno) + ": ";
        if (const auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
        std::istringstream tokens(line);
        std::string tok;
        JobSpec spec;
        bool any = false;
        while (tokens >> tok) {
            const auto eq = tok.find('=');
            if (eq == std::string::npos) {
                config_error(argv0, where + "expected key=value, got '" + tok + "'");
            }
            const std::string key = tok.substr(0, eq);
            const std::string val = tok.substr(eq + 1);
            auto number = [&](std::uint64_t max) {
                return parse_number(argv0, where + key + "=", val, max);
            };
            any = true;
            if (key == "name") {
                spec.name = val;
            } else if (key == "n") {
                spec.n = number(~std::uint64_t{0});
            } else if (key == "workload") {
                if (!parse_workload(val, &spec.workload)) {
                    config_error(argv0, where + "unknown workload '" + val + "'");
                }
            } else if (key == "seed") {
                spec.seed = number(~std::uint64_t{0});
            } else if (key == "m") {
                spec.m = number(~std::uint64_t{0});
            } else if (key == "p") {
                spec.p = static_cast<std::uint32_t>(number(kU32));
            } else if (key == "priority") {
                spec.priority = static_cast<std::uint32_t>(number(kU32));
            } else if (key == "threads") {
                spec.config.threads(static_cast<std::uint32_t>(number(kU32)));
            } else if (key == "verify") {
                spec.verify = val != "0";
            } else if (key == "profile") {
                spec.profile_path = val;
            } else {
                config_error(argv0, where + "unknown key '" + key + "'");
            }
        }
        if (!any) continue;
        try {
            PdmConfig{.n = spec.n, .m = spec.m, .d = d, .b = b, .p = spec.p}.validate();
            BS_REQUIRE(spec.priority >= 1, "priority must be >= 1");
            spec.config.validate(d);
        } catch (const std::invalid_argument& e) {
            config_error(argv0, where + e.what());
        }
        if (spec.name == "job") spec.name = "job" + std::to_string(specs.size() + 1);
        specs.push_back(std::move(spec));
    }
    return specs;
}

int run_jobs(const std::vector<JobSpec>& specs, DiskArray& disks, SchedulerConfig cfg,
             const StatsOptions& stats) {
    Timer wall;
    MetricsRegistry* reg = cfg.metrics;
    SortScheduler sched(disks, std::move(cfg));
    std::unique_ptr<StatsService> server;
    if (reg != nullptr && (stats.port >= 0 || !stats.file.empty())) {
        server = std::make_unique<StatsService>(sched, *reg, stats);
    }
    // profile= jobs share one process-wide sampler; each job's sort holds
    // a nested ProfilerScope, so sampling covers exactly the union of the
    // profiled jobs' extents.
    std::unique_ptr<Profiler> profiler;
    for (const JobSpec& spec : specs) {
        if (!spec.profile_path.empty()) {
            profiler = std::make_unique<Profiler>();
            break;
        }
    }
    std::vector<std::uint64_t> ids;
    for (const JobSpec& spec : specs) {
        AdmissionResult adm = [&] {
            if (spec.profile_path.empty()) return sched.submit(spec);
            JobSpec profiled = spec;
            profiled.config.obs_policy.profiler = profiler.get();
            return sched.submit(profiled);
        }();
        if (!adm.admitted) {
            std::cerr << "job '" << spec.name << "' rejected: " << adm.reason << '\n';
            continue;
        }
        ids.push_back(adm.id);
    }
    std::atomic<bool> done{false};
    std::thread ticker;
    if (stats.tick > 0) {
        ticker = std::thread([&] {
            const auto interval = std::chrono::duration<double>(stats.tick);
            while (!done.load(std::memory_order_relaxed)) {
                std::this_thread::sleep_for(interval);
                if (done.load(std::memory_order_relaxed)) break;
                print_progress(sched, ids);
            }
        });
    }
    Table t({"job", "state", "io_steps", "blocks", "output hash", "wall (s)", "compute (s)",
             "io-wait (s)", "gate-wait (s)"});
    int failures = 0;
    for (std::uint64_t id : ids) {
        const JobStatus st = sched.wait(id);
        std::ostringstream hash;
        hash << std::hex << st.output_hash;
        t.add_row({st.name, to_string(st.state), Table::num(st.io.io_steps()),
                   Table::num(st.io.blocks_read + st.io.blocks_written), hash.str(),
                   Table::fixed(st.elapsed_seconds, 2), Table::fixed(st.budget.compute_seconds, 2),
                   Table::fixed(st.budget.io_wait_seconds, 2),
                   Table::fixed(st.budget.gate_wait_seconds, 2)});
        if (st.state != JobState::kSucceeded) {
            ++failures;
            if (!st.error.empty()) std::cerr << st.name << ": " << st.error << '\n';
        }
    }
    done.store(true, std::memory_order_relaxed);
    if (ticker.joinable()) ticker.join();
    if (profiler != nullptr) {
        for (const JobSpec& spec : specs) {
            if (spec.profile_path.empty()) continue;
            if (profiler->folded_file(spec.profile_path)) {
                std::cerr << "profile: " << profiler->sample_count() << " samples -> "
                          << spec.profile_path << '\n';
            } else {
                std::cerr << "profile: cannot write " << spec.profile_path << '\n';
            }
        }
    }
    const double secs = wall.seconds();
    t.print(std::cout);
    const IoArbiter::Stats arb = sched.arbiter_stats();
    std::cout << "\n" << ids.size() << " jobs in " << Table::fixed(secs, 2)
              << " s wall; fairness gate waited " << arb.waits << " times over " << arb.refills
              << " refill rounds.\n";
    return failures == 0 ? 0 : 1;
}

int selftest(const StatsOptions& stats, const std::string& scratch) {
    // 4 mixed jobs on a shared 8-disk file-backed array (per-disk worker
    // executor); each job's model accounting must come out byte-identical
    // to a solo run of the same spec on a memory-backed array (inline
    // executor) — the service's core guarantee, across both executors.
    std::vector<JobSpec> specs;
    const Workload kinds[] = {Workload::kUniform, Workload::kZipf, Workload::kOrganPipe,
                              Workload::kNearlySorted};
    for (int i = 0; i < 4; ++i) {
        JobSpec s;
        s.name = "self" + std::to_string(i + 1);
        s.n = 60000 + 10000 * static_cast<std::uint64_t>(i);
        s.workload = kinds[i];
        s.seed = 100 + static_cast<std::uint64_t>(i);
        s.m = 4096;
        s.p = 2;
        s.config.threads(2);
        specs.push_back(std::move(s));
    }

    // Solo goldens, one fresh array each.
    std::vector<std::uint64_t> solo_steps, solo_hashes;
    for (const JobSpec& spec : specs) {
        DiskArray disks(8, 64);
        SchedulerConfig cfg;
        cfg.max_active = 1;
        SortScheduler solo(disks, cfg);
        const JobStatus st = solo.wait(solo.submit(spec).id);
        if (st.state != JobState::kSucceeded) {
            std::cerr << "selftest: solo run of " << spec.name << " failed: " << st.error << '\n';
            return 1;
        }
        solo_steps.push_back(st.io.io_steps());
        solo_hashes.push_back(st.output_hash);
    }

    // Concurrent run on one shared array.
    DiskArray disks(8, 64, DiskBackend::kFile, scratch);
    MetricsRegistry registry;
    SchedulerConfig cfg;
    cfg.max_active = 4;
    if (stats.port >= 0 || !stats.file.empty()) cfg.metrics = &registry;
    SortScheduler sched(disks, cfg);
    std::unique_ptr<StatsService> server;
    if (cfg.metrics != nullptr) {
        server = std::make_unique<StatsService>(sched, registry, stats);
    }
    std::vector<std::uint64_t> ids;
    for (const JobSpec& spec : specs) ids.push_back(sched.submit(spec).id);
    bool ok = true;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const JobStatus st = sched.wait(ids[i]);
        if (st.state != JobState::kSucceeded) {
            std::cerr << "selftest: " << st.name << " failed: " << st.error << '\n';
            ok = false;
            continue;
        }
        if (st.io.io_steps() != solo_steps[i] || st.output_hash != solo_hashes[i]) {
            std::cerr << "selftest: " << st.name << " diverged from solo run (io_steps "
                      << st.io.io_steps() << " vs " << solo_steps[i] << ")\n";
            ok = false;
        }
    }
    std::cout << (ok ? "selftest OK: 4 concurrent jobs byte-identical to solo runs\n"
                     : "selftest FAILED\n");
    return ok ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    std::string job_file, scratch = "/tmp", trace_path, backend = "mem", flight_dump;
    std::uint32_t d = 8, b = 64;
    SchedulerConfig cfg;
    StatsOptions stats;
    bool serial = false, run_selftest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) config_error(argv[0], a + " needs a value");
            return argv[++i];
        };
        auto number = [&](std::uint64_t max) { return parse_number(argv[0], a, next(), max); };
        auto real = [&] { return parse_real(argv[0], a, next()); };
        if (a == "--selftest") {
            run_selftest = true;
        } else if (a == "--stats-port") {
            stats.port = static_cast<int>(number(65535));
        } else if (a == "--stats-file") {
            stats.file = next();
        } else if (a == "--tick") {
            stats.tick = real();
        } else if (a == "--flight-dump") {
            flight_dump = next();
        } else if (a == "--disks") {
            d = static_cast<std::uint32_t>(number(kU32));
        } else if (a == "--block") {
            b = static_cast<std::uint32_t>(number(kU32));
        } else if (a == "--backend") {
            backend = next();
        } else if (a == "--scratch") {
            scratch = next();
        } else if (a == "--max-active") {
            cfg.max_active = static_cast<std::uint32_t>(number(kU32));
        } else if (a == "--fairness") {
            cfg.fairness = real();
        } else if (a == "--queue") {
            cfg.queue_capacity = static_cast<std::uint32_t>(number(kU32));
        } else if (a == "--budget") {
            cfg.scratch_block_budget = number(~std::uint64_t{0});
        } else if (a == "--manifest-dir") {
            cfg.manifest_dir = next();
        } else if (a == "--trace") {
            trace_path = next();
        } else if (a == "--serial") {
            serial = true;
        } else if (!a.empty() && a[0] == '-') {
            config_error(argv[0], "unknown flag '" + a + "'");
        } else if (job_file.empty()) {
            job_file = a;
        } else {
            config_error(argv[0], "more than one job-file: '" + a + "'");
        }
    }
    // An impossible machine or service shape is a usage error, reported
    // before any scratch file is created.
    if (d < 1) config_error(argv[0], "--disks must be >= 1");
    if (b < 1) config_error(argv[0], "--block must be >= 1");
    if (cfg.max_active < 1) config_error(argv[0], "--max-active must be >= 1");
    if (stats.tick < 0) config_error(argv[0], "--tick must be >= 0");
    if (backend != "mem" && backend != "file") {
        config_error(argv[0], "--backend must be mem or file, got '" + backend + "'");
    }
#ifndef BALSORT_NO_OBS
    if (!flight_dump.empty()) FlightRecorder::instance().set_auto_dump_path(flight_dump);
#else
    if (!flight_dump.empty()) {
        std::cerr << "balsortd: --flight-dump ignored (built with BALSORT_NO_OBS)\n";
    }
#endif
    // On a clean exit --flight-dump writes a final trace; a faulted run
    // already got the auto-dump frozen at the moment of failure, and a
    // late rewrite would bury it under post-mortem ring traffic.
    const auto final_flight_dump = [&flight_dump](int rc) {
#ifndef BALSORT_NO_OBS
        if (!flight_dump.empty() && rc == 0) {
            (void)FlightRecorder::instance().dump_file(flight_dump);
        }
#else
        (void)flight_dump;
        (void)rc;
#endif
    };
    if (run_selftest) {
        const int rc = selftest(stats, scratch);
        final_flight_dump(rc);
        return rc;
    }
    if (job_file.empty()) config_error(argv[0], "no job-file given");

    const auto specs = parse_job_file(argv[0], job_file, d, b);
    if (specs.empty()) {
        std::cerr << job_file << ": no jobs\n";
        return 1;
    }
    if (serial) cfg.max_active = 1;
    // Size the shared executor to honor the widest threads= request even
    // on small hosts (validation rejects lanes the pool cannot provide;
    // oversubscription is the front end's call to make, not a job error).
    std::uint32_t widest = 0;
    for (const JobSpec& s : specs) widest = std::max(widest, s.config.compute_policy.threads);
    if (widest > 1) {
        const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
        cfg.executor_threads = std::max(widest - 1, hw);
    }
    const DiskBackend be = backend == "file" ? DiskBackend::kFile : DiskBackend::kMemory;

    Tracer tracer;
    if (!trace_path.empty()) cfg.trace = &tracer;
    MetricsRegistry registry;
    if (stats.port >= 0 || !stats.file.empty()) cfg.metrics = &registry;

    DiskArray disks(d, b, be, scratch);
    std::cout << "balsortd: " << specs.size() << " jobs over a shared " << d << "-disk " << backend
              << " array (B=" << b << ", max_active=" << cfg.max_active
              << ", fairness=" << cfg.fairness << ")\n\n";
    const int rc = run_jobs(specs, disks, cfg, stats);
    if (!trace_path.empty()) tracer.write_chrome_trace_file(trace_path);
    final_flight_dump(rc);
    return rc;
}
