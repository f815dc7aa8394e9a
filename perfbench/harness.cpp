// perfbench_harness — the compiled half of the end-to-end benchmark
// (run.py invokes it; README.md describes workloads and metrics).
//
//   perfbench_harness gen <out.bin> <n> <seed>
//       n uniform 16-byte records (u64 key, u64 payload = index).
//   perfbench_harness check <in.bin> <out.bin>
//       streaming output check: keys non-decreasing, and an order-independent
//       multiset fingerprint of the output equal to the input's.
//   perfbench_harness svc <work_dir> <seed> <jobs> <n_per_job> <traced 0|1>
//       one closed batch through SortScheduler on a shared file-backed array.
//   perfbench_harness svc-solo <seed> <jobs> <n_per_job>
//       the same specs one at a time (the reference output hashes).
//   perfbench_harness replay <in.bin> <work_dir> <d> <b> <m> <lanes> <s>
//                            <blocks_read> <blocks_written>
//       times each layer's public calls on the workload's shape, plus the
//       two speed-of-light ceilings.
//
// Every subcommand prints one JSON object on stdout. Only the public
// library API is used; nothing here changes what the library does.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "balsort.hpp"
#include "core/balance.hpp"
#include "core/partition.hpp"
#include "core/vrun.hpp"
#include "pdm/async_engine.hpp"
#include "pdm/file_disk.hpp"
#include "pram/executor.hpp"
#include "pram/parallel_sort.hpp"
#include "pram/selection.hpp"

using namespace balsort;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Flat JSON object printer: {"key": number-or-string, ...}.
class JsonOut {
public:
    JsonOut& num(const std::string& k, double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(k, buf);
    }
    JsonOut& num(const std::string& k, std::uint64_t v) { return raw(k, std::to_string(v)); }
    JsonOut& str(const std::string& k, const std::string& v) { return raw(k, '"' + v + '"'); }
    JsonOut& boolean(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
    JsonOut& raw(const std::string& k, const std::string& v) {
        body_ += (body_.empty() ? "" : ", ") + ('"' + k + "\": ") + v;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

// ---- input generation and fingerprints ------------------------------------

std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

struct SplitMix {
    std::uint64_t s;
    std::uint64_t next() { return mix64(s += 0x9e3779b97f4a7c15ull); }
};

std::vector<Record> uniform_records(std::size_t n, std::uint64_t seed) {
    SplitMix rng{mix64(seed) ^ 0x5eedull};
    std::vector<Record> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = Record{rng.next(), i};
    return out;
}

/// Zipf(theta = 0.99) ranks over a 65,536-key universe, each rank scattered
/// to a fixed 64-bit key: heavy duplicates, so the equal-class path runs.
std::vector<Record> zipf_records(std::size_t n, std::uint64_t seed) {
    constexpr std::size_t kUniverse = 1 << 16;
    std::vector<double> cdf(kUniverse);
    double acc = 0;
    for (std::size_t r = 0; r < kUniverse; ++r) {
        acc += 1.0 / std::pow(static_cast<double>(r + 1), 0.99);
        cdf[r] = acc;
    }
    SplitMix rng{mix64(seed) ^ 0x21bfull};
    std::vector<Record> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53 * acc;
        const auto r = static_cast<std::uint64_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                                  cdf.begin());
        out[i] = Record{mix64(r + 1), i};
    }
    return out;
}

/// The svc-mix job kinds, cycled over the batch.
const char* const kJobKinds[] = {"uniform", "zipf", "sorted", "organ-pipe"};

std::vector<Record> job_records(std::uint32_t job, std::size_t n, std::uint64_t seed) {
    const std::uint64_t s = mix64(seed * 1000003 + job);
    switch (job % 4) {
        case 0: return uniform_records(n, s);
        case 1: return zipf_records(n, s);
        case 2: {
            auto r = uniform_records(n, s);
            std::sort(r.begin(), r.end(), KeyLess{});
            return r;
        }
        default: {
            // Organ pipe: ascending, then descending.
            auto r = uniform_records(n, s);
            std::sort(r.begin(), r.end(), KeyLess{});
            std::reverse(r.begin() + static_cast<std::ptrdiff_t>(n / 2), r.end());
            return r;
        }
    }
}

/// Order-independent multiset fingerprint: count plus two sums of
/// independently mixed record hashes.
struct Fingerprint {
    std::uint64_t n = 0, s1 = 0, s2 = 0;
    void add(const Record& r) {
        ++n;
        s1 += mix64(r.key ^ mix64(r.payload + 0x1234567ull));
        s2 += mix64(r.payload ^ mix64(r.key + 0x89abcdefull));
    }
    bool operator==(const Fingerprint&) const = default;
};

std::vector<Record> read_records(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) throw std::runtime_error("cannot open " + path);
    std::fseek(f, 0, SEEK_END);
    const long bytes = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<Record> recs(static_cast<std::size_t>(bytes) / sizeof(Record));
    const std::size_t got = std::fread(recs.data(), sizeof(Record), recs.size(), f);
    std::fclose(f);
    recs.resize(got);
    return recs;
}

void write_records(const std::string& path, const std::vector<Record>& recs) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("cannot create " + path);
    const std::size_t put = std::fwrite(recs.data(), sizeof(Record), recs.size(), f);
    if (std::fclose(f) != 0 || put != recs.size()) throw std::runtime_error("short write " + path);
}

int cmd_gen(const std::string& out, std::size_t n, std::uint64_t seed) {
    write_records(out, uniform_records(n, seed));
    std::printf("%s\n", JsonOut{}.num("n", std::uint64_t{n}).text().c_str());
    return 0;
}

/// Stream `path` in chunks; fingerprint it and (optionally) check key order.
Fingerprint scan(const std::string& path, bool* sorted) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) throw std::runtime_error("cannot open " + path);
    std::vector<Record> chunk(1 << 16);
    Fingerprint fp;
    bool ok = true;
    std::uint64_t prev = 0;
    std::size_t got = 0;
    while ((got = std::fread(chunk.data(), sizeof(Record), chunk.size(), f)) > 0) {
        for (std::size_t i = 0; i < got; ++i) {
            if (fp.n > 0 && chunk[i].key < prev) ok = false;
            prev = chunk[i].key;
            fp.add(chunk[i]);
        }
    }
    std::fclose(f);
    if (sorted != nullptr) *sorted = ok;
    return fp;
}

int cmd_check(const std::string& in, const std::string& out) {
    bool sorted = false;
    const Fingerprint fin = scan(in, nullptr);
    const Fingerprint fout = scan(out, &sorted);
    const bool same = fin == fout;
    std::printf("%s\n", JsonOut{}
                            .boolean("ok", sorted && same)
                            .boolean("sorted", sorted)
                            .boolean("fingerprint_match", same)
                            .num("n_in", fin.n)
                            .num("n_out", fout.n)
                            .text()
                            .c_str());
    return 0;
}

// ---- the sort-service workload -------------------------------------------

std::uint32_t hw_threads() { return std::max(1u, std::thread::hardware_concurrency()); }

SchedulerConfig svc_config() {
    SchedulerConfig sc;
    sc.max_active = std::min<std::uint32_t>(4, hw_threads());
    sc.executor_threads = std::max<std::uint32_t>(1, hw_threads() - 1);
    sc.queue_capacity = 64;
    return sc;
}

JobSpec job_spec(std::uint32_t j, std::size_t n, std::uint64_t seed) {
    JobSpec spec;
    spec.name = std::string(kJobKinds[j % 4]) + "-" + std::to_string(j);
    spec.records = job_records(j, n, seed);
    spec.m = 65536;
    spec.verify = true;
    return spec;
}

std::string job_json(const JobStatus& st, double latency) {
    const SortReport& r = st.report;
    const PhaseProfile& ph = r.phases;
    const BalanceStats& bal = r.balance;
    const TimeBudget& bu = st.budget;
    JsonOut o;
    o.str("name", st.name)
        .str("state", to_string(st.state))
        .str("output_hash", std::to_string(st.output_hash))
        .num("latency_s", latency)
        .num("sort_s", r.elapsed_seconds)
        // The service's time budget of the job (queue wait: latency not
        // covered by the budget, which starts when the worker does).
        .num("svc_queue_wait_s", std::max(0.0, latency - bu.elapsed_seconds))
        .num("svc_gate_wait_s", bu.gate_wait_seconds)
        .num("svc_io_wait_s", bu.io_wait_seconds)
        .num("svc_pool_wait_s", bu.pool_wait_seconds)
        .num("svc_other_s", bu.other_seconds)
        .num("io_steps", st.io.io_steps())
        .num("read_steps", st.io.read_steps)
        .num("write_steps", st.io.write_steps)
        .num("blocks_read", st.io.blocks_read)
        .num("blocks_written", st.io.blocks_written)
        .num("engine_busy_s", st.io.engine_busy_seconds)
        .num("engine_stall_s", st.io.engine_stall_seconds)
        .num("async_block_ops", st.io.async_block_ops)
        .num("max_in_flight", st.io.max_in_flight)
        .num("levels", std::uint64_t{r.levels})
        .num("s_used", std::uint64_t{r.s_used})
        .num("base_cases", r.base_cases)
        .num("pivot_s", ph.pivot_seconds)
        .num("balance_s", ph.balance_seconds)
        .num("base_case_s", ph.base_case_seconds)
        .num("emit_s", ph.emit_seconds)
        .num("io_wait_s", ph.io_wait_seconds)
        .num("pool_wait_s", ph.pool_wait_seconds)
        .num("gate_wait_s", ph.gate_wait_seconds)
        .num("overlap_hidden_s", ph.overlap_hidden_seconds)
        .num("staged_prefetches", ph.staged_prefetches)
        .num("pool_hits", ph.pool_hits)
        .num("pool_misses", ph.pool_misses)
        .num("compute_helped", ph.compute_helped)
        .num("tracks", bal.tracks)
        .num("direct_blocks", bal.direct_blocks)
        .num("matched_blocks", bal.matched_blocks)
        .num("deferred_blocks", bal.deferred_blocks)
        .num("rearrange_rounds", bal.rearrange_rounds);
    return o.text();
}

int cmd_svc(const std::string& work, std::uint64_t seed, std::uint32_t jobs, std::size_t n,
            bool traced) {
    std::vector<JobSpec> specs;
    for (std::uint32_t j = 0; j < jobs; ++j) specs.push_back(job_spec(j, n, seed));

    Tracer tracer;
    MetricsRegistry registry;
    SchedulerConfig sc = svc_config();
    if (traced) {
        sc.trace = &tracer;
        sc.metrics = &registry;
        sc.manifest_dir = work;
    }
    std::vector<std::string> job_lines;
    // Set-up is under a millisecond: sample it on extra throwaway arrays and
    // schedulers too, and report the median with the batch's own.
    std::vector<double> setups;
    for (int i = 0; i < 15; ++i) {
        const auto t = Clock::now();
        DiskArray disks(8, 256, DiskBackend::kFile, work);
        SortScheduler sched(disks, sc);
        setups.push_back(since(t));
    }
    double makespan_s = 0;
    {
        // Set-up: the shared array and the scheduler (executor and engine
        // spin-up) until the first job is admitted.
        const auto t_setup = Clock::now();
        DiskArray disks(8, 256, DiskBackend::kFile, work);
        SortScheduler sched(disks, sc);
        std::vector<std::uint64_t> ids(jobs);
        std::vector<Clock::time_point> submitted(jobs), terminal(jobs);
        Clock::time_point t_first{};
        for (std::uint32_t j = 0; j < jobs; ++j) {
            submitted[j] = Clock::now();
            const AdmissionResult a = sched.submit(std::move(specs[j]));
            if (!a.admitted) throw std::runtime_error("job rejected: " + a.reason);
            if (j == 0) {
                t_first = submitted[0];
                setups.push_back(since(t_setup));
            }
            ids[j] = a.id;
        }
        // One waiter per job stamps its terminal time.
        std::vector<JobStatus> status(jobs);
        std::vector<std::thread> waiters;
        for (std::uint32_t j = 0; j < jobs; ++j) {
            waiters.emplace_back([&, j] {
                status[j] = sched.wait(ids[j]);
                terminal[j] = Clock::now();
            });
        }
        for (auto& w : waiters) w.join();
        const auto t_last = *std::max_element(terminal.begin(), terminal.end());
        makespan_s = std::chrono::duration<double>(t_last - t_first).count();
        for (std::uint32_t j = 0; j < jobs; ++j) {
            job_lines.push_back(job_json(
                status[j], std::chrono::duration<double>(terminal[j] - submitted[j]).count()));
        }
        if (traced) sched.publish_stats();
    }
    std::sort(setups.begin(), setups.end());
    if (traced) {
        tracer.write_chrome_trace_file(work + "/svc_trace.json");
        registry.write_json_file(work + "/svc_metrics.json");
    }
    std::string arr = "[";
    for (std::size_t i = 0; i < job_lines.size(); ++i) arr += (i ? ", " : "") + job_lines[i];
    arr += "]";
    std::printf("%s\n", JsonOut{}
                            .num("setup_s", setups[setups.size() / 2])
                            .num("makespan_s", makespan_s)
                            .raw("jobs", arr)
                            .text()
                            .c_str());
    return 0;
}

int cmd_svc_solo(std::uint64_t seed, std::uint32_t jobs, std::size_t n) {
    // The reference: each spec alone on an otherwise idle service.
    DiskArray disks(8, 256, DiskBackend::kMemory);
    SchedulerConfig sc = svc_config();
    sc.max_active = 1;
    SortScheduler sched(disks, sc);
    std::string arr = "[";
    for (std::uint32_t j = 0; j < jobs; ++j) {
        const AdmissionResult a = sched.submit(job_spec(j, n, seed));
        if (!a.admitted) throw std::runtime_error("job rejected: " + a.reason);
        arr += (j ? ", " : "") + job_json(sched.wait(a.id), 0);
    }
    arr += "]";
    std::printf("%s\n", JsonOut{}.raw("jobs", arr).text().c_str());
    return 0;
}

// ---- per-layer replays -----------------------------------------------------

/// Median of `reps` timings of `fn` (seconds).
template <class Fn>
double median_time(int reps, Fn&& fn) {
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) t.push_back(fn());
    std::sort(t.begin(), t.end());
    return t[t.size() / 2];
}

int cmd_replay(const std::string& input, const std::string& work, std::uint32_t d,
               std::uint32_t b, std::uint64_t m, std::uint32_t lanes, std::uint32_t s,
               std::uint64_t blocks_read, std::uint64_t blocks_written) {
    JsonOut o;
    std::unique_ptr<Executor> exec;
    if (lanes > 1) exec = std::make_unique<Executor>(lanes - 1);
    const Parallel pool(lanes, exec.get());

    // cli: the CLI's non-sort path, call for call.
    std::vector<Record> all;
    {
        auto t = Clock::now();
        all = read_records(input);
        o.num("cli.read_input_s", since(t));
        t = Clock::now();
        DiskArray disks(d, b, DiskBackend::kFile, work);
        BlockRun run;
        {
            RunWriter w(disks);
            for (std::size_t off = 0; off < all.size(); off += m) {
                w.append(std::span<const Record>(all.data() + off,
                                                 std::min<std::size_t>(m, all.size() - off)));
            }
            run = w.finish();
        }
        o.num("cli.layout_s", since(t));
        t = Clock::now();
        std::vector<Record> back;
        back.reserve(run.n_records);
        {
            RunReader r(disks, run);
            std::vector<Record> chunk;
            while (r.remaining() > 0) {
                chunk.resize(std::min<std::uint64_t>(m, r.remaining()));
                r.read(chunk);
                back.insert(back.end(), chunk.begin(), chunk.end());
            }
        }
        o.num("cli.readback_s", since(t));
        t = Clock::now();
        const std::string out = work + "/replay_out.bin";
        write_records(out, back);
        o.num("cli.write_output_s", since(t));
        std::filesystem::remove(out);
    }

    // The compute replays run on (at most) 1M records in M-record loads.
    const std::size_t nr = std::min<std::size_t>(all.size(), 1 << 20);
    const std::vector<Record> data(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(nr));
    std::vector<Record> load;
    auto fill_load = [&](std::size_t off) {
        load.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
                    data.begin() + static_cast<std::ptrdiff_t>(std::min<std::size_t>(nr, off + m)));
    };

    // selection: multi_select_keys at the pivot pass's 8S centered ranks.
    const std::uint64_t stride = sampling_stride(nr, m, s);
    std::vector<std::uint64_t> samples;
    const double sel_s = median_time(3, [&] {
        double acc = 0;
        samples.clear();
        for (std::size_t off = 0; off < nr; off += m) {
            fill_load(off);
            std::vector<std::uint64_t> ranks;
            for (std::uint64_t r = (stride + 1) / 2; r <= load.size(); r += stride) ranks.push_back(r);
            if (ranks.empty()) ranks.push_back((load.size() + 1) / 2);
            const auto t = Clock::now();
            auto keys = multi_select_keys(load, ranks, pool);
            acc += since(t);
            samples.insert(samples.end(), keys.begin(), keys.end());
        }
        return acc;
    });
    o.num("selection.ns_per_record", sel_s * 1e9 / static_cast<double>(nr));
    std::sort(samples.begin(), samples.end());
    const PivotSet pivots = select_pivots_from_sorted_samples(samples, s);

    // classify: PivotSet::bucket_of as Balance calls it, and the batch form.
    std::vector<std::uint32_t> bucket(nr);
    const double cls_s = median_time(3, [&] {
        const auto t = Clock::now();
        pool.parallel_for(0, nr, [&](std::size_t lo, std::size_t hi, std::size_t) {
            for (std::size_t i = lo; i < hi; ++i) bucket[i] = pivots.bucket_of(data[i].key);
        });
        return since(t);
    });
    o.num("classify.ns_per_record", cls_s * 1e9 / static_cast<double>(nr));
    const double batch_s = median_time(3, [&] {
        const auto t = Clock::now();
        bucket = bucket_of(data, pivots.keys, pool);
        return since(t);
    });
    o.num("classify.batch_ns_per_record", batch_s * 1e9 / static_cast<double>(nr));

    // balance: one balance_pass over the replay records on a memory array,
    // so the time is placement + matching + staging, not file I/O.
    {
        DiskArray mem(d, b, DiskBackend::kMemory);
        VirtualDisks vdisks(mem, VirtualDisks::default_virtual_count(d));
        BalanceStats stats;
        VectorSource src(data);
        const auto t = Clock::now();
        auto buckets = balance_pass(src, pivots, vdisks, m, BalanceOptions{}, pool, nullptr,
                                    nullptr, &stats);
        const double bal_s = since(t);
        for (const BucketOutput& out : buckets) out.run.release(mem);
        o.num("balance.ns_per_track",
              bal_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, stats.tracks)));
    }

    // base_sort: parallel_merge_sort of M-record loads.
    const double sort_s = median_time(3, [&] {
        double acc = 0;
        for (std::size_t off = 0; off < nr; off += m) {
            fill_load(off);
            const auto t = Clock::now();
            parallel_merge_sort(load, pool);
            acc += since(t);
        }
        return acc;
    });
    o.num("base_sort.ns_per_record", sort_s * 1e9 / static_cast<double>(nr));

    // I/O replays: at least 1M records (16 MiB) and 1,024 stripes per direction.
    const std::uint64_t stripes = std::max<std::uint64_t>(1024, (1u << 20) / (std::uint64_t{d} * b));
    std::vector<Record> stripe_buf(std::size_t{d} * b);
    for (std::size_t i = 0; i < stripe_buf.size(); ++i) stripe_buf[i] = data[i % nr];
    auto disk_path = [&](const std::string& tag, std::uint32_t i) {
        return work + "/replay_" + tag + "_" + std::to_string(i) + ".bin";
    };

    // engine: AsyncEngine submit/wait of whole D-block stripes on FileDisks.
    {
        std::vector<std::unique_ptr<FileDisk>> files;
        std::vector<Disk*> ptrs;
        for (std::uint32_t i = 0; i < d; ++i) {
            files.push_back(std::make_unique<FileDisk>(disk_path("engine", i), b));
            ptrs.push_back(files.back().get());
        }
        AsyncEngine engine(ptrs, 0, 0);
        auto run = [&](IoRequest::Kind kind) {
            const auto t = Clock::now();
            for (std::uint64_t st = 0; st < stripes; ++st) {
                std::vector<IoRequest> reqs(d);
                for (std::uint32_t i = 0; i < d; ++i) {
                    reqs[i].kind = kind;
                    reqs[i].disk = i;
                    reqs[i].block = st;
                    reqs[i].read_buf = stripe_buf.data() + std::size_t{i} * b;
                    reqs[i].write_data = stripe_buf.data() + std::size_t{i} * b;
                }
                AsyncBatch batch = engine.submit(std::move(reqs));
                engine.wait(batch);
            }
            return since(t);
        };
        const double w = run(IoRequest::Kind::kWrite);
        const double r = run(IoRequest::Kind::kRead);
        o.num("engine.ns_per_stripe", (w + r) * 1e9 / static_cast<double>(2 * stripes));
    }

    // disk_array: read_step / write_step on the file backend, engine on (as
    // the sort drives it); write-behind is drained inside the timed region.
    {
        DiskArray disks(d, b, DiskBackend::kFile, work);
        disks.set_async(true);
        std::vector<std::vector<BlockOp>> steps(stripes, std::vector<BlockOp>(d));
        for (auto& ops : steps) {
            for (std::uint32_t i = 0; i < d; ++i) ops[i] = BlockOp{i, disks.allocate(i)};
        }
        auto t = Clock::now();
        for (const auto& ops : steps) disks.write_step(ops, stripe_buf);
        disks.drain_async();
        o.num("disk_array.write_step_ns", since(t) * 1e9 / static_cast<double>(stripes));
        t = Clock::now();
        for (const auto& ops : steps) disks.read_step(ops, stripe_buf);
        o.num("disk_array.read_step_ns", since(t) * 1e9 / static_cast<double>(stripes));
        disks.set_async(false);
        for (const auto& ops : steps) {
            for (const BlockOp& op : ops) disks.release(op);
        }
    }

    // file_disk: raw block calls at B on one FileDisk.
    {
        FileDisk disk(disk_path("file", 0), b);
        const std::uint64_t blocks = stripes * d;
        std::span<Record> blk(stripe_buf.data(), b);
        auto t = Clock::now();
        for (std::uint64_t i = 0; i < blocks; ++i) disk.write_block(i, blk);
        o.num("file_disk.write_ns_per_block", since(t) * 1e9 / static_cast<double>(blocks));
        t = Clock::now();
        for (std::uint64_t i = 0; i < blocks; ++i) disk.read_block(i, blk);
        o.num("file_disk.read_ns_per_block", since(t) * 1e9 / static_cast<double>(blocks));
    }

    // ceilings: std::sort of the whole input on this thread, and the run's
    // scratch traffic as raw FileDisk calls (cycling a 4,096-block window
    // per disk, so the page cache serves it as it serves the sort).
    {
        std::vector<Record> copy = all;
        const auto t = Clock::now();
        std::sort(copy.begin(), copy.end(), KeyLess{});
        o.num("ceiling.std_sort_s", since(t));
    }
    {
        std::vector<std::unique_ptr<FileDisk>> files;
        for (std::uint32_t i = 0; i < d; ++i) {
            files.push_back(std::make_unique<FileDisk>(disk_path("ceiling", i), b));
        }
        constexpr std::uint64_t kWindow = 4096;
        // Reads stay inside the part of the window that was written.
        const std::uint64_t written =
            std::max<std::uint64_t>(1, std::min(kWindow, blocks_written / d));
        std::span<Record> blk(stripe_buf.data(), b);
        const auto t = Clock::now();
        for (std::uint64_t k = 0; k < blocks_written; ++k) {
            files[k % d]->write_block((k / d) % kWindow, blk);
        }
        for (std::uint64_t k = 0; k < blocks_read; ++k) {
            files[k % d]->read_block((k / d) % written, blk);
        }
        o.num("ceiling.scratch_io_s", since(t));
    }
    std::printf("%s\n", o.text().c_str());
    return 0;
}

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: perfbench_harness gen OUT N SEED | check IN OUT |\n"
                 "       svc WORK SEED JOBS N TRACED | svc-solo SEED JOBS N |\n"
                 "       replay IN WORK D B M LANES S BLOCKS_READ BLOCKS_WRITTEN\n");
    std::exit(2);
}

std::uint64_t arg_u64(char** argv, int i) { return std::strtoull(argv[i], nullptr, 10); }

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) usage();
    const std::string cmd = argv[1];
    try {
        if (cmd == "gen" && argc == 5) return cmd_gen(argv[2], arg_u64(argv, 3), arg_u64(argv, 4));
        if (cmd == "check" && argc == 4) return cmd_check(argv[2], argv[3]);
        if (cmd == "svc" && argc == 7) {
            return cmd_svc(argv[2], arg_u64(argv, 3), static_cast<std::uint32_t>(arg_u64(argv, 4)),
                           arg_u64(argv, 5), arg_u64(argv, 6) != 0);
        }
        if (cmd == "svc-solo" && argc == 5) {
            return cmd_svc_solo(arg_u64(argv, 2), static_cast<std::uint32_t>(arg_u64(argv, 3)),
                                arg_u64(argv, 4));
        }
        if (cmd == "replay" && argc == 11) {
            return cmd_replay(argv[2], argv[3], static_cast<std::uint32_t>(arg_u64(argv, 4)),
                              static_cast<std::uint32_t>(arg_u64(argv, 5)), arg_u64(argv, 6),
                              static_cast<std::uint32_t>(arg_u64(argv, 7)),
                              static_cast<std::uint32_t>(arg_u64(argv, 8)), arg_u64(argv, 9),
                              arg_u64(argv, 10));
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_harness %s: %s\n", cmd.c_str(), e.what());
        return 1;
    }
    usage();
}
