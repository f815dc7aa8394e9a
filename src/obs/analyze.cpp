#include "obs/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/bench_result.hpp"
#include "obs/json.hpp"

namespace balsort {

namespace {

// ---------------------------------------------------------------------------
// Interval arithmetic on microsecond spans. Everything downstream — busy
// unions, hidden/exposed overlap, critical-path segmentation — reduces to
// unions and intersections of [start, end) intervals.

using Iv = std::pair<std::int64_t, std::int64_t>;

/// Sorts and merges overlapping/adjacent intervals into a disjoint union.
std::vector<Iv> merge_union(std::vector<Iv> v) {
    std::sort(v.begin(), v.end());
    std::vector<Iv> out;
    for (const Iv& iv : v) {
        if (iv.second <= iv.first) continue;
        if (!out.empty() && iv.first <= out.back().second) {
            out.back().second = std::max(out.back().second, iv.second);
        } else {
            out.push_back(iv);
        }
    }
    return out;
}

std::int64_t total_us(const std::vector<Iv>& v) {
    std::int64_t t = 0;
    for (const Iv& iv : v) t += iv.second - iv.first;
    return t;
}

/// Intersection of two disjoint sorted unions.
std::vector<Iv> intersect(const std::vector<Iv>& a, const std::vector<Iv>& b) {
    std::vector<Iv> out;
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        const std::int64_t lo = std::max(a[i].first, b[j].first);
        const std::int64_t hi = std::min(a[i].second, b[j].second);
        if (lo < hi) out.emplace_back(lo, hi);
        if (a[i].second < b[j].second) {
            ++i;
        } else {
            ++j;
        }
    }
    return out;
}

/// True when `t` lies inside the disjoint sorted union `v`.
bool covers(const std::vector<Iv>& v, std::int64_t t) {
    auto it = std::upper_bound(v.begin(), v.end(), Iv{t, std::numeric_limits<std::int64_t>::max()});
    if (it == v.begin()) return false;
    --it;
    return t >= it->first && t < it->second;
}

double us_to_s(std::int64_t us) { return static_cast<double>(us) / 1e6; }

// ---------------------------------------------------------------------------
// Trace ingestion.

struct PhaseIv {
    std::string name;
    Iv iv;
};

std::int64_t event_i64(const JsonValue& ev, const char* key, std::int64_t dflt = 0) {
    const JsonValue* v = ev.find(key);
    return v != nullptr && v->is_number() ? static_cast<std::int64_t>(v->as_double()) : dflt;
}

std::string event_str(const JsonValue& ev, const char* key) {
    const JsonValue* v = ev.find(key);
    return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

double manifest_num(const JsonValue& root, const char* section, const char* key,
                    double dflt = 0) {
    const JsonValue* s = root.find(section);
    if (s == nullptr) return dflt;
    const JsonValue* v = s->find(key);
    return v != nullptr && v->is_number() ? v->as_double() : dflt;
}

} // namespace

std::optional<AnalyzeReport> analyze_run(const std::string& trace_json,
                                         const std::string& manifest_json, std::string* err) {
    auto trace = JsonValue::parse(trace_json);
    if (!trace || !trace->is_object()) {
        if (err != nullptr) *err = "trace: not valid JSON";
        return std::nullopt;
    }
    const JsonValue* events = trace->find("traceEvents");
    if (events == nullptr || !events->is_array()) {
        if (err != nullptr) *err = "trace: missing traceEvents array";
        return std::nullopt;
    }
    auto manifest = JsonValue::parse(manifest_json);
    if (!manifest || !manifest->is_object()) {
        if (err != nullptr) *err = "manifest: not valid JSON";
        return std::nullopt;
    }

    AnalyzeReport r;
    r.tool = event_str(*manifest, "tool");
    r.algo = event_str(*manifest, "algo");
    r.n = static_cast<std::int64_t>(manifest_num(*manifest, "config", "n"));
    r.d = static_cast<std::int64_t>(manifest_num(*manifest, "config", "d"));
    r.p = static_cast<std::int64_t>(manifest_num(*manifest, "config", "p"));
    r.manifest_elapsed_seconds = manifest_num(*manifest, "report", "elapsed_seconds");

    // ---- pass 1: lane names (thread_name metadata precedes span events
    // for named lanes, but don't rely on ordering — collect first).
    std::map<std::int64_t, std::string> lane_name;
    for (const JsonValue& ev : events->items()) {
        if (event_str(ev, "ph") == "M" && event_str(ev, "name") == "thread_name") {
            const JsonValue* args = ev.find("args");
            if (args != nullptr) {
                lane_name[event_i64(ev, "tid")] = event_str(*args, "name");
            }
        }
    }

    // ---- pass 2: span graph.
    std::vector<PhaseIv> phases;
    std::map<std::string, std::vector<Iv>> disk_ivs; // lane name -> spans
    Iv sort_extent{0, 0};
    std::int64_t trace_min = std::numeric_limits<std::int64_t>::max();
    std::int64_t trace_max = std::numeric_limits<std::int64_t>::min();
    for (const JsonValue& ev : events->items()) {
        const std::string ph = event_str(ev, "ph");
        if (ph == "M") continue;
        ++r.trace_events;
        const std::int64_t ts = event_i64(ev, "ts");
        const std::int64_t dur = ph == "X" ? event_i64(ev, "dur") : 0;
        trace_min = std::min(trace_min, ts);
        trace_max = std::max(trace_max, ts + dur);
        const std::string cat = event_str(ev, "cat");
        if (ph == "X") {
            if (cat == "phase") {
                phases.push_back({event_str(ev, "name"), {ts, ts + dur}});
            } else if (cat == "sort" && event_str(ev, "name") == "balance_sort") {
                // Widest sort span wins if a trace ever holds several runs.
                if (dur > sort_extent.second - sort_extent.first) sort_extent = {ts, ts + dur};
                r.have_sort_span = true;
            } else {
                const auto it = lane_name.find(event_i64(ev, "tid"));
                if (it != lane_name.end() && it->second.rfind("disk ", 0) == 0) {
                    disk_ivs[it->second].emplace_back(ts, ts + dur);
                }
            }
        } else if (ph == "b") {
            if (cat == "prefetch") ++r.prefetch_pairs;
            if (cat == "staging") ++r.staged_pairs;
        } else if (ph == "i" && cat == "profile") {
            ++r.profile_samples;
        }
    }
    if (r.trace_events == 0) {
        if (err != nullptr) *err = "trace: no events";
        return std::nullopt;
    }
    if (!r.have_sort_span) {
        sort_extent = {trace_min, trace_max};
        r.warnings.push_back("no balance_sort span; using whole-trace extent");
    }
    const std::int64_t S = sort_extent.first;
    const std::int64_t E = sort_extent.second;
    r.span_elapsed_seconds = us_to_s(E - S);

    // ---- overlap attribution.
    std::vector<Iv> phase_cover_raw;
    phase_cover_raw.reserve(phases.size());
    for (const PhaseIv& p : phases) phase_cover_raw.push_back(p.iv);
    const std::vector<Iv> phase_cover = merge_union(std::move(phase_cover_raw));

    std::vector<Iv> disk_all_raw;
    for (auto& [lane, ivs] : disk_ivs) {
        std::vector<Iv> merged = merge_union(ivs);
        r.disks.push_back({lane, us_to_s(total_us(merged))});
        disk_all_raw.insert(disk_all_raw.end(), merged.begin(), merged.end());
    }
    std::sort(r.disks.begin(), r.disks.end(),
              [](const DiskBusy& a, const DiskBusy& b) { return a.lane < b.lane; });
    const std::vector<Iv> io_busy = merge_union(std::move(disk_all_raw));
    r.io_busy_seconds = us_to_s(total_us(io_busy));
    r.io_hidden_seconds = us_to_s(total_us(intersect(io_busy, phase_cover)));
    r.io_exposed_seconds = r.io_busy_seconds - r.io_hidden_seconds;
    r.overlap_efficiency =
        r.io_busy_seconds > 0 ? r.io_hidden_seconds / r.io_busy_seconds : 1.0;
    if (r.disks.empty()) r.warnings.push_back("no per-disk engine spans in trace");

    // ---- disk skew (Invariant-1 ideal: every disk equally busy).
    if (!r.disks.empty()) {
        double max_busy = 0, sum_busy = 0;
        for (const DiskBusy& d : r.disks) {
            max_busy = std::max(max_busy, d.busy_seconds);
            sum_busy += d.busy_seconds;
        }
        const double mean = sum_busy / static_cast<double>(r.disks.size());
        r.disk_skew = mean > 0 ? max_busy / mean : 1.0;
    }

    // ---- critical path: segment [S, E) at every span boundary and
    // attribute each elementary segment to the innermost active phase,
    // else exposed I/O, else "other". Sums to the extent by construction.
    std::vector<std::int64_t> cuts{S, E};
    auto add_cut = [&](std::int64_t t) {
        if (t > S && t < E) cuts.push_back(t);
    };
    for (const PhaseIv& p : phases) {
        add_cut(p.iv.first);
        add_cut(p.iv.second);
    }
    for (const Iv& iv : io_busy) {
        add_cut(iv.first);
        add_cut(iv.second);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::map<std::string, std::int64_t> segments;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        const std::int64_t lo = cuts[i];
        const std::int64_t hi = cuts[i + 1];
        const std::int64_t mid = lo + (hi - lo) / 2;
        const PhaseIv* active = nullptr;
        for (const PhaseIv& p : phases) {
            if (mid < p.iv.first || mid >= p.iv.second) continue;
            // Innermost = latest start (phase spans nest, never interleave).
            if (active == nullptr || p.iv.first > active->iv.first) active = &p;
        }
        const std::string key = active != nullptr ? "phase:" + active->name
                                : covers(io_busy, mid) ? std::string("exposed_io")
                                                       : std::string("other");
        segments[key] += hi - lo;
    }
    for (const auto& [name, us] : segments) {
        r.critical_path.push_back({name, us_to_s(us)});
        r.critical_path_seconds += us_to_s(us);
    }
    std::sort(r.critical_path.begin(), r.critical_path.end(),
              [](const AnalyzeRow& a, const AnalyzeRow& b) {
                  if (a.seconds != b.seconds) return a.seconds > b.seconds;
                  return a.name < b.name;
              });

    // ---- stall budget (manifest, PR-9): the scheduler-eye view that the
    // trace cannot see (waits inside phases).
    const double io_wait = manifest_num(*manifest, "phases", "io_wait_seconds");
    const double gate_wait = manifest_num(*manifest, "phases", "gate_wait_seconds");
    const double pool_wait = manifest_num(*manifest, "phases", "pool_wait_seconds");
    const double compute = std::max(
        0.0, r.manifest_elapsed_seconds - io_wait - gate_wait - pool_wait);
    r.stalls = {{"compute", compute},
                {"io-wait", io_wait},
                {"gate-wait", gate_wait},
                {"pool-wait", pool_wait}};
    std::sort(r.stalls.begin(), r.stalls.end(), [](const AnalyzeRow& a, const AnalyzeRow& b) {
        if (a.seconds != b.seconds) return a.seconds > b.seconds;
        return a.name < b.name;
    });
    return r;
}

void write_analyze_text(std::ostream& os, const AnalyzeReport& r) {
    os << "balsort_analyze: " << r.tool << " / " << r.algo << "  n=" << r.n << " d=" << r.d
       << " p=" << r.p << "\n";
    os << "  trace events        " << r.trace_events << "  (profile samples " << r.profile_samples
       << ", prefetch pairs " << r.prefetch_pairs << ", staged pairs " << r.staged_pairs << ")\n";
    os << "  elapsed             span " << r.span_elapsed_seconds << " s, manifest "
       << r.manifest_elapsed_seconds << " s\n";
    os << "critical path (" << r.critical_path_seconds << " s total)\n";
    for (const AnalyzeRow& row : r.critical_path) {
        const double pct =
            r.critical_path_seconds > 0 ? 100.0 * row.seconds / r.critical_path_seconds : 0;
        os << "  " << row.name << "  " << row.seconds << " s  (" << pct << "%)\n";
    }
    os << "overlap\n";
    os << "  io busy             " << r.io_busy_seconds << " s\n";
    os << "  hidden under phases " << r.io_hidden_seconds << " s\n";
    os << "  exposed             " << r.io_exposed_seconds << " s\n";
    os << "  overlap efficiency  " << r.overlap_efficiency << "\n";
    os << "disks (skew " << r.disk_skew << ", ideal 1.0)\n";
    for (const DiskBusy& d : r.disks) {
        os << "  " << d.lane << "  busy " << d.busy_seconds << " s\n";
    }
    os << "stall budget (manifest)\n";
    for (const AnalyzeRow& row : r.stalls) {
        const double pct = r.manifest_elapsed_seconds > 0
                               ? 100.0 * row.seconds / r.manifest_elapsed_seconds
                               : 0;
        os << "  " << row.name << "  " << row.seconds << " s  (" << pct << "%)\n";
    }
    for (const std::string& w : r.warnings) os << "warning: " << w << "\n";
}

void write_analyze_json(std::ostream& os, const AnalyzeReport& r) {
    os << "{\"schema\":\"balsort-analyze-v1\",\"tool\":\"";
    write_json_escaped(os, r.tool);
    os << "\",\"algo\":\"";
    write_json_escaped(os, r.algo);
    os << "\",\"config\":{\"n\":" << r.n << ",\"d\":" << r.d << ",\"p\":" << r.p << "}";
    os << ",\"trace_events\":" << r.trace_events << ",\"profile_samples\":" << r.profile_samples
       << ",\"prefetch_pairs\":" << r.prefetch_pairs << ",\"staged_pairs\":" << r.staged_pairs;
    os << ",\"span_elapsed_seconds\":";
    write_json_double(os, r.span_elapsed_seconds);
    os << ",\"manifest_elapsed_seconds\":";
    write_json_double(os, r.manifest_elapsed_seconds);
    os << ",\"critical_path_seconds\":";
    write_json_double(os, r.critical_path_seconds);
    os << ",\"critical_path\":[";
    for (std::size_t i = 0; i < r.critical_path.size(); ++i) {
        if (i > 0) os << ',';
        os << "{\"name\":\"";
        write_json_escaped(os, r.critical_path[i].name);
        os << "\",\"seconds\":";
        write_json_double(os, r.critical_path[i].seconds);
        os << "}";
    }
    os << "],\"io_busy_seconds\":";
    write_json_double(os, r.io_busy_seconds);
    os << ",\"io_hidden_seconds\":";
    write_json_double(os, r.io_hidden_seconds);
    os << ",\"io_exposed_seconds\":";
    write_json_double(os, r.io_exposed_seconds);
    os << ",\"overlap_efficiency\":";
    write_json_double(os, r.overlap_efficiency);
    os << ",\"disk_skew\":";
    write_json_double(os, r.disk_skew);
    os << ",\"disks\":[";
    for (std::size_t i = 0; i < r.disks.size(); ++i) {
        if (i > 0) os << ',';
        os << "{\"lane\":\"";
        write_json_escaped(os, r.disks[i].lane);
        os << "\",\"busy_seconds\":";
        write_json_double(os, r.disks[i].busy_seconds);
        os << "}";
    }
    os << "],\"stalls\":[";
    for (std::size_t i = 0; i < r.stalls.size(); ++i) {
        if (i > 0) os << ',';
        os << "{\"name\":\"";
        write_json_escaped(os, r.stalls[i].name);
        os << "\",\"seconds\":";
        write_json_double(os, r.stalls[i].seconds);
        os << "}";
    }
    os << "],\"warnings\":[";
    for (std::size_t i = 0; i < r.warnings.size(); ++i) {
        if (i > 0) os << ',';
        os << '"';
        write_json_escaped(os, r.warnings[i]);
        os << '"';
    }
    os << "]}\n";
}

// ---------------------------------------------------------------------------
// Diff: the two-channel policy of DESIGN.md §12. Model quantities are
// deterministic, so they compare on raw JSON number tokens and any
// difference FAILs. Wall-clock quantities only have to stay inside
// kWallBand, and leaving it WARNs.

namespace {

const JsonValue* member(const JsonValue* section, const char* key) {
    return section != nullptr ? section->find(key) : nullptr;
}

std::string token(const JsonValue& v) {
    if (v.is_number()) return v.raw_number();
    if (v.is_bool()) return json_bool(v.as_bool());
    return v.as_string();
}

void fail(DiffResult* out, const std::string& line) {
    ++out->fails;
    out->lines.push_back("FAIL " + line);
}

void warn(DiffResult* out, const std::string& line) {
    ++out->warns;
    out->lines.push_back("WARN " + line);
}

/// Byte-exact comparison of one model token named `what`.
void diff_exact(const JsonValue* av, const JsonValue* bv, const std::string& what,
                DiffResult* out) {
    if (av == nullptr && bv == nullptr) return;
    if (av == nullptr || bv == nullptr) {
        fail(out, what + ": present in only one document");
    } else if (token(*av) != token(*bv)) {
        fail(out, what + ": " + token(*av) + " -> " + token(*bv));
    }
}

/// Banded comparison of one wall-clock quantity named `what`; a zero or
/// missing old value has no band.
void diff_banded(const JsonValue* av, const JsonValue* bv, const std::string& what,
                 DiffResult* out) {
    if (av == nullptr || bv == nullptr || !av->is_number() || !bv->is_number()) return;
    const double a = av->as_double();
    const double b = bv->as_double();
    if (!(a > 0)) return;
    const double rel = (b - a) / a;
    if (std::abs(rel) <= kWallBand) return;
    std::ostringstream line;
    line << what << ": " << a << " -> " << b << " (" << (rel >= 0 ? "+" : "")
         << static_cast<int>(rel * 100) << "%): wall drift outside +/-"
         << static_cast<int>(kWallBand * 100) << "% band";
    warn(out, line.str());
}

void diff_rows(const BenchRowView& a, const BenchRowView& b, DiffResult* out) {
    const std::string at = "[" + a.variant + "] ";
    for (const char* k : kBenchConfigKeys) {
        diff_exact(a.config->find(k), b.config->find(k), at + "config." + k, out);
    }
    for (const char* k : kBenchModelKeys) {
        diff_exact(a.model->find(k), b.model->find(k), at + "model." + k, out);
    }
    for (const char* k : kBenchInvariantKeys) {
        diff_exact(a.invariants->find(k), b.invariants->find(k), at + "invariants." + k, out);
    }
    diff_banded(a.wall_seconds, b.wall_seconds, at + "wall_seconds", out);
}

bool is_manifest(const JsonValue& v) {
    return v.find("tool") != nullptr && v.find("report") != nullptr;
}

void diff_manifests(const JsonValue& a, const JsonValue& b, DiffResult* out) {
    // Deterministic model quantities: byte-exact. Runtime-dependent
    // counters (pool hits, steal counts, retry totals) are deliberately
    // absent — they vary run to run without any model drift.
    auto exact = [&](const char* section, const auto& keys) {
        for (const char* k : keys) {
            diff_exact(member(a.find(section), k), member(b.find(section), k),
                       std::string(section) + "." + k, out);
        }
    };
    exact("config", kBenchConfigKeys);
    exact("io", std::array{"read_steps", "write_steps", "io_steps", "blocks_read",
                           "blocks_written", "parity_blocks_written", "recovery_blocks"});
    exact("report", std::array{"optimal_ios", "io_ratio", "comparisons", "moves", "pram_time",
                               "optimal_work", "work_ratio", "s_used", "d_virtual", "levels",
                               "base_cases", "max_bucket_records", "bucket_bound"});
    exact("balance", std::array{"tracks", "direct_blocks", "matched_blocks", "deferred_blocks",
                                "rearrange_rounds", "max_rounds_per_track", "match_draws",
                                "invariant1_held", "invariant2_held"});
    diff_banded(member(a.find("report"), "elapsed_seconds"),
                member(b.find("report"), "elapsed_seconds"), "report.elapsed_seconds", out);
    for (const char* k : {"pivot_seconds", "balance_seconds", "base_case_seconds", "emit_seconds",
                          "io_wait_seconds", "gate_wait_seconds", "pool_wait_seconds",
                          "overlap_hidden_seconds"}) {
        diff_banded(member(a.find("phases"), k), member(b.find("phases"), k),
                    std::string("phases.") + k, out);
    }
}

} // namespace

std::optional<DiffResult> diff_documents(const JsonValue& a, const JsonValue& b,
                                         std::string* err) {
    DiffResult out;
    if (is_bench_suite(a) && is_bench_suite(b)) {
        std::string why;
        const auto as = read_bench_suite(a, &why);
        const auto bs = as ? read_bench_suite(b, &why) : std::nullopt;
        if (!as || !bs) {
            if (err != nullptr) *err = (as ? "new suite: " : "old suite: ") + why;
            return std::nullopt;
        }
        if (as->bench != bs->bench) {
            fail(&out, "suite id: \"" + as->bench + "\" -> \"" + bs->bench + "\"");
            return out;
        }
        if (as->smoke != bs->smoke) {
            warn(&out, std::string("smoke flag: ") + (as->smoke ? "smoke" : "full") + " -> " +
                           (bs->smoke ? "smoke" : "full") + " (comparing anyway)");
        }
        for (const BenchRowView& row : as->rows) {
            if (const BenchRowView* other = bs->find(row.variant); other != nullptr) {
                diff_rows(row, *other, &out);
            } else {
                warn(&out, "[" + row.variant + "] row only in the old suite");
            }
        }
        for (const BenchRowView& row : bs->rows) {
            if (as->find(row.variant) == nullptr) {
                warn(&out,
                     "[" + row.variant + "] row only in the new suite (refresh the baseline)");
            }
        }
        return out;
    }
    if (is_manifest(a) && is_manifest(b)) {
        diff_manifests(a, b, &out);
        return out;
    }
    if (err != nullptr) {
        *err = "documents are not a diffable pair (need two balsort-bench-v1 suites "
               "or two run manifests)";
    }
    return std::nullopt;
}

} // namespace balsort
