// benchgate — the perf/regression gate over canonical bench results
// (DESIGN.md §12).
//
// A bench binary run with `--json out.json` emits a balsort-bench-v1
// BenchSuite; benchgate diffs such a file against the committed baseline
// for the same suite id (bench/baselines/<id>.json) with the comparator in
// obs/analyze.hpp, the one `balsort_analyze --diff` uses. Its policy
// (DESIGN.md §12): a model quantity, config or invariant token that
// differs byte-wise, or a different suite id, FAILs; wall_seconds outside
// ±25%, a different smoke flag, or a row present in only one suite WARNs.
//
// Beyond the point-in-time gate, benchgate also keeps the *trend* layer
// (DESIGN.md §17): `--append-history DIR` folds a suite's run into
// DIR/<bench>.jsonl as one canonical provenance-stamped line (model
// quantities kept as their raw source tokens, so the history preserves
// the byte-exact channel), and `--trend PATH` renders per-variant
// wall/model trajectories from a history file or directory, flagging the
// runs where a model quantity changed. CI appends after every perf run,
// so the history accumulates across commits.
//
// Exit codes: 0 pass (warnings allowed), 1 fail, 2 usage/IO error.
//
// Usage:
//   benchgate --baseline-dir DIR RESULT.json...
//   benchgate --baseline BASE.json RESULT.json
//   benchgate --validate FILE.json...     # schema validity only
//   benchgate --append-history DIR RESULT.json...
//   benchgate --trend DIR|FILE.jsonl      # render history trajectories
//   benchgate --self-check                # gate-the-gate unit test

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analyze.hpp"
#include "obs/bench_result.hpp"
#include "obs/json.hpp"

namespace {

using balsort::BenchResult;
using balsort::BenchRowView;
using balsort::BenchSuite;
using balsort::DiffResult;
using balsort::JsonValue;

struct Options {
    std::string baseline_dir;
    std::string baseline_file;
    std::string history_dir; ///< --append-history: fold inputs into DIR/<bench>.jsonl
    std::string trend_path;  ///< --trend: render trajectories from a file or dir
    std::vector<std::string> inputs;
    bool validate_only = false;
    bool self_check = false;
};

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0 << " --baseline-dir DIR RESULT.json...\n"
              << "       " << argv0 << " --baseline BASE.json RESULT.json\n"
              << "       " << argv0 << " --validate FILE.json...\n"
              << "       " << argv0 << " --append-history DIR RESULT.json...\n"
              << "       " << argv0 << " --trend DIR|FILE.jsonl\n"
              << "       " << argv0 << " --self-check\n";
    return 2;
}

std::optional<std::string> slurp(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is) return std::nullopt;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/// A schema-checked suite and the JSON tree its view points into. Moving
/// a JsonValue keeps its children in place, so the view stays valid.
struct Suite {
    JsonValue doc;
    balsort::BenchSuiteView view;
};

/// Parses and schema-checks one balsort-bench-v1 document. Returns nullopt
/// and prints the reason on stderr when the text is not a valid suite;
/// `label` only names the source in the message.
std::optional<Suite> read_suite(const std::string& text, const std::string& label) {
    auto doc = JsonValue::parse(text);
    if (!doc) {
        std::cerr << "benchgate: " << label << ": not valid JSON\n";
        return std::nullopt;
    }
    Suite suite{std::move(*doc), {}};
    std::string err;
    auto view = balsort::read_bench_suite(suite.doc, &err);
    if (!view) {
        std::cerr << "benchgate: " << label << ": " << err << "\n";
        return std::nullopt;
    }
    suite.view = std::move(*view);
    return suite;
}

std::optional<Suite> load_suite(const std::string& path) {
    auto text = slurp(path);
    if (!text) {
        std::cerr << "benchgate: cannot read " << path << "\n";
        return std::nullopt;
    }
    return read_suite(*text, path);
}

/// Diffs two valid suites and prints the findings under a "gate" header.
DiffResult gate(const Suite& base, const Suite& got, const std::string& heading) {
    // Both documents passed read_suite, so the pair is always diffable.
    DiffResult diff = *balsort::diff_documents(base.doc, got.doc, nullptr);
    std::cout << "gate " << heading << ":\n";
    for (const std::string& line : diff.lines) std::cout << "  " << line << "\n";
    if (diff.fails == 0 && diff.warns == 0) {
        std::cout << "  ok (" << got.view.rows.size() << " variants match byte-exactly)\n";
    }
    return diff;
}

// -------------------------------------------------------------------------
// History + trend (DESIGN.md §17). One perf run folds into one canonical
// JSONL line per suite:
//
//   {"schema":"balsort-history-v1","bench":ID,"git_describe":S,
//    "timestamp":S,"smoke":B,"variants":[
//      {"variant":S,"config":{n,m,d,b,p},"model":{io_steps,...},
//       "invariants":{invariant1,invariant2},"wall_seconds":F}]}
//
// Numeric fields are re-emitted from their raw source tokens, so the
// history preserves the byte-exact model channel: `--trend` can flag the
// precise run where a model quantity moved, commits later.

void write_tokens(std::ostream& os, const JsonValue& obj, std::span<const char* const> keys) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const JsonValue* v = obj.find(keys[i]);
        os << (i != 0 ? "," : "") << '"' << keys[i]
           << "\":" << (v != nullptr ? v->raw_number() : "0");
    }
}

void write_history_line(const balsort::BenchSuiteView& s, std::ostream& os) {
    os << "{\"schema\":\"balsort-history-v1\",\"bench\":\"";
    balsort::write_json_escaped(os, s.bench);
    os << "\",\"git_describe\":\"";
    balsort::write_json_escaped(os, s.git_describe);
    os << "\",\"timestamp\":\"";
    balsort::write_json_escaped(os, s.timestamp);
    os << "\",\"smoke\":" << balsort::json_bool(s.smoke) << ",\"variants\":[";
    bool first = true;
    for (const BenchRowView& r : s.rows) {
        os << (first ? "" : ",") << "{\"variant\":\"";
        first = false;
        balsort::write_json_escaped(os, r.variant);
        os << "\",\"config\":{";
        write_tokens(os, *r.config, balsort::kBenchConfigKeys);
        os << "},\"model\":{";
        write_tokens(os, *r.model, balsort::kBenchModelKeys);
        os << "},\"invariants\":{\"invariant1\":"
           << balsort::json_bool(r.invariants->find("invariant1")->as_bool())
           << ",\"invariant2\":"
           << balsort::json_bool(r.invariants->find("invariant2")->as_bool()) << "}";
        if (r.wall_seconds != nullptr) os << ",\"wall_seconds\":" << r.wall_seconds->raw_number();
        os << "}";
    }
    os << "]}\n";
}

int append_history(const std::string& dir, const std::vector<std::string>& inputs) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::cerr << "benchgate: cannot create history dir " << dir << ": " << ec.message()
                  << "\n";
        return 2;
    }
    for (const std::string& path : inputs) {
        auto s = load_suite(path);
        if (!s) return 2;
        const std::string out = dir + "/" + s->view.bench + ".jsonl";
        std::ofstream os(out, std::ios::app | std::ios::binary);
        if (os) write_history_line(s->view, os);
        os.flush();
        if (!os) {
            std::cerr << "benchgate: cannot append to " << out << "\n";
            return 2;
        }
        std::cout << "history: appended \"" << s->view.bench << "\" (" << s->view.rows.size()
                  << " variants";
        if (!s->view.git_describe.empty()) std::cout << ", " << s->view.git_describe;
        std::cout << ") -> " << out << "\n";
    }
    return 0;
}

struct TrendStats {
    int runs = 0;
    int bad_lines = 0;
    int model_changes = 0; ///< variant-runs whose model/config tokens moved
};

/// One variant's state in one history line, reduced to what the trend view
/// needs: the comparison key (every config+model raw token, joined) and
/// the wall clock.
struct TrendSnap {
    std::string tokens;
    std::string io_steps;
    std::string wall_raw;
    double wall = 0;
    bool has_wall = false;
};

struct TrendRun {
    std::string git;
    std::string timestamp;
    std::vector<std::pair<std::string, TrendSnap>> variants; // line order
};

/// Parse one history stream (one suite's .jsonl) and render per-variant
/// trajectories. Malformed lines are reported and counted, never fatal —
/// a half-written line from a crashed CI run must not hide the rest.
TrendStats trend_stream(const std::string& label, std::istream& is, std::ostream& os) {
    TrendStats stats;
    std::string bench;
    std::vector<TrendRun> runs;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        auto doc = JsonValue::parse(line);
        const JsonValue* variants = nullptr;
        bool ok = doc.has_value();
        if (ok) {
            const JsonValue* schema = doc->find("schema");
            const JsonValue* b = doc->find("bench");
            variants = doc->find("variants");
            ok = schema != nullptr && schema->is_string() &&
                 schema->as_string() == "balsort-history-v1" && b != nullptr && b->is_string() &&
                 variants != nullptr && variants->is_array();
            if (ok && bench.empty()) bench = b->as_string();
        }
        if (!ok) {
            os << "  BAD " << label << ":" << lineno << ": not a balsort-history-v1 line\n";
            ++stats.bad_lines;
            continue;
        }
        TrendRun run;
        if (const JsonValue* g = doc->find("git_describe"); g != nullptr && g->is_string()) {
            run.git = g->as_string();
        }
        if (const JsonValue* t = doc->find("timestamp"); t != nullptr && t->is_string()) {
            run.timestamp = t->as_string();
        }
        for (const JsonValue& v : variants->items()) {
            const JsonValue* name = v.find("variant");
            const JsonValue* config = v.find("config");
            const JsonValue* model = v.find("model");
            if (name == nullptr || !name->is_string() || config == nullptr || model == nullptr) {
                os << "  BAD " << label << ":" << lineno << ": malformed variant entry\n";
                ++stats.bad_lines;
                continue;
            }
            TrendSnap snap;
            std::ostringstream key;
            write_tokens(key, *config, balsort::kBenchConfigKeys);
            key << ";";
            write_tokens(key, *model, balsort::kBenchModelKeys);
            snap.tokens = key.str();
            if (const JsonValue* io = model->find("io_steps"); io != nullptr && io->is_number()) {
                snap.io_steps = io->raw_number();
            }
            if (const JsonValue* w = v.find("wall_seconds"); w != nullptr && w->is_number()) {
                snap.wall = w->as_double();
                snap.wall_raw = w->raw_number();
                snap.has_wall = true;
            }
            run.variants.emplace_back(name->as_string(), std::move(snap));
        }
        runs.push_back(std::move(run));
        ++stats.runs;
    }

    os << "trend \"" << (bench.empty() ? "?" : bench) << "\" — " << stats.runs << " run(s) ("
       << label << "):\n";

    // Variants in first-seen order across all runs.
    std::vector<std::string> order;
    for (const TrendRun& run : runs) {
        for (const auto& [name, snap] : run.variants) {
            if (std::find(order.begin(), order.end(), name) == order.end()) {
                order.push_back(name);
            }
        }
    }
    for (const std::string& name : order) {
        os << "  " << name << ":\n";
        const TrendSnap* prev = nullptr;
        const TrendSnap* first_wall = nullptr;
        const TrendSnap* last_wall = nullptr;
        int k = 0;
        for (const TrendRun& run : runs) {
            ++k;
            const TrendSnap* snap = nullptr;
            for (const auto& [n, s] : run.variants) {
                if (n == name) {
                    snap = &s;
                    break;
                }
            }
            if (snap == nullptr) continue;
            os << "    #" << k << "  " << (run.timestamp.empty() ? "-" : run.timestamp) << "  "
               << (run.git.empty() ? "-" : run.git) << "  io_steps="
               << (snap->io_steps.empty() ? "?" : snap->io_steps);
            if (snap->has_wall) {
                os << "  wall=" << snap->wall_raw << "s";
                if (prev != nullptr && prev->has_wall && prev->wall > 0) {
                    const double rel = (snap->wall - prev->wall) / prev->wall;
                    os << " (" << (rel >= 0 ? "+" : "") << static_cast<int>(rel * 100) << "%)";
                }
                if (first_wall == nullptr) first_wall = snap;
                last_wall = snap;
            }
            if (prev != nullptr && prev->tokens != snap->tokens) {
                os << "  MODEL CHANGE";
                ++stats.model_changes;
            }
            os << "\n";
            prev = snap;
        }
        if (first_wall != nullptr && last_wall != nullptr && first_wall != last_wall &&
            first_wall->wall > 0) {
            const double rel = (last_wall->wall - first_wall->wall) / first_wall->wall;
            os << "    wall first->last: " << first_wall->wall_raw << "s -> "
               << last_wall->wall_raw << "s (" << (rel >= 0 ? "+" : "")
               << static_cast<int>(rel * 100) << "%)\n";
        }
    }
    return stats;
}

int trend_main(const std::string& path) {
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        std::cerr << "benchgate: no such history: " << path << "\n";
        return 2;
    }
    std::vector<fs::path> files;
    if (fs::is_directory(path, ec)) {
        for (const auto& entry : fs::directory_iterator(path, ec)) {
            if (entry.path().extension() == ".jsonl") files.push_back(entry.path());
        }
        std::sort(files.begin(), files.end());
        if (files.empty()) {
            std::cerr << "benchgate: no .jsonl history files in " << path << "\n";
            return 2;
        }
    } else {
        files.emplace_back(path);
    }
    TrendStats total;
    for (const fs::path& f : files) {
        std::ifstream is(f);
        if (!is) {
            std::cerr << "benchgate: cannot read " << f.string() << "\n";
            return 2;
        }
        TrendStats ts = trend_stream(f.string(), is, std::cout);
        total.runs += ts.runs;
        total.bad_lines += ts.bad_lines;
        total.model_changes += ts.model_changes;
    }
    std::cout << "benchgate trend: " << total.runs << " run(s) across " << files.size()
              << " suite(s), " << total.model_changes << " model change(s)";
    if (total.bad_lines > 0) {
        std::cout << ", " << total.bad_lines << " malformed line(s)\n";
        return 1;
    }
    std::cout << "\n";
    return 0;
}

// -------------------------------------------------------------------------
// --self-check: the gate gates a synthetic suite against perturbed copies
// of itself, so CI can prove the comparator actually bites before trusting
// a green run.

BenchSuite synthetic_suite() {
    BenchSuite s;
    s.bench = "selfcheck";
    s.git_describe = "v0-test \"quoted\"";
    s.timestamp = "2026-01-01T00:00:00Z";
    BenchResult r;
    r.bench = "selfcheck";
    r.variant = "defaults";
    r.cfg.n = 1u << 15;
    r.cfg.m = 1u << 12;
    r.cfg.d = 8;
    r.cfg.b = 64;
    r.cfg.p = 4;
    r.io_steps = 1327;
    r.read_steps = 700;
    r.write_steps = 627;
    r.blocks = 10616;
    r.pram_time = 123456;
    r.work_ratio = 1.75;
    r.invariant1 = true;
    r.invariant2 = true;
    r.wall_seconds = 0.5;
    s.results.push_back(r);
    return s;
}

int self_check() {
    int failures = 0;
    auto expect = [&](bool cond, const char* what) {
        if (!cond) {
            std::cout << "self-check FAILED: " << what << "\n";
            ++failures;
        }
    };
    BenchSuite suite = synthetic_suite();
    std::string text = suite.to_json();
    auto parsed = JsonValue::parse(text);
    expect(parsed.has_value() && parsed->find("schema") != nullptr,
           "emitted suite must parse as JSON with a schema marker");

    // Route through the same reader and comparator the CLI uses, parsing
    // in memory instead of through temp files.
    auto run_gate = [&](const BenchSuite& base, const BenchSuite& got) {
        auto a = read_suite(base.to_json(), "<mem:base>");
        auto b = read_suite(got.to_json(), "<mem:got>");
        if (!a || !b) return DiffResult{1, 0, {}};
        return *balsort::diff_documents(a->doc, b->doc, nullptr);
    };

    {
        DiffResult t = run_gate(suite, suite);
        expect(t.fails == 0 && t.warns == 0, "identical suites must pass clean");
    }
    {
        // The acceptance criterion: io_steps off by one must FAIL.
        BenchSuite perturbed = suite;
        perturbed.results[0].io_steps += 1;
        DiffResult t = run_gate(suite, perturbed);
        expect(t.fails > 0, "io_steps +1 must fail the gate");
    }
    {
        // Wall drift inside the band: pass (no warn).
        BenchSuite warmer = suite;
        warmer.results[0].wall_seconds *= 1.10;
        DiffResult t = run_gate(suite, warmer);
        expect(t.fails == 0 && t.warns == 0, "10% wall drift within 25% tolerance passes");
    }
    {
        // Wall drift outside the band only warns.
        BenchSuite slow = suite;
        slow.results[0].wall_seconds *= 2.0;
        DiffResult t = run_gate(suite, slow);
        expect(t.fails == 0 && t.warns > 0, "2x wall drift warns");
    }
    {
        BenchSuite flipped = suite;
        flipped.results[0].invariant2 = false;
        DiffResult t = run_gate(suite, flipped);
        expect(t.fails > 0, "invariant flip must fail the gate");
    }
    {
        BenchSuite extra = suite;
        BenchResult nr = suite.results[0];
        nr.variant = "new-variant";
        extra.results.push_back(nr);
        DiffResult t = run_gate(suite, extra);
        expect(t.fails == 0 && t.warns > 0, "new variant warns, does not fail");
    }
    {
        // History layer: three appended runs, the third with a model drift.
        // The trend view must count three runs, flag exactly one change,
        // and the appended lines must round-trip the raw model tokens.
        std::ostringstream hist;
        auto s1 = read_suite(suite.to_json(), "<mem:run1>");
        expect(s1.has_value(), "synthetic suite loads for history append");
        if (s1) write_history_line(s1->view, hist);

        BenchSuite warmer = suite;
        warmer.timestamp = "2026-01-02T00:00:00Z";
        warmer.results[0].wall_seconds = 0.6;
        auto s2 = read_suite(warmer.to_json(), "<mem:run2>");
        if (s2) write_history_line(s2->view, hist);

        BenchSuite drift = warmer;
        drift.timestamp = "2026-01-03T00:00:00Z";
        drift.results[0].io_steps += 1;
        auto s3 = read_suite(drift.to_json(), "<mem:run3>");
        if (s3) write_history_line(s3->view, hist);

        {
            std::istringstream first_line(hist.str().substr(0, hist.str().find('\n')));
            auto line = JsonValue::parse(first_line.str());
            bool round_trip = false;
            if (line) {
                const JsonValue* variants = line->find("variants");
                if (variants != nullptr && variants->is_array() && !variants->items().empty()) {
                    const JsonValue* model = variants->items()[0].find("model");
                    const JsonValue* io = model != nullptr ? model->find("io_steps") : nullptr;
                    round_trip = io != nullptr && io->raw_number() == "1327";
                }
            }
            expect(round_trip, "history line preserves the raw io_steps token");
        }

        std::istringstream in(hist.str());
        std::ostringstream render;
        TrendStats ts = trend_stream("<mem:history>", in, render);
        expect(ts.runs == 3 && ts.bad_lines == 0, "three clean history lines parse");
        expect(ts.model_changes == 1, "trend flags exactly the io_steps drift");
        expect(render.str().find("MODEL CHANGE") != std::string::npos,
               "trend renders the MODEL CHANGE marker");

        std::istringstream garbage("not json at all\n");
        std::ostringstream render2;
        TrendStats tg = trend_stream("<mem:bad>", garbage, render2);
        expect(tg.bad_lines == 1 && tg.runs == 0, "malformed history line is counted, not fatal");
    }

    if (failures == 0) {
        std::cout << "benchgate self-check: all checks passed\n";
        return 0;
    }
    return 1;
}

} // namespace

int main(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        if (std::strcmp(a, "--baseline-dir") == 0 && i + 1 < argc) {
            opt.baseline_dir = argv[++i];
        } else if (std::strcmp(a, "--baseline") == 0 && i + 1 < argc) {
            opt.baseline_file = argv[++i];
        } else if (std::strcmp(a, "--validate") == 0) {
            opt.validate_only = true;
        } else if (std::strcmp(a, "--append-history") == 0 && i + 1 < argc) {
            opt.history_dir = argv[++i];
        } else if (std::strcmp(a, "--trend") == 0 && i + 1 < argc) {
            opt.trend_path = argv[++i];
        } else if (std::strcmp(a, "--self-check") == 0) {
            opt.self_check = true;
        } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
            usage(argv[0]);
            return 0;
        } else if (a[0] == '-') {
            std::cerr << "benchgate: unknown option " << a << "\n";
            return usage(argv[0]);
        } else {
            opt.inputs.emplace_back(a);
        }
    }

    if (opt.self_check) return self_check();

    if (!opt.trend_path.empty()) {
        if (!opt.inputs.empty() || !opt.history_dir.empty()) return usage(argv[0]);
        return trend_main(opt.trend_path);
    }

    if (!opt.history_dir.empty()) {
        if (opt.inputs.empty()) return usage(argv[0]);
        return append_history(opt.history_dir, opt.inputs);
    }

    if (opt.validate_only) {
        if (opt.inputs.empty()) return usage(argv[0]);
        int bad = 0;
        for (const std::string& path : opt.inputs) {
            auto s = load_suite(path);
            if (s) {
                std::cout << "valid " << path << " (suite \"" << s->view.bench << "\", "
                          << s->view.rows.size() << " results)\n";
            } else {
                ++bad;
            }
        }
        return bad == 0 ? 0 : 1;
    }

    if (opt.inputs.empty() || (opt.baseline_dir.empty() && opt.baseline_file.empty())) {
        return usage(argv[0]);
    }
    if (!opt.baseline_file.empty() && opt.inputs.size() != 1) {
        std::cerr << "benchgate: --baseline takes exactly one result file\n";
        return usage(argv[0]);
    }

    DiffResult total;
    for (const std::string& path : opt.inputs) {
        auto got = load_suite(path);
        if (!got) return 2;
        // The baseline lives under the dir named by the *result's* suite id.
        const std::string baseline = !opt.baseline_file.empty()
                                         ? opt.baseline_file
                                         : opt.baseline_dir + "/" + got->view.bench + ".json";
        auto base = load_suite(baseline);
        if (!base) return 2;
        const DiffResult diff = gate(*base, *got, path + " vs " + baseline);
        total.fails += diff.fails;
        total.warns += diff.warns;
    }
    if (total.fails > 0) {
        std::cout << "benchgate: FAIL (" << total.fails << " failing field(s), " << total.warns
                  << " warning(s))\n";
        return 1;
    }
    if (total.warns > 0) {
        std::cout << "benchgate: pass with " << total.warns << " warning(s)\n";
    } else {
        std::cout << "benchgate: pass\n";
    }
    return 0;
}
