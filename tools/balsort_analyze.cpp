// balsort_analyze — critical-path / overlap analyzer for run artifacts.
//
// Two modes, both thin wrappers over src/obs/analyze.{hpp,cpp}:
//
//   balsort_analyze <trace.json> <manifest.json>
//       Reconstructs the span graph from a Chrome trace + run manifest and
//       reports the critical path, overlap efficiency (hidden vs exposed
//       I/O), per-disk utilization skew, and the stall budget.
//       --json            machine-readable report (balsort-analyze-v1)
//       --out FILE        write the report to FILE instead of stdout
//       --assert-critical-path-within FRAC
//                         exit 1 unless |critical_path - manifest elapsed|
//                         <= FRAC * manifest elapsed (the CI self-check)
//
//   balsort_analyze --diff <old.json> <new.json>
//       Diffs two run manifests or two balsort-bench-v1 suites with the
//       comparator benchgate also uses (policy: DESIGN.md §12). Prints one
//       FAIL/WARN line per finding; any FAIL exits 1.
//
// Exit codes: 0 pass (warnings allowed), 1 model drift / failed
// assertion, 2 usage or parse error — the benchgate convention.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "obs/analyze.hpp"
#include "obs/json.hpp"

namespace {

std::optional<std::string> slurp(const std::string& path) {
    std::ifstream is(path);
    if (!is) return std::nullopt;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void usage(std::ostream& os) {
    os << "usage: balsort_analyze <trace.json> <manifest.json> [--json] [--out FILE]\n"
          "                       [--assert-critical-path-within FRAC]\n"
          "       balsort_analyze --diff <old.json> <new.json>\n";
}

int run_diff(const std::string& a_path, const std::string& b_path) {
    const auto a_text = slurp(a_path);
    const auto b_text = slurp(b_path);
    if (!a_text || !b_text) {
        std::cerr << "balsort_analyze: cannot read "
                  << (!a_text ? a_path : b_path) << "\n";
        return 2;
    }
    const auto a = balsort::JsonValue::parse(*a_text);
    const auto b = balsort::JsonValue::parse(*b_text);
    if (!a || !b) {
        std::cerr << "balsort_analyze: " << (!a ? a_path : b_path) << ": not valid JSON\n";
        return 2;
    }
    std::string err;
    const auto diff = balsort::diff_documents(*a, *b, &err);
    if (!diff) {
        std::cerr << "balsort_analyze: " << err << "\n";
        return 2;
    }
    for (const std::string& line : diff->lines) std::cout << line << "\n";
    if (diff->fails > 0) {
        std::cout << "DIFF: FAIL (" << diff->fails << " failing field(s), " << diff->warns
                  << " warning(s))\n";
        return 1;
    }
    std::cout << "DIFF: identical model quantities";
    if (diff->warns > 0) std::cout << ", " << diff->warns << " warning(s)";
    std::cout << "\n";
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    bool diff_mode = false;
    bool json_out = false;
    double assert_within = -1;
    std::string out_path;
    std::string pos[2];
    int n_pos = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto need_value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "balsort_analyze: " << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--diff") {
            diff_mode = true;
        } else if (arg == "--json") {
            json_out = true;
        } else if (arg == "--out") {
            out_path = need_value("--out");
        } else if (arg == "--assert-critical-path-within") {
            assert_within = std::atof(need_value("--assert-critical-path-within"));
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "balsort_analyze: unknown flag " << arg << "\n";
            usage(std::cerr);
            return 2;
        } else if (n_pos < 2) {
            pos[n_pos++] = arg;
        } else {
            std::cerr << "balsort_analyze: too many arguments\n";
            usage(std::cerr);
            return 2;
        }
    }
    if (n_pos != 2) {
        usage(std::cerr);
        return 2;
    }
    if (diff_mode) return run_diff(pos[0], pos[1]);

    const auto trace = slurp(pos[0]);
    const auto manifest = slurp(pos[1]);
    if (!trace || !manifest) {
        std::cerr << "balsort_analyze: cannot read " << (!trace ? pos[0] : pos[1]) << "\n";
        return 2;
    }
    std::string err;
    const auto report = balsort::analyze_run(*trace, *manifest, &err);
    if (!report) {
        std::cerr << "balsort_analyze: " << err << "\n";
        return 2;
    }

    std::ostringstream body;
    if (json_out) {
        balsort::write_analyze_json(body, *report);
    } else {
        balsort::write_analyze_text(body, *report);
    }
    if (out_path.empty()) {
        std::cout << body.str();
    } else {
        std::ofstream os(out_path);
        if (!os) {
            std::cerr << "balsort_analyze: cannot write " << out_path << "\n";
            return 2;
        }
        os << body.str();
    }

    if (assert_within >= 0) {
        const double want = report->manifest_elapsed_seconds;
        const double got = report->critical_path_seconds;
        const double tol = assert_within * std::max(want, 1e-9);
        if (std::abs(got - want) > tol) {
            std::cerr << "balsort_analyze: critical path " << got << " s deviates from manifest "
                      << want << " s by more than " << 100 * assert_within << "%\n";
            return 1;
        }
        std::cout << "critical-path check: " << got << " s within " << 100 * assert_within
                  << "% of manifest " << want << " s\n";
    }
    return 0;
}
