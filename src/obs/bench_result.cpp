#include "obs/bench_result.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "core/balance_sort.hpp"
#include "obs/json.hpp"

namespace balsort {

BenchResult BenchResult::from_report(std::string bench, std::string variant, const PdmConfig& cfg,
                                     const SortReport& rep, double wall_seconds) {
    BenchResult r;
    r.bench = std::move(bench);
    r.variant = std::move(variant);
    r.cfg = cfg;
    r.io_steps = rep.io.io_steps();
    r.read_steps = rep.io.read_steps;
    r.write_steps = rep.io.write_steps;
    r.blocks = rep.io.blocks_read + rep.io.blocks_written;
    r.pram_time = rep.pram_time;
    r.work_ratio = rep.work_ratio;
    r.invariant1 = rep.balance.invariant1_held;
    r.invariant2 = rep.balance.invariant2_held;
    r.wall_seconds = wall_seconds;
    return r;
}

void BenchResult::write_json(std::ostream& os) const {
    os << "{\"bench\":\"";
    write_json_escaped(os, bench);
    os << "\",\"variant\":\"";
    write_json_escaped(os, variant);
    os << "\",\"config\":{\"n\":" << cfg.n << ",\"m\":" << cfg.m << ",\"d\":" << cfg.d
       << ",\"b\":" << cfg.b << ",\"p\":" << cfg.p << "}";
    os << ",\"model\":{\"io_steps\":" << io_steps << ",\"read_steps\":" << read_steps
       << ",\"write_steps\":" << write_steps << ",\"blocks\":" << blocks << ",\"pram_time\":";
    write_json_double(os, pram_time);
    os << ",\"work_ratio\":";
    write_json_double(os, work_ratio);
    os << "},\"invariants\":{\"invariant1\":" << json_bool(invariant1)
       << ",\"invariant2\":" << json_bool(invariant2) << "}";
    os << ",\"wall_seconds\":";
    write_json_double(os, wall_seconds);
    os << "}";
}

void BenchSuite::write_json(std::ostream& os) const {
    os << "{\"schema\":\"balsort-bench-v1\",\"bench\":\"";
    write_json_escaped(os, bench);
    os << "\",\"git_describe\":\"";
    write_json_escaped(os, git_describe);
    os << "\",\"timestamp\":\"";
    write_json_escaped(os, timestamp);
    os << "\",\"smoke\":" << json_bool(smoke) << ",\"results\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i > 0) os << ',';
        os << "\n  ";
        results[i].write_json(os);
    }
    os << "\n]}\n";
}

std::string BenchSuite::to_json() const {
    std::ostringstream os;
    write_json(os);
    return os.str();
}

bool BenchSuite::write_json_file(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    write_json(os);
    return os.good();
}

const std::array<const char*, 5> kBenchConfigKeys = {"n", "m", "d", "b", "p"};
const std::array<const char*, 6> kBenchModelKeys = {"io_steps", "read_steps", "write_steps",
                                                    "blocks",   "pram_time",  "work_ratio"};
const std::array<const char*, 2> kBenchInvariantKeys = {"invariant1", "invariant2"};

const BenchRowView* BenchSuiteView::find(const std::string& variant) const {
    for (const BenchRowView& r : rows) {
        if (r.variant == variant) return &r;
    }
    return nullptr;
}

namespace {

/// Empty when every `keys` member of `group` is a number (a bool when
/// `want_bool`), else the first violation.
template <std::size_t N>
std::string check_group(const JsonValue* group, const std::string& where, const char* name,
                        const std::array<const char*, N>& keys, bool want_bool) {
    if (group == nullptr || !group->is_object()) return where + " lacks a " + name + " object";
    for (const char* k : keys) {
        const JsonValue* v = group->find(k);
        if (v == nullptr || (want_bool ? !v->is_bool() : !v->is_number())) {
            return where + " " + name + "." + k + " missing or not a " +
                   (want_bool ? "bool" : "number");
        }
    }
    return {};
}

} // namespace

bool is_bench_suite(const JsonValue& doc) {
    const JsonValue* s = doc.find("schema");
    return s != nullptr && s->is_string() && s->as_string() == "balsort-bench-v1";
}

std::optional<BenchSuiteView> read_bench_suite(const JsonValue& doc, std::string* err) {
    auto fail = [&](std::string why) {
        if (err != nullptr) *err = std::move(why);
        return std::nullopt;
    };
    auto text = [&](const char* key) {
        const JsonValue* v = doc.find(key);
        return v != nullptr && v->is_string() ? v->as_string() : std::string();
    };
    if (!is_bench_suite(doc)) {
        return fail("missing or unknown \"schema\" (want \"balsort-bench-v1\")");
    }
    BenchSuiteView suite;
    suite.bench = text("bench");
    if (suite.bench.empty()) return fail("missing \"bench\" id");
    suite.git_describe = text("git_describe");
    suite.timestamp = text("timestamp");
    if (const JsonValue* smoke = doc.find("smoke"); smoke != nullptr && smoke->is_bool()) {
        suite.smoke = smoke->as_bool();
    }
    const JsonValue* results = doc.find("results");
    if (results == nullptr || !results->is_array()) return fail("missing \"results\" array");
    for (const JsonValue& r : results->items()) {
        BenchRowView row;
        const JsonValue* variant = r.find("variant");
        if (variant == nullptr || !variant->is_string() || variant->as_string().empty()) {
            return fail("results[" + std::to_string(suite.rows.size()) +
                        "] has no \"variant\" id");
        }
        row.variant = variant->as_string();
        row.config = r.find("config");
        row.model = r.find("model");
        row.invariants = r.find("invariants");
        const std::string where = "\"" + row.variant + "\"";
        std::string why = check_group(row.config, where, "config", kBenchConfigKeys, false);
        if (why.empty()) why = check_group(row.model, where, "model", kBenchModelKeys, false);
        if (why.empty()) {
            why = check_group(row.invariants, where, "invariants", kBenchInvariantKeys, true);
        }
        if (!why.empty()) return fail(why);
        if (const JsonValue* w = r.find("wall_seconds"); w != nullptr && w->is_number()) {
            row.wall_seconds = w;
        }
        suite.rows.push_back(std::move(row));
    }
    return suite;
}

} // namespace balsort
