// Tests for the observability layer (DESIGN.md §11): the span tracer and
// its Chrome trace_event export, the metrics registry (counters, gauges,
// log-scale histograms), the install guards, run manifests, and the
// end-to-end acceptance run: a D = 8 file-backed sort whose trace contains
// phase spans, per-disk engine op spans, and prefetch async pairs, and
// whose metrics snapshot carries per-disk latency histograms.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/balance_sort.hpp"
#include "core/hier_sort.hpp"
#include "obs/bench_result.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/run_manifest.hpp"
#include "obs/tracer.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

// Minimal recursive-descent JSON syntax checker — enough to assert the
// exporters emit well-formed documents (CI additionally runs them through
// `python3 -m json.tool`).
class JsonChecker {
public:
    explicit JsonChecker(std::string_view s) : s_(s) {}
    bool valid() {
        skip_ws();
        if (!value()) return false;
        skip_ws();
        return pos_ == s_.size();
    }

private:
    std::string_view s_;
    std::size_t pos_ = 0;

    void skip_ws() {
        while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                    s_[pos_] == '\r')) {
            ++pos_;
        }
    }
    bool eat(char c) {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }
    bool literal(std::string_view lit) {
        if (s_.substr(pos_, lit.size()) == lit) {
            pos_ += lit.size();
            return true;
        }
        return false;
    }
    bool string() {
        if (!eat('"')) return false;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                if (pos_ + 1 >= s_.size()) return false;
                pos_ += 2;
            } else {
                ++pos_;
            }
        }
        return eat('"');
    }
    bool number() {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
            ++pos_;
        }
        return pos_ > start;
    }
    bool object() {
        if (!eat('{')) return false;
        skip_ws();
        if (eat('}')) return true;
        while (true) {
            skip_ws();
            if (!string()) return false;
            skip_ws();
            if (!eat(':')) return false;
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (eat('}')) return true;
            if (!eat(',')) return false;
        }
    }
    bool array() {
        if (!eat('[')) return false;
        skip_ws();
        if (eat(']')) return true;
        while (true) {
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (eat(']')) return true;
            if (!eat(',')) return false;
        }
    }
    bool value() {
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
            case '{': return object();
            case '[': return array();
            case '"': return string();
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            default: return number();
        }
    }
};

bool contains(const std::string& hay, std::string_view needle) {
    return hay.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(TracerTest, ExportsAllEventKindsAsValidJson) {
    Tracer t;
    const std::uint32_t lane = t.lane("phase:test");
    {
        Span s(&t, "work", "phase", lane);
        s.arg("bucket", 3);
        s.arg("records", 1000);
    }
    t.instant("transient_retry", "fault", t.lane("faults"), {{"disk", 2}});
    const std::uint64_t id = t.next_async_id();
    t.async_begin("prefetch", "prefetch", id, t.lane("prefetch"), {{"blocks", 8}});
    t.async_end("prefetch", "prefetch", id, t.lane("prefetch"));
    EXPECT_EQ(t.event_count(), 4u);

    std::ostringstream os;
    t.write_chrome_trace(os);
    const std::string json = os.str();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_TRUE(contains(json, "\"traceEvents\""));
    EXPECT_TRUE(contains(json, "\"ph\":\"X\""));
    EXPECT_TRUE(contains(json, "\"ph\":\"i\""));
    EXPECT_TRUE(contains(json, "\"ph\":\"b\""));
    EXPECT_TRUE(contains(json, "\"ph\":\"e\""));
    EXPECT_TRUE(contains(json, "\"bucket\":3"));
    EXPECT_TRUE(contains(json, "\"records\":1000"));
    // Lanes are labelled via thread_name metadata events.
    EXPECT_TRUE(contains(json, "thread_name"));
    EXPECT_TRUE(contains(json, "phase:test"));
}

TEST(TracerTest, LanesAreIdempotentAndDistinct) {
    Tracer t;
    const std::uint32_t a = t.lane("alpha");
    const std::uint32_t b = t.lane("beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(t.lane("alpha"), a);
    EXPECT_EQ(t.lane("beta"), b);
    EXPECT_GE(a, 1000u); // synthetic rows live above real-thread rows
}

TEST(TracerTest, PerThreadBuffersMergeOnExport) {
    Tracer t;
    auto emit_some = [&t](int n) {
        for (int i = 0; i < n; ++i) Span s(&t, "tick", "test");
    };
    std::thread w1(emit_some, 5), w2(emit_some, 7);
    emit_some(3);
    w1.join();
    w2.join();
    EXPECT_EQ(t.event_count(), 15u);
    std::ostringstream os;
    t.write_chrome_trace(os);
    EXPECT_TRUE(JsonChecker(os.str()).valid());
}

std::string trace_json(const Tracer& t) {
    std::ostringstream os;
    t.write_chrome_trace(os);
    return os.str();
}

std::string flight_json() {
    std::ostringstream os;
    FlightRecorder::instance().dump(os);
    return os.str();
}

/// The events named `name` in a Chrome trace document (throws if the
/// document does not parse).
std::vector<JsonValue> events_named(const std::string& json, const std::string& name) {
    std::vector<JsonValue> out;
    const JsonValue doc = JsonValue::parse(json).value();
    for (const JsonValue& ev : doc.find("traceEvents")->items()) {
        if (ev.find("name")->as_string() == name) out.push_back(ev);
    }
    return out;
}

TEST(TracerTest, UnboundedRingKeepsEveryEventPastOneChunk) {
    Tracer t;
    constexpr std::size_t kEvents = 3 * Tracer::kChunkEvents;
    auto emit = [&t] {
        for (std::size_t i = 0; i < kEvents; ++i) t.instant("tick", "test", 0, {{"i", static_cast<std::int64_t>(i)}});
    };
    std::thread other(emit);
    emit();
    other.join();
    EXPECT_EQ(t.event_count(), 2 * kEvents);
    // Each thread's events come out whole and in emission order.
    std::map<double, double> next_i; // tid -> expected arg
    for (const JsonValue& ev : events_named(trace_json(t), "tick")) {
        EXPECT_EQ(ev.find("args")->find("i")->as_double(), next_i[ev.find("tid")->as_double()]++);
    }
    ASSERT_EQ(next_i.size(), 2u);
    for (const auto& [tid, n] : next_i) EXPECT_EQ(n, static_cast<double>(kEvents)) << tid;
}

TEST(TracerTest, NullTracerSpanIsNoOp) {
    Span s(nullptr, "nothing", "test");
    s.arg("ignored", 1); // must not crash
    EXPECT_EQ(tracer(), nullptr); // nothing installed by default
}

TEST(TracerTest, InstallGuardPublishesAndRestores) {
    ASSERT_EQ(tracer(), nullptr);
    Tracer outer;
    {
        TracerInstallGuard g(&outer);
        EXPECT_EQ(tracer(), &outer);
        {
            // Null guard: a no-op that leaves the ambient install visible.
            TracerInstallGuard noop(nullptr);
            EXPECT_EQ(tracer(), &outer);
        }
        EXPECT_EQ(tracer(), &outer);
        Tracer inner;
        {
            TracerInstallGuard g2(&inner);
            EXPECT_EQ(tracer(), &inner);
        }
        EXPECT_EQ(tracer(), &outer);
    }
    EXPECT_EQ(tracer(), nullptr);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, WrapKeepsExactlyTheNewestRingSlotsNotes) {
    constexpr std::int64_t kNotes = FlightRecorder::kRingSlots + 100;
    const std::int64_t run = obs_now_us(); // tells this run's notes from a repeat's
    std::thread([run] {
        for (std::int64_t i = 0; i < kNotes; ++i) flight_note("test.wrap", "test", i, run);
    }).join();
    std::vector<double> kept;
    for (const JsonValue& ev : events_named(flight_json(), "test.wrap")) {
        if (ev.find("args")->find("a1")->as_double() == static_cast<double>(run)) {
            kept.push_back(ev.find("args")->find("a0")->as_double());
        }
    }
    ASSERT_EQ(kept.size(), FlightRecorder::kRingSlots);
    std::sort(kept.begin(), kept.end());
    for (std::size_t k = 0; k < kept.size(); ++k) EXPECT_EQ(kept[k], static_cast<double>(100 + k));
}

TEST(FlightRecorderTest, DumpConcurrentWithNotesIsValidJson) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (std::int64_t w = 0; w < 4; ++w) {
        writers.emplace_back([&stop, w] {
            for (std::int64_t i = 0; !stop.load(); ++i) flight_note("test.concurrent", "test", w, i);
        });
    }
    for (int d = 0; d < 20; ++d) EXPECT_TRUE(JsonChecker(flight_json()).valid());
    stop.store(true);
    for (std::thread& w : writers) w.join();
}

TEST(FlightRecorderTest, SharesTheTracersTimeAxis) {
    // The recorder's first use comes well before the tracer is built; a
    // per-recorder clock base would shift one export against the other.
    flight_note("test.axis.warm", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Tracer t;
    flight_note("test.axis", "test");
    t.instant("test.axis", "test");
    const auto a = events_named(flight_json(), "test.axis");
    const auto b = events_named(trace_json(t), "test.axis");
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(b.size(), 1u);
    EXPECT_NEAR(a.back().find("ts")->as_double(), b[0].find("ts")->as_double(), 1000.0);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketMath) {
    EXPECT_EQ(Histogram::bucket_of(0), 0);
    EXPECT_EQ(Histogram::bucket_of(1), 1);
    EXPECT_EQ(Histogram::bucket_of(2), 2);
    EXPECT_EQ(Histogram::bucket_of(3), 2);
    EXPECT_EQ(Histogram::bucket_of(4), 3);
    EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64);
    EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
    EXPECT_EQ(Histogram::bucket_upper_bound(1), 1u);
    EXPECT_EQ(Histogram::bucket_upper_bound(2), 3u);
    EXPECT_EQ(Histogram::bucket_upper_bound(64), ~std::uint64_t{0});
}

TEST(HistogramTest, RecordAndSummaries) {
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull}) h.record(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 106u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 106.0 / 5.0);
    EXPECT_EQ(h.bucket_count(0), 1u); // the 0
    EXPECT_EQ(h.bucket_count(2), 2u); // 2 and 3
    // p50 of {0,1,2,3,100}: the 3rd sample (2) -> bucket [2,3] upper bound.
    EXPECT_EQ(h.percentile_upper_bound(50), 3u);
    // p100 lands in 100's bucket [64,127].
    EXPECT_EQ(h.percentile_upper_bound(100), 127u);
    EXPECT_EQ(h.percentile_upper_bound(0), 0u);
}

TEST(MetricsRegistryTest, InstrumentsAreStableAndSnapshotIsValidJson) {
    MetricsRegistry reg;
    Counter& c = reg.counter("ops");
    c.add(41);
    reg.counter("ops").add(1); // same instrument
    EXPECT_EQ(c.value(), 42u);
    reg.gauge("depth").set(-7);
    reg.histogram("lat_us").record(150);

    const std::string json = reg.to_json();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_TRUE(contains(json, "\"counters\""));
    EXPECT_TRUE(contains(json, "\"ops\":42"));
    EXPECT_TRUE(contains(json, "\"depth\":-7"));
    EXPECT_TRUE(contains(json, "\"lat_us\""));
    EXPECT_TRUE(contains(json, "\"count\":1"));
    EXPECT_TRUE(contains(json, "\"buckets\""));
}

TEST(MetricsRegistryTest, InstallGuardPublishesAndRestores) {
    ASSERT_EQ(metrics(), nullptr);
    MetricsRegistry reg;
    {
        MetricsInstallGuard g(&reg);
        EXPECT_EQ(metrics(), &reg);
        {
            MetricsInstallGuard noop(nullptr);
            EXPECT_EQ(metrics(), &reg);
        }
        EXPECT_EQ(metrics(), &reg);
    }
    EXPECT_EQ(metrics(), nullptr);
}

// ---------------------------------------------------------------------------
// RunManifest
// ---------------------------------------------------------------------------

TEST(RunManifestTest, BundlesConfigReportAndMetrics) {
    MetricsRegistry reg;
    reg.counter("pool.hits").add(9);
    RunManifest man;
    man.tool = "test";
    man.algo = "balance";
    man.cfg = PdmConfig{.n = 4096, .m = 512, .d = 4, .b = 16, .p = 2};
    man.report.io.read_steps = 10;
    man.report.io.write_steps = 5;
    man.report.levels = 2;
    man.metrics = &reg;

    const std::string json = man.to_json();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    for (const char* key : {"\"tool\":\"test\"", "\"algo\":\"balance\"", "\"config\"", "\"io\"",
                            "\"report\"", "\"phases\"", "\"balance\"", "\"metrics\"",
                            "\"pool.hits\":9"}) {
        EXPECT_TRUE(contains(json, key)) << key;
    }
    // Without a registry the metrics section is omitted, still valid JSON.
    man.metrics = nullptr;
    const std::string bare = man.to_json();
    EXPECT_TRUE(JsonChecker(bare).valid()) << bare;
    EXPECT_FALSE(contains(bare, "\"metrics\""));
}

// ---------------------------------------------------------------------------
// Shared JSON plumbing (obs/json.hpp): escaping and the DOM parser.
// ---------------------------------------------------------------------------

std::string escaped(std::string_view s) {
    std::ostringstream os;
    write_json_escaped(os, s);
    return os.str();
}

TEST(JsonEscapeTest, QuotesBackslashesAndControlChars) {
    EXPECT_EQ(escaped("plain"), "plain");
    EXPECT_EQ(escaped("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(escaped("C:\\tmp\\x"), "C:\\\\tmp\\\\x");
    EXPECT_EQ(escaped(std::string_view("\x01\n\x1f", 3)), "\\u0001\\u000a\\u001f");
    // Embedded in a document, the result must parse back to the original.
    const std::string nasty = "a\"b\\c\nd\te\x02";
    const std::string doc = "{\"k\":\"" + escaped(nasty) + "\"}";
    auto v = JsonValue::parse(doc);
    ASSERT_TRUE(v.has_value()) << doc;
    ASSERT_NE(v->find("k"), nullptr);
    EXPECT_EQ(v->find("k")->as_string(), nasty);
}

TEST(JsonValueTest, ParsesScalarsArraysObjects) {
    auto v = JsonValue::parse(R"({"a":1,"b":-2.5,"c":"s","d":[true,false,null],"e":{"f":3}})");
    ASSERT_TRUE(v.has_value());
    ASSERT_TRUE(v->is_object());
    EXPECT_EQ(v->find("a")->as_double(), 1.0);
    EXPECT_EQ(v->find("a")->raw_number(), "1");
    EXPECT_EQ(v->find("b")->as_double(), -2.5);
    EXPECT_EQ(v->find("b")->raw_number(), "-2.5");
    EXPECT_EQ(v->find("c")->as_string(), "s");
    ASSERT_TRUE(v->find("d")->is_array());
    ASSERT_EQ(v->find("d")->items().size(), 3u);
    EXPECT_TRUE(v->find("d")->items()[0].as_bool());
    EXPECT_EQ(v->find("d")->items()[2].kind(), JsonValue::Kind::kNull);
    ASSERT_TRUE(v->find("e")->is_object());
    EXPECT_EQ(v->find("e")->find("f")->raw_number(), "3");
    EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
    for (const char* bad : {"", "{", "[1,", "{\"a\":}", "{\"a\":1,}", "tru", "1 2",
                            "{\"a\" 1}", "\"unterminated", "[1] trailing"}) {
        EXPECT_FALSE(JsonValue::parse(bad).has_value()) << bad;
    }
}

TEST(JsonValueTest, RawNumberTokensSurviveVerbatim) {
    // The byte-exact channel benchgate relies on: tokens are preserved
    // exactly as written, even when they denote the same double.
    auto v = JsonValue::parse(R"([1327, 1327.0, 1.327e3, 0.25])");
    ASSERT_TRUE(v.has_value());
    const auto& xs = v->items();
    ASSERT_EQ(xs.size(), 4u);
    EXPECT_EQ(xs[0].raw_number(), "1327");
    EXPECT_EQ(xs[1].raw_number(), "1327.0");
    EXPECT_EQ(xs[2].raw_number(), "1.327e3");
    EXPECT_EQ(xs[3].raw_number(), "0.25");
    EXPECT_EQ(xs[0].as_double(), xs[1].as_double());
}

TEST(JsonDoubleTest, DeterministicShortestRoundTrip) {
    auto emit = [](double d) {
        std::ostringstream os;
        write_json_double(os, d);
        return os.str();
    };
    EXPECT_EQ(emit(0.25), "0.25");
    EXPECT_EQ(emit(0), "0");
    EXPECT_EQ(emit(-3), "-3");
    EXPECT_EQ(emit(222860), "222860"); // integer-valued doubles print as ints
    const double pi = 3.141592653589793;
    const std::string s = emit(pi);
    EXPECT_EQ(std::stod(s), pi); // round-trips exactly
    EXPECT_EQ(emit(pi), s);      // and deterministically
}

// ---------------------------------------------------------------------------
// Escaping end-to-end: hostile strings through the real emitters.
// ---------------------------------------------------------------------------

TEST(RunManifestTest, EscapesHostileToolAndAlgoNames) {
    RunManifest man;
    man.tool = "tool \"v1\"\\bin";
    man.algo = "bal\nance\x01";
    man.cfg = PdmConfig{.n = 1024, .m = 256, .d = 2, .b = 16, .p = 1};
    const std::string json = man.to_json();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    auto v = JsonValue::parse(json);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->find("tool")->as_string(), man.tool);
    EXPECT_EQ(v->find("algo")->as_string(), man.algo);
}

TEST(MetricsRegistryTest, EscapesHostileInstrumentNames) {
    MetricsRegistry reg;
    reg.counter("ops \"quoted\"").add(1);
    reg.gauge("path\\depth").set(2);
    reg.histogram("lat\nus").record(3);
    const std::string json = reg.to_json();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    auto v = JsonValue::parse(json);
    ASSERT_TRUE(v.has_value());
    ASSERT_NE(v->find("counters"), nullptr);
    EXPECT_NE(v->find("counters")->find("ops \"quoted\""), nullptr);
    EXPECT_NE(v->find("gauges")->find("path\\depth"), nullptr);
    EXPECT_NE(v->find("histograms")->find("lat\nus"), nullptr);
}

// ---------------------------------------------------------------------------
// Canonical bench schema (obs/bench_result.hpp).
// ---------------------------------------------------------------------------

TEST(BenchResultTest, SuiteEmitsSchemaAndParsesBack) {
    BenchSuite suite;
    suite.bench = "unit";
    suite.git_describe = "v1-2-gdeadbee \"dirty\"";
    suite.timestamp = "2026-08-05T00:00:00Z";
    suite.smoke = true;

    SortReport rep;
    rep.io.read_steps = 70;
    rep.io.write_steps = 57;
    rep.io.blocks_read = 560;
    rep.io.blocks_written = 456;
    rep.pram_time = 222860;
    rep.work_ratio = 1.75;
    rep.balance.invariant1_held = true;
    rep.balance.invariant2_held = false;
    PdmConfig cfg{.n = 4096, .m = 512, .d = 4, .b = 16, .p = 2};
    suite.results.push_back(BenchResult::from_report("unit", "defaults", cfg, rep, 0.125));

    const std::string json = suite.to_json();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    auto v = JsonValue::parse(json);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->find("schema")->as_string(), "balsort-bench-v1");
    EXPECT_EQ(v->find("bench")->as_string(), "unit");
    EXPECT_EQ(v->find("git_describe")->as_string(), suite.git_describe);
    ASSERT_TRUE(v->find("results")->is_array());
    ASSERT_EQ(v->find("results")->items().size(), 1u);
    const JsonValue& row = v->find("results")->items()[0];
    EXPECT_EQ(row.find("variant")->as_string(), "defaults");
    const JsonValue* model = row.find("model");
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->find("io_steps")->raw_number(), "127");
    EXPECT_EQ(model->find("read_steps")->raw_number(), "70");
    EXPECT_EQ(model->find("write_steps")->raw_number(), "57");
    EXPECT_EQ(model->find("blocks")->raw_number(), "1016");
    EXPECT_EQ(model->find("pram_time")->raw_number(), "222860");
    EXPECT_EQ(model->find("work_ratio")->raw_number(), "1.75");
    EXPECT_TRUE(row.find("invariants")->find("invariant1")->as_bool());
    EXPECT_FALSE(row.find("invariants")->find("invariant2")->as_bool());
    EXPECT_EQ(row.find("config")->find("d")->raw_number(), "4");
    EXPECT_EQ(row.find("wall_seconds")->as_double(), 0.125);
}

// ---------------------------------------------------------------------------
// Balance timeline (core/balance.hpp recorder + manifest embedding).
// ---------------------------------------------------------------------------

TEST(BalanceTimelineTest, RecordsEveryTrackOnFileBackedSort) {
    PdmConfig cfg{.n = 1 << 14, .m = 1 << 10, .d = 8, .b = 16, .p = 2};
    DiskArray disks(cfg.d, cfg.b, DiskBackend::kFile,
                    std::filesystem::temp_directory_path().string());
    auto input = generate(Workload::kZipf, cfg.n, 11);

    MetricsRegistry metrics_reg;
    BalanceTimeline timeline;
    SortJobConfig opt;
    opt.balance_opts.timeline = &timeline;
    opt.balance_opts.check_invariants = true;
    SortReport rep;
    {
        MetricsInstallGuard mg(&metrics_reg);
        auto sorted = balance_sort_records(disks, input, cfg, opt, &rep);
        ASSERT_TRUE(is_sorted_permutation_of(input, sorted));
    }

    // Every Balance pass contributed tracks, and the totals reconcile with
    // the aggregate BalanceStats.
    ASSERT_FALSE(timeline.tracks.empty());
    EXPECT_GT(timeline.passes, 0u);
    EXPECT_EQ(timeline.tracks.size(), rep.balance.tracks);
    std::uint64_t direct = 0, matched = 0, deferred = 0, rounds = 0;
    for (const BalanceTrackSample& t : timeline.tracks) {
        // Invariant 2 held (checked above), so its observable never exceeds 1.
        EXPECT_LE(t.max_a, 1u);
        EXPECT_LT(t.pass, timeline.passes);
        direct += t.direct;
        matched += t.matched;
        deferred += t.deferred;
        rounds += t.rounds;
    }
    EXPECT_EQ(direct, rep.balance.direct_blocks);
    EXPECT_EQ(matched, rep.balance.matched_blocks);
    EXPECT_EQ(deferred, rep.balance.deferred_blocks);
    EXPECT_EQ(rounds, rep.balance.rearrange_rounds);

    // The JSON dump is valid and self-describing.
    const std::string json = timeline.to_json();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    auto v = JsonValue::parse(json);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->find("tracks")->items().size(), timeline.tracks.size());

    // The manifest embeds it under "balance_timeline".
    RunManifest man;
    man.tool = "test";
    man.algo = "balance";
    man.cfg = cfg;
    man.report = rep;
    man.timeline = &timeline;
    const std::string mjson = man.to_json();
    EXPECT_TRUE(JsonChecker(mjson).valid()) << mjson;
    auto mv = JsonValue::parse(mjson);
    ASSERT_TRUE(mv.has_value());
    const JsonValue* tl = mv->find("balance_timeline");
    ASSERT_NE(tl, nullptr);
    EXPECT_EQ(tl->find("tracks")->items().size(), timeline.tracks.size());

    // The metrics mirror saw the same tracks.
    EXPECT_EQ(metrics_reg.counter("balance.tracks").value(), rep.balance.tracks);
    EXPECT_EQ(metrics_reg.histogram("balance.rebalance_rounds").count(), rep.balance.tracks);
    EXPECT_EQ(metrics_reg.histogram("balance.track_skew").count(), rep.balance.tracks);
    EXPECT_EQ(metrics_reg.counter("balance.matched_blocks").value(),
              rep.balance.matched_blocks);
}

// ---------------------------------------------------------------------------
// Acceptance: end-to-end instrumented sort, D = 8, file-backed, engine on.
// ---------------------------------------------------------------------------

TEST(ObservabilityAcceptance, FileBackedSortEmitsSpansPairsAndHistograms) {
    PdmConfig cfg{.n = 1 << 14, .m = 1 << 10, .d = 8, .b = 16, .p = 4};
    DiskArray disks(cfg.d, cfg.b, DiskBackend::kFile,
                    std::filesystem::temp_directory_path().string());
    auto input = generate(Workload::kUniform, cfg.n, 42);

    Tracer tracer;
    MetricsRegistry metrics_reg;
    SortJobConfig opt; // file-backed: the sort runs on the worker executor
    opt.obs_policy.trace = &tracer;
    opt.obs_policy.metrics = &metrics_reg;
    SortReport rep;
    auto sorted = balance_sort_records(disks, input, cfg, opt, &rep);
    ASSERT_TRUE(is_sorted_permutation_of(input, sorted));

    std::ostringstream os;
    tracer.write_chrome_trace(os);
    const std::string trace = os.str();
    ASSERT_TRUE(JsonChecker(trace).valid());

    // The top-level sort span and the four phase lanes.
    EXPECT_TRUE(contains(trace, "\"name\":\"balance_sort\""));
    EXPECT_TRUE(contains(trace, "\"cat\":\"sort\""));
    EXPECT_TRUE(contains(trace, "\"cat\":\"phase\""));
    EXPECT_TRUE(contains(trace, "\"name\":\"pivot\""));
    EXPECT_TRUE(contains(trace, "\"name\":\"balance\""));
    EXPECT_TRUE(contains(trace, "\"name\":\"base_case\""));
    EXPECT_TRUE(contains(trace, "\"io_steps\""));
    // Per-disk engine op spans on their own lanes.
    EXPECT_TRUE(contains(trace, "\"cat\":\"io\""));
    EXPECT_TRUE(contains(trace, "\"name\":\"read\""));
    EXPECT_TRUE(contains(trace, "\"name\":\"write\""));
    EXPECT_TRUE(contains(trace, "disk 0 io"));
    EXPECT_TRUE(contains(trace, "disk 7 io"));
    // Prefetch issue/consume async pairs (double buffering always engages
    // on the async backend; cross-bucket staging rides the same mechanism).
    EXPECT_TRUE(contains(trace, "\"cat\":\"prefetch\""));
    EXPECT_TRUE(contains(trace, "\"ph\":\"b\""));
    EXPECT_TRUE(contains(trace, "\"ph\":\"e\""));
    EXPECT_GT(rep.phases.staged_prefetches, 0u);
    EXPECT_TRUE(contains(trace, "\"cat\":\"staging\""));

    // Metrics snapshot: per-disk latency histograms with real samples,
    // engine queue depth, pool instruments.
    const std::string mjson = metrics_reg.to_json();
    ASSERT_TRUE(JsonChecker(mjson).valid());
    for (std::uint32_t d = 0; d < cfg.d; ++d) {
        const std::string tag = std::to_string(d);
        EXPECT_TRUE(contains(mjson, "\"disk" + tag + ".read_latency_us\""));
        EXPECT_TRUE(contains(mjson, "\"disk" + tag + ".write_latency_us\""));
    }
    EXPECT_TRUE(contains(mjson, "\"engine.queue_depth\""));
    EXPECT_TRUE(contains(mjson, "\"pool.acquire_records\""));
    EXPECT_GT(metrics_reg.histogram("disk0.read_latency_us").count(), 0u);
    EXPECT_GT(metrics_reg.histogram("disk0.write_latency_us").count(), 0u);
    EXPECT_GT(metrics_reg.histogram("engine.queue_depth").count(), 0u);
    EXPECT_GT(metrics_reg.counter("pool.hits").value() +
                  metrics_reg.counter("pool.misses").value(),
              0u);

    // File round-trips parse too.
    const std::string tmp =
        (std::filesystem::temp_directory_path() / "balsort_obs_trace.json").string();
    ASSERT_TRUE(tracer.write_chrome_trace_file(tmp));
    std::ifstream in(tmp);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_TRUE(JsonChecker(buf.str()).valid());
    std::filesystem::remove(tmp);
}

// hier_sort passes its ObsPolicy unchanged into the SortJobConfig it
// builds, so the sort over the simulated lanes reports to the caller's
// tracer like a plain balance_sort.
TEST(ObservabilityAcceptance, HierSortObsPolicyReachesTheTracer) {
    Tracer tracer;
    HierSortConfig hc;
    hc.h = 8;
    hc.obs.tracer(&tracer);
    const auto input = generate(Workload::kUniform, 4096, 3);
    HierSortReport rep;
    const auto sorted = hier_sort(input, hc, &rep);
    ASSERT_TRUE(is_sorted_permutation_of(input, sorted));

    std::ostringstream os;
    tracer.write_chrome_trace(os);
    const std::string trace = os.str();
    ASSERT_TRUE(JsonChecker(trace).valid());
    EXPECT_TRUE(contains(trace, "\"name\":\"balance_sort\""));
    EXPECT_TRUE(contains(trace, "\"name\":\"pivot\""));
    EXPECT_TRUE(contains(trace, "\"name\":\"balance\""));
    EXPECT_TRUE(contains(trace, "\"name\":\"base_case\""));
    EXPECT_EQ(balsort::tracer(), nullptr); // the sort's install guard restored the slot
}

// Both executors report through the one recovery ladder: a faulty sort on
// the inline executor emits fault instants, and the same memory-backed
// array switched to the worker executor records per-op latency histograms
// and the same kind of instants.
TEST(ObservabilityAcceptance, SyncPathHistogramsAndFaultInstants) {
    PdmConfig cfg{.n = 1 << 12, .m = 1 << 9, .d = 4, .b = 8, .p = 2};
    FaultTolerance ft;
    ft.inject.seed = 7;
    ft.inject.read_transient_rate = 0.05;
    ft.inject.write_transient_rate = 0.05;
    DiskArray disks(cfg.d, cfg.b, DiskBackend::kMemory, ".", Constraint::kIndependentDisks, ft);
    auto input = generate(Workload::kUniform, cfg.n, 5);

    struct Observed {
        Tracer tracer;
        MetricsRegistry metrics;
        std::uint64_t retries = 0;
        std::string trace;
    };
    auto observed_sort = [&](bool workers, Observed& o) {
        const std::uint64_t retries_before = disks.stats().transient_retries;
        {
            TracerInstallGuard tg(&o.tracer);
            MetricsInstallGuard mg(&o.metrics);
            // Enabled under the guards: the engine binds its instruments
            // at construction.
            disks.set_async(workers);
            auto sorted = balance_sort_records(disks, input, cfg, SortJobConfig{}, nullptr);
            disks.set_async(false);
            ASSERT_TRUE(is_sorted_permutation_of(input, sorted));
        }
        o.retries = disks.stats().transient_retries - retries_before;
        std::ostringstream os;
        o.tracer.write_chrome_trace(os);
        o.trace = os.str();
        ASSERT_TRUE(JsonChecker(o.trace).valid());
    };
    Observed inline_run, worker_run;
    observed_sort(/*workers=*/false, inline_run);
    observed_sort(/*workers=*/true, worker_run);

    EXPECT_GT(worker_run.metrics.histogram("disk0.read_latency_us").count(), 0u);
    EXPECT_GT(worker_run.metrics.histogram("disk0.write_latency_us").count(), 0u);
    for (const Observed* o : {&inline_run, &worker_run}) {
        SCOPED_TRACE(o == &inline_run ? "inline" : "workers");
        ASSERT_GT(o->retries, 0u);
        EXPECT_TRUE(contains(o->trace, "\"cat\":\"fault\""));
        EXPECT_TRUE(contains(o->trace, "\"name\":\"transient_retry\""));
        EXPECT_TRUE(contains(o->trace, "\"s\":\"t\"")); // thread-scoped instants
    }
}

} // namespace
} // namespace balsort

// ---------------------------------------------------------------------------
// Sampling profiler (obs/profiler.hpp, DESIGN.md §17).

// Fabricated stack frames for record_sample_for_test. External linkage +
// ENABLE_EXPORTS puts them in the dynamic symbol table, so dladdr
// symbolization resolves real names; extern "C" keeps those names exact.
extern "C" {
int balsort_prof_frame_root() { return 1; }
int balsort_prof_frame_mid() { return 2; }
int balsort_prof_frame_leaf() { return 3; }
// A leaf with no calls and no memory traffic, so a sample taken while it
// runs can only be attributed to it.
__attribute__((noinline)) std::uint64_t balsort_prof_spin(std::uint64_t iters) {
    std::uint64_t x = iters;
    for (std::uint64_t i = 0; i < iters; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        asm volatile("" : "+r"(x));
    }
    return x;
}
}

namespace balsort {
namespace {

void* frame_addr(int (*fn)()) { return reinterpret_cast<void*>(fn); }

/// Runs balsort_prof_spin for `cpu_ms` of process CPU time under `p`. The
/// usleep(0) between spins lets a runtime that defers signals to its next
/// interceptor (TSan) deliver the pending SIGPROF.
void spin_sampled(Profiler& p, long cpu_ms) {
    p.start();
    const std::clock_t until = std::clock() + cpu_ms * (CLOCKS_PER_SEC / 1000);
    while (std::clock() < until) {
        (void)balsort_prof_spin(200'000);
        ::usleep(0);
    }
    p.stop();
}

ProfilerConfig small_profiler() { return {.ring_slots = 1024, .max_threads = 4}; }

TEST(ProfilerTest, FoldedStacksAggregateRootFirstAndDeterministically) {
    ProfilerConfig cfg;
    cfg.ring_slots = 64;
    cfg.max_threads = 2;
    Profiler p(cfg);
    // backtrace order is leaf-first; folded output must flip to root-first.
    void* deep[3] = {frame_addr(&balsort_prof_frame_leaf), frame_addr(&balsort_prof_frame_mid),
                     frame_addr(&balsort_prof_frame_root)};
    void* shallow[1] = {frame_addr(&balsort_prof_frame_root)};
    for (int i = 0; i < 3; ++i) p.record_sample_for_test(deep, 3);
    p.record_sample_for_test(shallow, 1);

    const std::string folded = p.folded_string();
    EXPECT_EQ(folded, p.folded_string()); // byte-identical re-dump

    // Two unique stacks, descending count: the 3-sample stack first.
    std::istringstream lines(folded);
    std::string first, second, extra;
    ASSERT_TRUE(static_cast<bool>(std::getline(lines, first)));
    ASSERT_TRUE(static_cast<bool>(std::getline(lines, second)));
    EXPECT_FALSE(static_cast<bool>(std::getline(lines, extra)));
    EXPECT_TRUE(first.size() > 2 && first.substr(first.size() - 2) == " 3") << first;
    EXPECT_TRUE(second.size() > 2 && second.substr(second.size() - 2) == " 1") << second;
    // Root-first ordering with dladdr-resolved names.
    EXPECT_TRUE(contains(first, "balsort_prof_frame_root;")) << first;
    EXPECT_TRUE(contains(first, ";balsort_prof_frame_leaf ")) << first;
    EXPECT_TRUE(contains(second, "balsort_prof_frame_root ")) << second;
}

TEST(ProfilerTest, RingWrapOverwritesOldestButCountsEverySample) {
    ProfilerConfig cfg;
    cfg.ring_slots = 8; // tiny ring: 20 samples force wrap-around
    cfg.max_threads = 1;
    Profiler p(cfg);
    void* frames[2] = {frame_addr(&balsort_prof_frame_leaf),
                       frame_addr(&balsort_prof_frame_root)};
    for (int i = 0; i < 20; ++i) p.record_sample_for_test(frames, 2);
    EXPECT_EQ(p.sample_count(), 20u);
    EXPECT_EQ(p.dropped_samples(), 0u);
    // Only ring_slots samples survive; all share the one unique stack.
    const std::string folded = p.folded_string();
    EXPECT_TRUE(contains(folded, " 8\n")) << folded;
}

TEST(ProfilerTest, RingPoolExhaustionDropsInsteadOfBlocking) {
    ProfilerConfig cfg;
    cfg.ring_slots = 8;
    cfg.max_threads = 1; // one ring: the second thread must be turned away
    Profiler p(cfg);
    void* frames[1] = {frame_addr(&balsort_prof_frame_root)};
    p.record_sample_for_test(frames, 1); // claims the only ring
    std::thread other([&] { p.record_sample_for_test(frames, 1); });
    other.join();
    EXPECT_EQ(p.sample_count(), 1u);
    EXPECT_EQ(p.dropped_samples(), 1u);
}

TEST(ProfilerTest, StartStopNestAndSecondProfilerIsRejected) {
    Profiler p;
    p.start();
    p.start(); // nested: refcounted, not re-armed
    EXPECT_TRUE(p.running());
    Profiler q;
    EXPECT_THROW(q.start(), std::runtime_error); // one process-wide sampler
    p.stop();
    EXPECT_TRUE(p.running()); // inner stop only decrements
    p.stop();
    EXPECT_FALSE(p.running());
    q.start(); // slot free again
    q.stop();
}

TEST(ProfilerTest, LiveSamplingCapturesRealStacks) {
    ProfilerConfig cfg;
    cfg.hz = 997;
    Profiler p(cfg);
    p.start();
    // Burn CPU until a few SIGPROF ticks land (ITIMER_PROF counts CPU
    // time, so this cannot hang on an idle machine — only on a stopped
    // clock). Cap the spin to keep a worst-case bound.
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 2'000'000'000ull && p.sample_count() < 5; ++i) sink = sink + i;
    p.stop();
    EXPECT_GE(p.sample_count(), 5u);
    const std::string folded = p.folded_string();
    EXPECT_FALSE(folded.empty());
    // Every line is "stack count" with a positive trailing count.
    std::istringstream lines(folded);
    std::string line;
    while (std::getline(lines, line)) {
        const auto space = line.find_last_of(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_GT(std::stoull(line.substr(space + 1)), 0u) << line;
    }
}

TEST(ProfilerTest, EmitToTracerLandsSamplesOnProfileLanes) {
    ProfilerConfig cfg;
    cfg.ring_slots = 16;
    Profiler p(cfg);
    void* frames[2] = {frame_addr(&balsort_prof_frame_leaf),
                       frame_addr(&balsort_prof_frame_root)};
    for (int i = 0; i < 4; ++i) p.record_sample_for_test(frames, 2);

    Tracer tracer;
    EXPECT_EQ(p.emit_to_tracer(&tracer), 4u);
    EXPECT_EQ(p.emit_to_tracer(nullptr), 0u);
    std::ostringstream os;
    tracer.write_chrome_trace(os);
    const std::string trace = os.str();
    ASSERT_TRUE(JsonChecker(trace).valid());
    EXPECT_TRUE(contains(trace, "\"cat\":\"profile\""));
    EXPECT_TRUE(contains(trace, "profile ")); // per-thread lane metadata
    EXPECT_TRUE(contains(trace, "balsort_prof_frame_leaf")); // leaf-named instants

    // Live samples are named after the code they interrupted, never after
    // the sampler's own frames.
    Profiler live(small_profiler());
    spin_sampled(live, 50);
    Tracer live_tracer;
    ASSERT_GT(live.emit_to_tracer(&live_tracer), 0u);
    const JsonValue doc = JsonValue::parse(trace_json(live_tracer)).value();
    for (const JsonValue& ev : doc.find("traceEvents")->items()) {
        const std::string& name = ev.find("name")->as_string();
        EXPECT_FALSE(ev.find("ph")->as_string() == "i" && contains(name, "Profiler::")) << name;
    }
}

TEST(ProfilerTest, AttributesSamplesToTheInterruptedFunction) {
    Profiler p(small_profiler());
    spin_sampled(p, 200);
    ASSERT_GE(p.sample_count(), 20u);
    const std::string folded = p.folded_string();
    std::istringstream lines(folded);
    std::uint64_t total = 0, in_spin = 0;
    for (std::string line; std::getline(lines, line);) {
        const auto space = line.find_last_of(' ');
        ASSERT_NE(space, std::string::npos) << line;
        const std::string stack = line.substr(0, space);
        const std::uint64_t count = std::stoull(line.substr(space + 1));
        EXPECT_FALSE(contains(stack, "Profiler::")) << line;
        total += count;
        if (stack.substr(stack.find_last_of(';') + 1) == "balsort_prof_spin") in_spin += count;
    }
    EXPECT_GT(2 * in_spin, total) << folded; // the spin is the leaf of most samples
}

} // namespace
} // namespace balsort
