// EXP-T5-MATCH — Theorem 5: Fast-Partial-Match matches at least ceil(H'/4)
// of the (at most floor(H'/2)) offenders per round, deterministically for
// the derandomized engine; Rebalance therefore needs at most ~2 rounds per
// track. Includes google-benchmark microbenchmarks of the three engines.
//
// Flags: --smoke (CI-sized end-to-end sorts, microbenches skipped), --json
// PATH (canonical balsort-bench-v1 suite for benchgate; the gated rows are
// the three end-to-end strategy sorts — the microbenches are pure
// wall-clock and stay out of the gate). Our flags are stripped before
// benchmark::Initialize so google-benchmark never sees them.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/matching.hpp"
#include "util/math.hpp"
#include "util/stats.hpp"

using namespace balsort;
using namespace balsort::bench;

namespace {

std::vector<std::vector<std::uint32_t>> make_instance(std::uint32_t h, std::size_t u_size,
                                                      Xoshiro256& rng) {
    std::vector<std::vector<std::uint32_t>> cands(u_size);
    const std::uint32_t need = static_cast<std::uint32_t>(ceil_div(h, 2));
    for (auto& c : cands) {
        std::vector<std::uint32_t> all(h);
        for (std::uint32_t i = 0; i < h; ++i) all[i] = i;
        for (std::uint32_t i = 0; i < h; ++i) std::swap(all[i], all[i + rng.below(h - i)]);
        c.assign(all.begin(), all.begin() + need); // minimal candidate sets
        std::sort(c.begin(), c.end());
    }
    return cands;
}

void quality_table(bool smoke, BenchSuite& suite) {
    banner("EXP-T5-MATCH",
           "Theorem 5: Fast-Partial-Match matches >= ceil(|U|/4) per round (derandomized:\n"
           "deterministically); greedy matches ALL on paper-shaped instances; Rebalance\n"
           "converges in <= ~2 rounds per track.");
    Table t({"H'", "strategy", "matched/|U| (min)", "(mean)", "draws/|U|"});
    Xoshiro256 gen(1);
    for (std::uint32_t h : {8u, 16u, 32u, 64u}) {
        for (auto strat : {MatchStrategy::kGreedy, MatchStrategy::kRandomized,
                           MatchStrategy::kDerandomized}) {
            Summary frac, draws;
            for (int trial = 0; trial < 50; ++trial) {
                const std::size_t u = std::max<std::size_t>(1, h / 2);
                auto cands = make_instance(h, u, gen);
                Xoshiro256 rng(trial);
                auto r = fast_partial_match(cands, h, strat, rng);
                frac.add(static_cast<double>(r.n_matched) / static_cast<double>(u));
                draws.add(static_cast<double>(r.draws) / static_cast<double>(u));
            }
            t.add_row({Table::num(h), to_string(strat), Table::fixed(frac.min(), 2),
                       Table::fixed(frac.mean(), 2), Table::fixed(draws.mean(), 2)});
        }
    }
    t.print(std::cout);

    // End-to-end rebalance effort inside real sorts — the gated rows.
    Table e({"matching", "rearrange rounds/track (max)", "matched blocks", "deferred"});
    for (auto strat : {MatchStrategy::kGreedy, MatchStrategy::kRandomized,
                       MatchStrategy::kDerandomized}) {
        PdmConfig cfg = smoke ? PdmConfig{.n = 1 << 14, .m = 1 << 10, .d = 8, .b = 16, .p = 1}
                              : PdmConfig{.n = 1 << 17, .m = 1 << 11, .d = 8, .b = 16, .p = 1};
        SortJobConfig opt;
        opt.balance_opts.matching = strat;
        Timer timer;
        auto rep = run_balance_sort(cfg, Workload::kGaussian, 11, opt);
        suite.results.push_back(BenchResult::from_report(
            "t5_matching", std::string("match=") + to_string(strat), cfg, rep, timer.seconds()));
        e.add_row({to_string(strat), Table::num(rep.balance.max_rounds_per_track),
                   Table::num(rep.balance.matched_blocks),
                   Table::num(rep.balance.deferred_blocks)});
    }
    std::cout << "\nInside a full sort (gaussian, N=2^" << (smoke ? 14 : 17) << "):\n";
    e.print(std::cout);
}

void bm_match(benchmark::State& state, MatchStrategy strat) {
    const auto h = static_cast<std::uint32_t>(state.range(0));
    Xoshiro256 gen(7);
    auto cands = make_instance(h, std::max<std::size_t>(1, h / 2), gen);
    Xoshiro256 rng(13);
    for (auto _ : state) {
        auto r = fast_partial_match(cands, h, strat, rng);
        benchmark::DoNotOptimize(r.n_matched);
    }
    state.SetComplexityN(h);
}

BENCHMARK_CAPTURE(bm_match, greedy, MatchStrategy::kGreedy)->RangeMultiplier(2)->Range(8, 128);
BENCHMARK_CAPTURE(bm_match, randomized, MatchStrategy::kRandomized)
    ->RangeMultiplier(2)
    ->Range(8, 128);
BENCHMARK_CAPTURE(bm_match, derandomized, MatchStrategy::kDerandomized)
    ->RangeMultiplier(2)
    ->Range(8, 64); // O(H'^3): keep the exhaustive engine's range modest

} // namespace

int main(int argc, char** argv) {
    const bool smoke = smoke_flag(argc, argv);
    const char* json_path = json_flag(argc, argv);

    BenchSuite suite = make_suite("t5_matching", smoke);
    quality_table(smoke, suite);
    if (!write_suite(suite, json_path)) return 1;
    if (smoke) return 0; // CI sizing: skip the wall-clock-only microbenches

    // Strip our own flags so google-benchmark's strict parser never sees
    // them, then hand over the rest (--benchmark_filter etc. still work).
    std::vector<char*> bm_args;
    bm_args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) continue;
        if (std::strcmp(argv[i], "--json") == 0) {
            ++i; // skip the path operand too
            continue;
        }
        bm_args.push_back(argv[i]);
    }
    int bm_argc = static_cast<int>(bm_args.size());
    benchmark::Initialize(&bm_argc, bm_args.data());
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
