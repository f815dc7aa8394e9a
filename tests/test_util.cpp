// Tests for src/util: math helpers, records, RNG, stats, tables, workloads,
// the streaming output check.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "pdm/io_stats.hpp"
#include "util/math.hpp"
#include "util/random.hpp"
#include "util/record.hpp"
#include "util/stats.hpp"
#include "util/stream_check.hpp"
#include "util/table.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

TEST(Math, CeilDiv) {
    EXPECT_EQ(ceil_div(0, 3), 0u);
    EXPECT_EQ(ceil_div(1, 3), 1u);
    EXPECT_EQ(ceil_div(3, 3), 1u);
    EXPECT_EQ(ceil_div(4, 3), 2u);
    EXPECT_EQ(ceil_div(9, 3), 3u);
}

TEST(Math, RoundUp) {
    EXPECT_EQ(round_up(0, 4), 0u);
    EXPECT_EQ(round_up(1, 4), 4u);
    EXPECT_EQ(round_up(4, 4), 4u);
    EXPECT_EQ(round_up(5, 4), 8u);
}

TEST(Math, Ilog2) {
    EXPECT_EQ(ilog2_floor(1), 0u);
    EXPECT_EQ(ilog2_floor(2), 1u);
    EXPECT_EQ(ilog2_floor(3), 1u);
    EXPECT_EQ(ilog2_floor(1024), 10u);
    EXPECT_EQ(ilog2_ceil(1), 0u);
    EXPECT_EQ(ilog2_ceil(3), 2u);
    EXPECT_EQ(ilog2_ceil(1024), 10u);
    EXPECT_EQ(ilog2_ceil(1025), 11u);
}

TEST(Math, PaperLogClampsAtOne) {
    // Footnote 1: log x := max{1, log2 x}.
    EXPECT_DOUBLE_EQ(paper_log(0.5), 1.0);
    EXPECT_DOUBLE_EQ(paper_log(1.0), 1.0);
    EXPECT_DOUBLE_EQ(paper_log(2.0), 1.0);
    EXPECT_DOUBLE_EQ(paper_log(8.0), 3.0);
}

TEST(Math, Iroot) {
    EXPECT_EQ(iroot(0, 3), 0u);
    EXPECT_EQ(iroot(1, 5), 1u);
    EXPECT_EQ(iroot(26, 3), 2u);
    EXPECT_EQ(iroot(27, 3), 3u);
    EXPECT_EQ(iroot(28, 3), 3u);
    EXPECT_EQ(isqrt(15), 3u);
    EXPECT_EQ(isqrt(16), 4u);
    EXPECT_EQ(iroot(std::uint64_t{1} << 62, 62), 2u);
}

TEST(Math, IsPow2) {
    EXPECT_FALSE(is_pow2(0));
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(64));
    EXPECT_FALSE(is_pow2(65));
}

TEST(Record, OrderingByKeyThenPayload) {
    Record a{1, 5}, b{2, 0}, c{1, 6};
    EXPECT_LT(a, b);
    EXPECT_LT(a, c);
    EXPECT_TRUE(KeyLess{}(a, b));
    EXPECT_FALSE(KeyLess{}(a, c)); // same key: KeyLess sees them equal
}

TEST(Record, MakeKeysDistinct) {
    std::vector<Record> r = {{7, 0}, {7, 1}, {3, 2}};
    make_keys_distinct(r);
    std::set<std::uint64_t> keys;
    for (const auto& rec : r) keys.insert(rec.key);
    EXPECT_EQ(keys.size(), 3u);
    // Relative order of distinct original keys is preserved.
    EXPECT_GT(r[0].key, r[2].key);
    // Equal original keys are ordered by position (stability).
    EXPECT_LT(r[0].key, r[1].key);
}

TEST(Random, Deterministic) {
    Xoshiro256 a(42), b(42), c(43);
    EXPECT_EQ(a(), b());
    Xoshiro256 a2(42);
    (void)c();
    EXPECT_NE(a2(), c());
}

TEST(Random, BelowIsInRange) {
    Xoshiro256 rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
    }
    EXPECT_EQ(rng.below(1), 0u);
    EXPECT_EQ(rng.below(0), 0u);
}

TEST(Random, Uniform01Bounds) {
    Xoshiro256 rng(9);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Random, NextPrime) {
    EXPECT_EQ(PairwiseHash::next_prime(1), 2u);
    EXPECT_EQ(PairwiseHash::next_prime(2), 2u);
    EXPECT_EQ(PairwiseHash::next_prime(8), 11u);
    EXPECT_EQ(PairwiseHash::next_prime(13), 13u);
    EXPECT_EQ(PairwiseHash::next_prime(90), 97u);
}

TEST(Random, PairwiseHashInRange) {
    const std::uint64_t p = PairwiseHash::next_prime(16);
    PairwiseHash h(3, 5, p, 16);
    for (std::uint64_t i = 0; i < 100; ++i) {
        EXPECT_LT(h(i), 16u);
    }
}

TEST(Random, PermutationIsPermutation) {
    auto p = random_permutation(100, 5);
    std::set<std::uint32_t> seen(p.begin(), p.end());
    EXPECT_EQ(seen.size(), 100u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Random, PermutationSeedSensitivity) {
    EXPECT_NE(random_permutation(50, 1), random_permutation(50, 2));
    EXPECT_EQ(random_permutation(50, 3), random_permutation(50, 3));
}

TEST(Stats, Basic) {
    Summary s;
    for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) s.add(v);
    EXPECT_EQ(s.count(), 5u);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.median(), 3.0);
    EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(Stats, Percentile) {
    Summary s;
    for (int i = 1; i <= 100; ++i) s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(1), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
}

TEST(Stats, EmptyThrows) {
    Summary s;
    EXPECT_THROW(s.min(), std::invalid_argument);
    EXPECT_THROW(s.percentile(50), std::invalid_argument);
}

TEST(Stats, PercentileSingleElement) {
    Summary s;
    s.add(7.5);
    EXPECT_DOUBLE_EQ(s.percentile(0), 7.5);
    EXPECT_DOUBLE_EQ(s.percentile(50), 7.5);
    EXPECT_DOUBLE_EQ(s.percentile(100), 7.5);
}

TEST(Stats, PercentileExtremesAreMinAndMax) {
    Summary s;
    for (double v : {30.0, 10.0, 20.0}) s.add(v);
    EXPECT_DOUBLE_EQ(s.percentile(0), s.min());
    EXPECT_DOUBLE_EQ(s.percentile(100), s.max());
    EXPECT_THROW(s.percentile(-1), std::invalid_argument);
    EXPECT_THROW(s.percentile(100.5), std::invalid_argument);
}

TEST(Stats, PercentileResortsAfterLaterAdd) {
    Summary s;
    for (double v : {5.0, 9.0, 7.0}) s.add(v);
    EXPECT_DOUBLE_EQ(s.median(), 7.0);
    // Adding after a query must invalidate the sorted cache.
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 9.0);
}

TEST(IoStats, IntervalDeltaSubtractsFlows) {
    IoStats before;
    before.read_steps = 10;
    before.write_steps = 4;
    before.blocks_read = 80;
    before.blocks_written = 32;
    before.transient_retries = 1;
    before.async_block_ops = 50;
    IoStats after = before;
    after.read_steps = 25;
    after.write_steps = 9;
    after.blocks_read = 200;
    after.blocks_written = 72;
    after.transient_retries = 3;
    after.async_block_ops = 130;
    const IoStats delta = after - before;
    EXPECT_EQ(delta.read_steps, 15u);
    EXPECT_EQ(delta.write_steps, 5u);
    EXPECT_EQ(delta.io_steps(), 20u);
    EXPECT_EQ(delta.blocks_read, 120u);
    EXPECT_EQ(delta.blocks_written, 40u);
    EXPECT_EQ(delta.transient_retries, 2u);
    EXPECT_EQ(delta.async_block_ops, 80u);
}

TEST(IoStats, IntervalDeltaKeepsHighWaterMark) {
    // max_in_flight is a peak, not a flow: the delta reports the interval
    // end's peak unchanged rather than subtracting the start snapshot's.
    IoStats before;
    before.max_in_flight = 6;
    IoStats after;
    after.max_in_flight = 9;
    EXPECT_EQ((after - before).max_in_flight, 9u);
    // Accumulation takes the max, never the sum.
    IoStats total;
    total.max_in_flight = 4;
    total += after;
    EXPECT_EQ(total.max_in_flight, 9u);
    IoStats small;
    small.max_in_flight = 2;
    total += small;
    EXPECT_EQ(total.max_in_flight, 9u);
}

TEST(Table, FormatsAndPrints) {
    Table t({"A", "BB"});
    t.add_row({"1", "2"});
    t.add_separator();
    t.add_row({"333", "4"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("333"), std::string::npos);
    EXPECT_NE(out.find("BB"), std::string::npos);
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
    EXPECT_EQ(Table::num(0), "0");
    EXPECT_EQ(Table::num(999), "999");
    EXPECT_EQ(Table::num(1000), "1,000");
    EXPECT_EQ(Table::num(1234567), "1,234,567");
    EXPECT_EQ(Table::fixed(3.14159, 2), "3.14");
}

TEST(Workload, AllGeneratorsProduceRequestedCount) {
    for (Workload w : all_workloads()) {
        auto r = generate(w, 1000, 42);
        EXPECT_EQ(r.size(), 1000u) << to_string(w);
        // Payload records the initial index.
        EXPECT_EQ(r[17].payload, 17u) << to_string(w);
    }
}

TEST(Workload, SortedIsSorted) {
    auto r = generate(Workload::kSorted, 500, 1);
    EXPECT_TRUE(is_sorted_by_key(r));
    auto rev = generate(Workload::kReverse, 500, 1);
    EXPECT_FALSE(is_sorted_by_key(rev));
}

TEST(Workload, DistinctReallyDistinct) {
    for (Workload w : all_workloads()) {
        auto r = generate_distinct(w, 2000, 7);
        std::set<std::uint64_t> keys;
        for (const auto& rec : r) keys.insert(rec.key);
        EXPECT_EQ(keys.size(), r.size()) << to_string(w);
    }
}

TEST(Workload, DeterministicInSeed) {
    auto a = generate(Workload::kUniform, 100, 5);
    auto b = generate(Workload::kUniform, 100, 5);
    auto c = generate(Workload::kUniform, 100, 6);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(Workload, SortedPermutationChecker) {
    auto in = generate(Workload::kUniform, 200, 3);
    auto sorted = in;
    std::sort(sorted.begin(), sorted.end(), KeyLess{});
    EXPECT_TRUE(is_sorted_permutation_of(in, sorted));
    sorted[0].key += 1; // corrupt
    EXPECT_FALSE(is_sorted_permutation_of(in, sorted));
}

TEST(Workload, DuplicateHeavyHasFewKeys) {
    auto r = generate(Workload::kDuplicateHeavy, 5000, 11);
    std::set<std::uint64_t> keys;
    for (const auto& rec : r) keys.insert(rec.key);
    EXPECT_LE(keys.size(), 16u);
}

// ---- StreamCheck: the fused one-pass output check -------------------------

/// The reason StreamCheck gives for `out` as the output of `in`, with the
/// output fed in `chunk`-record pieces.
std::string check_stream(const std::vector<Record>& in, const std::vector<Record>& out,
                         std::size_t chunk) {
    StreamCheck check;
    for (std::size_t off = 0; off < in.size(); off += 7) {
        check.input(std::span(in).subspan(off, std::min<std::size_t>(7, in.size() - off)));
    }
    for (std::size_t off = 0; off < out.size(); off += chunk) {
        check.output(std::span(out).subspan(off, std::min(chunk, out.size() - off)));
    }
    return check.failure();
}

std::vector<Record> sorted_copy(std::vector<Record> v) {
    std::stable_sort(v.begin(), v.end(), KeyLess{});
    return v;
}

TEST(StreamCheck, AcceptsASortedPermutation) {
    const auto in = generate(Workload::kZipf, 1000, 4);
    const auto out = sorted_copy(in);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{64}, std::size_t{1000}}) {
        EXPECT_EQ(check_stream(in, out, chunk), "") << "chunk " << chunk;
    }
    EXPECT_EQ(check_stream({}, {}, 8), "");
}

TEST(StreamCheck, AcceptsAnyOrderOfEqualKeyRecords) {
    const auto in = generate(Workload::kDuplicateHeavy, 1000, 9);
    auto out = sorted_copy(in);
    // Reverse every equal-key run: still a valid sort of the input.
    for (auto it = out.begin(); it != out.end();) {
        const auto end = std::find_if(it, out.end(), [&](const Record& r) { return r.key != it->key; });
        ASSERT_GT(end - it, 1);
        std::reverse(it, end);
        it = end;
    }
    ASSERT_NE(out, sorted_copy(in));
    EXPECT_EQ(check_stream(in, out, 64), "");
}

TEST(StreamCheck, CatchesADroppedRecord) {
    const auto in = generate(Workload::kUniform, 1000, 5);
    auto out = sorted_copy(in);
    out.erase(out.begin() + 500);
    EXPECT_NE(check_stream(in, out, 64).find("999 records, input had 1000"), std::string::npos);
}

TEST(StreamCheck, CatchesADuplicatedRecord) {
    const auto in = generate(Workload::kUniform, 1000, 6);
    auto out = sorted_copy(in);
    // An extra copy, and a copy that overwrites its neighbour (count kept).
    auto extra = out;
    extra.insert(extra.begin() + 300, extra[300]);
    EXPECT_NE(check_stream(in, extra, 64), "");
    out[301] = out[300];
    EXPECT_NE(check_stream(in, out, 64).find("fingerprint mismatch"), std::string::npos);
}

TEST(StreamCheck, CatchesAFlippedPayloadBit) {
    const auto in = generate(Workload::kUniform, 1000, 7);
    auto out = sorted_copy(in);
    out[123].payload ^= std::uint64_t{1} << 40;
    EXPECT_NE(check_stream(in, out, 64).find("fingerprint mismatch"), std::string::npos);
}

TEST(StreamCheck, CatchesAnInversionAcrossAChunkBoundary) {
    const auto in = generate(Workload::kUniform, 1000, 8);
    auto out = sorted_copy(in);
    // Records 63 and 64 straddle the boundary between the first two chunks.
    ASSERT_LT(out[63].key, out[64].key);
    std::swap(out[63], out[64]);
    EXPECT_EQ(check_stream(in, out, 64),
              "output is not sorted: record 64 has a smaller key than record 63");
}

} // namespace
} // namespace balsort
