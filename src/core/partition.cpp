#include "core/partition.hpp"

#include <algorithm>

#include "pram/selection.hpp"
#include "util/math.hpp"

namespace balsort {

void charge_classify(std::uint64_t n, std::uint32_t n_buckets, WorkMeter* meter, PramCost* cost) {
    const std::uint64_t comparisons = n * std::max<std::uint64_t>(1, ilog2_ceil(n_buckets));
    if (meter != nullptr) {
        meter->add_comparisons(comparisons);
        meter->add_moves(n);
    }
    if (cost != nullptr) {
        cost->charge_parallel_work(comparisons);
        cost->charge_collective();
    }
}

std::uint64_t sampling_stride(std::uint64_t n, std::uint64_t m, std::uint32_t s_target) {
    BS_REQUIRE(s_target >= 2, "sampling_stride: need S >= 2");
    (void)n;
    // 8S samples per memoryload: bucket bound (9/8) N/S + o(N/S), and
    // enough per-load resolution that the pooled quantiles are sharp even
    // for S = 2 (see bucket_size_bound).
    return std::max<std::uint64_t>(ceil_div(m, 8 * static_cast<std::uint64_t>(s_target)), 1);
}

std::uint64_t bucket_size_bound(std::uint64_t n, std::uint64_t m, std::uint32_t s_target) {
    const std::uint64_t t = sampling_stride(n, m, s_target);
    return n / s_target + t * (1 + ceil_div(n, std::max<std::uint64_t>(m, 1)));
}

PivotSet select_pivots_from_sorted_samples(const std::vector<std::uint64_t>& sorted_samples,
                                           std::uint32_t s_target) {
    BS_REQUIRE(s_target >= 2, "select_pivots: need S >= 2");
    BS_REQUIRE(std::is_sorted(sorted_samples.begin(), sorted_samples.end()),
               "select_pivots: samples must be sorted");
    PivotSet out;
    if (sorted_samples.empty()) return out;
    const std::uint64_t q = sorted_samples.size();
    const std::uint64_t step = ceil_div(q, s_target);
    for (std::uint64_t r = step; r < q; r += step) {
        out.keys.push_back(sorted_samples[r]);
    }
    out.keys.erase(std::unique(out.keys.begin(), out.keys.end()), out.keys.end());
    return out;
}

PivotSet compute_pivots_sampling(RecordSource& input, std::uint64_t n, std::uint64_t m,
                                 std::uint32_t s_target, const Parallel& pool, WorkMeter* meter,
                                 PramCost* cost) {
    BS_REQUIRE(input.remaining() == n, "compute_pivots: n != input.remaining()");
    BS_REQUIRE(m >= 2, "compute_pivots: memory too small");
    const std::uint64_t t = sampling_stride(n, m, s_target);
    std::vector<std::uint64_t> samples;
    samples.reserve(n / t + 2);
    std::vector<std::uint64_t> ranks;
    while (input.remaining() > 0) {
        const std::span<const Record> load = input.next(m);
        const std::uint64_t got = load.size();
        // Every t-th order statistic of the memoryload, *centered* (ranks
        // (t+1)/2, (t+1)/2 + t, ...): the samples then sit at quantiles
        // (j+1/2)*t/M, whose pooled order statistics are unbiased
        // estimates of the global quantiles. The classical gap guarantee
        // (< t records of a load strictly between consecutive samples) is
        // unchanged. Multi-selection (not a full sort!) keeps the pivot
        // pass at O(M log S) work per load — required for Theorem 1's
        // O((N/P) log N) total internal work.
        ranks.clear();
        const std::uint64_t first = (t + 1) / 2;
        for (std::uint64_t r = first; r <= got; r += t) ranks.push_back(r);
        // Loads smaller than the first centered rank contribute their
        // median so no stretch of the input is entirely unsampled.
        if (got > 0 && ranks.empty()) ranks.push_back((got + 1) / 2);
        auto keys = multi_select_keys(load, ranks, pool, meter);
        samples.insert(samples.end(), keys.begin(), keys.end());
        if (cost != nullptr) {
            cost->charge_parallel_work(got * std::max<std::uint64_t>(
                                                 1, ilog2_ceil(ranks.size() | 1)));
            cost->charge_collective();
        }
    }
    std::sort(samples.begin(), samples.end());
    if (meter != nullptr) {
        meter->add_comparisons(samples.size() *
                               std::max<std::uint64_t>(1, ilog2_ceil(samples.size() | 1)));
    }
    if (cost != nullptr) {
        cost->charge_parallel_work(samples.size());
        cost->charge_collective();
    }
    return select_pivots_from_sorted_samples(samples, s_target);
}

} // namespace balsort
