#pragma once
/// \file partition.hpp
/// Partition-element computation.
///
/// For the parallel disk model the paper (§5) uses the memoryload-sampling
/// method of [ViSa]: stream the input one memoryload at a time, sort each
/// memoryload internally, take every t-th element as a sample (centered
/// ranks, so pooled order statistics are unbiased), sort the pooled
/// samples, and pick S-1 evenly spaced pivots. With t = ⌈M/(8S)⌉ the
/// classic bound gives every bucket at most N/S + t·(1 + ⌈N/M⌉) ≈
/// (9/8)·N/S records — comfortably under the paper's 2N/S (tests assert
/// the tighter bound).
///
/// Duplicate keys: the paper assumes distinct keys (§4.1). To make the
/// library robust without that assumption, pivots are deduplicated and
/// every pivot key gets a dedicated *equal-class* bucket: bucket 2i holds
/// keys strictly between pivots i-1 and i, bucket 2i+1 holds keys equal to
/// pivot i. Equal-class buckets are already sorted and are emitted without
/// recursion, so heavy duplicates can never stall the recursion.

#include <cstdint>
#include <span>
#include <vector>

#include "core/vrun.hpp"
#include "pram/executor.hpp"
#include "pram/parallel_sort.hpp"
#include "pram/pram_cost.hpp"
#include "util/work_meter.hpp"

namespace balsort {

/// S-1 (or fewer after dedup) sorted distinct pivot keys, defining
/// 2*keys.size()+1 buckets (odd buckets = equal classes).
struct PivotSet {
    std::vector<std::uint64_t> keys;

    std::uint32_t n_buckets() const {
        return 2 * static_cast<std::uint32_t>(keys.size()) + 1;
    }

    bool is_equal_class(std::uint32_t bucket) const { return bucket % 2 == 1; }

    /// Bucket of `key`: 2i for the open range (keys[i-1], keys[i]),
    /// 2i+1 for key == keys[i], i.e. 2·#(keys < key) + #(keys == key).
    /// Branch-free: up to kCountClassifyMax keys, every key is compared and
    /// counted; above that, a branchless binary search plus one equality
    /// probe. Charged by `charge_classify`.
    std::uint32_t bucket_of(std::uint64_t key) const {
        const std::span<const std::uint64_t> ks(keys);
        if (ks.size() <= kCountClassifyMax) {
            std::uint32_t lt = 0, le = 0; // 2·lt + eq == lt + le
            for (const std::uint64_t p : ks) {
                lt += static_cast<std::uint32_t>(p < key);
                le += static_cast<std::uint32_t>(p <= key);
            }
            return lt + le;
        }
        const std::uint32_t i = pivot_lower_bound(ks, key);
        return 2 * i + static_cast<std::uint32_t>(i < ks.size() && ks[i] == key);
    }
};

/// The classification model of one memoryload of n records split into
/// `n_buckets` buckets, as Balance charges it: n·max(1, ⌈log₂ s⌉)
/// comparisons and n moves; `cost` gets that many comparisons of parallel
/// work plus one collective.
void charge_classify(std::uint64_t n, std::uint32_t n_buckets, WorkMeter* meter, PramCost* cost);

/// Compute pivots for a level of PDM Balance Sort by memoryload sampling.
/// Consumes `input` entirely (the caller re-opens the level's input for the
/// subsequent Balance pass; the read I/Os are counted by the source).
///   n        — records in this level's input (== input.remaining())
///   m        — memoryload size (records)
///   s_target — desired bucket count S (pivot count S-1 before dedup)
///
/// The sample pool holds ~2S*N/M keys. For deep instances (N >> M) this
/// exceeds the base memory; a production system resamples the pool
/// recursively with the same rank guarantees ([ViSa]) — the simulator
/// keeps the pool directly (keys only), which changes no I/O accounting
/// (samples are collected during the metered pivot read pass).
/// Each memoryload is sampled in place, as a view into the source.
PivotSet compute_pivots_sampling(RecordSource& input, std::uint64_t n, std::uint64_t m,
                                 std::uint32_t s_target, const Parallel& pool,
                                 WorkMeter* meter = nullptr, PramCost* cost = nullptr);

/// The sampling stride used above (exposed for the analytic bound tests):
/// t = max(ceil(M/(8S)), 1).
std::uint64_t sampling_stride(std::uint64_t n, std::uint64_t m, std::uint32_t s_target);

/// Upper bound on any bucket's size guaranteed by the sampling scheme:
/// N/S + t * (1 + ceil(N/M)) ~ (9/8) N/S.
std::uint64_t bucket_size_bound(std::uint64_t n, std::uint64_t m, std::uint32_t s_target);

/// Select `s_target - 1` evenly spaced pivots from a *sorted* sample pool
/// and deduplicate (shared by the PDM and hierarchy paths; exposed for
/// unit tests).
PivotSet select_pivots_from_sorted_samples(const std::vector<std::uint64_t>& sorted_samples,
                                           std::uint32_t s_target);

} // namespace balsort
