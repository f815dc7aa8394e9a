#pragma once
/// \file parallel_sort.hpp
/// Internal (in-memory) sorting used at the recursion base and inside
/// Balance, and the classification that feeds Balance.
///
/// Each primitive has two halves that no longer depend on each other:
///
///  * The **charged model** — what the paper's PRAM accounting says the
///    primitive costs. It is a function of shape alone (n, the pivot count,
///    the lane count p) and is applied by a `charge_*` function that
///    replays the model's exact sequence of `WorkMeter` and `PramCost`
///    calls (PramCost rounds every `charge_parallel_work` call up by P, so
///    the sequence, not just its sum, is the model):
///     - `parallel_merge_sort` is charged as Cole's EREW PRAM merge sort
///       [Col] in structure: one local stable sort per lane plus
///       ⌈log₂ p⌉ cascaded pairwise merge rounds (`charge_merge_sort`);
///     - `parallel_radix_sort` is charged as the Rajasekaran–Reif [RaR]
///       LSD radix sort: six 11-bit counting passes (`charge_radix_sort`);
///     - the batch `bucket_of` is charged ⌈log₂ s⌉ comparisons per record
///       (`charge_bucket_of`).
///  * The **kernel** — the code that computes the bytes. A stable sort by
///    key has exactly one output, so both sorts run the same kernel,
///    `stable_key_sort`: an LSD radix sort over per-lane histograms that
///    skips every digit constant across its input, with `std::stable_sort`
///    below `kStableSortCutoff`. Classification counts pivots with
///    branch-free compares when there are at most `kCountClassifyMax` of
///    them, and runs a branchless binary search above that.
///
/// Plus `multiway_merge`, used by the merge-sort baselines and Algorithm 2's
/// "binary merge sort" of sample sets — serial loser-tree form, and a
/// splitter-partitioned parallel form (Rahn/Sanders-style: each lane merges
/// an independent key range of all k runs, byte-identical output).

#include <cstdint>
#include <span>
#include <vector>

#include "pram/executor.hpp"
#include "pram/pram_cost.hpp"
#include "util/record.hpp"
#include "util/work_meter.hpp"

namespace balsort {

/// Stable sort by key, charged as Cole's merge sort at width `pool.size()`
/// (`charge_merge_sort`); the bytes come from `stable_key_sort`.
void parallel_merge_sort(std::span<Record> records, const Parallel& pool,
                         WorkMeter* meter = nullptr, PramCost* cost = nullptr);

/// Stable sort by key, charged as an LSD radix sort (radix 2^11, 6 passes;
/// `charge_radix_sort`); the bytes come from `stable_key_sort`.
void parallel_radix_sort(std::span<Record> records, const Parallel& pool,
                         WorkMeter* meter = nullptr, PramCost* cost = nullptr);

/// Below this many records `stable_key_sort` is one `std::stable_sort`.
inline constexpr std::size_t kStableSortCutoff = 1024;

/// The one stable-by-key sort kernel behind both sorts above. Charges
/// nothing. The output (payloads included) equals `std::stable_sort` with
/// `KeyLess`, for every width of `pool`.
void stable_key_sort(std::span<Record> records, const Parallel& pool);

/// The merge-sort model of an n-record sort at lane width `width`: the
/// comparisons of p = min(width, ⌈n/2⌉) local sorts, then per merge round
/// n comparisons and n moves. `cost` is charged ⌈n log n⌉ work plus one
/// collective, then 2n work plus one collective per round.
void charge_merge_sort(std::uint64_t n, std::size_t width, WorkMeter* meter, PramCost* cost);

/// The radix-sort model of an n-record sort: 6 passes of 2n moves, each
/// charged 2n work plus one collective.
void charge_radix_sort(std::uint64_t n, WorkMeter* meter, PramCost* cost);

/// The classification model of n records against `n_pivots` pivots:
/// n · max(1, ⌈log₂(n_pivots | 1)⌉) comparisons.
void charge_bucket_of(std::uint64_t n, std::size_t n_pivots, WorkMeter* meter);

/// Merge `runs` (each sorted by key) into `out` (sized to the total).
/// Loser-tree k-way merge: O(n log k) comparisons.
void multiway_merge(std::span<const std::span<const Record>> runs, std::span<Record> out,
                    WorkMeter* meter = nullptr);

/// Parallel k-way merge: the output is split into `pool.size()` key ranges
/// at ranks i·n/p (ties broken by run index, matching the loser tree's
/// emission order), and each part is merged independently. The output is
/// byte-identical to the serial form; metered comparisons are the sum of
/// the per-part loser-tree path comparisons (deterministic for a given
/// input and width, but not equal to the serial count).
void multiway_merge(std::span<const std::span<const Record>> runs, std::span<Record> out,
                    const Parallel& pool, WorkMeter* meter = nullptr);

/// Binary merge of exactly two sorted runs (Algorithm 1 step (3) helper).
void binary_merge(std::span<const Record> a, std::span<const Record> b, std::span<Record> out,
                  WorkMeter* meter = nullptr);

/// Partition sorted-or-not `records` among `s` buckets delimited by
/// `pivots` (sorted, size s-1): bucket i gets keys in [pivots[i-1], pivots[i]).
/// Returns bucket index per record (upper_bound semantics). Charged by
/// `charge_bucket_of`.
std::vector<std::uint32_t> bucket_of(std::span<const Record> records,
                                     std::span<const std::uint64_t> pivots,
                                     WorkMeter* meter = nullptr);

/// Data-parallel form of `bucket_of`: classification fans out over the
/// lanes of `pool`; identical output and identical metered charges.
std::vector<std::uint32_t> bucket_of(std::span<const Record> records,
                                     std::span<const std::uint64_t> pivots, const Parallel& pool,
                                     WorkMeter* meter = nullptr);

/// Up to this many pivots, classification counts them with branch-free
/// compares; above it, it binary-searches them.
inline constexpr std::size_t kCountClassifyMax = 16;

/// Number of `pivots` (sorted ascending) that are <= key — a branchless
/// upper_bound.
inline std::uint32_t pivot_upper_bound(std::span<const std::uint64_t> pivots,
                                       std::uint64_t key) {
    const std::uint64_t* base = pivots.data();
    std::size_t n = pivots.size();
    while (n > 1) {
        const std::size_t half = n / 2;
        base += (base[half - 1] <= key) ? half : 0; // cmov, no branch
        n -= half;
    }
    const std::size_t idx = static_cast<std::size_t>(base - pivots.data());
    return static_cast<std::uint32_t>(idx + ((n == 1 && *base <= key) ? 1 : 0));
}

/// Number of `pivots` (sorted ascending) that are < key — the branchless
/// lower_bound twin.
inline std::uint32_t pivot_lower_bound(std::span<const std::uint64_t> pivots,
                                       std::uint64_t key) {
    const std::uint64_t* base = pivots.data();
    std::size_t n = pivots.size();
    while (n > 1) {
        const std::size_t half = n / 2;
        base += (base[half - 1] < key) ? half : 0; // cmov, no branch
        n -= half;
    }
    const std::size_t idx = static_cast<std::size_t>(base - pivots.data());
    return static_cast<std::uint32_t>(idx + ((n == 1 && *base < key) ? 1 : 0));
}

/// `pivot_upper_bound` by compare-and-count: each pivot adds (pivot <= key),
/// with no data-dependent branch and no dependent load. The building block
/// of the batch `bucket_of` at <= kCountClassifyMax pivots.
inline std::uint32_t pivot_count_le(std::span<const std::uint64_t> pivots, std::uint64_t key) {
    std::uint32_t le = 0;
    for (const std::uint64_t p : pivots) le += static_cast<std::uint32_t>(p <= key);
    return le;
}

} // namespace balsort
