#pragma once
/// \file selection.hpp
/// Selection primitives.
///
///  * `select_kth` / `paper_median` — deterministic linear-time selection
///    (Blum–Floyd–Pratt–Rivest–Tarjan [BFP], cited by the paper), used by
///    ComputeAux to find the median of a histogram row.
///  * `multi_select_keys` — the record keys at a set of ranks, used by the
///    pivot pass to sample every memoryload at 8S centered ranks.
///
/// `multi_select_keys` separates its charged model from its kernel. The
/// **model** is recursive rank splitting: select the middle rank (2n
/// comparisons and ⌊n/2⌋ moves on a subproblem of n records), then recurse
/// on the two sides with the remaining ranks — O(n log k) work, which keeps
/// the pivot pass within Theorem 1's O((N/P) log N) budget: a memoryload is
/// *selected at 8S ranks*, not fully sorted. The split points depend only on
/// (n, ranks), so `charge_multi_select` replays the charge from the shape
/// alone. The **kernel** is an exact, in-memory histogram multi-select (the
/// histogramming of Histogram Sort with Sampling, Harsh/Kale/Solomonik): one
/// pass finds the key range, one pass builds an 11-bit histogram of
/// (key − min) >> shift, and one pass gathers only the keys of buckets that
/// hold a target rank; each such bucket is then finished on its own. The
/// key at a rank is unique, so the kernel cannot change a selected key.
///
/// Note the paper's median convention (§4, footnote 3): "the median is
/// always the ⌈D/2⌉-th smallest element", *not* the statistics convention.
/// `paper_median` implements exactly that.

#include <cstdint>
#include <span>
#include <vector>

#include "pram/executor.hpp"
#include "util/record.hpp"
#include "util/work_meter.hpp"

namespace balsort {

/// Return the k-th smallest (1-based) of `values` using deterministic
/// median-of-medians. Does not modify the input. O(n) comparisons.
std::uint64_t select_kth(std::span<const std::uint64_t> values, std::size_t k,
                         WorkMeter* meter = nullptr);

/// The paper's median: the ⌈n/2⌉-th smallest element of the row.
std::uint64_t paper_median(std::span<const std::uint64_t> values, WorkMeter* meter = nullptr);

/// Multi-selection: the record keys at the given 1-based ranks (strictly
/// increasing, in [1, records.size()]) in key order. Does not modify
/// `records`. Charged by `charge_multi_select`.
std::vector<std::uint64_t> multi_select_keys(std::span<const Record> records,
                                             std::span<const std::uint64_t> ranks,
                                             WorkMeter* meter = nullptr);

/// The same selection with its range and histogram passes, and its gather,
/// split over the lanes of `pool` (per-lane counts). The output and the
/// charge are those of the serial form.
std::vector<std::uint64_t> multi_select_keys(std::span<const Record> records,
                                             std::span<const std::uint64_t> ranks,
                                             const Parallel& pool, WorkMeter* meter = nullptr);

/// The rank-splitting model of selecting `ranks` among n records: 2m
/// comparisons and ⌊m/2⌋ moves at every node of the split recursion, where
/// m is the node's subproblem size.
void charge_multi_select(std::uint64_t n, std::span<const std::uint64_t> ranks,
                         WorkMeter* meter);

} // namespace balsort
