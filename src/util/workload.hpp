#pragma once
/// \file workload.hpp
/// Input-distribution generators for tests, examples and benches.
///
/// Distribution sort's adversaries are skewed key distributions (a bucket
/// landing lopsided on the disks) and pre-sorted inputs (every memoryload's
/// records falling into one bucket); the generators below cover those plus
/// the bland uniform case. All generators are deterministic in `seed`.

#include <cstdint>
#include <string>
#include <vector>

#include "util/record.hpp"

namespace balsort {

enum class Workload {
    kUniform,        ///< i.i.d. uniform 64-bit keys
    kGaussian,       ///< keys concentrated around a center (skewed buckets)
    kZipf,           ///< heavy-tailed (theta = 0.99), many duplicate keys
    kSorted,         ///< already sorted ascending
    kReverse,        ///< sorted descending
    kNearlySorted,   ///< sorted then 1% random swaps
    kDuplicateHeavy, ///< only 16 distinct keys
    kOrganPipe,      ///< ascending then descending (classic adversary)
    kAllEqual,       ///< one single key value
};

/// All workloads, for parameterized sweeps.
const std::vector<Workload>& all_workloads();

std::string to_string(Workload w);

/// Generate `n` records of workload `w`. Payload always records the initial
/// index so tests can verify permutation-ness (no record lost or invented).
std::vector<Record> generate(Workload w, std::size_t n, std::uint64_t seed);

/// Generate and then force distinct keys (paper §4.1's assumption) by
/// appending the initial index. Keys are first truncated to 32 bits.
std::vector<Record> generate_distinct(Workload w, std::size_t n, std::uint64_t seed);

/// True iff `out` is a sorted permutation of `in` (multiset equality + order).
/// Exact: `in` is radix-sorted by key, then each equal-key run's payloads
/// are compared as multisets. Defined in balsort_pram, beside the radix
/// kernel it runs (pram/parallel_sort.cpp); callers link balsort_pram.
bool is_sorted_permutation_of(std::vector<Record> in, std::vector<Record> out);

} // namespace balsort
