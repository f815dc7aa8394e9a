#include "pram/selection.hpp"

#include <algorithm>
#include <bit>

#include "util/common.hpp"
#include "util/math.hpp"

namespace balsort {

namespace {

// In-place deterministic select on a scratch vector, 0-based k.
std::uint64_t select_impl(std::vector<std::uint64_t>& v, std::size_t lo, std::size_t hi,
                          std::size_t k, WorkMeter* meter) {
    while (true) {
        const std::size_t n = hi - lo;
        if (n <= 10) {
            std::sort(v.begin() + static_cast<std::ptrdiff_t>(lo),
                      v.begin() + static_cast<std::ptrdiff_t>(hi));
            if (meter != nullptr) meter->add_comparisons(n * 4); // ~n log n, n<=10
            return v[lo + k];
        }
        // Median of medians of groups of 5.
        std::size_t n_groups = 0;
        for (std::size_t g = lo; g < hi; g += 5) {
            std::size_t ge = std::min(g + 5, hi);
            std::sort(v.begin() + static_cast<std::ptrdiff_t>(g),
                      v.begin() + static_cast<std::ptrdiff_t>(ge));
            std::swap(v[lo + n_groups], v[g + (ge - g) / 2]);
            ++n_groups;
        }
        if (meter != nullptr) meter->add_comparisons(n * 2);
        std::uint64_t pivot =
            select_impl(v, lo, lo + n_groups, (n_groups - 1) / 2, meter);
        // 3-way partition around pivot.
        std::size_t lt = lo, i = lo, gt = hi;
        while (i < gt) {
            if (v[i] < pivot) {
                std::swap(v[lt++], v[i++]);
            } else if (v[i] > pivot) {
                std::swap(v[i], v[--gt]);
            } else {
                ++i;
            }
        }
        if (meter != nullptr) {
            meter->add_comparisons(n);
            meter->add_moves(n);
        }
        const std::size_t n_lt = lt - lo;
        const std::size_t n_eq = gt - lt;
        if (k < n_lt) {
            hi = lt;
        } else if (k < n_lt + n_eq) {
            return pivot;
        } else {
            k -= n_lt + n_eq;
            lo = gt;
        }
    }
}

} // namespace

std::uint64_t select_kth(std::span<const std::uint64_t> values, std::size_t k, WorkMeter* meter) {
    BS_REQUIRE(k >= 1 && k <= values.size(), "select_kth: k out of range");
    std::vector<std::uint64_t> scratch(values.begin(), values.end());
    if (meter != nullptr) meter->add_moves(values.size());
    return select_impl(scratch, 0, scratch.size(), k - 1, meter);
}

std::uint64_t paper_median(std::span<const std::uint64_t> values, WorkMeter* meter) {
    BS_REQUIRE(!values.empty(), "paper_median: empty input");
    return select_kth(values, ceil_div(values.size(), 2), meter);
}

namespace {

constexpr unsigned kSelectBits = 11;
/// A target bucket at most this large is finished by sorting its keys.
constexpr std::size_t kSelectSortCutoff = 64;
constexpr std::size_t kNotGathered = ~std::size_t{0};

std::uint64_t key_of(const Record& r) { return r.key; }
std::uint64_t key_of(std::uint64_t key) { return key; }

// Histogram multi-select: out[i] = the key of 1-based rank ranks[i] among
// `items`. Each level narrows a target bucket's key range by 2^11, so the
// recursion into a bucket is at most six levels deep.
template <typename Item>
void histogram_select(std::span<const Item> items, std::span<const std::uint64_t> ranks,
                      std::uint64_t* out, const Parallel& pool) {
    const std::size_t n = items.size();
    const std::size_t lanes = std::min(pool.size(), n);

    // Pass 1: the key range.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> lane_range(lanes);
    pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi, std::size_t w) {
        std::uint64_t lo_key = ~std::uint64_t{0}, hi_key = 0;
        for (std::size_t i = lo; i < hi; ++i) {
            const std::uint64_t key = key_of(items[i]);
            lo_key = std::min(lo_key, key);
            hi_key = std::max(hi_key, key);
        }
        lane_range[w] = {lo_key, hi_key};
    });
    std::uint64_t min_key = ~std::uint64_t{0}, max_key = 0;
    for (const auto& [lo_key, hi_key] : lane_range) {
        min_key = std::min(min_key, lo_key);
        max_key = std::max(max_key, hi_key);
    }
    if (min_key == max_key) {
        std::fill(out, out + ranks.size(), min_key);
        return;
    }
    // max_key - min_key cannot overflow; its bit width is 1..64.
    const unsigned width = static_cast<unsigned>(std::bit_width(max_key - min_key));
    const unsigned shift = width > kSelectBits ? width - kSelectBits : 0;
    const std::size_t nb = static_cast<std::size_t>((max_key - min_key) >> shift) + 1;
    auto bucket = [&](std::uint64_t key) {
        return static_cast<std::size_t>((key - min_key) >> shift);
    };

    // Pass 2: per-lane histograms, hist[w * nb + bucket].
    std::vector<std::size_t> hist(lanes * nb, 0);
    pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi, std::size_t w) {
        std::size_t* h = hist.data() + w * nb;
        for (std::size_t i = lo; i < hi; ++i) h[bucket(key_of(items[i]))]++;
    });
    // below[b]: keys in buckets < b; rank r lies in the bucket b with
    // below[b] < r <= below[b + 1].
    std::vector<std::size_t> below(nb + 1, 0);
    for (std::size_t b = 0; b < nb; ++b) {
        std::size_t size = 0;
        for (std::size_t w = 0; w < lanes; ++w) size += hist[w * nb + b];
        below[b + 1] = below[b] + size;
    }
    std::vector<std::size_t> rank_bucket(ranks.size());
    for (std::size_t i = 0, b = 0; i < ranks.size(); ++i) {
        while (below[b + 1] < ranks[i]) ++b;
        rank_bucket[i] = b;
    }
    if (shift == 0) { // every bucket holds one key value
        for (std::size_t i = 0; i < ranks.size(); ++i) out[i] = min_key + rank_bucket[i];
        return;
    }

    // Pass 3: gather the keys of the target buckets, grouped by bucket. The
    // histogram becomes per-lane write cursors (bucket-major, lane-minor).
    std::vector<char> target(nb, 0);
    for (const std::size_t b : rank_bucket) target[b] = 1;
    std::vector<std::size_t> first(nb, 0); // a target bucket's offset in `gathered`
    std::size_t gathered_n = 0;
    for (std::size_t b = 0; b < nb; ++b) {
        first[b] = gathered_n;
        for (std::size_t w = 0; w < lanes; ++w) {
            std::size_t& h = hist[w * nb + b];
            const std::size_t count = h;
            h = target[b] != 0 ? gathered_n : kNotGathered;
            if (target[b] != 0) gathered_n += count;
        }
    }
    std::vector<std::uint64_t> gathered(gathered_n);
    pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi, std::size_t w) {
        std::size_t* cursor = hist.data() + w * nb;
        for (std::size_t i = lo; i < hi; ++i) {
            const std::uint64_t key = key_of(items[i]);
            std::size_t& c = cursor[bucket(key)];
            if (c != kNotGathered) gathered[c++] = key;
        }
    });

    // Finish each target bucket on its own keys.
    std::vector<std::uint64_t> local;
    for (std::size_t i = 0; i < ranks.size();) {
        const std::size_t b = rank_bucket[i];
        std::size_t j = i;
        local.clear();
        for (; j < ranks.size() && rank_bucket[j] == b; ++j) local.push_back(ranks[j] - below[b]);
        const std::span<std::uint64_t> keys(gathered.data() + first[b], below[b + 1] - below[b]);
        if (keys.size() <= kSelectSortCutoff) {
            std::sort(keys.begin(), keys.end());
            for (std::size_t t = i; t < j; ++t) out[t] = keys[local[t - i] - 1];
        } else {
            histogram_select<std::uint64_t>(keys, local, out + i, Parallel{});
        }
        i = j;
    }
}

void validate_ranks(std::size_t n, std::span<const std::uint64_t> ranks) {
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        BS_REQUIRE(ranks[i] >= 1 && ranks[i] <= n, "multi_select_keys: rank out of range");
        BS_REQUIRE(i == 0 || ranks[i] > ranks[i - 1],
                   "multi_select_keys: ranks must be strictly increasing");
    }
}

} // namespace

void charge_multi_select(std::uint64_t n, std::span<const std::uint64_t> ranks,
                         WorkMeter* meter) {
    if (meter == nullptr) return;
    // The split recursion: select the middle rank of a subproblem of m
    // records, recurse on the left side, then continue on the right.
    std::uint64_t comparisons = 0, moves = 0;
    auto split = [&](auto& self, std::uint64_t m, std::span<const std::uint64_t> rs,
                     std::uint64_t rank_offset) -> void {
        while (!rs.empty()) {
            const std::size_t mid = rs.size() / 2;
            const std::uint64_t local = rs[mid] - rank_offset; // 1-based within the m records
            comparisons += 2 * m;
            moves += m / 2;
            self(self, local - 1, rs.first(mid), rank_offset);
            m -= local;
            rank_offset += local;
            rs = rs.subspan(mid + 1);
        }
    };
    split(split, n, ranks, 0);
    meter->add_comparisons(comparisons);
    meter->add_moves(moves);
}

std::vector<std::uint64_t> multi_select_keys(std::span<const Record> records,
                                             std::span<const std::uint64_t> ranks,
                                             WorkMeter* meter) {
    return multi_select_keys(records, ranks, Parallel{}, meter);
}

std::vector<std::uint64_t> multi_select_keys(std::span<const Record> records,
                                             std::span<const std::uint64_t> ranks,
                                             const Parallel& pool, WorkMeter* meter) {
    validate_ranks(records.size(), ranks);
    std::vector<std::uint64_t> out(ranks.size());
    if (!ranks.empty()) histogram_select<Record>(records, ranks, out.data(), pool);
    charge_multi_select(records.size(), ranks, meter);
    return out;
}

} // namespace balsort
