#include "pram/parallel_sort.hpp"

#include <algorithm>
#include <memory>

#include "util/common.hpp"
#include "util/math.hpp"
#include "util/workload.hpp"

namespace balsort {

namespace {

/// n·⌈log₂ n⌉: the comparisons charged for a merge sort of n elements.
std::uint64_t nlogn(std::uint64_t n) {
    return n == 0 ? 0 : n * std::max<std::uint64_t>(1, ilog2_ceil(n | 1));
}

} // namespace

void binary_merge(std::span<const Record> a, std::span<const Record> b, std::span<Record> out,
                  WorkMeter* meter) {
    BS_REQUIRE(out.size() == a.size() + b.size(), "binary_merge: output size mismatch");
    std::size_t i = 0, j = 0, k = 0;
    while (i < a.size() && j < b.size()) {
        if (b[j].key < a[i].key) {
            out[k++] = b[j++];
        } else {
            out[k++] = a[i++];
        }
    }
    while (i < a.size()) out[k++] = a[i++];
    while (j < b.size()) out[k++] = b[j++];
    if (meter != nullptr) {
        meter->add_comparisons(out.size());
        meter->add_moves(out.size());
    }
}

void charge_merge_sort(std::uint64_t n, std::size_t width, WorkMeter* meter, PramCost* cost) {
    if (n <= 1) return;
    const std::uint64_t p = std::min<std::uint64_t>(std::max<std::size_t>(width, 1), (n + 1) / 2);
    // Phase 1: each of the p lanes sorts its contiguous slice.
    if (meter != nullptr) meter->add_comparisons(nlogn(n / p) * p);
    if (cost != nullptr) {
        cost->charge_parallel_work(nlogn(n));
        cost->charge_collective();
    }
    // Phase 2: ⌈log₂ p⌉ rounds of pairwise merges (the Cole cascade in
    // shape; each round is a parallel collective). An odd run out passes
    // through, so a round leaves ⌈runs/2⌉ runs.
    for (std::uint64_t runs = p; runs > 1; runs = ceil_div(runs, 2)) {
        if (meter != nullptr) {
            meter->add_comparisons(n);
            meter->add_moves(n);
        }
        if (cost != nullptr) {
            cost->charge_parallel_work(2 * n);
            cost->charge_collective();
        }
    }
}

void charge_radix_sort(std::uint64_t n, WorkMeter* meter, PramCost* cost) {
    if (n <= 1) return;
    constexpr unsigned kPasses = (64 + 11 - 1) / 11; // radix 2^11
    for (unsigned pass = 0; pass < kPasses; ++pass) {
        if (meter != nullptr) meter->add_moves(2 * n);
        if (cost != nullptr) {
            cost->charge_parallel_work(2 * n);
            cost->charge_collective();
        }
    }
}

void charge_bucket_of(std::uint64_t n, std::size_t n_pivots, WorkMeter* meter) {
    if (meter != nullptr) {
        meter->add_comparisons(n * std::max<std::uint64_t>(1, ilog2_ceil(n_pivots | 1)));
    }
}

void stable_key_sort(std::span<Record> records, const Parallel& pool) {
    const std::size_t n = records.size();
    if (n <= kStableSortCutoff) {
        std::stable_sort(records.begin(), records.end(), KeyLess{});
        return;
    }
    constexpr unsigned kRadixBits = 11;
    constexpr std::size_t kBuckets = std::size_t{1} << kRadixBits;
    constexpr std::uint64_t kMask = kBuckets - 1;
    constexpr unsigned kDigits = (64 + kRadixBits - 1) / kRadixBits;

    // Per-lane histograms of every digit: hist(lane, digit)[bucket]. The
    // chunk geometry of parallel_for depends only on (n, width), so a
    // lane's chunk is the same in every pass.
    const std::size_t lanes = std::min(pool.size(), n);
    std::vector<std::size_t> counts(lanes * kDigits * kBuckets, 0);
    auto hist = [&](std::size_t lane, unsigned digit) {
        return counts.data() + (lane * kDigits + digit) * kBuckets;
    };
    std::vector<std::pair<std::size_t, std::size_t>> ranges(lanes, {0, 0});
    pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi, std::size_t w) {
        ranges[w] = {lo, hi};
        std::size_t* h = hist(w, 0);
        for (std::size_t i = lo; i < hi; ++i) {
            const std::uint64_t key = records[i].key;
            for (unsigned d = 0; d < kDigits; ++d) {
                h[d * kBuckets + ((key >> (d * kRadixBits)) & kMask)]++;
            }
        }
    });
    // A digit whose value is the same for every record would be a stable
    // no-op pass: skip it (a base-case bucket shares its high bits).
    std::vector<unsigned> active;
    for (unsigned d = 0; d < kDigits; ++d) {
        const std::uint64_t first = (records[0].key >> (d * kRadixBits)) & kMask;
        std::size_t same = 0;
        for (std::size_t w = 0; w < lanes; ++w) same += hist(w, d)[first];
        if (same != n) active.push_back(d);
    }
    if (active.empty()) return;

    // Uninitialized scratch: the first scatter writes every slot.
    const auto release = [n](Record* p) { std::allocator<Record>().deallocate(p, n); };
    const std::unique_ptr<Record, decltype(release)> scratch(std::allocator<Record>().allocate(n),
                                                             release);
    Record* src = records.data();
    Record* dst = scratch.get();
    for (std::size_t j = 0; j < active.size(); ++j) {
        const unsigned d = active[j];
        const unsigned shift = d * kRadixBits;
        if (j > 0 && lanes > 1) {
            // The records moved between lanes' chunks: recount this digit.
            pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi, std::size_t w) {
                BS_MODEL_CHECK(ranges[w] == std::make_pair(lo, hi),
                               "radix chunking changed between passes");
                std::size_t* h = hist(w, d);
                std::fill(h, h + kBuckets, 0);
                for (std::size_t i = lo; i < hi; ++i) h[(src[i].key >> shift) & kMask]++;
            });
        }
        // Exclusive scan over (bucket-major, lane-minor) so the scatter
        // below is stable.
        std::size_t acc = 0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            for (std::size_t w = 0; w < lanes; ++w) {
                const std::size_t c = hist(w, d)[b];
                hist(w, d)[b] = acc;
                acc += c;
            }
        }
        pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi, std::size_t w) {
            BS_MODEL_CHECK(ranges[w] == std::make_pair(lo, hi),
                           "radix chunking changed between passes");
            std::size_t* h = hist(w, d);
            const Record* in = src;
            Record* out = dst;
            for (std::size_t i = lo; i < hi; ++i) out[h[(in[i].key >> shift) & kMask]++] = in[i];
        });
        std::swap(src, dst);
    }
    if (src != records.data()) std::copy(src, src + n, records.data());
}

bool is_sorted_permutation_of(std::vector<Record> in, std::vector<Record> out) {
    if (in.size() != out.size() || !is_sorted_by_key(out)) return false;
    stable_key_sort(in, Parallel(1));
    // Both sides are now sorted by key, so equal multisets have equal key
    // sequences; within each equal-key run the payloads may differ only in
    // order.
    const auto by_payload = [](const Record& a, const Record& b) { return a.payload < b.payload; };
    for (std::size_t i = 0, j = 0; i < in.size(); i = j) {
        if (in[i].key != out[i].key) return false;
        for (j = i + 1; j < in.size() && in[j].key == in[i].key; ++j) {
            if (out[j].key != in[i].key) return false;
        }
        const auto a = in.begin() + static_cast<std::ptrdiff_t>(i);
        const auto b = out.begin() + static_cast<std::ptrdiff_t>(i);
        const auto len = static_cast<std::ptrdiff_t>(j - i);
        if (std::equal(a, a + len, b)) continue;
        std::sort(a, a + len, by_payload);
        std::sort(b, b + len, by_payload);
        if (!std::equal(a, a + len, b)) return false;
    }
    return true;
}

void parallel_merge_sort(std::span<Record> records, const Parallel& pool, WorkMeter* meter,
                         PramCost* cost) {
    stable_key_sort(records, pool);
    charge_merge_sort(records.size(), pool.size(), meter, cost);
}

void parallel_radix_sort(std::span<Record> records, const Parallel& pool, WorkMeter* meter,
                         PramCost* cost) {
    stable_key_sort(records, pool);
    charge_radix_sort(records.size(), meter, cost);
}

void multiway_merge(std::span<const std::span<const Record>> runs, std::span<Record> out,
                    WorkMeter* meter) {
    const std::size_t k = runs.size();
    std::size_t total = 0;
    for (const auto& r : runs) total += r.size();
    BS_REQUIRE(out.size() == total, "multiway_merge: output size mismatch");
    if (k == 0) return;
    if (k == 1) {
        std::copy(runs[0].begin(), runs[0].end(), out.begin());
        if (meter != nullptr) meter->add_moves(total);
        return;
    }

    // Loser tree over k runs. Leaves hold the current head of each run.
    const std::size_t width = std::size_t{1} << ilog2_ceil(k | 1);
    constexpr std::uint64_t kInfKey = ~std::uint64_t{0};
    struct Head {
        std::uint64_t key;
        std::uint32_t run;
    };
    std::vector<std::size_t> pos(k, 0);
    auto head_key = [&](std::size_t r) -> std::uint64_t {
        if (r >= k || pos[r] >= runs[r].size()) return kInfKey;
        return runs[r][pos[r]].key;
    };
    // Simple winner tree (rebuilt path per pop): tree[i] = run index of winner.
    std::vector<std::uint32_t> tree(2 * width, 0);
    for (std::size_t i = 0; i < width; ++i) tree[width + i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = width - 1; i >= 1; --i) {
        std::uint32_t a = tree[2 * i], b = tree[2 * i + 1];
        tree[i] = head_key(a) <= head_key(b) ? a : b;
        if (i == 1) break;
    }
    std::uint64_t comparisons = 0;
    for (std::size_t o = 0; o < total; ++o) {
        std::uint32_t r = tree[1];
        BS_MODEL_CHECK(head_key(r) != kInfKey, "loser tree produced exhausted run");
        out[o] = runs[r][pos[r]++];
        // Replay the path from leaf r upward.
        std::size_t node = (width + r) / 2;
        while (node >= 1) {
            std::uint32_t a = tree[2 * node], b = tree[2 * node + 1];
            tree[node] = head_key(a) <= head_key(b) ? a : b;
            ++comparisons;
            if (node == 1) break;
            node /= 2;
        }
    }
    if (meter != nullptr) {
        meter->add_comparisons(comparisons);
        meter->add_moves(total);
    }
}

namespace {

/// Count of records with key <= x (resp. < x) across all runs.
std::size_t count_leq(std::span<const std::span<const Record>> runs, std::uint64_t x) {
    std::size_t n = 0;
    for (const auto& r : runs) {
        n += static_cast<std::size_t>(
            std::upper_bound(r.begin(), r.end(), x,
                             [](std::uint64_t k, const Record& rec) { return k < rec.key; }) -
            r.begin());
    }
    return n;
}

std::size_t run_lower_bound(std::span<const Record> r, std::uint64_t x) {
    return static_cast<std::size_t>(
        std::lower_bound(r.begin(), r.end(), x,
                         [](const Record& rec, std::uint64_t k) { return rec.key < k; }) -
        r.begin());
}

std::size_t run_upper_bound(std::span<const Record> r, std::uint64_t x) {
    return static_cast<std::size_t>(
        std::upper_bound(r.begin(), r.end(), x,
                         [](std::uint64_t k, const Record& rec) { return k < rec.key; }) -
        r.begin());
}

} // namespace

void multiway_merge(std::span<const std::span<const Record>> runs, std::span<Record> out,
                    const Parallel& pool, WorkMeter* meter) {
    const std::size_t k = runs.size();
    std::size_t total = 0;
    for (const auto& r : runs) total += r.size();
    BS_REQUIRE(out.size() == total, "multiway_merge: output size mismatch");

    // The serial loser tree emits records in (key, run index, position)
    // order: equal keys tie-break toward the left subtree, i.e. the lower
    // run index. Splitting the *output rank space* along that same order
    // makes every part independent and the concatenation byte-identical.
    constexpr std::size_t kMinPart = 1024; // don't fan out trivial merges
    const std::size_t parts =
        std::min(pool.size(), std::max<std::size_t>(1, total / kMinPart));
    if (parts <= 1 || k <= 1) {
        multiway_merge(runs, out, meter);
        return;
    }

    // bounds[i][r]: index into runs[r] where part i begins. Part i covers
    // output ranks [total·i/parts, total·(i+1)/parts). The split key for a
    // rank target is found by binary search over the u64 key domain; the
    // residue of equal keys is assigned to runs in run-index order.
    std::vector<std::vector<std::size_t>> bounds(parts + 1, std::vector<std::size_t>(k, 0));
    for (std::size_t r = 0; r < k; ++r) bounds[parts][r] = runs[r].size();
    for (std::size_t i = 1; i < parts; ++i) {
        const std::size_t t = total * i / parts;
        std::uint64_t lo = 0, hi = ~std::uint64_t{0};
        while (lo < hi) { // minimal x with count_leq(x) >= t
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (count_leq(runs, mid) >= t) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        const std::uint64_t x = lo;
        std::size_t count_less = 0;
        for (std::size_t r = 0; r < k; ++r) count_less += run_lower_bound(runs[r], x);
        std::size_t q = t - count_less; // ==x records in the prefix, run order
        for (std::size_t r = 0; r < k; ++r) {
            const std::size_t lb = run_lower_bound(runs[r], x);
            const std::size_t ub = run_upper_bound(runs[r], x);
            const std::size_t take = std::min(q, ub - lb);
            bounds[i][r] = lb + take;
            q -= take;
        }
        BS_MODEL_CHECK(q == 0, "multiway_merge: rank split lost equal-key records");
    }

    std::vector<WorkMeter> part_meters(parts);
    pool.parallel_for(0, parts, [&](std::size_t plo, std::size_t phi, std::size_t) {
        for (std::size_t part = plo; part < phi; ++part) {
            std::vector<std::span<const Record>> sub(k);
            std::size_t out_lo = 0, part_total = 0;
            for (std::size_t r = 0; r < k; ++r) {
                out_lo += bounds[part][r];
                const std::size_t len = bounds[part + 1][r] - bounds[part][r];
                sub[r] = runs[r].subspan(bounds[part][r], len);
                part_total += len;
            }
            multiway_merge(std::span<const std::span<const Record>>(sub),
                           out.subspan(out_lo, part_total), &part_meters[part]);
        }
    });
    if (meter != nullptr) {
        std::uint64_t comparisons = 0;
        for (const WorkMeter& pm : part_meters) comparisons += pm.comparisons();
        meter->add_comparisons(comparisons);
        meter->add_moves(total);
    }
}

std::vector<std::uint32_t> bucket_of(std::span<const Record> records,
                                     std::span<const std::uint64_t> pivots, WorkMeter* meter) {
    return bucket_of(records, pivots, Parallel{}, meter);
}

std::vector<std::uint32_t> bucket_of(std::span<const Record> records,
                                     std::span<const std::uint64_t> pivots, const Parallel& pool,
                                     WorkMeter* meter) {
    // bucket = number of pivots <= key (keys equal to a pivot go right, so
    // bucket i covers [pivots[i-1], pivots[i]) exclusive of pivot).
    std::vector<std::uint32_t> idx(records.size());
    pool.parallel_for(0, records.size(), [&](std::size_t lo, std::size_t hi, std::size_t) {
        if (pivots.size() <= kCountClassifyMax) {
            for (std::size_t i = lo; i < hi; ++i) idx[i] = pivot_count_le(pivots, records[i].key);
        } else {
            for (std::size_t i = lo; i < hi; ++i) idx[i] = pivot_upper_bound(pivots, records[i].key);
        }
    });
    charge_bucket_of(records.size(), pivots.size(), meter);
    return idx;
}

} // namespace balsort
