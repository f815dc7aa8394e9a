#include "baselines/greed_sort.hpp"

#include <algorithm>
#include <map>

#include "util/math.hpp"

namespace balsort {

std::uint32_t greed_merge_degree(const PdmConfig& cfg) {
    return static_cast<std::uint32_t>(
        std::max<std::uint64_t>(2, isqrt(cfg.m / cfg.b)));
}

namespace {

/// One run being merged. Blocks may be fetched out of order (each disk
/// independently grabs its most urgent pending block — the greedy,
/// independent-disk schedule that distinguishes Greed Sort from striping);
/// records are emitted only from the contiguous fetched prefix.
struct RunState {
    const BlockRun* run = nullptr;
    std::vector<std::uint64_t> fence;        // fence[i] = min key of block i
    std::vector<std::uint8_t> fetched;       // per block
    std::map<std::uint64_t, std::vector<Record>> pending; // fetched, non-contiguous
    std::uint64_t prefix = 0;                // blocks fully merged-ready: [0, prefix) consumed or buffered
    std::vector<Record> buffered;            // contiguous prefix records
    std::size_t pos = 0;                     // emit cursor

    bool has_records() const { return pos < buffered.size(); }
    const Record& head() const { return buffered[pos]; }

    /// First unfetched block index, or n_blocks if all fetched.
    std::uint64_t first_unfetched() const {
        std::uint64_t i = prefix;
        while (i < run->blocks.size() && fetched[i] != 0) ++i;
        return i;
    }

    /// Key floor still on disk for this run.
    std::uint64_t disk_fence() const {
        const std::uint64_t i = first_unfetched();
        return i < run->blocks.size() ? fence[i] : ~std::uint64_t{0};
    }

    /// Pull newly contiguous fetched blocks into the emit buffer.
    void absorb() {
        while (true) {
            auto it = pending.find(prefix);
            if (it == pending.end()) break;
            // Compact the consumed part of the buffer first.
            if (pos > 0) {
                buffered.erase(buffered.begin(), buffered.begin() + static_cast<std::ptrdiff_t>(pos));
                pos = 0;
            }
            buffered.insert(buffered.end(), it->second.begin(), it->second.end());
            pending.erase(it);
            ++prefix;
        }
    }
};

/// One greedy parallel read step: EVERY disk independently fetches its
/// most urgent pending block — the smallest fence key among all runs'
/// unfetched blocks residing on that disk. (Runs are striped round-robin,
/// so each run offers every disk roughly one block per stripe; out-of-order
/// fetches within a run wait in `pending` until contiguous.) Returns the
/// valid records fetched; `any_left` reports whether any run still had an
/// unfetched block before the step.
std::uint64_t greedy_read_step(DiskArray& disks, std::vector<RunState>& st, bool* any_left) {
    const std::uint32_t b = disks.block_size();
    const std::uint32_t d = disks.num_disks();
    struct Pick {
        std::size_t run = ~std::size_t{0};
        std::uint64_t block = 0;
        std::uint64_t key = ~std::uint64_t{0};
    };
    std::vector<Pick> pick(d);
    *any_left = false;
    for (std::size_t i = 0; i < st.size(); ++i) {
        auto& s = st[i];
        const std::uint64_t nb = s.run->blocks.size();
        std::vector<std::uint8_t> disk_seen(d, 0);
        std::size_t seen = 0;
        for (std::uint64_t blk = s.first_unfetched(); blk < nb && seen < d; ++blk) {
            if (s.fetched[blk] != 0) continue;
            *any_left = true;
            const std::uint32_t dk = s.run->blocks[blk].disk;
            if (disk_seen[dk] != 0) continue; // only the run's first per disk
            disk_seen[dk] = 1;
            ++seen;
            if (s.fence[blk] < pick[dk].key) pick[dk] = Pick{i, blk, s.fence[blk]};
        }
    }
    std::vector<BlockOp> ops;
    std::vector<Pick> op_pick;
    for (std::uint32_t dk = 0; dk < d; ++dk) {
        if (pick[dk].run == ~std::size_t{0}) continue;
        ops.push_back(st[pick[dk].run].run->blocks[pick[dk].block]);
        op_pick.push_back(pick[dk]);
    }
    if (ops.empty()) return 0;
    std::vector<Record> buf(ops.size() * static_cast<std::size_t>(b));
    disks.read_batch(ops, buf); // distinct disks: one step
    std::uint64_t fetched = 0;
    for (std::size_t q = 0; q < ops.size(); ++q) {
        auto& s = st[op_pick[q].run];
        const std::uint64_t blk = op_pick[q].block;
        const std::uint64_t valid = std::min<std::uint64_t>(b, s.run->n_records - blk * b);
        s.fetched[blk] = 1;
        const auto first = buf.begin() + static_cast<std::ptrdiff_t>(q * b);
        s.pending.emplace(blk, std::vector<Record>(first, first + static_cast<std::ptrdiff_t>(valid)));
        fetched += valid;
    }
    for (auto& s : st) s.absorb();
    return fetched;
}

/// A sorted striped run and its fence keys (the first key of each block):
/// standard external-merge metadata.
struct RunWithFence {
    BlockRun run;
    std::vector<std::uint64_t> fence;
};

/// Fence `run`, whose records are `data`.
RunWithFence fenced(BlockRun run, std::span<const Record> data, std::uint32_t b) {
    RunWithFence out{std::move(run), {}};
    out.fence.resize(out.run.blocks.size());
    for (std::size_t i = 0; i < out.fence.size(); ++i) out.fence[i] = data[i * b].key;
    return out;
}

/// Run formation: each memoryload of the input sorted in place and
/// written as a fenced striped run.
std::vector<RunWithFence> form_runs(DiskArray& disks, const BlockRun& input, std::uint64_t m) {
    std::vector<RunWithFence> runs;
    RunReader in(disks, input);
    while (in.remaining() > 0) {
        const std::span<Record> load = in.next(m);
        std::sort(load.begin(), load.end(), KeyLess{});
        runs.push_back(fenced(write_striped(disks, load), load, disks.block_size()));
    }
    return runs;
}

} // namespace

BlockRun greed_sort(DiskArray& disks, const BlockRun& input, const PdmConfig& cfg,
                    GreedSortReport* report) {
    cfg.validate();
    BS_REQUIRE(input.n_records == cfg.n, "greed_sort: cfg.n != input.n_records");
    const IoStats before = disks.stats();
    const std::uint32_t b = disks.block_size();
    const std::uint32_t r_degree = greed_merge_degree(cfg);
    std::uint64_t peak_buffered = 0;

    // ---- Run formation (memoryload runs + fence-key index). ----
    std::vector<RunWithFence> runs = form_runs(disks, input, cfg.m);
    const std::uint64_t initial_runs = runs.size();

    // ---- Greedy merge passes. ----
    std::uint32_t passes = 0;
    while (runs.size() > 1) {
        std::vector<RunWithFence> next;
        for (std::size_t g = 0; g < runs.size(); g += r_degree) {
            const std::size_t ge = std::min(runs.size(), g + r_degree);
            if (ge - g == 1) {
                next.push_back(std::move(runs[g]));
                continue;
            }
            std::vector<RunState> st(ge - g);
            std::uint64_t total = 0;
            for (std::size_t i = 0; i < st.size(); ++i) {
                st[i].run = &runs[g + i].run;
                st[i].fence = runs[g + i].fence;
                st[i].fetched.assign(st[i].run->blocks.size(), 0);
                total += st[i].run->n_records;
            }
            RunWriter out(disks);
            std::vector<Record> out_data;
            out_data.reserve(total);

            std::uint64_t buffered_now = 0;
            while (true) {
                bool any_blocks_left = false;
                buffered_now += greedy_read_step(disks, st, &any_blocks_left);
                peak_buffered = std::max(peak_buffered, buffered_now);

                // Emit every record provably no larger than anything still
                // on disk.
                std::uint64_t safe = ~std::uint64_t{0};
                for (const auto& s : st) safe = std::min(safe, s.disk_fence());
                while (true) {
                    RunState* best = nullptr;
                    for (auto& s : st) {
                        if (!s.has_records()) continue;
                        if (best == nullptr || s.head().key < best->head().key) best = &s;
                    }
                    if (best == nullptr) break;
                    if (best->head().key > safe ||
                        (best->head().key == safe && any_blocks_left)) {
                        break; // could tie with an unfetched block's head
                    }
                    out.append(best->head());
                    out_data.push_back(best->head());
                    best->pos += 1;
                    buffered_now -= 1;
                }
                if (!any_blocks_left) {
                    const bool any_records =
                        std::any_of(st.begin(), st.end(), [](const RunState& s) {
                            return s.has_records() || !s.pending.empty();
                        });
                    if (!any_records) break;
                }
            }
            next.push_back(fenced(out.finish(), out_data, b));
        }
        runs = std::move(next);
        ++passes;
    }

    BlockRun result = runs.empty() ? write_striped(disks, {}) : std::move(runs.front().run);
    BS_MODEL_CHECK(result.n_records == cfg.n, "greed sort: output record count mismatch");
    if (report != nullptr) {
        report->io = disks.stats() - before;
        report->passes = passes;
        report->merge_degree = r_degree;
        report->initial_runs = initial_runs;
        report->peak_buffered = peak_buffered;
        report->optimal_ios = cfg.optimal_ios();
        report->io_ratio = report->optimal_ios > 0
                               ? static_cast<double>(report->io.io_steps()) / report->optimal_ios
                               : 0;
    }
    return result;
}

namespace {

/// Approximate merge of `group` runs: per step every disk fetches its most
/// urgent block (same greedy schedule as the exact variant), then the D*B
/// smallest buffered records are emitted *unconditionally*. Tracks the
/// max displacement (how far any record was emitted before a smaller one
/// still on disk) by comparing against the disk fence.
struct ApproxMergeOut {
    BlockRun run;
    std::vector<Record> data; // for the next pass's fence index
    std::uint64_t max_displacement = 0;
};

ApproxMergeOut approx_merge_group(DiskArray& disks, std::uint32_t b, std::uint32_t d,
                                  std::span<const BlockRun* const> group,
                                  std::span<const std::vector<std::uint64_t>* const> fences) {
    std::vector<RunState> st(group.size());
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < st.size(); ++i) {
        st[i].run = group[i];
        st[i].fence = *fences[i];
        st[i].fetched.assign(group[i]->blocks.size(), 0);
        total += group[i]->n_records;
    }
    ApproxMergeOut out;
    out.data.reserve(total);
    RunWriter writer(disks);
    while (out.data.size() < total) {
        // Greedy read step (the exact variant's schedule).
        bool any_left = false;
        (void)greedy_read_step(disks, st, &any_left);
        // Unconditional emission of up to D*B smallest buffered records —
        // the approximate part: a smaller record may still be on disk.
        std::uint64_t quota = static_cast<std::uint64_t>(d) * b;
        while (quota > 0) {
            RunState* best = nullptr;
            for (auto& s : st) {
                if (!s.has_records()) continue;
                if (best == nullptr || s.head().key < best->head().key) best = &s;
            }
            if (best == nullptr) break;
            writer.append(best->head());
            out.data.push_back(best->head());
            best->pos += 1;
            --quota;
        }
    }
    // Exact displacement of the approximate output (for the report and
    // the NoV L-bound check): position minus key rank, duplicates counted
    // by first occurrence.
    {
        std::vector<std::uint64_t> keys(out.data.size());
        for (std::size_t i = 0; i < out.data.size(); ++i) keys[i] = out.data[i].key;
        std::vector<std::uint64_t> sorted_keys = keys;
        std::sort(sorted_keys.begin(), sorted_keys.end());
        for (std::size_t i = 0; i < keys.size(); ++i) {
            // With duplicates, position i is displacement-free anywhere in
            // the key's rank interval [lower_bound, upper_bound).
            const auto hi = static_cast<std::uint64_t>(
                std::upper_bound(sorted_keys.begin(), sorted_keys.end(), keys[i]) -
                sorted_keys.begin());
            if (i >= hi) {
                out.max_displacement =
                    std::max<std::uint64_t>(out.max_displacement, i - (hi - 1));
            }
        }
    }
    out.run = writer.finish();
    return out;
}

/// Streaming cleanup: a sliding sorted window of `window` records; emit
/// the lower half each refill. Correct iff every record's displacement is
/// < window/2 (hard-checked via output monotonicity).
BlockRun cleanup_pass(DiskArray& disks, const BlockRun& approx, std::uint64_t window,
                      std::vector<Record>* out_data) {
    RunReader in(disks, approx);
    RunWriter out(disks);
    std::vector<Record> win;
    win.reserve(window + approx.n_records % std::max<std::uint64_t>(window, 1));
    std::uint64_t last_emitted = 0;
    bool any_emitted = false;
    auto emit = [&](std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
            BS_MODEL_CHECK(!any_emitted || win[i].key >= last_emitted,
                           "greed cleanup: displacement exceeded the window");
            last_emitted = win[i].key;
            any_emitted = true;
            out.append(win[i]);
            if (out_data != nullptr) out_data->push_back(win[i]);
        }
        win.erase(win.begin(), win.begin() + static_cast<std::ptrdiff_t>(count));
    };
    while (in.remaining() > 0) {
        const std::span<const Record> chunk = in.next(window - win.size());
        win.insert(win.end(), chunk.begin(), chunk.end());
        std::sort(win.begin(), win.end(), KeyLess{});
        if (win.size() >= window) emit(window / 2);
    }
    std::sort(win.begin(), win.end(), KeyLess{});
    emit(win.size());
    return out.finish();
}

} // namespace

BlockRun greed_sort_approximate(DiskArray& disks, const BlockRun& input, const PdmConfig& cfg,
                                GreedApproxReport* report) {
    cfg.validate();
    BS_REQUIRE(input.n_records == cfg.n, "greed_sort_approximate: cfg.n != input.n_records");
    const IoStats before = disks.stats();
    const std::uint32_t b = disks.block_size();
    const std::uint32_t d = disks.num_disks();
    const std::uint32_t r_degree = greed_merge_degree(cfg);
    // L <= R*D*B: the NoV displacement bound for the greedy emission.
    const std::uint64_t window =
        2 * std::max<std::uint64_t>(static_cast<std::uint64_t>(r_degree) * d * b,
                                    static_cast<std::uint64_t>(d) * b);
    std::uint64_t max_disp = 0;

    std::vector<RunWithFence> runs = form_runs(disks, input, cfg.m);

    std::uint32_t passes = 0;
    while (runs.size() > 1) {
        std::vector<RunWithFence> next;
        for (std::size_t g = 0; g < runs.size(); g += r_degree) {
            const std::size_t ge = std::min(runs.size(), g + r_degree);
            if (ge - g == 1) {
                next.push_back(std::move(runs[g]));
                continue;
            }
            std::vector<const BlockRun*> group;
            std::vector<const std::vector<std::uint64_t>*> fences;
            for (std::size_t i = g; i < ge; ++i) {
                group.push_back(&runs[i].run);
                fences.push_back(&runs[i].fence);
            }
            ApproxMergeOut approx = approx_merge_group(disks, b, d, group, fences);
            max_disp = std::max(max_disp, approx.max_displacement);
            // Cleanup pass restores exact sortedness of the merged run.
            std::vector<Record> cleaned;
            cleaned.reserve(approx.run.n_records);
            BlockRun fixed = cleanup_pass(disks, approx.run, window, &cleaned);
            next.push_back(fenced(std::move(fixed), cleaned, b));
        }
        runs = std::move(next);
        ++passes;
    }

    BlockRun result = runs.empty() ? write_striped(disks, {}) : std::move(runs.front().run);
    BS_MODEL_CHECK(result.n_records == cfg.n,
                   "greed_sort_approximate: output record count mismatch");
    if (report != nullptr) {
        report->io = disks.stats() - before;
        report->passes = passes;
        report->merge_degree = r_degree;
        report->max_displacement = max_disp;
        report->window = window;
        report->optimal_ios = cfg.optimal_ios();
        report->io_ratio = report->optimal_ios > 0
                               ? static_cast<double>(report->io.io_steps()) / report->optimal_ios
                               : 0;
    }
    return result;
}

} // namespace balsort
