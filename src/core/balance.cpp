#include "core/balance.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>

#include "core/block_fill.hpp"
#include "obs/metrics.hpp"
#include "pram/hungarian.hpp"
#include "pram/quantile_sketch.hpp"
#include "util/math.hpp"

namespace balsort {

std::string BalanceTimeline::to_json() const {
    std::ostringstream os;
    write_json(os);
    return os.str();
}

bool BalanceTimeline::write_json_file(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    write_json(os);
    return os.good();
}

void BalanceStats::merge(const BalanceStats& o) {
    tracks += o.tracks;
    direct_blocks += o.direct_blocks;
    matched_blocks += o.matched_blocks;
    deferred_blocks += o.deferred_blocks;
    rearrange_rounds += o.rearrange_rounds;
    max_rounds_per_track = std::max(max_rounds_per_track, o.max_rounds_per_track);
    match_draws += o.match_draws;
    invariant1_held = invariant1_held && o.invariant1_held;
    invariant2_held = invariant2_held && o.invariant2_held;
}

std::vector<BucketOutput> balance_pass(RecordSource& input, const PivotSet& pivots,
                                       VirtualDisks& vdisks, std::uint64_t memory_records,
                                       const BalanceOptions& opt, const Parallel& pool,
                                       WorkMeter* meter, PramCost* cost, BalanceStats* stats,
                                       std::uint32_t sketch_child_s, BufferPool* buffers) {
    const std::uint32_t s_eff = pivots.n_buckets();
    const std::uint32_t dv = vdisks.count();
    BS_REQUIRE(memory_records >= vdisks.vblock_records(),
               "balance_pass: memoryload smaller than a virtual block");

    BalanceMatrices matrices(s_eff, dv, opt.aux);
    Xoshiro256 rng(opt.seed);
    BalanceStats local_stats;

    // Balance-quality observation (DESIGN.md §12): the per-track timeline
    // recorder (opt-in via BalanceOptions) and the installed metrics
    // registry. Both only *read* matrices and stats after each track, so
    // model quantities are untouched (pinned by the overhead-guard test).
    BalanceTimeline* timeline = opt.timeline;
    std::uint32_t pass_id = 0;
    if (timeline != nullptr) pass_id = timeline->passes++;
    MetricsRegistry* mreg = metrics();
    Histogram* h_rounds = nullptr;
    Histogram* h_skew = nullptr;
    Counter* c_matched = nullptr;
    Counter* c_deferred = nullptr;
    Counter* c_direct = nullptr;
    Counter* c_tracks = nullptr;
    if (mreg != nullptr) {
        h_rounds = &mreg->histogram("balance.rebalance_rounds");
        h_skew = &mreg->histogram("balance.track_skew");
        c_matched = &mreg->counter("balance.matched_blocks");
        c_deferred = &mreg->counter("balance.deferred_blocks");
        c_direct = &mreg->counter("balance.direct_blocks");
        c_tracks = &mreg->counter("balance.tracks");
    }

    // The block arena and the track write staging (BlockFill), leased once
    // per pass and reused across all tracks; each memoryload is read in
    // place from the source's buffer.
    BlockFill fill(vdisks, pivots, std::min<std::uint64_t>(memory_records, input.remaining()),
                   buffers);
    std::vector<BucketOutput>& buckets = fill.buckets;
    // Streaming-sketch pivots for the next level (PivotMethod::
    // kStreamingSketch): one deterministic quantile sketch per open-range
    // bucket, fed during partitioning below.
    std::vector<std::unique_ptr<QuantileSketch>> sketches;
    if (sketch_child_s >= 2) {
        sketches.resize(s_eff);
        const std::size_t k = std::max<std::size_t>(64, 32ull * sketch_child_s);
        for (std::uint32_t b = 0; b < s_eff; ++b) {
            if (!buckets[b].is_equal_class) {
                sketches[b] = std::make_unique<QuantileSketch>(k);
            }
        }
    }

    std::uint32_t rr_cursor = 0; // cyclic assignment cursor
    std::uint64_t stalled_tracks = 0;

    // Per-track scratch, cleared per track (indices j are track positions).
    std::vector<BlockFill::Block> track, now;
    std::vector<std::uint32_t> assigned, pending, offender_js, later, hs;
    std::vector<bool> was_matched, used;

    while (true) {
        // ---- Refill the ready queue from the input (one memoryload). ----
        if (fill.ready.size() < dv && input.remaining() > 0) {
            const std::span<const Record> chunk = input.next(memory_records);
            // Partition the memoryload into buckets (Algorithm 3 line (1)):
            // bucket indices computed data-parallel, scatter sequential.
            const std::span<const std::uint32_t> chunk_bucket = fill.scatter(chunk, pool);
            charge_classify(chunk.size(), s_eff, meter, cost);
            for (std::size_t i = 0; i < chunk.size() && !sketches.empty(); ++i) {
                if (const auto& sk = sketches[chunk_bucket[i]]) sk->add(chunk[i].key);
            }
            // Input exhausted: the final partial blocks join the queue.
            if (input.remaining() == 0) fill.flush_tails();
        }
        if (fill.ready.empty()) {
            if (input.remaining() == 0) break;
            continue;
        }

        // ---- Form a track of up to D' blocks (Algorithm 3). ----
        const BalanceStats before_track = local_stats; // observer deltas
        fill.take(dv, track);
        const auto k = static_cast<std::uint32_t>(track.size());
        // Tentative assignment to distinct virtual disks.
        assigned.resize(k);
        if (opt.assign == AssignPolicy::kCyclic) {
            for (std::uint32_t j = 0; j < k; ++j) assigned[j] = (rr_cursor + j) % dv;
            rr_cursor = (rr_cursor + 1) % dv;
        } else if (opt.assign == AssignPolicy::kMinCostMatching) {
            // §6 conjecture: cost of placing block j (bucket b_j) on vdisk
            // h is the current histogram load x_{b_j,h}; the Hungarian
            // assignment spreads the track with globally minimal imbalance.
            std::vector<std::int64_t> cost_matrix(static_cast<std::size_t>(k) * dv);
            for (std::uint32_t j = 0; j < k; ++j) {
                for (std::uint32_t h = 0; h < dv; ++h) {
                    cost_matrix[static_cast<std::size_t>(j) * dv + h] =
                        matrices.x(track[j].bucket, h);
                }
            }
            assigned = min_cost_assignment(cost_matrix, k, dv);
            if (cost != nullptr) cost->charge_collectives(k); // the matching work
        } else {
            used.assign(dv, false);
            for (std::uint32_t j = 0; j < k; ++j) {
                std::uint32_t best = dv, best_x = ~std::uint32_t{0};
                for (std::uint32_t h = 0; h < dv; ++h) {
                    if (!used[h] && matrices.x(track[j].bucket, h) < best_x) {
                        best = h;
                        best_x = matrices.x(track[j].bucket, h);
                    }
                }
                BS_MODEL_CHECK(best < dv, "assignment ran out of virtual disks");
                used[best] = true;
                assigned[j] = best;
            }
        }
        for (std::uint32_t j = 0; j < k; ++j) {
            matrices.increment(track[j].bucket, assigned[j]); // line (3)
        }
        matrices.compute_aux(); // Algorithm 4
        if (cost != nullptr) {
            cost->charge_parallel_work(static_cast<std::uint64_t>(s_eff) * dv);
            cost->charge_collective();
        }

        // ---- Place every block of the track: direct writes, Rebalance
        // (Algorithm 5) rounds of Rearrange (Algorithm 6), or deferral.
        // A block's own status is aux(bucket, assigned-vdisk): <= 1 means
        // its placement is acceptable (writable), >= 2 means it is an
        // offender that must be matched away or deferred. Matched moves can
        // raise a row's median and thereby *free* other offenders — those
        // simply become writable in a later round.
        pending.resize(k);
        for (std::uint32_t j = 0; j < k; ++j) pending[j] = j;
        was_matched.assign(k, false);
        std::uint64_t rounds = 0;
        std::uint64_t written_this_track = 0;
        const std::uint64_t defer_threshold = std::max<std::uint64_t>(1, dv / 2);
        std::uint64_t safety = 0;
        while (!pending.empty()) {
            BS_MODEL_CHECK(++safety <= 4ull * dv + 16, "track placement failed to converge");
            // Classify pending blocks by their own aux entry and write the
            // writable ones — at most one per virtual disk per parallel step
            // (vdisk duplicates wait one round; they only arise when a
            // matched move targets a vdisk that still carries another
            // pending block).
            offender_js.clear();
            later.clear();
            now.clear();
            hs.clear();
            used.assign(dv, false);
            for (std::uint32_t j : pending) {
                if (matrices.aux(track[j].bucket, assigned[j]) >= 2) {
                    offender_js.push_back(j);
                } else if (used[assigned[j]]) {
                    later.push_back(j);
                } else {
                    used[assigned[j]] = true;
                    (was_matched[j] ? local_stats.matched_blocks : local_stats.direct_blocks) += 1;
                    now.push_back(track[j]);
                    hs.push_back(assigned[j]);
                }
            }
            written_this_track += now.size();
            fill.write(now, hs); // Algorithm 3 line (6) / Algorithm 6 line (5)
            pending.assign(later.begin(), later.end());
            pending.insert(pending.end(), offender_js.begin(), offender_js.end());
            if (offender_js.empty()) continue; // only vdisk collisions left
            // ---- Rebalance decision (Algorithm 5). ----
            const bool defer_now = opt.defer == DeferPolicy::kPaperDefer &&
                                   offender_js.size() < defer_threshold;
            // U := the next floor(D'/2) offenders with at least one
            // candidate (capping |U| preserves Invariant 1's free-candidate
            // guarantee under the paper rule; the [Arg] rule can produce
            // candidate-less offenders, which are deferred).
            std::vector<std::uint32_t> u;
            std::vector<std::vector<std::uint32_t>> candidates;
            if (!defer_now) {
                for (std::uint32_t j : offender_js) {
                    if (u.size() >= std::max<std::uint32_t>(1, dv / 2)) break;
                    std::vector<std::uint32_t> cand;
                    for (std::uint32_t h = 0; h < dv; ++h) {
                        if (matrices.aux(track[j].bucket, h) == 0) cand.push_back(h);
                    }
                    if (!cand.empty()) {
                        u.push_back(j);
                        candidates.push_back(std::move(cand));
                    }
                }
            }
            if (defer_now || u.empty()) {
                // Defer every remaining offender (Algorithm 3 line (7)):
                // roll X back and conceptually return the block to the
                // input. The entries removed sit above their row medians,
                // so the rollback cannot create new 2s.
                std::size_t kept = 0;
                for (std::uint32_t j : pending) {
                    if (matrices.aux(track[j].bucket, assigned[j]) >= 2) {
                        matrices.decrement(track[j].bucket, assigned[j]);
                        fill.ready.push_front(track[j]);
                        local_stats.deferred_blocks += 1;
                    } else {
                        pending[kept++] = j;
                    }
                }
                pending.resize(kept);
                matrices.compute_aux();
                continue;
            }
            MatchResult match = fast_partial_match(candidates, dv, opt.matching, rng);
            local_stats.match_draws += match.draws;
            if (cost != nullptr) cost->charge_collectives(2); // sort + route of §4.2
            // A round that matches nothing (randomized-engine conflicts)
            // is retried; the safety counter above bounds the total.
            for (std::size_t i = 0; i < u.size(); ++i) {
                if (match.matched[i] == MatchResult::kUnmatched) continue;
                const std::uint32_t j = u[i];
                const std::uint32_t h_to = match.matched[i];
                matrices.decrement(track[j].bucket, assigned[j]);
                matrices.increment(track[j].bucket, h_to);
                assigned[j] = h_to;
                was_matched[j] = true;
            }
            matrices.compute_aux();
            ++rounds;
        }
        local_stats.rearrange_rounds += rounds;
        local_stats.max_rounds_per_track = std::max(local_stats.max_rounds_per_track, rounds);

        // ---- Track bookkeeping & invariants. ----
        // Invariant 1 is definitional only under the paper's median rule
        // (the [Arg] ablation rule does not promise ceil(H'/2) zeros);
        // Invariant 2 must hold after every track under either rule.
        local_stats.tracks += 1;
        if (opt.aux == AuxRule::kPaperMedian) {
            local_stats.invariant1_held = local_stats.invariant1_held && matrices.invariant1();
        }
        local_stats.invariant2_held = local_stats.invariant2_held && matrices.invariant2();
        if (opt.check_invariants) {
            if (opt.aux == AuxRule::kPaperMedian) {
                BS_MODEL_CHECK(matrices.invariant1(), "Invariant 1 violated after track");
            }
            BS_MODEL_CHECK(matrices.invariant2(), "Invariant 2 violated after track");
        }
        if (written_this_track == 0) {
            BS_MODEL_CHECK(++stalled_tracks <= 4ull * dv + 8,
                           "Balance made no progress for many consecutive tracks");
        } else {
            stalled_tracks = 0;
        }

        // ---- Balance-quality sample (timeline and/or metrics). ----
        if (timeline != nullptr || mreg != nullptr) {
            BalanceTrackSample smp;
            smp.pass = pass_id;
            smp.track = static_cast<std::uint32_t>(local_stats.tracks - 1);
            std::uint32_t col_min = ~std::uint32_t{0}, col_max = 0;
            for (std::uint32_t h = 0; h < dv; ++h) {
                std::uint32_t col = 0;
                for (std::uint32_t b = 0; b < s_eff; ++b) col += matrices.x(b, h);
                col_min = std::min(col_min, col);
                col_max = std::max(col_max, col);
            }
            smp.occupancy_spread = col_max - col_min;
            for (std::uint32_t b = 0; b < s_eff; ++b) {
                std::uint64_t row_sum = 0;
                for (std::uint32_t h = 0; h < dv; ++h) {
                    const std::uint32_t a = matrices.aux(b, h);
                    smp.max_a = std::max(smp.max_a, a);
                    row_sum += a;
                }
                smp.a_row_sum_max = std::max(smp.a_row_sum_max, row_sum);
            }
            smp.rounds = static_cast<std::uint32_t>(rounds);
            smp.direct =
                static_cast<std::uint32_t>(local_stats.direct_blocks - before_track.direct_blocks);
            smp.matched = static_cast<std::uint32_t>(local_stats.matched_blocks -
                                                     before_track.matched_blocks);
            smp.deferred = static_cast<std::uint32_t>(local_stats.deferred_blocks -
                                                      before_track.deferred_blocks);
            if (timeline != nullptr) timeline->tracks.push_back(smp);
            if (mreg != nullptr) {
                h_rounds->record(smp.rounds);
                h_skew->record(smp.occupancy_spread);
                c_matched->add(smp.matched);
                c_deferred->add(smp.deferred);
                c_direct->add(smp.direct);
                c_tracks->add(1);
            }
        }
    }

    // Emit the per-bucket sketch pivots for the next level.
    for (std::uint32_t b = 0; b < s_eff; ++b) {
        if (sketches.empty() || sketches[b] == nullptr || buckets[b].run.n_records == 0) {
            continue;
        }
        buckets[b].sketch_pivots.keys = sketches[b]->quantiles(sketch_child_s - 1);
        buckets[b].has_sketch_pivots = !buckets[b].sketch_pivots.keys.empty();
        if (meter != nullptr) {
            // Sketch maintenance: amortized O(log(n/k)) comparisons/record.
            meter->add_comparisons(buckets[b].run.n_records *
                                   std::max<std::size_t>(1, sketches[b]->levels()));
        }
    }
    if (stats != nullptr) stats->merge(local_stats);
    return std::move(buckets);
}

} // namespace balsort
