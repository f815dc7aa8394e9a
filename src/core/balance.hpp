#pragma once
/// \file balance.hpp
/// The Balance routine (Algorithm 3) with Rebalance (Algorithm 5) and
/// Rearrange (Algorithm 6) — one recursion level of Balance Sort on the
/// parallel disk model (§5 adaptation: memoryloads in, virtual blocks out).
///
/// Per track (at most D' virtual blocks, one per virtual disk):
///  1. pop up to D' pending bucket-homogeneous virtual blocks,
///  2. tentatively assign them to distinct virtual disks and update the
///     histogram matrix X (line 3),
///  3. ComputeAux (Algorithm 4); virtual disks whose assignment created a 2
///     are *offenders*, the rest are written out directly (lines 4-6),
///  4. Rebalance: rounds of Fast-Partial-Match move up to ⌊D'/2⌋ offending
///     blocks per round onto virtual disks with a 0 in the offending
///     bucket's row (each round is one extra parallel write step),
///  5. offenders still unmatched are *deferred*: X is rolled back and the
///     block conceptually returns to the input (line 7), to be re-assigned
///     in a later track.
///
/// Invariant 2 (A binary after every track) is re-established by
/// construction; `BalanceOptions::check_invariants` verifies it (and
/// Invariant 1) with hard model checks after every track.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/matching.hpp"
#include "core/matrices.hpp"
#include "core/partition.hpp"
#include "core/vrun.hpp"
#include "pram/executor.hpp"
#include "pram/pram_cost.hpp"
#include "util/work_meter.hpp"

namespace balsort {

/// What happens to offenders Rebalance leaves unmatched / unattempted.
enum class DeferPolicy {
    /// Algorithm 5 verbatim: run Rearrange rounds only while at least
    /// ⌊D'/2⌋ offenders remain; defer the tail to the next track.
    kPaperDefer,
    /// Keep matching until every offender is placed (greedy matching makes
    /// this a single round); defer only if the matcher stalls.
    kRebalanceAll,
};

/// How a track's blocks are tentatively assigned to virtual disks.
enum class AssignPolicy {
    kCyclic,      ///< round-robin cursor (the paper's implicit choice)
    kLeastLoaded, ///< per block, the unused vdisk with smallest x_bh (ablation)
    /// §6's conjecture: min-cost matching on the placement matrix — assign
    /// the track's blocks to distinct vdisks minimizing the total
    /// post-placement load Σ x_{b_j,h_j} (Hungarian algorithm). The
    /// Rebalance machinery stays as a safety net; with this policy it
    /// should rarely (if ever) fire (EXP-ABLATION).
    kMinCostMatching,
};

struct BalanceTimeline;

struct BalanceOptions {
    MatchStrategy matching = MatchStrategy::kGreedy;
    AuxRule aux = AuxRule::kPaperMedian;
    DeferPolicy defer = DeferPolicy::kPaperDefer;
    AssignPolicy assign = AssignPolicy::kCyclic;
    std::uint64_t seed = 1;       ///< randomized matcher seed
    bool check_invariants = false;///< hard-verify Invariants 1-2 per track
    /// Per-track balance-quality recorder (DESIGN.md §12), off by default.
    /// Pure observation: enabling it changes no model quantity (tested).
    /// Not thread-safe — the driver runs Balance passes sequentially.
    BalanceTimeline* timeline = nullptr;
};

/// One Balance track, as the timeline recorder saw it after placement:
/// how close this track came to lopsidedness and what it cost to avoid it.
struct BalanceTrackSample {
    std::uint32_t pass = 0;       ///< Balance pass (recursion node) index
    std::uint32_t track = 0;      ///< track index within the pass
    /// Largest entry of A after the track — the Invariant 2 observable;
    /// <= 1 whenever the invariant held (Theorem 4's precondition).
    std::uint32_t max_a = 0;
    /// Largest row-sum of A: total excess above the row medians — how much
    /// rebalancing "pressure" the X histogram is carrying overall.
    std::uint64_t a_row_sum_max = 0;
    /// Disk-occupancy spread: max - min over the X columns (virtual blocks
    /// per virtual disk across all buckets of the pass so far).
    std::uint32_t occupancy_spread = 0;
    std::uint32_t rounds = 0;     ///< Rearrange rounds this track used
    std::uint32_t direct = 0;     ///< blocks written without rebalancing
    std::uint32_t matched = 0;    ///< blocks placed by Fast-Partial-Match
    std::uint32_t deferred = 0;   ///< blocks rolled back to the input
};

/// The per-track trajectory of every Balance pass of one sort — the
/// continuous audit of the paper's load-balancing claims (Invariants 1-2,
/// Theorem 4). Surfaced by `balsort_cli --balance-timeline`, embedded in
/// RunManifest, and mirrored into MetricsRegistry histograms.
struct BalanceTimeline {
    std::vector<BalanceTrackSample> tracks;
    std::uint32_t passes = 0; ///< Balance passes recorded so far

    /// {"passes":N,"tracks":[{...},...]}. Inline (all-numeric fields, no
    /// escaping needed) so RunManifest can embed a timeline without the
    /// obs library link-depending on core.
    void write_json(std::ostream& os) const {
        os << "{\"passes\":" << passes << ",\"tracks\":[";
        for (std::size_t i = 0; i < tracks.size(); ++i) {
            const BalanceTrackSample& t = tracks[i];
            if (i > 0) os << ',';
            os << "\n  {\"pass\":" << t.pass << ",\"track\":" << t.track
               << ",\"max_a\":" << t.max_a << ",\"a_row_sum_max\":" << t.a_row_sum_max
               << ",\"occupancy_spread\":" << t.occupancy_spread << ",\"rounds\":" << t.rounds
               << ",\"direct\":" << t.direct << ",\"matched\":" << t.matched
               << ",\"deferred\":" << t.deferred << "}";
        }
        os << "\n]}\n";
    }
    std::string to_json() const;
    bool write_json_file(const std::string& path) const;
};

struct BalanceStats {
    std::uint64_t tracks = 0;
    std::uint64_t direct_blocks = 0;   ///< accepted without rebalancing
    std::uint64_t matched_blocks = 0;  ///< placed by Fast-Partial-Match
    std::uint64_t deferred_blocks = 0; ///< deferral events (re-queued)
    std::uint64_t rearrange_rounds = 0;
    std::uint64_t max_rounds_per_track = 0;
    std::uint64_t match_draws = 0;     ///< randomized-matcher draw count
    bool invariant1_held = true;       ///< observed across all tracks
    bool invariant2_held = true;

    void merge(const BalanceStats& o);
};

/// One bucket's output: its virtual blocks plus the key range seen, so the
/// driver can emit all-equal buckets without recursing. When the streaming
/// sketch pivot method is active, `sketch_pivots` carries ready-made
/// partition elements for the bucket's own recursion (saving the child's
/// pivot read pass).
struct BucketOutput {
    VRun run;
    std::uint64_t min_key = ~std::uint64_t{0};
    std::uint64_t max_key = 0;
    bool is_equal_class = false;
    bool has_sketch_pivots = false;
    PivotSet sketch_pivots;
    /// Set once the driver has rewritten the bucket into consecutive
    /// locations (§4.4 repositioning), so a resumed walk never repositions
    /// the same bucket twice (DESIGN.md §13).
    bool repositioned = false;
};

/// Run Balance over one level's entire input. Consumes `input`; returns
/// one BucketOutput per bucket of `pivots` (index order == key order).
///   memory_records — the memoryload size M.
///   sketch_child_s — if nonzero, feed every non-equal-class bucket into a
///     deterministic quantile sketch while partitioning and emit
///     sketch_child_s-way pivots per bucket (PivotMethod::kStreamingSketch).
///   buffers — if non-null, the memoryload chunk and the distributor's
///     block arena and track write staging (BlockFill) are leased from this
///     pool instead of heap-allocated per pass (DESIGN.md §5 item 13, §10).
std::vector<BucketOutput> balance_pass(RecordSource& input, const PivotSet& pivots,
                                       VirtualDisks& vdisks, std::uint64_t memory_records,
                                       const BalanceOptions& opt, const Parallel& pool,
                                       WorkMeter* meter = nullptr, PramCost* cost = nullptr,
                                       BalanceStats* stats = nullptr,
                                       std::uint32_t sketch_child_s = 0,
                                       BufferPool* buffers = nullptr);

} // namespace balsort
