#include "baselines/rand_dist.hpp"

#include <algorithm>
#include <functional>
#include <memory>

#include "core/block_fill.hpp"
#include "core/partition.hpp"
#include "core/vrun.hpp"
#include "pram/parallel_sort.hpp"
#include "util/math.hpp"

namespace balsort {

namespace {

struct RandState {
    DiskArray& disks;
    VirtualDisks vdisks; // D' = D, group = 1: plain one-block-per-disk steps
    const PdmConfig& cfg;
    Parallel pool; // width 1: the baseline charges no parallel compute
    Xoshiro256 rng;
    RunWriter out;
    RandDistReport* report;

    RandState(DiskArray& d, const PdmConfig& c, std::uint64_t seed, RandDistReport* rep)
        : disks(d), vdisks(d, d.num_disks()), cfg(c), pool(1), rng(seed), out(d), report(rep) {}
};

using SourceFactory = std::function<std::unique_ptr<RecordSource>()>;

/// One distribution level: partition the stream into buckets, writing each
/// full block to a randomly shifted disk (one block per disk per step).
std::vector<BucketOutput> rand_distribute(RandState& st, RecordSource& input,
                                          const PivotSet& pivots) {
    const std::uint32_t d = st.disks.num_disks();
    BlockFill fill(st.vdisks, pivots, std::min<std::uint64_t>(st.cfg.m, input.remaining()),
                   nullptr);
    std::vector<BlockFill::Block> step;
    std::vector<std::uint32_t> vds;

    auto flush_ready = [&](bool all) {
        while (fill.ready.size() >= d || (all && !fill.ready.empty())) {
            // Random cyclic shift: block j of this step goes to disk
            // (shift + j) mod D — the [ViSa] randomized placement.
            const auto shift = static_cast<std::uint32_t>(st.rng.below(d));
            fill.take(d, step);
            vds.resize(step.size());
            for (std::uint32_t j = 0; j < step.size(); ++j) vds[j] = (shift + j) % d;
            fill.write(step, vds);
        }
    };

    while (input.remaining() > 0) {
        fill.scatter(input.next(st.cfg.m), st.pool);
        flush_ready(false);
    }
    fill.flush_tails();
    flush_ready(true);
    return std::move(fill.buckets);
}

void rand_rec(RandState& st, const SourceFactory& factory, std::uint64_t n,
              std::uint32_t depth) {
    if (n == 0) return;
    if (st.report != nullptr) {
        st.report->levels = std::max<std::uint32_t>(st.report->levels, depth + 1);
    }
    BS_MODEL_CHECK(depth <= 64, "rand_dist: recursion too deep");
    if (n <= st.cfg.m) {
        auto src = factory();
        const std::span<Record> load = src->next(n);
        std::sort(load.begin(), load.end(), KeyLess{});
        st.out.append(load);
        if (st.report != nullptr) st.report->base_cases += 1;
        return;
    }
    const std::uint32_t s_target = std::max<std::uint32_t>(
        2, static_cast<std::uint32_t>(iroot(std::max<std::uint64_t>(2, st.cfg.m / st.cfg.b), 4)));
    PivotSet pivots;
    {
        auto src = factory();
        pivots = compute_pivots_sampling(*src, n, st.cfg.m, s_target, st.pool);
    }
    BS_MODEL_CHECK(!pivots.keys.empty(), "rand_dist: no pivots on N > M input");
    std::vector<BucketOutput> buckets;
    {
        auto src = factory();
        buckets = rand_distribute(st, *src, pivots);
    }
    for (auto& bucket : buckets) {
        if (bucket.run.n_records == 0) continue;
        if (st.report != nullptr && bucket.run.counts.size() >= st.disks.num_disks()) {
            const double ratio =
                static_cast<double>(bucket.run.read_steps(st.disks.num_disks())) /
                static_cast<double>(bucket.run.optimal_read_steps(st.disks.num_disks()));
            st.report->worst_bucket_read_ratio =
                std::max(st.report->worst_bucket_read_ratio, ratio);
        }
        const bool sorted_already = bucket.is_equal_class || bucket.min_key == bucket.max_key;
        if (sorted_already) {
            RunSource src(st.disks, bucket.run);
            while (src.remaining() > 0) st.out.append(src.next(st.cfg.m));
            bucket.run.release(st.disks);
            continue;
        }
        BS_MODEL_CHECK(bucket.run.n_records < n, "rand_dist: bucket did not shrink");
        const VRun& run = bucket.run;
        SourceFactory bucket_factory = [&st, &run]() -> std::unique_ptr<RecordSource> {
            return std::make_unique<RunSource>(st.disks, run);
        };
        rand_rec(st, bucket_factory, run.n_records, depth + 1);
        bucket.run.release(st.disks);
    }
}

} // namespace

BlockRun rand_dist_sort(DiskArray& disks, const BlockRun& input, const PdmConfig& cfg,
                        std::uint64_t seed, RandDistReport* report) {
    cfg.validate();
    BS_REQUIRE(input.n_records == cfg.n, "rand_dist_sort: cfg.n != input.n_records");
    const IoStats before = disks.stats();
    RandState st(disks, cfg, seed, report);
    SourceFactory top = [&disks, &input]() -> std::unique_ptr<RecordSource> {
        return std::make_unique<RunSource>(disks, input);
    };
    rand_rec(st, top, cfg.n, 0);
    BlockRun result = st.out.finish();
    BS_MODEL_CHECK(result.n_records == cfg.n, "rand_dist: output record count mismatch");
    if (report != nullptr) {
        report->io = disks.stats() - before;
        report->optimal_ios = cfg.optimal_ios();
        report->io_ratio = report->optimal_ios > 0
                               ? static_cast<double>(report->io.io_steps()) / report->optimal_ios
                               : 0;
    }
    return result;
}

} // namespace balsort
