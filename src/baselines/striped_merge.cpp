#include "baselines/striped_merge.hpp"

#include <algorithm>
#include <memory>

#include "util/math.hpp"

namespace balsort {

std::uint32_t striped_merge_fan_in(const PdmConfig& cfg) {
    const std::uint64_t superblock = static_cast<std::uint64_t>(cfg.d) * cfg.b;
    return static_cast<std::uint32_t>(
        std::max<std::uint64_t>(2, cfg.m / (2 * superblock)));
}

namespace {

/// Buffered streaming head over a run, refilled one superblock (DB records
/// == one striped I/O) at a time.
class MergeHead {
public:
    MergeHead(DiskArray& disks, const BlockRun& run, std::uint64_t superblock)
        : reader_(disks, run), superblock_(superblock) {
        refill();
    }

    bool exhausted() const { return pos_ >= view_.size() && reader_.remaining() == 0; }
    const Record& peek() const { return view_[pos_]; }
    Record pop() {
        Record r = view_[pos_++];
        if (pos_ >= view_.size()) refill();
        return r;
    }

private:
    void refill() {
        view_ = reader_.next(superblock_);
        pos_ = 0;
    }

    RunReader reader_;
    std::uint64_t superblock_;
    std::span<const Record> view_;
    std::size_t pos_ = 0;
};

} // namespace

BlockRun striped_merge_sort(DiskArray& disks, const BlockRun& input, const PdmConfig& cfg,
                            StripedMergeReport* report) {
    cfg.validate();
    BS_REQUIRE(input.n_records == cfg.n, "striped_merge_sort: cfg.n != input.n_records");
    const IoStats before = disks.stats();
    const std::uint64_t superblock = static_cast<std::uint64_t>(cfg.d) * cfg.b;
    const std::uint32_t fan_in = striped_merge_fan_in(cfg);
    WorkMeter meter;

    // ---- Run formation: sort one memoryload at a time. ----
    std::vector<BlockRun> runs;
    {
        RunReader in(disks, input);
        while (in.remaining() > 0) {
            const std::span<Record> load = in.next(cfg.m);
            std::sort(load.begin(), load.end(), CountingLess<KeyLess>(KeyLess{}, &meter));
            runs.push_back(write_striped(disks, load));
        }
    }
    const std::uint64_t initial_runs = runs.size();

    // ---- Merge passes: fan_in runs at a time until one remains. ----
    std::uint32_t passes = 0;
    while (runs.size() > 1) {
        std::vector<BlockRun> next;
        for (std::size_t g = 0; g < runs.size(); g += fan_in) {
            const std::size_t ge = std::min(runs.size(), g + fan_in);
            if (ge - g == 1) {
                next.push_back(runs[g]); // odd tail rides along untouched
                continue;
            }
            std::vector<std::unique_ptr<MergeHead>> heads;
            for (std::size_t r = g; r < ge; ++r) {
                heads.push_back(std::make_unique<MergeHead>(disks, runs[r], superblock));
            }
            RunWriter out(disks);
            while (true) {
                MergeHead* best = nullptr;
                for (auto& h : heads) {
                    if (h->exhausted()) continue;
                    meter.add_comparisons(1);
                    if (best == nullptr || h->peek().key < best->peek().key) best = h.get();
                }
                if (best == nullptr) break;
                out.append(best->pop());
            }
            next.push_back(out.finish());
        }
        runs = std::move(next);
        ++passes;
    }

    BlockRun result = runs.empty() ? write_striped(disks, {}) : runs.front();
    BS_MODEL_CHECK(result.n_records == cfg.n, "striped merge: output record count mismatch");
    if (report != nullptr) {
        report->io = disks.stats() - before;
        report->passes = passes;
        report->fan_in = fan_in;
        report->initial_runs = initial_runs;
        report->comparisons = meter.comparisons();
        report->optimal_ios = cfg.optimal_ios();
        report->io_ratio = report->optimal_ios > 0
                               ? static_cast<double>(report->io.io_steps()) / report->optimal_ios
                               : 0;
    }
    return result;
}

} // namespace balsort
