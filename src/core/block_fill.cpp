#include "core/block_fill.hpp"

#include <algorithm>
#include <numeric>

#include "util/math.hpp"

namespace balsort {

BlockFill::BlockFill(VirtualDisks& vdisks, const PivotSet& pivots, std::uint64_t memoryload,
                     BufferPool* buffers)
    : buckets(pivots.n_buckets()), vdisks_(vdisks), pivots_(pivots),
      v_(vdisks.vblock_records()), open_slot_(buckets.size()), open_count_(buckets.size()) {
    for (std::uint32_t b = 0; b < buckets.size(); ++b) {
        buckets[b].is_equal_class = pivots.is_equal_class(b);
    }
    // Before a scatter fewer than D' blocks are ready and at most S slots
    // are open with < V records each; the scatter then completes at most
    // ⌈memoryload/V⌉ + S blocks and leaves at most S slots open.
    const auto slots = static_cast<std::uint32_t>(ceil_div(memoryload, v_) +
                                                  2 * buckets.size() + vdisks.count());
    arena_ = BufferPool::acquire_from(buffers, static_cast<std::size_t>(slots) * v_);
    staging_ = BufferPool::acquire_from(buffers, static_cast<std::size_t>(vdisks.count()) * v_);
    free_slots_.resize(slots);
    std::iota(free_slots_.begin(), free_slots_.end(), 0u);
}

std::span<const std::uint32_t> BlockFill::scatter(std::span<const Record> chunk,
                                                  const Parallel& pool) {
    bucket_of_.resize(chunk.size());
    pool.parallel_for(0, chunk.size(), [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) bucket_of_[i] = pivots_.bucket_of(chunk[i].key);
    });
    for (std::size_t i = 0; i < chunk.size(); ++i) {
        const std::uint32_t b = bucket_of_[i];
        buckets[b].min_key = std::min(buckets[b].min_key, chunk[i].key);
        buckets[b].max_key = std::max(buckets[b].max_key, chunk[i].key);
        if (open_count_[b] == 0) {
            BS_MODEL_CHECK(!free_slots_.empty(), "BlockFill: arena slot bound exceeded");
            open_slot_[b] = free_slots_.back();
            free_slots_.pop_back();
        }
        (*arena_)[static_cast<std::size_t>(open_slot_[b]) * v_ + open_count_[b]] = chunk[i];
        if (++open_count_[b] == v_) {
            ready.push_back(Block{b, open_slot_[b], v_});
            open_count_[b] = 0;
        }
    }
    return bucket_of_;
}

void BlockFill::flush_tails() {
    for (std::uint32_t b = 0; b < buckets.size(); ++b) {
        if (open_count_[b] == 0) continue;
        const auto slot = arena_->begin() + static_cast<std::ptrdiff_t>(open_slot_[b]) * v_;
        std::fill(slot + open_count_[b], slot + v_, kPadRecord);
        ready.push_back(Block{b, open_slot_[b], open_count_[b]});
        open_count_[b] = 0;
    }
}

void BlockFill::take(std::size_t k, std::vector<Block>& out) {
    const auto end = ready.begin() + static_cast<std::ptrdiff_t>(std::min(k, ready.size()));
    out.assign(ready.begin(), end);
    ready.erase(ready.begin(), end);
}

void BlockFill::write(std::span<const Block> blocks, std::span<const std::uint32_t> vd) {
    if (blocks.empty()) return;
    for (std::size_t q = 0; q < blocks.size(); ++q) {
        std::copy_n(arena_->begin() + static_cast<std::ptrdiff_t>(blocks[q].slot) * v_, v_,
                    staging_->begin() + static_cast<std::ptrdiff_t>(q * v_));
    }
    const std::vector<BlockOp> ops = vdisks_.write_track(
        vd, std::span<const Record>(staging_->data(), blocks.size() * v_)); // one I/O step
    const std::uint32_t g = vdisks_.group_size();
    for (std::size_t q = 0; q < blocks.size(); ++q) {
        buckets[blocks[q].bucket].run.append(std::span<const BlockOp>(ops).subspan(q * g, g),
                                             blocks[q].count);
        free_slots_.push_back(blocks[q].slot);
    }
}

} // namespace balsort
