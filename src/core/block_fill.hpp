#pragma once
/// \file block_fill.hpp
/// The one block distributor behind Balance, the randomized [ViSa]
/// baseline and §4.4 repositioning (Algorithm 3 line (1)): a record is
/// copied once into its bucket's slot of a per-pass arena, and once into
/// the step staging that `write` hands to `VirtualDisks::write_track`
/// (DESIGN.md §5 item 13).

#include <deque>
#include <span>

#include "core/balance.hpp"

namespace balsort {

/// Fills the tail of a final partial virtual block; never read as data.
inline constexpr Record kPadRecord{~std::uint64_t{0}, ~std::uint64_t{0}};

class BlockFill {
public:
    /// `count` valid records at the head of arena slot `slot`, then pad.
    struct Block {
        std::uint32_t bucket, slot, count;
    };

    /// Leases ⌈memoryload/V⌉ + 2·S + D' slots of V records (S =
    /// pivots.n_buckets()) and a D'-block staging from `buffers` (heap when
    /// null). The arena never grows: it suffices while each scatter gets at
    /// most `memoryload` records and comes only when fewer than D' blocks
    /// are ready; a model check fires otherwise. `vdisks` and `pivots` must
    /// outlive the distributor.
    BlockFill(VirtualDisks& vdisks, const PivotSet& pivots, std::uint64_t memoryload,
              BufferPool* buffers);
    BlockFill(VirtualDisks&, PivotSet&&, std::uint64_t, BufferPool*) = delete;

    std::vector<BucketOutput> buckets; ///< one per bucket of the pivots
    std::deque<Block> ready; ///< completion order; deferred blocks return to the front

    /// Classify `chunk` (data-parallel), widen each bucket's key range and
    /// append each record to its bucket's slot; full slots join `ready`.
    /// Returns the records' bucket indices, valid until the next call.
    std::span<const std::uint32_t> scatter(std::span<const Record> chunk, const Parallel& pool);
    /// Pad every partial slot and queue it with its valid count.
    void flush_tails();
    /// Move the first min(k, ready.size()) ready blocks into `out`.
    void take(std::size_t k, std::vector<Block>& out);
    /// One parallel write step, block q onto virtual disk vd[q]: appends each
    /// block's ops and count to its bucket's run and frees its slot.
    void write(std::span<const Block> blocks, std::span<const std::uint32_t> vd);

private:
    VirtualDisks& vdisks_;
    const PivotSet& pivots_;
    std::uint32_t v_;
    BufferPool::Lease arena_, staging_;
    std::vector<std::uint32_t> free_slots_, bucket_of_;
    /// Per bucket: its open slot and that slot's record count (0: none open).
    std::vector<std::uint32_t> open_slot_, open_count_;
};

} // namespace balsort
