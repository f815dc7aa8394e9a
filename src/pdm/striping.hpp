#pragma once
/// \file striping.hpp
/// Data layout on a DiskArray: striped runs (round-robin over the D disks),
/// the *partial striping* of §4.1 — grouping the D disks into D' virtual
/// disks whose virtual blocks span one physical block on every member
/// disk — and bucket runs of such virtual blocks. Both run kinds are flat
/// block lists (BlockRun; VRun adds one valid count per virtual block),
/// written by RunWriter / VirtualDisks::write_track and streamed back by
/// the one RunReader.

#include <chrono>
#include <cstdint>
#include <vector>

#include "pdm/disk_array.hpp"
#include "util/buffer_pool.hpp"
#include "util/math.hpp"

namespace balsort {

/// An ordered run of records laid out on the array. blocks[i] holds records
/// [i*B, (i+1)*B) of the run; the final block is zero-padded past
/// n_records. Consecutive blocks of a *striped* run sit on consecutive
/// disks (full read parallelism); a run produced by bucket collection may
/// be arbitrarily distributed — reading then costs max-blocks-per-disk
/// steps, which is what Theorem 4 bounds.
struct BlockRun {
    std::vector<BlockOp> blocks;
    std::uint64_t n_records = 0;

    std::uint64_t n_blocks() const { return blocks.size(); }

    /// Parallel I/O steps needed to read the whole run on array `d` wide:
    /// max over disks of the number of blocks living there.
    std::uint64_t read_steps(std::uint32_t d) const;

    /// ceil(n_blocks / D): the unavoidable lower bound for reading the run.
    std::uint64_t optimal_read_steps(std::uint32_t d) const;

    /// Return every block of the run to the array's allocator (call once
    /// the run has been fully consumed; keeps total simulated space O(N),
    /// which the depth-priced hierarchy models rely on).
    void release(DiskArray& disks) const;
};

/// Append-only writer producing a striped BlockRun. Every full stripe (D
/// blocks) is written with a single parallel I/O step; less than a stripe
/// stays buffered until the next append or finish(). How the records are
/// split into appends changes nothing: the blocks, the write steps and the
/// buffered tail depend only on the records appended so far.
class RunWriter {
public:
    /// With `synchronized` (paper §6), every stripe lands at one common
    /// *fresh* block index across the whole array instead of per-disk
    /// allocated indices — the fully striped writes that make parity
    /// upkeep a single XOR per stripe with no read-modify-write (see
    /// DiskArray::update_parity). Trades space (skipped disks keep gaps)
    /// for the error-checking/correcting friendliness the paper notes.
    explicit RunWriter(DiskArray& disks, std::uint32_t start_disk = 0, bool synchronized = false);

    void append(std::span<const Record> records);
    void append(const Record& r) { append(std::span<const Record>(&r, 1)); }

    /// Flush (padding the last block) and return the finished run.
    BlockRun finish();

    // ---- checkpoint/restore (DESIGN.md §13) ----
    // A mid-sort checkpoint must capture the emit writer exactly: the run
    // written so far, the tail of records still buffered below a stripe,
    // and the round-robin cursor. restore() re-arms a fresh writer with
    // that state so the resumed run continues the identical layout.
    const BlockRun& run() const { return run_; }
    const std::vector<Record>& buffer() const { return buffer_; }
    std::uint32_t next_disk() const { return next_disk_; }
    void restore(BlockRun run, std::vector<Record> buffer, std::uint32_t next_disk) {
        BS_MODEL_CHECK(!finished_, "RunWriter::restore: writer already finished");
        BS_MODEL_CHECK(buffer.size() < std::size_t{disks_.block_size()} * disks_.num_disks(),
                       "RunWriter::restore: the buffered tail must be less than a stripe");
        run_ = std::move(run);
        buffer_ = std::move(buffer);
        next_disk_ = next_disk;
    }

private:
    /// Write `data` (whole blocks, at most D of them) as one stripe.
    void write_stripe(std::span<const Record> data);

    DiskArray& disks_;
    std::uint32_t next_disk_;
    bool synchronized_;
    std::vector<Record> buffer_;
    BlockRun run_;
    bool finished_ = false;
};

/// One bucket's storage (§4.1): a flat block list in which every g = D/D'
/// consecutive ops form one virtual block (one block on each member disk
/// of vdisk `blocks[k*g].disk / g`), plus the valid-record count of each
/// virtual block (the rest of it is pad), in the order Balance wrote them.
/// Because every virtual block puts exactly one block on each of its g
/// disks, the inherited read_steps(D)/optimal_read_steps(D) equal the
/// per-vdisk maximum and ceil(#vblocks / D'): the two numbers Theorem 4
/// relates.
struct VRun : BlockRun {
    std::vector<std::uint32_t> counts;

    /// Ops per virtual block (0 for an empty run).
    std::uint32_t group() const {
        return counts.empty() ? 0 : static_cast<std::uint32_t>(blocks.size() / counts.size());
    }

    /// Append one virtual block: its g ops (as write_track returned them)
    /// and its valid-record count.
    void append(std::span<const BlockOp> vblock, std::uint32_t count);
};

/// The one streaming reader over a run laid out in *units* of g blocks,
/// each holding a valid-record prefix: a striped BlockRun is g = 1 with
/// every block full but the tail, a VRun is g = D/D' with its counts.
/// Fetches whole units with maximal parallelism (read_batch) and hands
/// back the valid records in run order.
///
/// With the array's worker executor enabled, the reader double-buffers:
/// while the caller consumes one fetch, the next fetch-sized range of the
/// run is already in flight (DESIGN.md §9). Model costs are charged at
/// consumption time over exactly the ranges the inline executor would
/// read, so io_steps() and the step-observer sequence are identical either
/// way.
class RunReader {
public:
    RunReader(DiskArray& disks, const BlockRun& run);
    /// With `buffers`, fetch and prefetch memory is leased from the pool
    /// instead of heap-allocated per fetch.
    RunReader(DiskArray& disks, const VRun& run, BufferPool* buffers = nullptr);
    ~RunReader();
    RunReader(const RunReader&) = delete;
    RunReader& operator=(const RunReader&) = delete;

    std::uint64_t remaining() const { return remaining_; }

    /// View the next min(n, remaining()) records of the run, in run order.
    /// They sit in the reader's own carry buffer and stay valid until the
    /// next call to next()/read() or the reader's destruction; the caller
    /// may reorder or overwrite them in place. The carry is reused across
    /// calls: the < 1-unit leftover of the last fetch moves to its front
    /// and the next fetch lands after it.
    std::span<Record> next(std::uint64_t n);

    /// Copy out: read min(out.size(), remaining()) records; returns the
    /// count.
    std::uint64_t read(std::span<Record> out);

    /// Cross-bucket staging (DESIGN.md §10): physically issue the first
    /// ~`max_records` of the run through the async engine *now*, so the
    /// transfers overlap whatever the caller computes before the first
    /// next(). Charges nothing — model costs land at consumption time
    /// exactly as without staging, so io_steps() and the observer sequence
    /// are unchanged. `hidden_sink`, if given, accumulates the seconds
    /// between issue and the first wait (engine time hidden behind the
    /// caller's compute). Returns false (no-op) when the engine is off,
    /// the run is empty, or reading has already begun.
    bool start_prefetch(std::uint64_t max_records, double* hidden_sink = nullptr);

private:
    /// Valid records of unit `u`.
    std::uint64_t unit_count(std::uint64_t u) const;
    /// Physical ops of units [first, first+n), in read order.
    std::span<const BlockOp> unit_ops(std::uint64_t first, std::uint64_t n) const {
        return std::span<const BlockOp>(run_.blocks).subspan(first * group_, n * group_);
    }
    /// Fetch units [first, first+n) into buf, serving what the in-flight
    /// prefetch already covers and starting the next prefetch.
    void fetch_units(std::uint64_t first, std::uint64_t n, std::span<Record> buf);
    /// Issue units [first, first+n) as the uncharged in-flight prefetch.
    void issue_prefetch(std::uint64_t first, std::uint64_t n);

    DiskArray& disks_;
    const BlockRun& run_;
    const std::vector<std::uint32_t>* counts_; ///< null: striped run
    BufferPool* buffers_;
    std::uint32_t group_;        ///< blocks per unit
    std::uint64_t unit_records_; ///< group_ * B
    std::uint64_t n_units_;
    std::uint64_t next_unit_ = 0;
    std::uint64_t remaining_;
    /// The fetched records, compacted to the valid ones; [carry_pos_,
    /// carry_end_) is not yet returned. Grows to the largest next() and is
    /// kept until the reader dies.
    BufferPool::Lease carry_;
    std::uint64_t carry_pos_ = 0;
    std::uint64_t carry_end_ = 0;

    /// The single in-flight prefetch (async engine only).
    struct Prefetch {
        DiskArray::ReadTicket ticket;
        BufferPool::Lease buf;
        std::uint64_t first_unit = 0;
        std::uint64_t n_units = 0;
        std::uint64_t consumed = 0; ///< units already served to the caller
        bool waited = false;
    };
    Prefetch pending_;

    /// Cross-bucket staging bookkeeping (start_prefetch).
    double* hidden_sink_ = nullptr;
    std::chrono::steady_clock::time_point staged_at_{};
    bool staged_ = false;
    /// Async trace pair spanning staged-issue to first-wait (0 = untraced).
    std::uint64_t staged_trace_id_ = 0;
};

/// Convenience: write all of `records` as a striped run / read a whole run.
BlockRun write_striped(DiskArray& disks, std::span<const Record> records);
std::vector<Record> read_run(DiskArray& disks, const BlockRun& run);

/// Partial striping (§4.1): D' virtual disks, each a group of g = D/D'
/// physical disks; one *virtual block* is g physical blocks (one per member
/// disk), i.e. g*B records, moved in a single parallel I/O step.
class VirtualDisks {
public:
    /// n_virtual must divide the array's D. With `synchronized_writes`
    /// (paper §6: "the algorithms can operate without need of non-striped
    /// write operations, a useful feature for error checking and
    /// correcting protocols"), every write_track places all its physical
    /// blocks at the SAME block index across the array — a fully striped
    /// write, RAID-parity friendly — at the cost of leaving gaps on disks
    /// the step skipped.
    VirtualDisks(DiskArray& disks, std::uint32_t n_virtual, bool synchronized_writes = false);

    std::uint32_t count() const { return n_virtual_; }
    std::uint32_t group_size() const { return group_; }
    std::uint32_t vblock_records() const { return group_ * disks_.block_size(); }

    /// One parallel write step: for each k, write data chunk k (of
    /// vblock_records() records) as a fresh virtual block on vdisks[k].
    /// The vdisks must be distinct. Returns the step's ops, group_size()
    /// per virtual block in argument order (VRun::append takes them).
    std::vector<BlockOp> write_track(std::span<const std::uint32_t> vdisks,
                                     std::span<const Record> data);

    /// The paper's default H' = H^(1/3) rounded to a divisor of d (§4.1):
    /// the divisor of d closest to d^exponent (ties towards larger).
    static std::uint32_t default_virtual_count(std::uint32_t d, double exponent = 1.0 / 3.0);

    bool synchronized_writes() const { return synchronized_writes_; }

private:
    DiskArray& disks_;
    std::uint32_t n_virtual_;
    std::uint32_t group_;
    bool synchronized_writes_;
};

} // namespace balsort
