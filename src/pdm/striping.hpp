#pragma once
/// \file striping.hpp
/// Data layout on a DiskArray: striped runs (round-robin over the D disks),
/// streaming readers/writers, and the *partial striping* of §4.1 — grouping
/// the D disks into D' virtual disks whose virtual blocks span one physical
/// block on every member disk.

#include <cstdint>
#include <vector>

#include "pdm/disk_array.hpp"
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
};

/// Append-only writer producing a striped BlockRun. Buffers one stripe
/// (D blocks) and writes it with a single parallel I/O step.
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
        run_ = std::move(run);
        buffer_ = std::move(buffer);
        next_disk_ = next_disk;
    }

private:
    void flush_full_blocks(bool final_flush);

    DiskArray& disks_;
    std::uint32_t next_disk_;
    bool synchronized_;
    std::vector<Record> buffer_;
    BlockRun run_;
    bool finished_ = false;
};

/// Streaming reader over a BlockRun; fetches blocks with maximal
/// parallelism (read_batch), hands back records in run order.
///
/// With the array's worker executor enabled, the reader double-buffers:
/// while the caller consumes one fetch, the next fetch-sized range of the
/// run is already in flight (DESIGN.md §9). Model costs are charged at
/// consumption time over exactly the ranges the inline executor would
/// read, so io_steps() is identical either way.
class RunReader {
public:
    RunReader(DiskArray& disks, const BlockRun& run);
    ~RunReader();
    RunReader(const RunReader&) = delete;
    RunReader& operator=(const RunReader&) = delete;

    std::uint64_t remaining() const { return remaining_; }

    /// Read min(out.size(), remaining()) records; returns the count.
    std::uint64_t read(std::span<Record> out);

private:
    /// Fetch blocks [first, first+n) of the run into buf, serving what the
    /// in-flight prefetch already covers and starting the next prefetch.
    void fetch_blocks(std::uint64_t first, std::uint64_t n, std::span<Record> buf);

    DiskArray& disks_;
    const BlockRun& run_;
    std::uint64_t next_block_ = 0;
    std::uint64_t remaining_;
    std::vector<Record> carry_; // records fetched but not yet returned
    std::size_t carry_pos_ = 0;

    /// The single in-flight prefetch (async engine only).
    struct Prefetch {
        DiskArray::ReadTicket ticket;
        std::vector<Record> buf;
        std::uint64_t first_block = 0;
        std::uint64_t n_blocks = 0;
        std::uint64_t consumed = 0; ///< blocks already served to the caller
        bool waited = false;
    };
    Prefetch pending_;
};

/// Convenience: write all of `records` as a striped run / read a whole run.
BlockRun write_striped(DiskArray& disks, std::span<const Record> records,
                       std::uint32_t start_disk = 0);
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
    DiskArray& array() { return disks_; }

    /// A virtual block: `group_size()` physical blocks, one per member disk.
    struct VBlock {
        std::uint32_t vdisk = 0;
        std::vector<BlockOp> ops;
    };

    /// One parallel write step: for each k, write data chunk k (of
    /// vblock_records() records) as a fresh virtual block on vdisks[k].
    /// The vdisks must be distinct. Returns the new virtual blocks.
    std::vector<VBlock> write_track(std::span<const std::uint32_t> vdisks,
                                    std::span<const Record> data);

    /// Read the given virtual blocks with maximal parallelism; `out` gets
    /// them consecutively in argument order. Cost: max-per-vdisk steps.
    void read_vblocks(std::span<const VBlock> vblocks, std::span<Record> out);

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
