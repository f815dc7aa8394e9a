#pragma once
/// \file checksum.hpp
/// Per-block integrity checking for the PDM layer (DESIGN.md §8).
///
/// `crc32` is a plain table-driven CRC-32 (IEEE polynomial, the one used by
/// zip/png) over a block's bytes. `ChecksummedDisk` decorates any `Disk`
/// with a checksum *sidecar*: every write records the CRC of the intended
/// block, every read verifies the stored data against it and throws
/// `CorruptBlock` on mismatch. Because the sidecar lives *above* whatever
/// layer corrupts the data (a faulty device, a torn write), corruption is
/// detected no matter how it entered — the property §6's synchronized
/// writes call "error checking friendly".
///
/// The sidecar is held in memory here; a production deployment would embed
/// it as a per-block trailer or persist it alongside the scratch file. The
/// simulation keeps geometry unchanged (a block is still exactly B records)
/// so every I/O-step count is identical with and without checksums.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "pdm/disk.hpp"

namespace balsort {

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `len` bytes.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t crc = 0);

/// CRC-32 of a span of records (the per-block checksum).
inline std::uint32_t crc32_records(std::span<const Record> r) {
    return crc32(r.data(), r.size() * sizeof(Record));
}

/// Disk decorator: verify-on-read / record-on-write block checksums.
class ChecksummedDisk final : public Disk {
public:
    /// `disk_id` only labels exceptions (it is the array index when owned
    /// by a DiskArray).
    ChecksummedDisk(std::unique_ptr<Disk> inner, std::uint32_t disk_id);

    std::size_t block_size() const override { return inner_->block_size(); }
    std::uint64_t size_blocks() const override { return inner_->size_blocks(); }

    /// Reads the inner block, then verifies it against the recorded CRC.
    /// Blocks never written through this layer (zero-filled gap blocks)
    /// carry no checksum and are passed through unverified.
    void read_block(std::uint64_t index, std::span<Record> out) const override;

    /// Records the CRC of `in` *before* handing it down, but only keeps it
    /// if the inner write did not throw — a failed write must not leave a
    /// checksum claiming data that never landed.
    void write_block(std::uint64_t index, std::span<const Record> in) override;

    /// Invalidate block `index`: a write of fresh data failed permanently,
    /// so the stored (stale) image must no longer verify — reads throw
    /// CorruptBlock until the block is successfully rewritten, forcing the
    /// recovery layer to serve it from parity instead of stale data.
    void mark_lost(std::uint64_t index);

    bool has_checksum(std::uint64_t index) const {
        std::lock_guard<std::mutex> lock(mu_);
        return index < has_crc_.size() && has_crc_[index];
    }

    /// The in-memory sidecar, for checkpoint/restore (DESIGN.md §13): the
    /// sidecar is process state, so a resumed process must re-load it or
    /// every surviving scratch block would read back unverified.
    struct Sidecar {
        std::vector<std::uint32_t> crcs;
        std::vector<bool> has_crc;
        std::vector<bool> lost;
    };
    Sidecar export_sidecar() const {
        std::lock_guard<std::mutex> lock(mu_);
        return {crcs_, has_crc_, lost_};
    }
    void import_sidecar(const Sidecar& s) {
        std::lock_guard<std::mutex> lock(mu_);
        crcs_ = s.crcs;
        has_crc_ = s.has_crc;
        lost_ = s.lost;
    }

    Disk& inner() { return *inner_; }
    const Disk& inner() const { return *inner_; }

private:
    std::unique_ptr<Disk> inner_;
    std::uint32_t disk_id_;
    // Guards the sidecar vectors: after a deadline failover (DESIGN.md
    // §13) the main thread's degraded writes resize/update the sidecar
    // while an abandoned hung read is still consulting it on its engine
    // worker. The lock covers only sidecar access — never the inner I/O,
    // which can hang — so single-threaded behaviour is unchanged.
    mutable std::mutex mu_;
    std::vector<std::uint32_t> crcs_;
    std::vector<bool> has_crc_;
    std::vector<bool> lost_;
};

} // namespace balsort
