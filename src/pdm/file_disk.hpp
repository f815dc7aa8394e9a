#pragma once
/// \file file_disk.hpp
/// File-backed disk: one OS file per simulated drive, block-granular
/// pread/pwrite. This realizes the reproduction guidance "simulate parallel
/// disks with files": I/O-step counts are identical to MemDisk (the step
/// accounting lives in DiskArray), but data actually flows through the
/// filesystem, so wall-clock benches exercise a real I/O path
/// (EXP-DISKFILE).
///
/// Failure reporting: real OS errors surface as `IoError` (with the block
/// index and byte offset in the message), a short read at end-of-file —
/// the file was truncated underneath us — as `CorruptBlock`. Reading a
/// block the model never wrote is still a `ModelViolation`.

#include <sys/types.h>

#include <atomic>
#include <string>

#include "pdm/disk.hpp"

namespace balsort {

class FileDisk final : public Disk {
public:
    /// Creates/truncates `path` (O_CLOEXEC: scratch fds must not leak into
    /// children). The file is removed on destruction when `unlink_on_close`
    /// (default) — simulated scratch disks are ephemeral. With
    /// `fsync_on_close`, destruction flushes the file to stable storage
    /// first (pointless for scratch, essential when a run's output is kept).
    /// With `adopt`, an existing file is opened without truncation and its
    /// current length becomes size_blocks() — how a resumed run re-attaches
    /// to the scratch a crashed process left behind (DESIGN.md §13).
    FileDisk(std::string path, std::size_t block_size, bool unlink_on_close = true,
             bool fsync_on_close = false, bool adopt = false);
    ~FileDisk() override;

    FileDisk(const FileDisk&) = delete;
    FileDisk& operator=(const FileDisk&) = delete;

    std::size_t block_size() const override { return block_size_; }
    std::uint64_t size_blocks() const override {
        return size_blocks_.load(std::memory_order_acquire);
    }
    void read_block(std::uint64_t index, std::span<Record> out) const override;
    void write_block(std::uint64_t index, std::span<const Record> in) override;

    const std::string& path() const { return path_; }

    /// Flip scratch retention at runtime: a checkpointing run keeps its
    /// scratch files on abnormal exit (so a resume can adopt them) and
    /// re-enables cleanup once the sort completes.
    void set_unlink_on_close(bool v) { unlink_on_close_ = v; }
    bool unlink_on_close() const { return unlink_on_close_; }

private:
    /// `index * block_bytes` as off_t, rejecting overflow (BS_REQUIRE).
    off_t block_offset(std::uint64_t index) const;

    std::string path_;
    std::size_t block_size_;
    /// Blocks written so far (the highest index + 1). Atomic: one thread's
    /// `write_block` grows it while another's `read_block` checks against
    /// it; a slow writer of a lower index never shrinks it.
    std::atomic<std::uint64_t> size_blocks_{0};
    int fd_ = -1;
    bool unlink_on_close_;
    bool fsync_on_close_;
};

} // namespace balsort
