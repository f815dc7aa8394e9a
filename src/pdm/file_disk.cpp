#include "pdm/file_disk.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <system_error>

#include "util/common.hpp"

namespace balsort {

namespace {

std::string op_context(const char* op, const std::string& path, std::uint64_t index,
                       std::uint64_t offset, std::size_t done, std::size_t want) {
    std::ostringstream os;
    os << "FileDisk: " << op << " on " << path << " (block " << index << ", byte offset "
       << offset << ", " << done << '/' << want << " bytes transferred)";
    return os.str();
}

} // namespace

FileDisk::FileDisk(std::string path, std::size_t block_size, bool unlink_on_close,
                   bool fsync_on_close, bool adopt)
    : path_(std::move(path)),
      block_size_(block_size),
      unlink_on_close_(unlink_on_close),
      fsync_on_close_(fsync_on_close) {
    BS_REQUIRE(block_size >= 1, "FileDisk: block size must be >= 1");
    const int flags = O_RDWR | O_CREAT | O_CLOEXEC | (adopt ? 0 : O_TRUNC);
    fd_ = ::open(path_.c_str(), flags, 0600);
    if (fd_ < 0) {
        throw IoError("FileDisk: cannot open " + path_ + ": " +
                      std::generic_category().message(errno));
    }
    if (adopt) {
        struct stat st{};
        if (::fstat(fd_, &st) != 0) {
            const int err = errno;
            ::close(fd_);
            fd_ = -1;
            throw IoError("FileDisk: cannot stat " + path_ + ": " +
                          std::generic_category().message(err));
        }
        const std::uint64_t bytes = block_size_ * sizeof(Record);
        size_blocks_.store(static_cast<std::uint64_t>(st.st_size) / bytes,
                           std::memory_order_relaxed);
    }
}

FileDisk::~FileDisk() {
    if (fd_ >= 0) {
        // Destructors cannot throw; a failed flush/close of a scratch file
        // is reported, not fatal.
        if (fsync_on_close_ && ::fsync(fd_) != 0) {
            std::fprintf(stderr, "FileDisk: fsync(%s) failed: %s\n", path_.c_str(),
                         std::strerror(errno));
        }
        int rc;
        do {
            rc = ::close(fd_);
        } while (rc != 0 && errno == EINTR);
        if (rc != 0) {
            std::fprintf(stderr, "FileDisk: close(%s) failed: %s\n", path_.c_str(),
                         std::strerror(errno));
        }
    }
    if (unlink_on_close_) ::unlink(path_.c_str());
}

off_t FileDisk::block_offset(std::uint64_t index) const {
    const std::uint64_t bytes = block_size_ * sizeof(Record);
    const auto max_off = static_cast<std::uint64_t>(std::numeric_limits<off_t>::max());
    BS_REQUIRE(index <= max_off / bytes, "FileDisk: block index overflows file offset");
    return static_cast<off_t>(index * bytes);
}

void FileDisk::read_block(std::uint64_t index, std::span<Record> out) const {
    BS_REQUIRE(out.size() == block_size_, "read_block: buffer size != block size");
    BS_MODEL_CHECK(index < size_blocks_.load(std::memory_order_acquire),
                   "read_block: reading unallocated block");
    const std::size_t bytes = block_size_ * sizeof(Record);
    const off_t offset = block_offset(index);
    std::size_t done = 0;
    auto* dst = reinterpret_cast<char*>(out.data());
    while (done < bytes) {
        ssize_t n = ::pread(fd_, dst + done, bytes - done, offset + static_cast<off_t>(done));
        if (n < 0 && errno == EINTR) continue;
        if (n < 0) {
            throw IoError(op_context("pread failed", path_, index,
                                     static_cast<std::uint64_t>(offset), done, bytes) +
                              ": " + std::generic_category().message(errno),
                          IoError::kUnknownDisk, index);
        }
        if (n == 0) {
            // EOF inside an allocated block: the file is shorter than the
            // model says it should be (truncated externally). Not an OS
            // error — errno is stale here — but lost data.
            throw CorruptBlock(op_context("unexpected EOF (file truncated?)", path_, index,
                                          static_cast<std::uint64_t>(offset), done, bytes),
                               IoError::kUnknownDisk, index);
        }
        done += static_cast<std::size_t>(n);
    }
}

void FileDisk::write_block(std::uint64_t index, std::span<const Record> in) {
    BS_REQUIRE(in.size() == block_size_, "write_block: buffer size != block size");
    const std::size_t bytes = block_size_ * sizeof(Record);
    const off_t offset = block_offset(index);
    std::size_t done = 0;
    const auto* src = reinterpret_cast<const char*>(in.data());
    while (done < bytes) {
        ssize_t n = ::pwrite(fd_, src + done, bytes - done, offset + static_cast<off_t>(done));
        if (n < 0 && errno == EINTR) continue;
        if (n < 0) {
            throw IoError(op_context("pwrite failed", path_, index,
                                     static_cast<std::uint64_t>(offset), done, bytes) +
                              ": " + std::generic_category().message(errno),
                          IoError::kUnknownDisk, index);
        }
        if (n == 0) {
            // A 0-byte pwrite makes no progress and would loop forever;
            // errno is meaningless (pwrite only sets it when returning -1).
            throw IoError(op_context("pwrite made no progress", path_, index,
                                     static_cast<std::uint64_t>(offset), done, bytes),
                          IoError::kUnknownDisk, index);
        }
        done += static_cast<std::size_t>(n);
    }
    // Monotonic max: a failed exchange reloads `seen`, and the loop stops
    // once the size covers this block.
    std::uint64_t seen = size_blocks_.load(std::memory_order_relaxed);
    while (index + 1 > seen &&
           !size_blocks_.compare_exchange_weak(seen, index + 1, std::memory_order_release,
                                               std::memory_order_relaxed)) {
    }
}

} // namespace balsort
