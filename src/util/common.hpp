#pragma once
/// \file common.hpp
/// Error-handling primitives shared by every balsort library.
///
/// Three failure categories (DESIGN.md §5.10, §8):
///  * `ModelViolation` — the simulated machine model was violated (two block
///    operations on one disk in a single parallel I/O step, out-of-range
///    block address, capacity overflow, ...). These indicate an algorithmic
///    bug, so they are *always* checked, in every build type.
///  * `std::invalid_argument` — ordinary API misuse (bad configuration).
///  * `IoError` and subclasses — *environmental* failures of the (simulated
///    or real) storage devices: transient errors, permanent disk death,
///    detected corruption. Unlike the first two, these are not bugs; the
///    DiskArray recovery layer (retry, parity reconstruction) may handle
///    them transparently (DESIGN.md §8, "Fault model & recovery").

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace balsort {

/// Thrown when an algorithm breaks the rules of the simulated machine model.
class ModelViolation : public std::logic_error {
public:
    explicit ModelViolation(const std::string& what) : std::logic_error(what) {}
};

/// Base of the storage-fault hierarchy: a block operation failed for an
/// environmental reason (bad medium, dead device, torn write, ...). Carries
/// the failing (disk, block) address when known so recovery layers and
/// operators can localize the fault.
class IoError : public std::runtime_error {
public:
    static constexpr std::uint32_t kUnknownDisk = 0xffffffffu;
    static constexpr std::uint64_t kUnknownBlock = ~std::uint64_t{0};

    explicit IoError(const std::string& what, std::uint32_t disk = kUnknownDisk,
                     std::uint64_t block = kUnknownBlock)
        : std::runtime_error(what), disk_(disk), block_(block) {}

    std::uint32_t disk() const { return disk_; }
    std::uint64_t block() const { return block_; }

private:
    std::uint32_t disk_;
    std::uint64_t block_;
};

/// A fault that a bounded retry may clear (bus glitch, dropped request).
class TransientIoError : public IoError {
public:
    using IoError::IoError;
};

/// The device is permanently gone; every subsequent operation fails too.
/// Only parity reconstruction (degraded mode) can serve its blocks.
class DiskFailed : public IoError {
public:
    using IoError::IoError;
};

/// A read returned data whose checksum does not match what was written
/// (silent bit rot, torn write). Retrying re-reads the same bad medium, so
/// recovery must come from redundancy, not repetition.
class CorruptBlock : public IoError {
public:
    using IoError::IoError;
};

/// Recovery itself failed: retries exhausted and parity reconstruction was
/// unavailable or hit a second fault (double failure). Terminal.
class UnrecoverableIo : public IoError {
public:
    using IoError::IoError;
};

/// A request stayed outstanding past its deadline (hung device or worker).
/// The data may still arrive eventually, but the pipeline cannot wait:
/// reads are served from parity reconstruction instead (DESIGN.md §13).
class TimedOutIo : public IoError {
public:
    using IoError::IoError;
};

/// A cooperative cancellation request (SortJobConfig::cancel_flag) was
/// observed at a pipeline boundary (DESIGN.md §14). Not a fault: the array
/// is left healthy and the caller reclaims the job's scratch. Deliberately
/// outside the IoError family so recovery ladders never swallow it.
class JobCancelled : public std::runtime_error {
public:
    explicit JobCancelled(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

[[noreturn]] inline void throw_model_violation(const char* expr, const char* file, int line,
                                               const std::string& msg) {
    std::ostringstream os;
    os << "model violation: " << msg << " [" << expr << "] at " << file << ':' << line;
    throw ModelViolation(os.str());
}

[[noreturn]] inline void throw_invalid_argument(const char* file, int line, const std::string& msg) {
    std::ostringstream os;
    os << msg << " (at " << file << ':' << line << ')';
    throw std::invalid_argument(os.str());
}

} // namespace detail

/// Model-rule check; active in all build types.
#define BS_MODEL_CHECK(cond, msg)                                                     \
    do {                                                                              \
        if (!(cond)) ::balsort::detail::throw_model_violation(#cond, __FILE__, __LINE__, (msg)); \
    } while (false)

/// API-argument check; active in all build types.
#define BS_REQUIRE(cond, msg)                                                \
    do {                                                                     \
        if (!(cond)) ::balsort::detail::throw_invalid_argument(__FILE__, __LINE__, (msg)); \
    } while (false)

} // namespace balsort
