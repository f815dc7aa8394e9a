#pragma once
/// \file vrun.hpp
/// Record sources — the plumbing between recursion levels of Balance Sort.
///
/// The top-level input is a striped BlockRun; each recursive call's input
/// is a bucket: a VRun of virtual blocks spread over the virtual disks by
/// Balance (both layouts live in pdm/striping.hpp). Both reach the sorter
/// through the `RecordSource` streaming interface, over the one RunReader.
/// Reading a bucket costs max-blocks-per-disk steps, and Theorem 4 (via
/// Invariant 2) bounds that within ~2x of optimal —
/// `read_steps`/`optimal_read_steps` expose both numbers so tests and
/// benches can check the bound directly.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "pdm/striping.hpp"
#include "util/buffer_pool.hpp"

namespace balsort {

/// Streaming source of records (one recursion level's input).
class RecordSource {
public:
    virtual ~RecordSource() = default;
    /// Records not yet delivered.
    virtual std::uint64_t remaining() const = 0;
    /// View the next exactly min(n, remaining()) records. They stay in the
    /// source's own buffer, valid until the next call or the source's
    /// destruction; the caller may sort them in place.
    virtual std::span<Record> next(std::uint64_t n) = 0;
};

/// Streams a striped BlockRun (the top-level input) or a bucket's VRun
/// through a RunReader (double-buffered through the async engine when it
/// is enabled; DESIGN.md §9).
class RunSource final : public RecordSource {
public:
    RunSource(DiskArray& disks, const BlockRun& run) : reader_(disks, run) {}
    RunSource(DiskArray& disks, const VRun& run, BufferPool* buffers = nullptr)
        : reader_(disks, run, buffers) {}
    std::uint64_t remaining() const override { return reader_.remaining(); }
    std::span<Record> next(std::uint64_t n) override { return reader_.next(n); }
    /// See RunReader::start_prefetch (cross-bucket staging, DESIGN.md §10).
    bool start_prefetch(std::uint64_t max_records, double* hidden_sink = nullptr) {
        return reader_.start_prefetch(max_records, hidden_sink);
    }

private:
    RunReader reader_;
};

/// In-memory source (tests, the hierarchy driver's track feed).
class VectorSource final : public RecordSource {
public:
    explicit VectorSource(std::vector<Record> records) : records_(std::move(records)) {}
    std::uint64_t remaining() const override { return records_.size() - pos_; }
    std::span<Record> next(std::uint64_t n) override {
        const std::span<Record> view =
            std::span<Record>(records_).subspan(pos_, std::min<std::uint64_t>(n, remaining()));
        pos_ += view.size();
        return view;
    }

private:
    std::vector<Record> records_;
    std::size_t pos_ = 0;
};

} // namespace balsort
