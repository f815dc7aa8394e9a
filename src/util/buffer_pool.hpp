#pragma once
/// \file buffer_pool.hpp
/// A pool of recycled record buffers for the staged sort pipeline
/// (DESIGN.md §10).
///
/// Every pass of the driver used to heap-allocate fresh
/// std::vector<Record> memoryloads — base-case loads, Balance staging,
/// stream-copy chunks, prefetch windows — and free them again a few
/// milliseconds later. The pool keeps those buffers alive between passes:
/// `acquire(n)` hands out a `Lease` whose vector is resized to n records
/// (contents unspecified — callers must overwrite or pad), and the Lease
/// destructor returns the buffer's capacity to the pool.
///
/// Ownership rules:
///  * The pool must outlive every Lease it issued (the driver owns the pool
///    in DriverState; leases are stage-local).
///  * A Lease is move-only; moving transfers the return obligation.
///  * `BufferPool::acquire_from(nullptr, n)` yields an *unpooled* lease —
///    a plain vector freed on destruction — so call sites stay uniform when
///    a caller (e.g. a standalone balance_pass) has no pool.
///
/// Thread safety: acquire/return are mutex-guarded (cheap, uncontended —
/// the driver stages on one thread; engine workers only fill buffer memory
/// already sized by the submitting thread).

#include <cstdint>
#include <mutex>
#include <vector>

#include "util/record.hpp"

namespace balsort {

class BufferPool {
public:
    BufferPool() = default;
    BufferPool(const BufferPool&) = delete;
    BufferPool& operator=(const BufferPool&) = delete;

    class Lease {
    public:
        Lease() = default;
        Lease(Lease&& o) noexcept : pool_(o.pool_), buf_(std::move(o.buf_)) {
            o.pool_ = nullptr;
            o.buf_.clear();
        }
        Lease& operator=(Lease&& o) noexcept {
            if (this != &o) {
                release();
                pool_ = o.pool_;
                buf_ = std::move(o.buf_);
                o.pool_ = nullptr;
                o.buf_.clear();
            }
            return *this;
        }
        ~Lease() { release(); }
        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;

        std::vector<Record>& operator*() { return buf_; }
        std::vector<Record>* operator->() { return &buf_; }
        const std::vector<Record>& operator*() const { return buf_; }
        const std::vector<Record>* operator->() const { return &buf_; }

    private:
        friend class BufferPool;
        Lease(BufferPool* pool, std::vector<Record> buf) : pool_(pool), buf_(std::move(buf)) {}

        void release() {
            if (pool_ != nullptr) pool_->give_back(std::move(buf_));
            pool_ = nullptr;
            buf_ = {};
        }

        BufferPool* pool_ = nullptr;
        std::vector<Record> buf_;
    };

    /// A buffer of exactly `n_records` records, contents unspecified.
    Lease acquire(std::size_t n_records);

    /// Pool-optional acquire: with a null pool the lease owns a plain
    /// vector (freed on destruction, nothing recycled).
    static Lease acquire_from(BufferPool* pool, std::size_t n_records) {
        if (pool != nullptr) return pool->acquire(n_records);
        std::vector<Record> buf(n_records);
        return Lease{nullptr, std::move(buf)};
    }

    struct Stats {
        std::uint64_t hits = 0;    ///< acquires served from a recycled buffer
        std::uint64_t misses = 0;  ///< acquires that allocated fresh
        std::uint64_t retained_records = 0;   ///< idle capacity held right now
        std::uint64_t high_water_records = 0; ///< peak idle capacity held
    };
    Stats stats() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return stats_;
    }

private:
    void give_back(std::vector<Record>&& buf);

    mutable std::mutex mutex_;
    std::vector<std::vector<Record>> free_;
    Stats stats_;
};

} // namespace balsort
