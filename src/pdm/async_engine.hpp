#pragma once
/// \file async_engine.hpp
/// Asynchronous request/completion I/O engine for the PDM layer
/// (DESIGN.md §9).
///
/// The parallel disk model charges one I/O step for D blocks moving
/// *concurrently* (§1, Theorem 1), but a sequential loop over the D
/// per-disk transfers serializes exactly the parallelism the model counts
/// as one step. The AsyncEngine restores the model's physics: one worker
/// thread per disk, each draining a FIFO queue of block requests, so the
/// D transfers of a step really do proceed in parallel and wall-clock can
/// track `io_steps()`.
///
/// The engine is one of DiskArray's two executors for block requests
/// (DESIGN.md §8-§9); the other runs requests inline on the caller's
/// thread. Both execute every request through `execute_with_retry`, the
/// single bounded-retry loop of the PDM layer.
///
/// Division of labor (the invariants DiskArray relies on):
///  * A worker touches ONLY its own disk's decorator stack plus local
///    counters — never DiskArray shared state (stats, health, allocator,
///    parity). Everything shared is mutated by the submitting thread when
///    it reaps completions.
///  * Per-disk FIFO: requests for one disk execute in submission order,
///    so a read of a block submitted after its write always sees the
///    written data, with no extra synchronization at the call sites.
///  * Transient faults are retried on the worker (bounded, counted in the
///    completion); any other failure is *deferred* — captured as an
///    exception_ptr and returned to the submitter, who runs the recovery
///    ladder (checksum verify, parity reconstruction, degraded mode)
///    serially after `drain()`. Fault-free requests therefore run at full
///    parallelism while recovery keeps its single-threaded, deterministic
///    semantics.
///
/// The engine never performs model accounting: I/O steps are charged by
/// DiskArray at submission time, keeping `io_steps()` bit-identical to
/// the inline executor (the wall-clock-vs-model-cost separation).
///
/// Queues (DESIGN.md §9): each disk has its own submission queue — an
/// intrusive FIFO with its own lock and wake-up — shaped like an io_uring
/// SQ/CQ pair. A submit takes each target disk's lock once and wakes only
/// the workers it gave work to; a worker takes only its own disk's lock.
/// A batch completes through an atomic remaining-count: the worker that
/// finishes a batch wakes that batch's waiters, and the one that finishes
/// the engine's last outstanding request wakes `drain()`. No engine-wide
/// lock sits on the submit or complete path, and a batch is a fixed
/// number of allocations however many requests it carries.
///
/// Deadlines (DESIGN.md §13): with `deadline_us > 0` every READ request
/// carries an absolute deadline and a watchdog thread abandons requests
/// still outstanding past it, completing them with `TimedOutIo` so the
/// submitter can fail over to parity reconstruction instead of blocking
/// on a hung device forever. An abandoned request's worker may still be
/// stuck inside the disk stack; it therefore executes into a private
/// staging buffer and only copies into the caller's buffer — under its
/// disk's lock, after checking it was not abandoned — so a late wakeup
/// can never scribble over data the submitter already reconstructed.
/// The watchdog takes one disk lock at a time.
/// Writes are never abandoned: a write that eventually lands is
/// indistinguishable from a successful one, while abandoning it would
/// force parity bookkeeping for data that may yet appear.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "pdm/disk.hpp"

namespace balsort {

class Histogram;
class Tracer;

/// One block transfer handed to the engine. The buffer must stay valid
/// until the request's batch completes (the submitter owns it).
struct IoRequest {
    enum class Kind : std::uint8_t { kRead, kWrite };
    Kind kind = Kind::kRead;
    std::uint32_t disk = 0;
    std::uint64_t block = 0;
    Record* read_buf = nullptr;        ///< kRead: receives block_size() records
    const Record* write_data = nullptr;///< kWrite: block_size() records to persist
};

/// Outcome of one IoRequest, reported back to the submitting thread.
struct IoCompletion {
    std::uint32_t request_index = 0; ///< position within the submitted batch
    std::uint32_t disk = 0;
    std::uint64_t block = 0;
    bool ok = true;
    /// Deferred failure: the first non-transient exception (or the final
    /// transient one once retries are exhausted). The submitter classifies
    /// it and runs the recovery ladder.
    std::exception_ptr error;
    /// Transient faults retried while executing this request (counted
    /// whether or not the request ultimately succeeded).
    std::uint64_t transient_retries = 0;
};

/// Bounded-retry policy for transient faults (DESIGN.md §8): total attempts
/// = 1 + max_retries, with an exponential backoff of `backoff_base_us <<
/// attempt` microseconds between them (0 = no sleeping). With
/// `backoff_jitter` each sleep is scaled by a deterministic factor in
/// [0.5, 1.5) drawn from (disk, block, attempt), so concurrent retriers
/// decorrelate while every run sleeps identically. Wall-clock only: the
/// retry *decisions* never depend on the sleeps.
struct RetryPolicy {
    std::uint32_t max_retries = 3;
    std::uint32_t backoff_base_us = 0;
    bool backoff_jitter = false;
};

/// Execute one request on `disk` (the top of its decorator stack) with
/// bounded retry on TransientIoError — the only retry loop in the PDM
/// layer, shared by the engine's workers and DiskArray's inline executor,
/// reconstruction and parity read-modify-write reads. Never throws: any
/// failure (exhausted transients included) is returned in the completion
/// for the caller's recovery ladder. `backoff_us`, when non-null, records
/// every backoff sleep.
IoCompletion execute_with_retry(Disk& disk, const IoRequest& request, const RetryPolicy& policy,
                                Histogram* backoff_us = nullptr);

/// Completion handle for one batch of requests. Move-only; cheap to hold.
/// Dropping a batch without waiting is safe — the engine keeps the batch
/// alive until it no longer references any of its requests.
class AsyncBatch {
public:
    AsyncBatch() = default;
    AsyncBatch(AsyncBatch&&) = default;
    AsyncBatch& operator=(AsyncBatch&&) = default;
    AsyncBatch(const AsyncBatch&) = delete;
    AsyncBatch& operator=(const AsyncBatch&) = delete;

    bool valid() const { return state_ != nullptr; }

private:
    friend class AsyncEngine;
    struct Item;  ///< one request's queue entry (defined in the .cpp)
    struct State; ///< requests, work items and completions of one batch
    std::shared_ptr<State> state_;
};

/// Wall-clock observability (DESIGN.md §9): how much the engine worked,
/// how long submitters stalled on it, and how deep the pipeline got.
struct AsyncEngineMetrics {
    double busy_seconds = 0;        ///< summed worker time executing requests
    std::uint64_t block_ops = 0;    ///< requests executed
    std::uint64_t max_in_flight = 0;///< peak submitted-but-not-executed depth
};

/// Per-disk worker threads + per-disk FIFO submission queues + completion
/// batches.
class AsyncEngine {
public:
    /// `disks[d]` is the top of disk d's decorator stack; the engine does
    /// not own the disks. The retry arguments form the RetryPolicy every
    /// request runs under. `deadline_us > 0` arms the read watchdog (see
    /// file comment).
    AsyncEngine(std::vector<Disk*> disks, std::uint32_t max_retries,
                std::uint32_t backoff_base_us, std::uint64_t deadline_us = 0,
                bool backoff_jitter = false);
    /// Stops the workers. Queued-but-unexecuted requests are completed
    /// with an "engine stopped" error instead of running (destruction
    /// during unwind must not touch possibly-dead disks).
    ~AsyncEngine();

    AsyncEngine(const AsyncEngine&) = delete;
    AsyncEngine& operator=(const AsyncEngine&) = delete;

    std::uint32_t num_disks() const { return static_cast<std::uint32_t>(disks_.size()); }

    /// Enqueue a batch of requests (any mix of disks/kinds; per-disk FIFO
    /// order is the submission order). Buffers must outlive the batch.
    AsyncBatch submit(std::vector<IoRequest> requests);

    /// The same, filled in place: `prepare(n)` returns an unsubmitted
    /// batch of `n` request slots, `request(batch, i)` is slot i, and
    /// `submit(batch)` enqueues it (once). DiskArray submits this way, so
    /// no request vector is built and copied per stripe.
    static AsyncBatch prepare(std::size_t n);
    static IoRequest& request(AsyncBatch& batch, std::size_t i);
    void submit(AsyncBatch& batch);

    /// Block until every request of `batch` executed; returns completions
    /// ordered by request_index. Idempotent (a second wait returns the
    /// same completions).
    const std::vector<IoCompletion>& wait(AsyncBatch& batch);

    /// True once every request of `batch` executed (non-blocking).
    bool done(const AsyncBatch& batch) const;

    /// Block until the engine is fully idle: every submitted request has
    /// executed. Completions stay with their batches (drain reaps
    /// nothing); afterwards the submitting thread may safely touch the
    /// disks directly (recovery ladder, parity RMW, direct test access).
    void drain();

    AsyncEngineMetrics metrics() const;

    /// Reads abandoned by the watchdog (completed with TimedOutIo).
    std::uint64_t timeouts() const;

    /// Per-disk in-flight depth right now: queued requests plus the one a
    /// worker is executing. Live-gauge source for the stats endpoint
    /// (DESIGN.md §16); takes each disk's lock briefly, one at a time.
    std::vector<std::uint32_t> per_disk_in_flight() const;

private:
    using Item = AsyncBatch::Item;
    using State = AsyncBatch::State;
    struct DiskQueue; ///< one disk's submission queue, lock and counters

    void worker_loop(std::uint32_t disk_index);
    void watchdog_loop();
    /// Watchdog round: expire overdue reads, one disk lock at a time.
    /// Returns whether any expired.
    bool expire_overdue();
    /// Count one completed request of `batch` (its completion slot already
    /// filled): wakes the batch's waiters if it was the batch's last, and
    /// drain() if it was the engine's last outstanding request.
    void finish(State& batch);
    /// Drop one engine reference to `batch` (a queued or executing item);
    /// the last one releases the engine's ownership and may free the batch.
    static void unpin(State& batch);

    std::vector<Disk*> disks_;
    RetryPolicy retry_;
    std::uint64_t deadline_us_;

    // Observability (DESIGN.md §11), bound once at construction from the
    // installed tracer/metrics (balance_sort installs them before enabling
    // the engine). All null when observability is off; workers check one
    // pointer per op. Never touches model accounting.
    Tracer* tracer_ = nullptr;
    std::vector<std::uint32_t> lane_tids_;   ///< per-disk "disk N io" lanes
    std::vector<Histogram*> read_latency_;   ///< per-disk, microseconds
    std::vector<Histogram*> write_latency_;
    std::vector<Histogram*> backoff_us_;     ///< per-disk retry backoff sleeps
    Histogram* queue_depth_ = nullptr;       ///< sampled at each submit

    std::unique_ptr<DiskQueue[]> queues_; ///< one per disk

    std::atomic<std::uint64_t> in_flight_{0};      ///< submitted, not yet completed
    std::atomic<std::uint64_t> peak_in_flight_{0};
    std::atomic<bool> stop_{false};
    std::mutex idle_mu_;             ///< drain() sleeps here; taken only
    std::condition_variable idle_cv_;///< when in_flight_ drops to zero
    std::mutex watchdog_mu_;         ///< watchdog tick and stop only
    std::condition_variable watchdog_cv_;
    bool watchdog_stop_ = false;     ///< guarded by watchdog_mu_

    std::thread watchdog_;             ///< running only when deadline_us_ > 0
    std::vector<std::thread> workers_; ///< constructed last, joined first
};

} // namespace balsort
