#pragma once
/// \file disk_array.hpp
/// The D-disk parallel I/O engine (Fig. 2a) and its accounting.
///
/// Model rule (Vitter–Shriver D-disk model): in one I/O step, each of the D
/// disks may transfer at most one block of B records. `read_step` /
/// `write_step` enforce the rule with hard checks; `read_batch` /
/// `write_batch` split arbitrary block lists into the minimum number of
/// steps (max blocks-per-disk), which is how the algorithms pay for
/// imbalance — the very quantity Balance Sort minimizes.
///
/// The weaker Aggarwal–Vitter model of Fig. 1 — any D blocks per I/O,
/// regardless of disk — is available via `Constraint::kAggarwalVitter`
/// (EXP-F1-AGV measures the gap).

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "pdm/async_engine.hpp"
#include "pdm/checksum.hpp"
#include "pdm/disk.hpp"
#include "pdm/faulty_disk.hpp"
#include "pdm/io_stats.hpp"
#include "util/common.hpp"

namespace balsort {

class FileDisk;
struct JobIoChannel;
class MemDisk;

enum class DiskBackend { kMemory, kFile };

/// Optional wall-clock device model (DESIGN.md §9): every block operation
/// occupies its executing thread for latency_us + B * us_per_record
/// microseconds — positioning latency plus transfer time. Model accounting
/// is untouched (a throttled array counts the same io_steps()); only
/// wall-clock changes. Page-cached scratch files serve blocks at memcpy
/// speed, which hides exactly the per-step serialization the worker
/// executor removes — the device model restores honest physics for
/// inline-vs-worker wall-clock comparisons (bench_async).
struct DeviceModel {
    std::uint32_t latency_us = 0; ///< fixed positioning cost per block op
    double us_per_record = 0.0;   ///< streaming transfer cost
    bool any() const { return latency_us > 0 || us_per_record > 0; }
};

/// Fault-tolerance configuration for a DiskArray (DESIGN.md §8).
///
/// Layering per disk (bottom to top):
///   backend disk -> FaultInjectingDisk (if `inject` has faults)
///                -> ChecksummedDisk    (if `checksums`)
/// plus, with `parity`, one extra parity disk (same backend) holding the
/// XOR of block i across all data disks — RAID-4 over the simulated array.
/// The parity device is checksummed but never fault-injected (a trusted
/// redundancy device; injecting there needs parity-of-parity, future work).
struct FaultTolerance {
    static constexpr std::uint32_t kNoDisk = 0xffffffffu;

    /// Fault model applied to every data disk (all streams seeded from
    /// `inject.seed` and the disk index). `inject.die_after_ops` is applied
    /// only to `die_disk` — parity recovers at most one dead disk.
    FaultSpec inject{};
    /// Which data disk `inject.die_after_ops` kills (kNoDisk = none).
    std::uint32_t die_disk = kNoDisk;

    /// Retry budget for transient faults: total attempts = 1 + max_retries
    /// (the RetryPolicy both executors run every request under).
    std::uint32_t max_retries = 3;
    /// Exponential backoff between retries: sleep backoff_base_us << attempt
    /// microseconds (0 = no sleeping; simulations and tests want 0).
    std::uint32_t backoff_base_us = 0;
    /// Scale every backoff sleep by a deterministic pseudo-random factor in
    /// [0.5, 1.5) so concurrent retriers decorrelate (wall-clock only;
    /// model accounting is untouched).
    bool backoff_jitter = false;
    /// Async-engine read deadline in microseconds (0 = no deadline). A read
    /// outstanding past it completes as TimedOutIo and is served from
    /// parity reconstruction instead of blocking the pipeline (DESIGN.md
    /// §13). Requires `parity` for the failover to succeed.
    std::uint64_t deadline_us = 0;

    /// Keep a CRC-32 sidecar per block and verify every read.
    bool checksums = false;
    /// Maintain a parity disk and reconstruct lost/corrupt blocks from it.
    bool parity = false;
    /// After reconstructing a corrupt block on a live disk, write the
    /// corrected image back (scrubbing) so later reads are clean.
    bool scrub_on_reconstruct = true;

    bool enabled() const { return checksums || parity || inject.any_faults(); }
};

/// Per-disk health counters (observability for SortReport consumers and
/// the fault soak bench).
struct DiskHealth {
    bool alive = true;
    std::uint64_t transient_retries = 0;
    std::uint64_t corrupt_blocks = 0;
    std::uint64_t reconstructions = 0;
    std::uint64_t degraded_writes = 0;
};

/// Which I/O-step legality rule applies.
enum class Constraint {
    kIndependentDisks, ///< one block per disk per step (the D-disk model)
    kAggarwalVitter,   ///< any <= D blocks per step (the [AgV] model, Fig. 1)
};

/// One block-granular operation within a parallel I/O step.
struct BlockOp {
    std::uint32_t disk = 0;
    std::uint64_t block = 0;
};

/// Crash-consistency release quarantine (DESIGN.md §13): while `on`,
/// released blocks are parked instead of freed. The array keeps one for
/// unbound (solo) callers and every JobIoChannel carries its own.
struct ReleaseQuarantine {
    bool on = false;
    std::vector<BlockOp> parked;
};

/// Scratch-file naming and lifecycle for DiskBackend::kFile (DESIGN.md
/// §13). By default every array gets a unique pid+counter tag and removes
/// its files on destruction. A checkpointing run pins a stable `tag` and
/// sets `keep`, so a crashed process leaves its scratch behind under
/// predictable names; the resuming process passes the same tag with
/// `adopt` to re-open those files (without truncation) instead of creating
/// fresh ones.
struct ScratchOptions {
    std::string tag;    ///< stable name component ("" = unique pid+counter)
    bool adopt = false; ///< open existing scratch files without truncating
    bool keep = false;  ///< leave scratch files behind on destruction
};

/// Complete restorable state of a DiskArray apart from the block images
/// themselves (which live in the backend files): allocator, health,
/// checksum sidecars, fault-injection RNG streams, parity bookkeeping.
/// Captured at checkpoint boundaries and re-applied on resume.
struct DiskArraySnapshot {
    struct PerDisk {
        std::uint64_t next_free = 0;
        std::vector<std::uint64_t> free_blocks; ///< sorted released indices
        DiskHealth health;
        std::vector<std::uint64_t> parity_carried; ///< sorted
        bool has_fault_state = false;
        FaultInjectingDisk::State fault_state;
        bool has_sidecar = false;
        ChecksummedDisk::Sidecar sidecar;
        /// Memory backend only: the disk's full block image. File scratch
        /// survives a crash on its own, but a memory array's blocks must
        /// travel inside the checkpoint for a fresh array (a new process,
        /// or hier_sort's internal lanes) to resume from them.
        bool has_image = false;
        std::vector<Record> image;
    };
    std::vector<PerDisk> disks;
    bool has_parity_sidecar = false;
    ChecksummedDisk::Sidecar parity_sidecar;
    bool has_parity_image = false;
    std::vector<Record> parity_image;
};

class DiskArray {
public:
    /// For DiskBackend::kFile, `file_dir` must name a writable directory;
    /// one scratch file per disk is created there (removed on destruction).
    /// A non-trivial `dev` inserts a ThrottledDisk below the fault layers of
    /// every disk (parity included), charging wall-clock per block op.
    DiskArray(std::uint32_t d, std::uint32_t b, DiskBackend backend = DiskBackend::kMemory,
              std::string file_dir = ".", Constraint constraint = Constraint::kIndependentDisks,
              FaultTolerance ft = {}, DeviceModel dev = {}, ScratchOptions scratch = {});
    ~DiskArray();

    std::uint32_t num_disks() const { return static_cast<std::uint32_t>(disks_.size()); }
    std::uint32_t block_size() const { return b_; }
    Constraint constraint() const { return constraint_; }
    DiskBackend backend() const { return backend_; }

    /// Array-wide accounting. The returned reference is safe to read only
    /// while no other thread is driving this array; concurrent callers
    /// (the sort service) use stats_snapshot()/job_stats() instead.
    IoStats& stats() {
        refresh_engine_stats();
        return stats_;
    }
    const IoStats& stats() const {
        refresh_engine_stats();
        return stats_;
    }

    // ---- concurrent multi-job attribution (DESIGN.md §14) ----
    //
    // Every public entry below and all model charge points are guarded by
    // one internal mutex, making the array safe for one thread per job.
    // A bound JobIoChannel receives a mirror of each charge this thread
    // produces, so per-job accounting falls out byte-identical to a solo
    // run. The engine's per-disk workers never take the mutex (they touch
    // only their own disk's decorator stack), so I/O parallelism is
    // unaffected; only bookkeeping serializes.

    /// Bind `channel` to this array *on the calling thread*: until
    /// unbind_job_channel(), every charge/recovery/allocator event this
    /// thread produces is attributed to the channel, the fairness gate is
    /// consulted before each charged step, and quarantine scoping routes
    /// through the channel. Sizes channel->owned to num_disks().
    void bind_job_channel(JobIoChannel* channel);
    void unbind_job_channel();
    /// True iff a channel is bound to this array on the calling thread.
    bool job_channel_bound() const;

    /// The calling thread's view of "my sort's accounting": the bound
    /// channel's IoStats, or a locked snapshot of the array totals when
    /// unbound (so solo callers can use it unconditionally).
    IoStats job_stats() const;
    /// Locked copy of the array-wide totals (engine metrics folded in).
    IoStats stats_snapshot() const;
    /// Locked copy of any channel's accounting — for a scheduler thread
    /// reporting on a job that is bound elsewhere.
    IoStats channel_stats(const JobIoChannel& channel) const;
    /// Locked copy of a channel's scratch footprint (live blocks owned,
    /// high-water) — same consumer as channel_stats.
    struct ChannelFootprint {
        std::uint64_t blocks_live = 0;
        std::uint64_t blocks_high_water = 0;
    };
    ChannelFootprint channel_footprint(const JobIoChannel& channel) const;
    /// Locked copy of a disk's health counters.
    DiskHealth health_snapshot(std::uint32_t d) const;

    /// Return every block still owned by `channel` (plus its quarantined
    /// releases) to the free lists — cleanup after a failed or cancelled
    /// job. The channel must no longer be bound on any thread and the
    /// job's in-flight work must be drained first.
    void reclaim_job_blocks(JobIoChannel& channel);

    // ---- block transfers (DESIGN.md §8-§9) ----
    //
    // Every transfer is a batch of block requests run by one of two
    // executors and settled by one recovery ladder:
    //  * inline (engine off): the calling thread runs the requests in step
    //    order, and a failed request is recovered before the next one runs;
    //  * per-disk workers (set_async(true)): the AsyncEngine runs them in
    //    parallel; failures are recovered in request order once the batch
    //    has completed and the engine is quiescent.
    // Both run each request under the array's RetryPolicy and charge the
    // model the same steps in the same order, so io_steps() and the
    // step-observer sequence do not depend on the executor.

    /// One parallel read step. `buffers` is ops.size()*B records, the i-th
    /// chunk receiving the i-th op's block. Ops must respect `constraint()`.
    void read_step(std::span<const BlockOp> ops, std::span<Record> buffers);

    /// One parallel write step (same layout rules as read_step).
    void write_step(std::span<const BlockOp> ops, std::span<const Record> buffers);

    /// Read an arbitrary list of blocks using the fewest steps: blocks are
    /// grouped per disk; step t issues each disk's t-th remaining op.
    /// Costs max-per-disk steps. dest receives blocks in `ops` order.
    void read_batch(std::span<const BlockOp> ops, std::span<Record> dest);

    /// Write counterpart of read_batch.
    void write_batch(std::span<const BlockOp> ops, std::span<const Record> src);

    // ---- worker-executor request/completion API (DESIGN.md §9) ----
    //
    // With the workers on, the transfers above route through them, so
    // callers need nothing below unless they want explicit overlap
    // (prefetch ahead of consumption). Model accounting is charged by the
    // *submitting* thread using exactly the step decomposition of the
    // inline executor.

    /// Completion handle for one asynchronous stripe read. Move-only.
    /// Obtain via read_stripe_async/prefetch_read; redeem via complete_read.
    class ReadTicket {
    public:
        ReadTicket() = default;
        ReadTicket(ReadTicket&&) = default;
        ReadTicket& operator=(ReadTicket&&) = default;
        bool valid() const { return batch_.valid(); }

    private:
        friend class DiskArray;
        AsyncBatch batch_;
        std::span<Record> dest_;
        std::uint64_t trace_id_ = 0; ///< async trace pair id (0 = untraced)
    };

    /// Switch between the inline executor (off) and the per-disk worker
    /// executor (on). Enabling is cheap; disabling drains all in-flight
    /// work first and folds engine metrics into stats(). No-op if already
    /// in the requested state. balance_sort and SortScheduler turn the
    /// workers on for file-backed arrays for their own extent; a
    /// memory-backed array runs whichever executor its owner set here.
    void set_async(bool enabled);
    bool async_enabled() const { return engine_ != nullptr; }

    /// Complete all in-flight work: reap pending write-behind batches
    /// (surfacing any deferred failures) and wait for the engine to idle.
    /// After this, direct disk access (disk_for_testing, reconstruct_block)
    /// is safe. No-op when the engine is off.
    void drain_async();

    /// Per-disk in-flight request depth of the async engine (empty when
    /// the engine is off) — live-gauge source for the stats endpoint.
    /// Wall-clock observability only; touches no model state.
    std::vector<std::uint32_t> async_in_flight() const;

    /// Asynchronous read_step: charges one parallel read step now, submits
    /// the transfers, returns a ticket. `dest` must stay valid until the
    /// ticket is completed. Recovery (retry exhaustion, corruption, death)
    /// happens inside complete_read, through the one recovery ladder.
    ReadTicket read_stripe_async(std::span<const BlockOp> ops, std::span<Record> dest);

    /// Submit transfers WITHOUT charging model costs — pair each prefetch
    /// with a later charge_read_batch over the same ops at consumption
    /// time. This is how RunReader overlaps: physical I/O runs
    /// ahead while the model is charged exactly when the inline executor
    /// would charge it.
    ReadTicket prefetch_read(std::span<const BlockOp> ops, std::span<Record> dest);

    /// Charge the model cost of reading `ops` as read_batch would (step
    /// decomposition via per-disk grouping, observer callbacks included)
    /// without touching any disk.
    void charge_read_batch(std::span<const BlockOp> ops);

    /// Wait for a ticket's transfers and run the recovery ladder on any
    /// deferred failure (in request order, after draining the engine).
    /// Idempotent: completing an empty/moved-from ticket is a no-op.
    void complete_read(ReadTicket& ticket);

    /// Asynchronous write_step (write-behind): charges one parallel write
    /// step, copies `src` into an internally owned buffer, submits, and
    /// returns immediately. Completed batches are reaped opportunistically;
    /// at most a bounded number stay in flight. Requires parity OFF (parity
    /// RMW must read old images — write_step runs those writes inline).
    void write_stripe_async(std::span<const BlockOp> ops, std::span<const Record> src);

    /// Allocate one block index on `disk`: the shallowest free (released)
    /// index if any, else a fresh one past the high-water mark. Shallow
    /// reuse keeps total space O(N) — essential for the memory-hierarchy
    /// models, whose access cost grows with depth.
    std::uint64_t allocate(std::uint32_t disk);
    /// Bump-allocate `n_blocks` consecutive fresh indices (no free-list).
    std::uint64_t allocate(std::uint32_t disk, std::uint64_t n_blocks);

    /// Return a block to the allocator (it must not be referenced again
    /// until re-allocated; tests fuzz this contract).
    void release(std::uint32_t disk, std::uint64_t block);
    void release(const BlockOp& op) { release(op.disk, op.block); }

    // ---- crash consistency (DESIGN.md §13) ----

    /// With the quarantine on, release() parks blocks instead of freeing
    /// them; flush_release_quarantine() moves the parked blocks to the free
    /// lists. A checkpointing sort flushes only at durable boundaries, so a
    /// crash between boundaries can never have recycled — and overwritten —
    /// a block the last checkpoint's layout still references. Turning the
    /// quarantine off flushes whatever is parked.
    /// With a job channel bound, all three route to the *channel's*
    /// quarantine: a checkpointing job parks its own freed blocks without
    /// delaying the recycling of its neighbors'.
    void set_release_quarantine(bool on);
    bool release_quarantine() const;
    void flush_release_quarantine();

    /// Capture / re-apply everything restorable about the array except the
    /// block images (those live in the backend). The engine must be drained
    /// and the quarantine empty (both enforced) so the snapshot is a
    /// consistent cut.
    DiskArraySnapshot snapshot() const;
    void restore(const DiskArraySnapshot& snap);

    /// Flip scratch retention on every file-backed device (including
    /// parity). The CLI's checkpointing path keeps scratch while a sort is
    /// in flight and re-enables cleanup after success.
    void set_keep_scratch(bool keep);

    /// Blocks currently free-listed on `disk` (observability for tests).
    std::uint64_t free_blocks(std::uint32_t disk) const;

    /// Next free block index per disk (for layout assertions in tests).
    std::uint64_t high_water(std::uint32_t disk) const;

    /// Direct (non-step-counted) access for test verification only.
    const Disk& disk_for_testing(std::uint32_t d) const { return *disks_[d]; }
    /// Mutable variant: lets tests corrupt data underneath the decorator
    /// stack (via ChecksummedDisk::inner()) to exercise recovery paths.
    Disk& disk_for_testing(std::uint32_t d) { return *disks_[d]; }

    // ---- fault tolerance (DESIGN.md §8) ----

    /// Per-disk health counters; `health(d).alive == false` once disk `d`
    /// failed permanently (the array then serves it in degraded mode).
    const DiskHealth& health(std::uint32_t d) const;

    /// Recompute block `index` of disk `d` from the parity stripe:
    /// XOR of the parity block and every peer disk's block at `index`
    /// (missing blocks count as zeros). Public so tests can exercise it;
    /// the recovery ladder calls it automatically. Throws UnrecoverableIo
    /// if parity is off or a peer read hits a non-transient fault.
    void reconstruct_block(std::uint32_t d, std::uint64_t index, std::span<Record> out);

    /// Observer invoked once per parallel I/O step (after it executes),
    /// with is_read and the step's ops. Used by the memory-hierarchy
    /// simulators to charge depth-dependent access costs (DESIGN.md §3:
    /// lanes of a P-HMM/P-BT hierarchy are modelled as disks of block
    /// size 1, and the observer prices each track by its depth).
    using StepObserver = std::function<void(bool is_read, std::span<const BlockOp> ops)>;
    void set_step_observer(StepObserver obs) { observer_ = std::move(obs); }
    /// The currently installed observer (empty when none). Lets decorators
    /// like IoTrace chain to — and later restore — a prior installee
    /// instead of clobbering it.
    const StepObserver& step_observer() const { return observer_; }

private:
    void check_step_legal(std::span<const BlockOp> ops) const;

    // -- async internals (all called on the submitting thread) --
    /// One write-behind batch: the engine writes from `data`, which we own
    /// until the batch is reaped. `owner` is the submitting job's channel
    /// (null when unbound): whichever thread reaps the batch, its retries
    /// and failures are attributed — and deferred — to the owner.
    struct PendingWrite {
        AsyncBatch batch;
        std::vector<Record> data;
        JobIoChannel* owner = nullptr;
    };
    /// Per owner: each job's write-behind window is bounded independently.
    static constexpr std::size_t kMaxPendingWrites = 8;

    /// The channel bound to this array on the calling thread (null if
    /// none). Thread-local lookup; no lock needed.
    JobIoChannel* bound_channel() const;
    /// Run the bound channel's fairness gate for `steps` charged steps.
    /// MUST be called before taking mu_ — a starved job blocks here.
    void gate_steps(std::uint64_t steps) const;

    /// Add `n` to one IoStats counter of the array and of the bound
    /// channel (the per-job mirror, DESIGN.md §14). Caller holds mu_.
    template <class T>
    void add_stat(T IoStats::*field, std::type_identity_t<T> n);
    /// The release quarantine governing the calling thread: its bound
    /// channel's, else the array's. Caller holds mu_.
    ReleaseQuarantine& quarantine() const;
    /// Move every parked block of `q` to the free lists. Caller holds mu_.
    void free_parked(ReleaseQuarantine& q);
    /// Record blocks [first, first+n_blocks) of `disk` as owned by the
    /// bound channel, if any. Caller holds mu_.
    void note_owned(std::uint32_t disk, std::uint64_t first, std::uint64_t n_blocks);

    /// Model accounting for one parallel step (counters + observer).
    void charge_read_step(std::span<const BlockOp> ops);
    void charge_write_step(std::span<const BlockOp> ops);

    // -- the one request path: execute, fold retries, recover --
    /// Inline executor: run one request on the calling thread under the
    /// retry policy, then — before returning, so before the caller's next
    /// request — settle it: fold its retries and, if it failed, run the
    /// recovery ladder. Caller holds mu_.
    void run_inline(const IoRequest& request);
    /// Submit a batch to the worker executor without charging (physical
    /// only). Caller holds mu_.
    AsyncBatch submit(IoRequest::Kind kind, std::span<const BlockOp> ops, Record* read_base,
                      const Record* write_base);
    /// Reap one worker batch: wait for it with `lk` released (so a stalled
    /// job never serializes its neighbors' submissions on mu_; the batch is
    /// owned by the caller, so no other thread can reap it), then, under
    /// `lk`, fold stall and retry counters and run the recovery ladder on
    /// each failed request in request order, after quiescing the engine.
    /// Retries and write failures belong to `owner`; reads land at
    /// `read_base` + request_index * B.
    void reap(AsyncBatch& batch, IoRequest::Kind kind, Record* read_base, JobIoChannel* owner,
              std::unique_lock<std::recursive_mutex>& lk);
    /// Attribute `c`'s transient retries to its disk, the array and `owner`.
    void fold_retries(const IoCompletion& c, JobIoChannel* owner);
    /// Recovery ladder for one failed read: classify, then parity
    /// reconstruction + scrub, or rethrow without parity.
    void handle_read_failure(const BlockOp& op, const std::exception_ptr& error,
                             std::span<Record> out);
    /// Recovery ladder for one failed write: degrade into parity (the data
    /// lives implicitly in the stripe) or rethrow. A failure belonging to
    /// another job's `owner` channel is parked there instead of thrown.
    void handle_write_failure(const BlockOp& op, const std::exception_ptr& error,
                              JobIoChannel* owner);
    /// Reap completed (or, with `all`, every) pending write-behind batch.
    void reap_pending_writes(bool all);
    /// Remove the pending write-behind batch at `idx` and reap it under
    /// `lk` (a lock on mu_).
    void reap_pending_write(std::size_t idx, std::unique_lock<std::recursive_mutex>& lk);
    /// Fold live engine metrics into stats_ (const: stats_ is mutable).
    void refresh_engine_stats() const;

    /// Retried read used inside reconstruction and parity RMW: never
    /// recurses into reconstruction; escalates to UnrecoverableIo instead.
    void retrying_read(Disk& disk, std::uint32_t d, std::uint64_t index, std::span<Record> out,
                       bool for_reconstruction);
    /// Update the parity stripe for this step's writes. Must run before
    /// the data writes land (it reads the old images).
    void update_parity(std::span<const BlockOp> ops, std::span<const Record> buffers);

    std::uint32_t b_;
    DiskBackend backend_;
    Constraint constraint_;
    FaultTolerance ft_;
    RetryPolicy retry_; ///< from ft_; shared with the worker executor
    DeviceModel dev_;
    ScratchOptions scratch_;
    std::vector<std::unique_ptr<Disk>> disks_;
    std::unique_ptr<Disk> parity_;
    std::vector<DiskHealth> health_;
    /// Blocks of a *dead* disk whose only image lives inside the parity
    /// stripe (written after death via a degraded write). Reconstructing a
    /// peer at such an index must fail as a double failure: the carried
    /// image is a real, nonzero contributor that cannot be read back, and
    /// assuming zeros (as for never-written blocks) would silently corrupt
    /// the reconstruction — and, with scrubbing, re-checksum the garbage.
    std::vector<std::unordered_set<std::uint64_t>> parity_carried_;
    /// Non-owning view of each disk's checksum layer (null without
    /// FaultTolerance::checksums); lets the write path invalidate stale
    /// images when a write fails permanently on a live disk.
    std::vector<class ChecksummedDisk*> csum_;
    ChecksummedDisk* parity_csum_ = nullptr;
    /// Non-owning views for snapshot/restore and scratch retention (null /
    /// empty when the corresponding layer or backend is absent).
    std::vector<FaultInjectingDisk*> fault_;
    std::vector<FileDisk*> file_; ///< parity's file, when present, is last
    std::vector<MemDisk*> mem_;   ///< memory backend devices (parity last)
    std::vector<std::uint64_t> next_free_;
    /// Min-heaps of released block indices, one per disk.
    std::vector<std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                                    std::greater<std::uint64_t>>>
        free_list_;
    /// Solo callers' release quarantine (see set_release_quarantine).
    /// Mutable: the const snapshot() checks it through quarantine().
    mutable ReleaseQuarantine quarantine_;
    /// Guards all shared bookkeeping (stats_, allocator, quarantine,
    /// health_, parity/csum state, pending_writes_, spare_write_buffers_)
    /// against concurrent job threads. Recursive: the recovery ladder
    /// re-enters public entries. Engine workers never take it; the fairness
    /// gate runs before it.
    mutable std::recursive_mutex mu_;
    /// Mutable: the const stats() accessor folds live engine metrics in.
    mutable IoStats stats_;
    StepObserver observer_;

    // -- worker executor state (null / empty when the engine is off) --
    std::unique_ptr<AsyncEngine> engine_; ///< destroyed before disks_
    std::deque<PendingWrite> pending_writes_;
    /// Data buffers of reaped write-behind batches, reused by the next
    /// write_stripe_async instead of allocating per step. At most
    /// kMaxPendingWrites are kept.
    std::vector<std::vector<Record>> spare_write_buffers_;
    // Metrics of engines already torn down (set_async(false) folds them
    // here so stats() stays monotone across enable/disable cycles).
    double folded_busy_seconds_ = 0;
    std::uint64_t folded_block_ops_ = 0;
    std::uint64_t folded_max_in_flight_ = 0;
};

} // namespace balsort
