#pragma once
/// \file job_channel.hpp
/// Per-job I/O attribution over a shared DiskArray (DESIGN.md §14).
///
/// A concurrent sort service multiplexes several jobs over one array, but
/// the paper's observables — io_steps(), blocks moved, recovery counters —
/// are per-*algorithm* quantities: each job's numbers must come out
/// byte-identical to a solo run on a private array. The JobIoChannel is the
/// attribution vehicle: a job's worker thread binds its channel to the
/// array (DiskArray::bind_job_channel), and every charge point — the same
/// charge-at-submit / charge-at-consume sites both executors already
/// share — then mirrors its increment into the channel alongside
/// the array-wide totals. Recovery counters (retries, reconstructions,
/// degraded writes, timeouts) attribute to the job whose transfer hit the
/// fault, even when a neighbor's drain happens to reap the completion.
///
/// The channel also scopes two pieces of per-job machinery that used to be
/// array-global:
///  * the crash-consistency release quarantine (§13): a checkpointing job
///    parks *its* freed blocks without delaying the recycling of its
///    neighbors', and
///  * block ownership: allocations are recorded per channel so a failed or
///    cancelled job's scratch can be reclaimed (reclaim_job_blocks) without
///    touching live neighbors.
///
/// All fields are guarded by the owning DiskArray's internal mutex; never
/// read them directly while the job runs — use DiskArray::job_stats() /
/// channel_stats().

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <unordered_set>
#include <vector>

#include "pdm/disk_array.hpp"
#include "pdm/io_stats.hpp"

namespace balsort {

struct JobIoChannel {
    /// This job's share of the model accounting: every step/block charge
    /// and recovery counter the job's thread (or a neighbor reaping the
    /// job's write-behind batch) produced. Engine busy/depth metrics stay
    /// array-global (one engine serves everyone); io_steps() is unaffected.
    IoStats io;

    /// Fairness gate, invoked with the step count *before* the array takes
    /// its internal lock — a starved job blocks here without holding any
    /// array state, so neighbors keep flowing. Null = ungated.
    std::function<void(std::uint64_t steps)> gate;

    /// Nanoseconds this job's thread spent blocked inside `gate` — the
    /// "arbiter-wait" bucket of the job's time budget (DESIGN.md §16).
    /// Atomic, unlike the mutex-guarded fields below: the scheduler's gate
    /// wrapper adds on the job thread while status() reads live.
    std::atomic<std::uint64_t> gate_wait_ns{0};

    /// Channel-scoped release quarantine (DiskArray::set_release_quarantine
    /// routes here while the channel is bound).
    ReleaseQuarantine quarantine;

    /// Blocks this job allocated and has not yet released, per disk (sized
    /// on bind). Lets the scheduler reclaim a dead job's scratch and gives
    /// admission control a live footprint to audit.
    std::vector<std::unordered_set<std::uint64_t>> owned;
    std::uint64_t blocks_live = 0;
    std::uint64_t blocks_high_water = 0;

    /// A deferred write-behind failure belonging to this job that a
    /// *neighbor's* reap discovered. Surfaced (rethrown) on this job's next
    /// drain_async()/write_stripe_async, so one job's disk death never
    /// unwinds an innocent bystander.
    std::exception_ptr deferred_failure;
};

/// RAII thread binding: construct on the job's worker thread before any
/// array traffic, destroy (unbind) before the channel is reclaimed.
class JobChannelBinding {
public:
    JobChannelBinding(DiskArray& disks, JobIoChannel* channel) : disks_(disks) {
        disks_.bind_job_channel(channel);
    }
    ~JobChannelBinding() { disks_.unbind_job_channel(); }
    JobChannelBinding(const JobChannelBinding&) = delete;
    JobChannelBinding& operator=(const JobChannelBinding&) = delete;

private:
    DiskArray& disks_;
};

} // namespace balsort
