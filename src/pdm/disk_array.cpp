#include "pdm/disk_array.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "pdm/checksum.hpp"
#include "pdm/file_disk.hpp"
#include "pdm/job_channel.hpp"
#include "pdm/mem_disk.hpp"

namespace balsort {

namespace {

/// The job channel bound on this thread, and to which array (DESIGN.md
/// §14). Pointer-pair rather than a per-array map: a job thread drives
/// exactly one shared array, and any *other* array the same thread touches
/// (hier_sort's internal lanes, a test's scratch array) must see no
/// binding — bound_channel() checks the array identity.
thread_local const DiskArray* tl_job_array = nullptr;
thread_local JobIoChannel* tl_job_channel = nullptr;

/// Exception label for the parity device (it has no data-disk index).
constexpr std::uint32_t kParityDiskId = 0xfffffffeu;

/// One tick on the "faults" trace lane when tracing is on, plus a note in
/// the always-on flight recorder. Fault paths are rare, so reading the
/// installed-tracer atomic here is free in the common case and the lane
/// lookup only ever runs during actual recovery. This is the single choke
/// point every rung of the recovery ladder reports through, so it is
/// also where the flight recorder preserves the crash scene
/// (DESIGN.md §16): the note is always recorded; the auto-dump fires only
/// when a dump path is configured.
void fault_instant(const char* name, std::uint32_t disk, std::uint64_t block) {
    flight_note(name, "fault", static_cast<std::int64_t>(disk),
                static_cast<std::int64_t>(block));
    flight_auto_dump(name);
    if (Tracer* t = tracer(); t != nullptr) {
        t->instant(name, "fault", t->lane("faults"),
                   {{"disk", static_cast<std::int64_t>(disk)},
                    {"block", static_cast<std::int64_t>(block)}});
    }
}

void xor_into(std::span<Record> acc, std::span<const Record> src) {
    for (std::size_t i = 0; i < acc.size(); ++i) {
        acc[i].key ^= src[i].key;
        acc[i].payload ^= src[i].payload;
    }
}

/// Decorator charging DeviceModel wall-clock per block op, on whichever
/// thread executes the op: serial under the inline executor, concurrent
/// under the per-disk workers — exactly the contrast bench_async measures.
/// Sits below the fault layers, so a retried op pays the device again only
/// when it actually reaches the device.
class ThrottledDisk final : public Disk {
public:
    ThrottledDisk(std::unique_ptr<Disk> inner, DeviceModel dev)
        : inner_(std::move(inner)), dev_(dev) {}

    std::size_t block_size() const override { return inner_->block_size(); }
    std::uint64_t size_blocks() const override { return inner_->size_blocks(); }
    void read_block(std::uint64_t index, std::span<Record> out) const override {
        throttle();
        inner_->read_block(index, out);
    }
    void write_block(std::uint64_t index, std::span<const Record> in) override {
        throttle();
        inner_->write_block(index, in);
    }

private:
    void throttle() const {
        const double us =
            dev_.latency_us + dev_.us_per_record * static_cast<double>(inner_->block_size());
        if (us > 0) std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(us));
    }

    std::unique_ptr<Disk> inner_;
    DeviceModel dev_;
};

/// Group `ops` into maximal legal steps: step t holds each disk's t-th op.
/// Returns, per step, the list of (index into ops) it carries.
std::vector<std::vector<std::size_t>> plan_steps(std::span<const BlockOp> ops, std::size_t d,
                                                 Constraint constraint) {
    std::vector<std::vector<std::size_t>> per_disk(d);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        BS_REQUIRE(ops[i].disk < d, "batch op names nonexistent disk");
        per_disk[ops[i].disk].push_back(i);
    }
    std::vector<std::vector<std::size_t>> steps;
    if (constraint == Constraint::kIndependentDisks) {
        std::size_t max_len = 0;
        for (const auto& v : per_disk) max_len = std::max(max_len, v.size());
        steps.resize(max_len);
        for (const auto& v : per_disk) {
            for (std::size_t t = 0; t < v.size(); ++t) steps[t].push_back(v[t]);
        }
    } else {
        // AgV model: any D blocks per step.
        std::vector<std::size_t> flat;
        flat.reserve(ops.size());
        for (const auto& v : per_disk) flat.insert(flat.end(), v.begin(), v.end());
        for (std::size_t i = 0; i < flat.size(); i += d) {
            steps.emplace_back(flat.begin() + static_cast<std::ptrdiff_t>(i),
                               flat.begin() + static_cast<std::ptrdiff_t>(std::min(i + d, flat.size())));
        }
    }
    return steps;
}

/// Adds the wall time of its scope to `acc` (engine stall accounting).
class StallTimer {
public:
    explicit StallTimer(double& acc) : acc_(acc), t0_(std::chrono::steady_clock::now()) {}
    ~StallTimer() {
        acc_ += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
    }

private:
    double& acc_;
    std::chrono::steady_clock::time_point t0_;
};

} // namespace

DiskArray::DiskArray(std::uint32_t d, std::uint32_t b, DiskBackend backend, std::string file_dir,
                     Constraint constraint, FaultTolerance ft, DeviceModel dev,
                     ScratchOptions scratch)
    : b_(b), backend_(backend), constraint_(constraint), ft_(ft),
      retry_{ft.max_retries, ft.backoff_base_us, ft.backoff_jitter}, dev_(dev),
      scratch_(std::move(scratch)) {
    BS_REQUIRE(d >= 1, "DiskArray: need at least one disk");
    BS_REQUIRE(b >= 1, "DiskArray: block size must be >= 1");
    BS_REQUIRE(ft_.die_disk == FaultTolerance::kNoDisk || ft_.die_disk < d,
               "DiskArray: FaultTolerance::die_disk out of range");
    BS_REQUIRE(!ft_.parity || constraint == Constraint::kIndependentDisks,
               "DiskArray: parity requires the independent-disks constraint");
    BS_REQUIRE(!scratch_.adopt || !scratch_.tag.empty(),
               "DiskArray: adopting scratch requires a stable tag");
    // Scratch names carry the pid and an array counter: concurrent
    // processes (parallel ctest) and multiple arrays in one process must
    // not open-and-unlink each other's files. A caller-pinned tag replaces
    // them so a resuming process can find a crashed run's files.
    static std::atomic<std::uint64_t> array_counter{0};
    const std::string scratch_tag =
        !scratch_.tag.empty()
            ? scratch_.tag
            : std::to_string(::getpid()) + "_" + std::to_string(array_counter.fetch_add(1));
    auto make_base = [&](const std::string& name) -> std::unique_ptr<Disk> {
        if (backend == DiskBackend::kMemory) {
            auto mdisk = std::make_unique<MemDisk>(b);
            mem_.push_back(mdisk.get());
            return mdisk;
        }
        auto fdisk = std::make_unique<FileDisk>(file_dir + "/balsort_" + scratch_tag + "_" + name,
                                                b, /*unlink_on_close=*/!scratch_.keep,
                                                /*fsync_on_close=*/false,
                                                /*adopt=*/scratch_.adopt);
        file_.push_back(fdisk.get());
        return fdisk;
    };
    disks_.reserve(d);
    csum_.assign(d, nullptr);
    fault_.assign(d, nullptr);
    for (std::uint32_t i = 0; i < d; ++i) {
        auto disk = make_base("disk_" + std::to_string(i) + ".bin");
        if (dev_.any()) disk = std::make_unique<ThrottledDisk>(std::move(disk), dev_);
        if (ft_.inject.any_faults()) {
            FaultSpec spec = ft_.inject;
            if (i != ft_.die_disk) spec.die_after_ops = 0;
            auto fi = std::make_unique<FaultInjectingDisk>(std::move(disk), spec, i);
            fault_[i] = fi.get();
            disk = std::move(fi);
        }
        if (ft_.checksums) {
            auto cs = std::make_unique<ChecksummedDisk>(std::move(disk), i);
            csum_[i] = cs.get();
            disk = std::move(cs);
        }
        disks_.push_back(std::move(disk));
    }
    if (ft_.parity) {
        auto pd = make_base("parity.bin");
        if (dev_.any()) pd = std::make_unique<ThrottledDisk>(std::move(pd), dev_);
        // The parity device is trusted (no injection) but still
        // checksummed when the array is, so bugs in parity upkeep surface
        // as CorruptBlock instead of silent bad reconstructions.
        if (ft_.checksums) {
            auto cs = std::make_unique<ChecksummedDisk>(std::move(pd), kParityDiskId);
            parity_csum_ = cs.get();
            pd = std::move(cs);
        }
        parity_ = std::move(pd);
    }
    next_free_.assign(d, 0);
    free_list_.resize(d);
    health_.assign(d, DiskHealth{});
    parity_carried_.resize(d);
}

DiskArray::~DiskArray() {
    try {
        drain_async();
    } catch (...) {
        // Destruction must not throw; a deferred write failure that nobody
        // reaped dies with the array.
    }
    engine_.reset(); // workers must stop before buffers and disks go away
}

const DiskHealth& DiskArray::health(std::uint32_t d) const {
    BS_REQUIRE(d < health_.size(), "health: nonexistent disk");
    return health_[d];
}

DiskHealth DiskArray::health_snapshot(std::uint32_t d) const {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    BS_REQUIRE(d < health_.size(), "health_snapshot: nonexistent disk");
    return health_[d];
}

JobIoChannel* DiskArray::bound_channel() const {
    return tl_job_array == this ? tl_job_channel : nullptr;
}

void DiskArray::gate_steps(std::uint64_t steps) const {
    if (steps == 0) return;
    if (JobIoChannel* c = bound_channel(); c != nullptr && c->gate) c->gate(steps);
}

template <class T>
void DiskArray::add_stat(T IoStats::*field, std::type_identity_t<T> n) {
    stats_.*field += n;
    if (JobIoChannel* c = bound_channel()) c->io.*field += n;
}

void DiskArray::bind_job_channel(JobIoChannel* channel) {
    BS_REQUIRE(channel != nullptr, "bind_job_channel: null channel");
    BS_REQUIRE(tl_job_array == nullptr, "bind_job_channel: a channel is already bound");
    {
        std::lock_guard<std::recursive_mutex> lk(mu_);
        if (channel->owned.size() != disks_.size()) channel->owned.assign(disks_.size(), {});
    }
    tl_job_array = this;
    tl_job_channel = channel;
}

void DiskArray::unbind_job_channel() {
    tl_job_array = nullptr;
    tl_job_channel = nullptr;
}

bool DiskArray::job_channel_bound() const { return bound_channel() != nullptr; }

IoStats DiskArray::job_stats() const {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    if (JobIoChannel* c = bound_channel()) return c->io;
    refresh_engine_stats();
    return stats_;
}

IoStats DiskArray::stats_snapshot() const {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    refresh_engine_stats();
    return stats_;
}

IoStats DiskArray::channel_stats(const JobIoChannel& channel) const {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    return channel.io;
}

DiskArray::ChannelFootprint DiskArray::channel_footprint(const JobIoChannel& channel) const {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    return ChannelFootprint{channel.blocks_live, channel.blocks_high_water};
}

void DiskArray::reclaim_job_blocks(JobIoChannel& channel) {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    free_parked(channel.quarantine);
    for (std::size_t d = 0; d < channel.owned.size() && d < free_list_.size(); ++d) {
        for (std::uint64_t blk : channel.owned[d]) free_list_[d].push(blk);
        channel.owned[d].clear();
    }
    channel.blocks_live = 0;
    channel.quarantine.on = false;
    channel.deferred_failure = nullptr;
}

void DiskArray::fold_retries(const IoCompletion& c, JobIoChannel* owner) {
    if (c.transient_retries == 0) return;
    if (c.disk < health_.size()) health_[c.disk].transient_retries += c.transient_retries;
    stats_.transient_retries += c.transient_retries;
    if (owner != nullptr) owner->io.transient_retries += c.transient_retries;
    for (std::uint64_t k = 0; k < c.transient_retries; ++k) {
        fault_instant("transient_retry", c.disk, c.block);
    }
}

void DiskArray::retrying_read(Disk& disk, std::uint32_t d, std::uint64_t index,
                              std::span<Record> out, bool for_reconstruction) {
    const IoCompletion res =
        execute_with_retry(disk, {.disk = d, .block = index, .read_buf = out.data()}, retry_);
    fold_retries(res, bound_channel());
    if (res.ok) return;
    try {
        std::rethrow_exception(res.error);
    } catch (const TransientIoError&) {
        if (!for_reconstruction) throw;
        throw UnrecoverableIo("reconstruction read exhausted retries on disk " + std::to_string(d),
                              d, index);
    } catch (const DiskFailed&) {
        if (d < health_.size()) health_[d].alive = false;
        if (for_reconstruction) {
            throw UnrecoverableIo("double disk failure: peer disk " + std::to_string(d) +
                                      " is also dead",
                                  d, index);
        }
        throw;
    } catch (const CorruptBlock&) {
        if (d < health_.size()) {
            ++health_[d].corrupt_blocks;
            add_stat(&IoStats::corrupt_blocks, 1);
            fault_instant("corrupt_block", d, index);
        }
        if (for_reconstruction) {
            throw UnrecoverableIo("double failure: peer disk " + std::to_string(d) +
                                      " is corrupt at the stripe needed for reconstruction",
                                  d, index);
        }
        throw;
    }
}

void DiskArray::reconstruct_block(std::uint32_t d, std::uint64_t index, std::span<Record> out) {
    BS_REQUIRE(d < disks_.size(), "reconstruct_block: nonexistent disk");
    BS_REQUIRE(out.size() == b_, "reconstruct_block: buffer size != block size");
    if (!ft_.parity || parity_ == nullptr) {
        throw UnrecoverableIo("cannot reconstruct disk " + std::to_string(d) + " block " +
                                  std::to_string(index) + ": parity is disabled",
                              d, index);
    }
    std::fill(out.begin(), out.end(), Record{});
    std::vector<Record> buf(b_);
    for (std::uint32_t peer = 0; peer < disks_.size(); ++peer) {
        if (peer == d) continue;
        if (!health_[peer].alive && parity_carried_[peer].count(index) != 0) {
            // The stripe needs peer's block, but peer is dead and that
            // block only ever existed inside parity (a post-death degraded
            // write). Two unreadable contributors in one stripe is beyond
            // single-parity recovery; treating the carried image as zeros
            // would return garbage with a clean conscience.
            throw UnrecoverableIo("double failure: dead peer disk " + std::to_string(peer) +
                                      " holds only a parity-carried image at the stripe "
                                      "needed for reconstruction",
                                  peer, index);
        }
        if (index >= disks_[peer]->size_blocks()) continue; // never written: zeros
        retrying_read(*disks_[peer], peer, index, buf, /*for_reconstruction=*/true);
        xor_into(out, buf);
    }
    if (index < parity_->size_blocks()) {
        retrying_read(*parity_, kParityDiskId, index, buf, /*for_reconstruction=*/true);
        xor_into(out, buf);
    }
    ++health_[d].reconstructions;
    add_stat(&IoStats::reconstructions, 1);
    fault_instant("reconstruct", d, index);
}

void DiskArray::update_parity(std::span<const BlockOp> ops, std::span<const Record> buffers) {
    // Parity invariant: parity[i] == XOR over data disks of the *intended*
    // block i (absent blocks count as zeros). Read-modify-write per
    // distinct index touched by the step:
    //     parity' = parity ^ XOR_ops(old_image ^ new_image)
    // Synchronized (§6) stripes land every block at one fresh common
    // index, so both the old images and the old parity are absent and the
    // whole update is a single parity write with zero RMW reads — the
    // measurable payoff of the paper's "error checking friendly" mode.
    std::map<std::uint64_t, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < ops.size(); ++i) groups[ops[i].block].push_back(i);
    std::vector<Record> parity_img(b_), old_img(b_);
    for (const auto& [idx, members] : groups) {
        const bool have_old_parity = idx < parity_->size_blocks();
        if (have_old_parity) {
            retrying_read(*parity_, kParityDiskId, idx, parity_img, /*for_reconstruction=*/false);
            add_stat(&IoStats::rmw_reads, 1);
        } else {
            std::fill(parity_img.begin(), parity_img.end(), Record{});
        }
        for (std::size_t i : members) {
            const std::uint32_t d = ops[i].disk;
            if (health_[d].alive) {
                if (idx < disks_[d]->size_blocks()) {
                    // Old stored image; the recovery ladder handles a
                    // corrupt one by reconstructing the intended image.
                    run_inline({.disk = d, .block = idx, .read_buf = old_img.data()});
                    add_stat(&IoStats::rmw_reads, 1);
                    xor_into(parity_img, old_img);
                }
            } else if (have_old_parity) {
                // Dead disk: its old *virtual* image is recoverable from
                // the pre-step stripe (parity ^ peers).
                reconstruct_block(d, idx, old_img);
                xor_into(parity_img, old_img);
            }
            xor_into(parity_img, buffers.subspan(i * b_, b_));
        }
        parity_->write_block(idx, parity_img);
        add_stat(&IoStats::parity_blocks_written, 1);
    }
}

void DiskArray::check_step_legal(std::span<const BlockOp> ops) const {
    BS_MODEL_CHECK(ops.size() <= disks_.size(), "I/O step moves more than D blocks");
    if (constraint_ == Constraint::kIndependentDisks) {
        std::vector<bool> used(disks_.size(), false);
        for (const auto& op : ops) {
            BS_REQUIRE(op.disk < disks_.size(), "I/O step names nonexistent disk");
            BS_MODEL_CHECK(!used[op.disk], "two blocks on one disk in a single I/O step");
            used[op.disk] = true;
        }
    } else {
        for (const auto& op : ops) {
            BS_REQUIRE(op.disk < disks_.size(), "I/O step names nonexistent disk");
        }
    }
}

void DiskArray::read_step(std::span<const BlockOp> ops, std::span<Record> buffers) {
    if (ops.empty()) return;
    BS_REQUIRE(buffers.size() == ops.size() * b_, "read_step: buffer size mismatch");
    if (engine_ != nullptr) {
        ReadTicket ticket = read_stripe_async(ops, buffers); // gates internally
        complete_read(ticket);
        return;
    }
    gate_steps(1);
    std::lock_guard<std::recursive_mutex> lk(mu_);
    check_step_legal(ops);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        run_inline({.disk = ops[i].disk, .block = ops[i].block, .read_buf = &buffers[i * b_]});
    }
    charge_read_step(ops);
}

void DiskArray::write_step(std::span<const BlockOp> ops, std::span<const Record> buffers) {
    if (ops.empty()) return;
    BS_REQUIRE(buffers.size() == ops.size() * b_, "write_step: buffer size mismatch");
    const bool parity = ft_.parity && parity_ != nullptr;
    if (engine_ != nullptr && !parity) {
        write_stripe_async(ops, buffers); // gates internally
        return;
    }
    gate_steps(1);
    std::lock_guard<std::recursive_mutex> lk(mu_);
    // Parity RMW reads the array's old images directly; every queued
    // transfer (a prefetch of those very blocks, an earlier write of them)
    // must land first, and write-behind would let a queued read observe a
    // stale-but-valid image before mark_lost degrades a failed write.
    // Parity writes therefore run inline, behind a drain.
    drain_async();
    check_step_legal(ops);
    // Parity first: it must read the old images before they are replaced.
    if (parity) update_parity(ops, buffers);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        run_inline({.kind = IoRequest::Kind::kWrite,
                    .disk = ops[i].disk,
                    .block = ops[i].block,
                    .write_data = &buffers[i * b_]});
    }
    charge_write_step(ops); // also bumps next_free_ past every written block
}

void DiskArray::read_batch(std::span<const BlockOp> ops, std::span<Record> dest) {
    BS_REQUIRE(dest.size() == ops.size() * b_, "read_batch: buffer size mismatch");
    if (ops.empty()) return;
    if (engine_ != nullptr) {
        // One submission for the whole batch: all disks stream their op
        // lists concurrently instead of synchronizing at step boundaries.
        // The model is still charged per planned step, identically to the
        // inline loop below.
        charge_read_batch(ops); // gates + locks internally
        ReadTicket ticket;
        ticket.dest_ = dest;
        {
            std::lock_guard<std::recursive_mutex> lk(mu_);
            ticket.batch_ = submit(IoRequest::Kind::kRead, ops, dest.data(), nullptr);
        }
        complete_read(ticket);
        return;
    }
    // Inline: step by step, each step executed, then charged.
    std::vector<BlockOp> step_ops;
    for (const auto& idxs : plan_steps(ops, disks_.size(), constraint_)) {
        step_ops.clear();
        for (std::size_t i : idxs) step_ops.push_back(ops[i]);
        gate_steps(1);
        std::lock_guard<std::recursive_mutex> lk(mu_);
        check_step_legal(step_ops);
        for (std::size_t i : idxs) {
            run_inline({.disk = ops[i].disk, .block = ops[i].block, .read_buf = &dest[i * b_]});
        }
        charge_read_step(step_ops);
    }
}

void DiskArray::write_batch(std::span<const BlockOp> ops, std::span<const Record> src) {
    BS_REQUIRE(src.size() == ops.size() * b_, "write_batch: buffer size mismatch");
    auto steps = plan_steps(ops, disks_.size(), constraint_);
    std::vector<BlockOp> step_ops;
    std::vector<Record> step_buf;
    for (const auto& idxs : steps) {
        step_ops.clear();
        step_buf.clear();
        for (std::size_t i : idxs) {
            step_ops.push_back(ops[i]);
            step_buf.insert(step_buf.end(), src.begin() + static_cast<std::ptrdiff_t>(i * b_),
                            src.begin() + static_cast<std::ptrdiff_t>((i + 1) * b_));
        }
        write_step(step_ops, step_buf);
    }
}

// ---- the request path: two executors, one retry loop, one ladder ----
//
// Division of labor: engine workers touch only their own disk's decorator
// stack; everything shared (stats_, health_, csum_, parity_, allocator) is
// mutated here, on the submitting thread, at charge or reap time. A worker
// batch's failures run the recovery ladder serially after a full drain, so
// reconstruction never races a worker on a peer disk; the inline executor
// runs each failed request's ladder before its next request.

void DiskArray::set_async(bool enabled) {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    if (enabled == (engine_ != nullptr)) return;
    if (!enabled) {
        drain_async();
        const AsyncEngineMetrics m = engine_->metrics();
        folded_busy_seconds_ += m.busy_seconds;
        folded_block_ops_ += m.block_ops;
        folded_max_in_flight_ = std::max(folded_max_in_flight_, m.max_in_flight);
        engine_.reset();
        spare_write_buffers_.clear();
        return;
    }
    std::vector<Disk*> tops;
    tops.reserve(disks_.size());
    for (auto& disk : disks_) tops.push_back(disk.get());
    // The parity device is excluded: parity upkeep reads old images and is
    // only ever touched inline (see write_step).
    engine_ = std::make_unique<AsyncEngine>(std::move(tops), retry_.max_retries,
                                            retry_.backoff_base_us, ft_.deadline_us,
                                            retry_.backoff_jitter);
}

std::vector<std::uint32_t> DiskArray::async_in_flight() const {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    if (engine_ == nullptr) return {};
    return engine_->per_disk_in_flight();
}

void DiskArray::drain_async() {
    if (engine_ == nullptr) return;
    std::exception_ptr deferred;
    if (JobIoChannel* c = bound_channel()) {
        // Channel-scoped drain: a bound job's boundary needs ITS writes
        // durable, not the whole engine idle. Each own batch is waited
        // with mu_ released (reap), so one job flushing never freezes its
        // neighbors' submissions; their batches stay queued.
        for (;;) {
            std::unique_lock<std::recursive_mutex> lk(mu_);
            const auto own = std::find_if(pending_writes_.begin(), pending_writes_.end(),
                                          [c](const PendingWrite& p) { return p.owner == c; });
            if (own == pending_writes_.end()) {
                reap_pending_writes(/*all=*/false); // tidy neighbors' done batches
                // A neighbor's reap may have discovered one of *our* write
                // failures; the drain boundary is where it surfaces to us.
                deferred = c->deferred_failure;
                c->deferred_failure = nullptr;
                break;
            }
            reap_pending_write(static_cast<std::size_t>(own - pending_writes_.begin()), lk);
        }
    } else {
        std::lock_guard<std::recursive_mutex> lk(mu_);
        reap_pending_writes(/*all=*/true);
        double stall = 0;
        {
            StallTimer t(stall);
            engine_->drain();
        }
        stats_.engine_stall_seconds += stall;
    }
    if (deferred) std::rethrow_exception(deferred);
}

void DiskArray::refresh_engine_stats() const {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    stats_.engine_busy_seconds = folded_busy_seconds_;
    stats_.async_block_ops = folded_block_ops_;
    stats_.max_in_flight = folded_max_in_flight_;
    if (engine_ != nullptr) {
        const AsyncEngineMetrics m = engine_->metrics();
        stats_.engine_busy_seconds += m.busy_seconds;
        stats_.async_block_ops += m.block_ops;
        stats_.max_in_flight = std::max(stats_.max_in_flight, m.max_in_flight);
    }
}

void DiskArray::charge_read_step(std::span<const BlockOp> ops) {
    add_stat(&IoStats::read_steps, 1);
    add_stat(&IoStats::blocks_read, ops.size());
    if (observer_) observer_(true, ops);
}

void DiskArray::charge_write_step(std::span<const BlockOp> ops) {
    for (const auto& op : ops) {
        next_free_[op.disk] = std::max(next_free_[op.disk], op.block + 1);
    }
    add_stat(&IoStats::write_steps, 1);
    add_stat(&IoStats::blocks_written, ops.size());
    if (observer_) observer_(false, ops);
}

void DiskArray::charge_read_batch(std::span<const BlockOp> ops) {
    // Planning reads only immutable array shape (D, constraint), so the
    // step count is known — and the fairness gate can run — pre-lock.
    auto steps = plan_steps(ops, disks_.size(), constraint_);
    gate_steps(steps.size());
    std::lock_guard<std::recursive_mutex> lk(mu_);
    std::vector<BlockOp> step_ops;
    for (const auto& idxs : steps) {
        step_ops.clear();
        for (std::size_t i : idxs) step_ops.push_back(ops[i]);
        check_step_legal(step_ops);
        charge_read_step(step_ops);
    }
}

void DiskArray::run_inline(const IoRequest& request) {
    const IoCompletion c = execute_with_retry(*disks_[request.disk], request, retry_);
    JobIoChannel* owner = bound_channel();
    fold_retries(c, owner);
    if (c.ok) return;
    const BlockOp op{request.disk, request.block};
    if (request.kind == IoRequest::Kind::kRead) {
        handle_read_failure(op, c.error, std::span<Record>(request.read_buf, b_));
    } else {
        handle_write_failure(op, c.error, owner);
    }
}

AsyncBatch DiskArray::submit(IoRequest::Kind kind, std::span<const BlockOp> ops,
                             Record* read_base, const Record* write_base) {
    BS_REQUIRE(engine_ != nullptr, "DiskArray: the worker executor is off");
    AsyncBatch batch = AsyncEngine::prepare(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        IoRequest& r = AsyncEngine::request(batch, i);
        r.kind = kind;
        r.disk = ops[i].disk;
        r.block = ops[i].block;
        if (kind == IoRequest::Kind::kRead) {
            r.read_buf = read_base + i * b_;
        } else {
            r.write_data = write_base + i * b_;
        }
    }
    engine_->submit(batch);
    return batch;
}

void DiskArray::reap(AsyncBatch& batch, IoRequest::Kind kind, Record* read_base,
                     JobIoChannel* owner, std::unique_lock<std::recursive_mutex>& lk) {
    bool any_failed = false;
    double stall = 0;
    if (lk.owns_lock()) lk.unlock();
    {
        // Workers never take mu_, so the batch completes while we wait.
        StallTimer t(stall);
        for (const IoCompletion& c : engine_->wait(batch)) any_failed |= !c.ok;
    }
    lk.lock();
    // Stall is charged to whoever waited; retries and write failures
    // belong to the batch's owner, whichever job's drain reaped it.
    add_stat(&IoStats::engine_stall_seconds, stall);
    const std::vector<IoCompletion>& comps = engine_->wait(batch); // idempotent
    for (const IoCompletion& c : comps) fold_retries(c, owner);
    if (!any_failed) return;
    // Quiesce the array — a read's ladder also settles pending write-behind
    // first — so the ladder never races a worker, then recover in request
    // order.
    if (kind == IoRequest::Kind::kRead) reap_pending_writes(/*all=*/true);
    engine_->drain();
    for (const IoCompletion& c : comps) {
        if (c.ok) continue;
        const BlockOp op{c.disk, c.block};
        if (kind == IoRequest::Kind::kRead) {
            handle_read_failure(op, c.error,
                                std::span<Record>(read_base + c.request_index * b_, b_));
        } else {
            handle_write_failure(op, c.error, owner);
        }
    }
}

DiskArray::ReadTicket DiskArray::read_stripe_async(std::span<const BlockOp> ops,
                                                   std::span<Record> dest) {
    BS_REQUIRE(engine_ != nullptr, "read_stripe_async: the worker executor is off");
    if (ops.empty()) return ReadTicket{};
    BS_REQUIRE(dest.size() == ops.size() * b_, "read_stripe_async: buffer size mismatch");
    gate_steps(1);
    std::lock_guard<std::recursive_mutex> lk(mu_);
    check_step_legal(ops);
    charge_read_step(ops);
    ReadTicket ticket;
    ticket.dest_ = dest;
    ticket.batch_ = submit(IoRequest::Kind::kRead, ops, dest.data(), nullptr);
    return ticket;
}

DiskArray::ReadTicket DiskArray::prefetch_read(std::span<const BlockOp> ops,
                                               std::span<Record> dest) {
    // No legality check: a prefetch is a physical batch (several blocks of
    // one disk are fine — they queue FIFO), not a model step. No charging:
    // the consumer calls charge_read_batch over the same ops when the
    // inline executor would have read them.
    if (ops.empty()) return ReadTicket{};
    BS_REQUIRE(dest.size() == ops.size() * b_, "prefetch_read: buffer size mismatch");
    std::lock_guard<std::recursive_mutex> lk(mu_);
    add_stat(&IoStats::prefetch_block_ops, ops.size());
    ReadTicket ticket;
    ticket.dest_ = dest;
    ticket.batch_ = submit(IoRequest::Kind::kRead, ops, dest.data(), nullptr);
    if (Tracer* t = tracer(); t != nullptr) {
        ticket.trace_id_ = t->next_async_id();
        t->async_begin("prefetch", "prefetch", ticket.trace_id_, t->lane("prefetch"),
                       {{"blocks", static_cast<std::int64_t>(ops.size())}});
    }
    return ticket;
}

void DiskArray::complete_read(ReadTicket& ticket) {
    if (!ticket.batch_.valid()) return;
    // Wait WITHOUT the array lock: a job stalled on its own transfers must
    // not block neighbors' charges.
    std::unique_lock<std::recursive_mutex> lk(mu_, std::defer_lock);
    reap(ticket.batch_, IoRequest::Kind::kRead, ticket.dest_.data(), bound_channel(), lk);
    if (ticket.trace_id_ != 0) {
        if (Tracer* t = tracer(); t != nullptr) {
            t->async_end("prefetch", "prefetch", ticket.trace_id_, t->lane("prefetch"));
        }
    }
    ticket = ReadTicket{};
}

void DiskArray::handle_read_failure(const BlockOp& op, const std::exception_ptr& error,
                                    std::span<Record> out) {
    DiskHealth& h = health_[op.disk];
    bool corrupt = false;
    // Anything outside the IoError family (model violations) propagates.
    try {
        std::rethrow_exception(error);
    } catch (const TransientIoError&) {
        // retries exhausted (already counted)
    } catch (const DiskFailed&) {
        h.alive = false;
    } catch (const CorruptBlock&) {
        ++h.corrupt_blocks;
        add_stat(&IoStats::corrupt_blocks, 1);
        fault_instant("corrupt_block", op.disk, op.block);
        corrupt = true;
    } catch (const TimedOutIo&) {
        // The device is slow, not failed: health is untouched and the disk
        // is never scrubbed (its worker may still be inside the hung read;
        // reconstruction below touches only peers + parity). Recovery-side
        // accounting only — never io_steps().
        add_stat(&IoStats::io_timeouts, 1);
        fault_instant("io_timeout", op.disk, op.block);
        if (MetricsRegistry* reg = metrics(); reg != nullptr) reg->counter("io.timeouts").add();
    } catch (const IoError&) {
    }
    if (!ft_.parity || parity_ == nullptr) std::rethrow_exception(error);
    reconstruct_block(op.disk, op.block, out);
    if (corrupt && h.alive && ft_.scrub_on_reconstruct) {
        // Best-effort scrub: rewrite the corrected image so later reads
        // are clean. A fault during the scrub just leaves the block to be
        // reconstructed again — never fatal.
        try {
            disks_[op.disk]->write_block(op.block, out);
        } catch (const IoError&) {
        }
    }
}

void DiskArray::write_stripe_async(std::span<const BlockOp> ops, std::span<const Record> src) {
    BS_REQUIRE(engine_ != nullptr, "write_stripe_async: the worker executor is off");
    BS_REQUIRE(!(ft_.parity && parity_ != nullptr),
               "write_stripe_async: parity mode writes inline (write_step)");
    if (ops.empty()) return;
    BS_REQUIRE(src.size() == ops.size() * b_, "write_stripe_async: buffer size mismatch");
    gate_steps(1);
    std::unique_lock<std::recursive_mutex> lk(mu_);
    check_step_legal(ops);
    charge_write_step(ops);
    JobIoChannel* jc = bound_channel();
    PendingWrite pending;
    if (!spare_write_buffers_.empty()) {
        pending.data = std::move(spare_write_buffers_.back());
        spare_write_buffers_.pop_back();
    }
    pending.data.assign(src.begin(), src.end());
    pending.owner = jc;
    pending.batch = submit(IoRequest::Kind::kWrite, ops, nullptr, pending.data.data());
    pending_writes_.push_back(std::move(pending));
    // Opportunistic reap keeps deferred failures from aging; the per-owner
    // bound keeps each job's buffered write-behind memory at O(D * B).
    reap_pending_writes(/*all=*/false);
    const auto owned = [jc](const PendingWrite& p) { return p.owner == jc; };
    while (static_cast<std::size_t>(std::count_if(pending_writes_.begin(), pending_writes_.end(),
                                                  owned)) > kMaxPendingWrites) {
        // Over budget: land this owner's oldest batch. The wait happens
        // with mu_ released (reap) so a slow device throttles only this
        // job, never its neighbors' submissions.
        const auto oldest = std::find_if(pending_writes_.begin(), pending_writes_.end(), owned);
        reap_pending_write(static_cast<std::size_t>(oldest - pending_writes_.begin()), lk);
    }
    if (jc != nullptr && jc->deferred_failure) {
        const std::exception_ptr e = jc->deferred_failure;
        jc->deferred_failure = nullptr;
        std::rethrow_exception(e);
    }
}

void DiskArray::reap_pending_writes(bool all) {
    if (engine_ == nullptr) return;
    std::unique_lock<std::recursive_mutex> lk(mu_);
    while (!pending_writes_.empty()) {
        if (!all && !engine_->done(pending_writes_.front().batch)) break;
        reap_pending_write(0, lk);
    }
}

void DiskArray::reap_pending_write(std::size_t idx, std::unique_lock<std::recursive_mutex>& lk) {
    // Once out of the deque the batch is ours alone, so the lock can drop
    // for the wait.
    PendingWrite pending = std::move(pending_writes_[idx]);
    pending_writes_.erase(pending_writes_.begin() + static_cast<std::ptrdiff_t>(idx));
    reap(pending.batch, IoRequest::Kind::kWrite, nullptr, pending.owner, lk);
    if (spare_write_buffers_.size() < kMaxPendingWrites) {
        spare_write_buffers_.push_back(std::move(pending.data));
    }
}

void DiskArray::handle_write_failure(const BlockOp& op, const std::exception_ptr& error,
                                     JobIoChannel* owner) {
    DiskHealth& h = health_[op.disk];
    bool dead = false;
    try {
        std::rethrow_exception(error);
    } catch (const TransientIoError&) {
    } catch (const DiskFailed&) {
        h.alive = false;
        dead = true;
    } catch (const IoError&) {
    }
    // A dead disk degrades into parity. A live disk whose write never
    // landed (exhausted retries, I/O error) degrades too when parity and
    // checksums can serve the block from the stripe: the stale image is
    // invalidated so reads do exactly that. Otherwise the caller must see
    // the failure — always the case for write-behind, which is only legal
    // with parity off.
    const bool parity = ft_.parity && parity_ != nullptr;
    if (dead ? !parity : !(parity && csum_[op.disk] != nullptr)) {
        if (owner != nullptr && owner != bound_channel()) {
            // Another job's batch died under our drain: park the failure on
            // its channel (surfaced at its next drain) instead of unwinding
            // an innocent neighbor. First failure wins.
            if (!owner->deferred_failure) owner->deferred_failure = error;
            return;
        }
        std::rethrow_exception(error);
    }
    // Degraded write: parity (already updated with the intended image)
    // carries this block; reads will reconstruct it.
    if (h.alive && csum_[op.disk] != nullptr) csum_[op.disk]->mark_lost(op.block);
    if (!h.alive) parity_carried_[op.disk].insert(op.block);
    ++h.degraded_writes;
    ++stats_.degraded_writes;
    if (owner != nullptr) ++owner->io.degraded_writes;
    fault_instant("degraded_write", op.disk, op.block);
}

std::uint64_t DiskArray::allocate(std::uint32_t disk) {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    BS_REQUIRE(disk < disks_.size(), "allocate: nonexistent disk");
    if (free_list_[disk].empty()) return allocate(disk, 1);
    const std::uint64_t idx = free_list_[disk].top();
    free_list_[disk].pop();
    note_owned(disk, idx, 1);
    return idx;
}

std::uint64_t DiskArray::allocate(std::uint32_t disk, std::uint64_t n_blocks) {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    BS_REQUIRE(disk < disks_.size(), "allocate: nonexistent disk");
    const std::uint64_t first = next_free_[disk];
    next_free_[disk] += n_blocks;
    note_owned(disk, first, n_blocks);
    return first;
}

void DiskArray::note_owned(std::uint32_t disk, std::uint64_t first, std::uint64_t n_blocks) {
    JobIoChannel* c = bound_channel();
    if (c == nullptr) return;
    for (std::uint64_t i = 0; i < n_blocks; ++i) c->owned[disk].insert(first + i);
    c->blocks_live += n_blocks;
    c->blocks_high_water = std::max(c->blocks_high_water, c->blocks_live);
}

void DiskArray::release(std::uint32_t disk, std::uint64_t block) {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    BS_REQUIRE(disk < disks_.size(), "release: nonexistent disk");
    BS_REQUIRE(block < next_free_[disk], "release: block was never allocated");
    if (JobIoChannel* c = bound_channel(); c != nullptr && c->owned[disk].erase(block) != 0) {
        --c->blocks_live;
    }
    // Quarantine scoping: a bound job's releases are governed by ITS
    // quarantine; the array's covers only unbound (solo) callers.
    if (ReleaseQuarantine& q = quarantine(); q.on) {
        q.parked.push_back(BlockOp{disk, block});
        return;
    }
    free_list_[disk].push(block);
}

ReleaseQuarantine& DiskArray::quarantine() const {
    JobIoChannel* c = bound_channel();
    return c != nullptr ? c->quarantine : quarantine_;
}

void DiskArray::free_parked(ReleaseQuarantine& q) {
    for (const BlockOp& op : q.parked) free_list_[op.disk].push(op.block);
    q.parked.clear();
}

void DiskArray::set_release_quarantine(bool on) {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    ReleaseQuarantine& q = quarantine();
    if (!on) free_parked(q);
    q.on = on;
}

bool DiskArray::release_quarantine() const {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    return quarantine().on;
}

void DiskArray::flush_release_quarantine() {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    free_parked(quarantine());
}

DiskArraySnapshot DiskArray::snapshot() const {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    BS_MODEL_CHECK(quarantine().parked.empty(),
                   "snapshot: quarantined releases must be flushed at the boundary first");
    DiskArraySnapshot snap;
    snap.disks.resize(disks_.size());
    for (std::size_t i = 0; i < disks_.size(); ++i) {
        DiskArraySnapshot::PerDisk& pd = snap.disks[i];
        pd.next_free = next_free_[i];
        auto heap = free_list_[i]; // copy; drain it into a sorted vector
        while (!heap.empty()) {
            pd.free_blocks.push_back(heap.top());
            heap.pop();
        }
        pd.health = health_[i];
        pd.parity_carried.assign(parity_carried_[i].begin(), parity_carried_[i].end());
        std::sort(pd.parity_carried.begin(), pd.parity_carried.end());
        if (fault_[i] != nullptr) {
            pd.has_fault_state = true;
            pd.fault_state = fault_[i]->export_state();
        }
        if (csum_[i] != nullptr) {
            pd.has_sidecar = true;
            pd.sidecar = csum_[i]->export_sidecar();
        }
        if (backend_ == DiskBackend::kMemory) {
            pd.has_image = true;
            pd.image = mem_[i]->image();
        }
    }
    if (parity_csum_ != nullptr) {
        snap.has_parity_sidecar = true;
        snap.parity_sidecar = parity_csum_->export_sidecar();
    }
    if (parity_ != nullptr && backend_ == DiskBackend::kMemory) {
        snap.has_parity_image = true;
        snap.parity_image = mem_.back()->image();
    }
    return snap;
}

void DiskArray::restore(const DiskArraySnapshot& snap) {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    BS_REQUIRE(snap.disks.size() == disks_.size(),
               "restore: snapshot disk count does not match this array");
    BS_MODEL_CHECK(quarantine().parked.empty(), "restore: release quarantine must be empty");
    for (std::size_t i = 0; i < disks_.size(); ++i) {
        const DiskArraySnapshot::PerDisk& pd = snap.disks[i];
        next_free_[i] = pd.next_free;
        free_list_[i] = {};
        for (std::uint64_t blk : pd.free_blocks) free_list_[i].push(blk);
        health_[i] = pd.health;
        parity_carried_[i].clear();
        parity_carried_[i].insert(pd.parity_carried.begin(), pd.parity_carried.end());
        BS_REQUIRE(pd.has_fault_state == (fault_[i] != nullptr),
                   "restore: fault-injection layering differs from the snapshot");
        if (fault_[i] != nullptr) fault_[i]->import_state(pd.fault_state);
        BS_REQUIRE(pd.has_sidecar == (csum_[i] != nullptr),
                   "restore: checksum layering differs from the snapshot");
        if (csum_[i] != nullptr) csum_[i]->import_sidecar(pd.sidecar);
        BS_REQUIRE(pd.has_image == (backend_ == DiskBackend::kMemory),
                   "restore: backend differs from the snapshot");
        if (pd.has_image) mem_[i]->set_image(pd.image);
    }
    BS_REQUIRE(snap.has_parity_sidecar == (parity_csum_ != nullptr),
               "restore: parity checksum layering differs from the snapshot");
    if (parity_csum_ != nullptr) parity_csum_->import_sidecar(snap.parity_sidecar);
    if (snap.has_parity_image) {
        BS_REQUIRE(parity_ != nullptr && backend_ == DiskBackend::kMemory,
                   "restore: parity layering differs from the snapshot");
        mem_.back()->set_image(snap.parity_image);
    }
}

void DiskArray::set_keep_scratch(bool keep) {
    scratch_.keep = keep;
    for (FileDisk* f : file_) f->set_unlink_on_close(!keep);
}

std::uint64_t DiskArray::free_blocks(std::uint32_t disk) const {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    BS_REQUIRE(disk < disks_.size(), "free_blocks: nonexistent disk");
    return free_list_[disk].size();
}

std::uint64_t DiskArray::high_water(std::uint32_t disk) const {
    std::lock_guard<std::recursive_mutex> lk(mu_);
    BS_REQUIRE(disk < disks_.size(), "high_water: nonexistent disk");
    return next_free_[disk];
}

} // namespace balsort
