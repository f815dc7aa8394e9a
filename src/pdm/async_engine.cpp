#include "pdm/async_engine.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/common.hpp"
#include "util/random.hpp"

namespace balsort {

/// Shared completion state of one submitted batch. Workers fill
/// `completions` slots (each slot touched by exactly one worker);
/// `remaining` is guarded by the engine mutex.
struct AsyncBatch::State {
    std::vector<IoCompletion> completions;
    std::size_t remaining = 0;
};

struct AsyncEngine::WorkItem {
    IoRequest request;
    std::uint32_t request_index = 0;
    std::shared_ptr<AsyncBatch::State> batch;
    /// Deadline machinery (reads under deadline_us_ > 0 only).
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
    bool abandoned = false; ///< watchdog already completed it (guarded by mutex_)
    bool completed = false; ///< completion slot filled (guarded by mutex_)
    /// Reads under deadline execute into this private buffer; the worker
    /// copies it to request.read_buf under the mutex only if !abandoned.
    std::vector<Record> staging;
};

IoCompletion execute_with_retry(Disk& disk, const IoRequest& r, const RetryPolicy& policy,
                                Histogram* backoff_us) {
    const std::size_t b = disk.block_size();
    IoCompletion c;
    c.disk = r.disk;
    c.block = r.block;
    for (std::uint32_t attempt = 0;; ++attempt) {
        try {
            if (r.kind == IoRequest::Kind::kRead) {
                disk.read_block(r.block, std::span<Record>(r.read_buf, b));
            } else {
                disk.write_block(r.block, std::span<const Record>(r.write_data, b));
            }
            return c;
        } catch (const TransientIoError&) {
            if (attempt >= policy.max_retries) {
                c.ok = false;
                c.error = std::current_exception();
                return c;
            }
            ++c.transient_retries;
        } catch (...) {
            // Non-transient (DiskFailed, CorruptBlock, IoError, model
            // violations): the caller's recovery ladder classifies it.
            c.ok = false;
            c.error = std::current_exception();
            return c;
        }
        if (policy.backoff_base_us != 0) {
            std::uint64_t us = static_cast<std::uint64_t>(policy.backoff_base_us)
                               << std::min<std::uint32_t>(attempt, 10);
            if (policy.backoff_jitter) {
                SplitMix64 j(((static_cast<std::uint64_t>(r.disk) << 32) ^ r.block) + attempt);
                const double f = 0.5 + static_cast<double>(j.next() >> 11) * 0x1.0p-53;
                us = static_cast<std::uint64_t>(static_cast<double>(us) * f);
            }
            if (backoff_us != nullptr) backoff_us->record(us);
            std::this_thread::sleep_for(std::chrono::microseconds(us));
        }
    }
}

AsyncEngine::AsyncEngine(std::vector<Disk*> disks, std::uint32_t max_retries,
                         std::uint32_t backoff_base_us, std::uint64_t deadline_us,
                         bool backoff_jitter)
    : disks_(std::move(disks)), retry_{max_retries, backoff_base_us, backoff_jitter},
      deadline_us_(deadline_us) {
    BS_REQUIRE(!disks_.empty(), "AsyncEngine: need at least one disk");
    for (const Disk* d : disks_) BS_REQUIRE(d != nullptr, "AsyncEngine: null disk");
    queues_.resize(disks_.size());
    executing_.resize(disks_.size());
    tracer_ = balsort::tracer();
    if (MetricsRegistry* reg = balsort::metrics(); reg != nullptr) {
        read_latency_.reserve(disks_.size());
        write_latency_.reserve(disks_.size());
        backoff_us_.reserve(disks_.size());
        for (std::size_t d = 0; d < disks_.size(); ++d) {
            const std::string prefix = "disk" + std::to_string(d);
            read_latency_.push_back(&reg->histogram(prefix + ".read_latency_us"));
            write_latency_.push_back(&reg->histogram(prefix + ".write_latency_us"));
            backoff_us_.push_back(&reg->histogram(prefix + ".backoff_us"));
        }
        queue_depth_ = &reg->histogram("engine.queue_depth");
    }
    if (tracer_ != nullptr) {
        lane_tids_.reserve(disks_.size());
        for (std::size_t d = 0; d < disks_.size(); ++d) {
            lane_tids_.push_back(tracer_->lane("disk " + std::to_string(d) + " io"));
        }
    }
    if (deadline_us_ > 0) watchdog_ = std::thread([this] { watchdog_loop(); });
    workers_.reserve(disks_.size());
    for (std::uint32_t i = 0; i < disks_.size(); ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

AsyncEngine::~AsyncEngine() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        // Unexecuted requests must not run (the submitter is unwinding and
        // its buffers or the disks may be going away) but their batches
        // must still complete, or a stray wait would hang forever.
        for (auto& q : queues_) {
            for (auto& item : q) {
                IoCompletion& c = item->batch->completions[item->request_index];
                c.ok = false;
                c.error = std::make_exception_ptr(
                    IoError("async engine stopped before request executed", item->request.disk,
                            item->request.block));
                item->completed = true;
                --item->batch->remaining;
                ++executed_;
            }
            q.clear();
        }
    }
    cv_work_.notify_all();
    cv_done_.notify_all();
    for (auto& w : workers_) w.join();
    if (watchdog_.joinable()) watchdog_.join();
}

AsyncBatch AsyncEngine::submit(std::vector<IoRequest> requests) {
    AsyncBatch batch;
    batch.state_ = std::make_shared<AsyncBatch::State>();
    batch.state_->completions.resize(requests.size());
    batch.state_->remaining = requests.size();
    if (requests.empty()) return batch;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        BS_REQUIRE(!stop_, "AsyncEngine::submit after stop");
        const auto now = std::chrono::steady_clock::now();
        for (std::uint32_t i = 0; i < requests.size(); ++i) {
            const IoRequest& r = requests[i];
            BS_REQUIRE(r.disk < disks_.size(), "AsyncEngine: request names nonexistent disk");
            IoCompletion& c = batch.state_->completions[i];
            c.request_index = i;
            c.disk = r.disk;
            c.block = r.block;
            auto item = std::make_shared<WorkItem>();
            item->request = r;
            item->request_index = i;
            item->batch = batch.state_;
            if (deadline_us_ > 0 && r.kind == IoRequest::Kind::kRead) {
                item->has_deadline = true;
                item->deadline = now + std::chrono::microseconds(deadline_us_);
                item->staging.resize(disks_[r.disk]->block_size());
            }
            queues_[r.disk].push_back(std::move(item));
        }
        submitted_ += requests.size();
        const std::uint64_t in_flight = submitted_ - executed_;
        peak_in_flight_ = std::max(peak_in_flight_, in_flight);
        if (queue_depth_ != nullptr) queue_depth_->record(in_flight);
    }
    cv_work_.notify_all();
    return batch;
}

const std::vector<IoCompletion>& AsyncEngine::wait(AsyncBatch& batch) {
    BS_REQUIRE(batch.valid(), "AsyncEngine::wait on empty batch handle");
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [&] { return batch.state_->remaining == 0; });
    return batch.state_->completions;
}

bool AsyncEngine::done(const AsyncBatch& batch) const {
    BS_REQUIRE(batch.valid(), "AsyncEngine::done on empty batch handle");
    std::lock_guard<std::mutex> lock(mutex_);
    return batch.state_->remaining == 0;
}

void AsyncEngine::drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [&] { return executed_ == submitted_; });
}

AsyncEngineMetrics AsyncEngine::metrics() const {
    std::lock_guard<std::mutex> lock(mutex_);
    AsyncEngineMetrics m;
    m.busy_seconds = busy_seconds_;
    m.block_ops = executed_;
    m.max_in_flight = peak_in_flight_;
    return m;
}

std::uint64_t AsyncEngine::timeouts() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return timeouts_;
}

std::vector<std::uint32_t> AsyncEngine::per_disk_in_flight() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint32_t> depth(disks_.size(), 0);
    for (std::size_t d = 0; d < disks_.size(); ++d) {
        depth[d] = static_cast<std::uint32_t>(queues_[d].size()) +
                   (executing_[d] != nullptr ? 1u : 0u);
    }
    return depth;
}

void AsyncEngine::worker_loop(std::uint32_t disk_index) {
    for (;;) {
        std::shared_ptr<WorkItem> item;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_work_.wait(lock, [&] { return stop_ || !queues_[disk_index].empty(); });
            if (queues_[disk_index].empty()) return; // stop_ and no work left
            item = std::move(queues_[disk_index].front());
            queues_[disk_index].pop_front();
            executing_[disk_index] = item; // visible to the watchdog
        }
        // Deadline-mode reads land in the item's staging buffer: if the
        // watchdog abandons us mid-read, the caller's buffer is already
        // being refilled from parity and must not be overwritten by a late
        // wakeup.
        IoRequest request = item->request;
        if (!item->staging.empty()) request.read_buf = item->staging.data();
        const auto t0 = std::chrono::steady_clock::now();
        const IoCompletion res = execute_with_retry(
            *disks_[disk_index], request, retry_,
            backoff_us_.empty() ? nullptr : backoff_us_[disk_index]);
        const auto t1 = std::chrono::steady_clock::now();
        const bool is_read = item->request.kind == IoRequest::Kind::kRead;
        const auto latency_us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
        if (!read_latency_.empty()) {
            (is_read ? read_latency_ : write_latency_)[disk_index]->record(latency_us);
        }
        if (tracer_ != nullptr) {
            TraceEvent ev;
            ev.name = is_read ? "read" : "write";
            ev.cat = "io";
            ev.tid = lane_tids_[disk_index];
            ev.ts_us = tracer_->ts_us(t0);
            ev.dur_us = static_cast<std::int64_t>(latency_us);
            ev.args[0] = {"disk", static_cast<std::int64_t>(item->request.disk)};
            ev.args[1] = {"block", static_cast<std::int64_t>(item->request.block)};
            ev.n_args = 2;
            tracer_->emit(ev);
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            busy_seconds_ += std::chrono::duration<double>(t1 - t0).count();
            executing_[disk_index] = nullptr;
            if (!item->abandoned) {
                // This worker still owns the completion slot; a timed-out
                // item was already completed (and counted) by the watchdog,
                // and its caller buffer must stay untouched.
                IoCompletion& c = item->batch->completions[item->request_index];
                c.ok = res.ok;
                c.error = res.error;
                c.transient_retries = res.transient_retries;
                if (res.ok && !item->staging.empty()) {
                    std::copy(item->staging.begin(), item->staging.end(),
                              item->request.read_buf);
                }
                item->completed = true;
                ++executed_;
                --item->batch->remaining;
            }
        }
        cv_done_.notify_all();
    }
}

void AsyncEngine::watchdog_loop() {
    const auto tick = std::chrono::microseconds(std::max<std::uint64_t>(deadline_us_ / 2, 100));
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        cv_work_.wait_for(lock, tick);
        if (stop_) return;
        const auto now = std::chrono::steady_clock::now();
        bool fired = false;
        auto expire = [&](const std::shared_ptr<WorkItem>& item) {
            if (item == nullptr || !item->has_deadline || item->abandoned || item->completed ||
                now < item->deadline) {
                return false;
            }
            item->abandoned = true;
            IoCompletion& c = item->batch->completions[item->request_index];
            c.ok = false;
            std::ostringstream os;
            os << "read outstanding past " << deadline_us_ << "us deadline: disk "
               << item->request.disk << " block " << item->request.block;
            c.error = std::make_exception_ptr(
                TimedOutIo(os.str(), item->request.disk, item->request.block));
            item->completed = true;
            ++executed_;
            ++timeouts_;
            --item->batch->remaining;
            fired = true;
            flight_note("io.deadline_expired", "watchdog",
                        static_cast<std::int64_t>(item->request.disk),
                        static_cast<std::int64_t>(item->request.block));
            return true;
        };
        for (auto& q : queues_) {
            // A queued item past its deadline is starved behind a hung
            // request; expire it and drop it so the worker never runs it.
            for (auto it = q.begin(); it != q.end();) {
                it = expire(*it) ? q.erase(it) : std::next(it);
            }
        }
        for (auto& item : executing_) expire(item);
        if (fired) {
            cv_done_.notify_all();
            // Preserve the crash scene while the timeout is fresh. The
            // dump does file I/O, so drop the engine mutex around it —
            // the watchdog holds no other state across the gap.
            lock.unlock();
            flight_auto_dump("io.deadline");
            lock.lock();
        }
    }
}

} // namespace balsort
