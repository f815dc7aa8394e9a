#include "pdm/async_engine.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/common.hpp"
#include "util/random.hpp"

namespace balsort {

/// One request's entry in its disk's queue. Lives inside its batch's
/// State; linked into the queue through `next`.
struct AsyncBatch::Item {
    IoRequest request;
    Item* next = nullptr; ///< per-disk FIFO link (guarded by the disk lock)
    State* batch = nullptr;
    std::uint32_t index = 0; ///< request_index within the batch
    /// Deadline reads execute into this private block inside the batch
    /// (State::staging); the worker copies it to request.read_buf under
    /// the disk lock only if the watchdog did not abandon the request.
    Record* staging = nullptr;
    std::chrono::steady_clock::time_point deadline{}; ///< set iff staging
    bool abandoned = false; ///< watchdog completed it (guarded by the disk lock)
    bool completed = false; ///< completion slot filled (guarded by the disk lock)
};

/// One batch: its requests (inside the items), completions and deadline
/// staging. Each completion slot is written by exactly one thread — the
/// worker, the watchdog or the destructor, whichever completes the item
/// under its disk lock — and published by the release decrement of
/// `remaining`.
struct AsyncBatch::State {
    std::vector<Item> items;
    std::vector<IoCompletion> completions;
    std::vector<Record> staging; ///< deadline-armed reads only
    std::atomic<std::uint32_t> remaining{0}; ///< completions outstanding
    /// Items the engine still references (queued or executing). An item
    /// abandoned mid-read stays pinned until its worker returns, after the
    /// batch completed; the last unpin drops `self`.
    std::atomic<std::uint32_t> pinned{0};
    std::shared_ptr<State> self; ///< the engine's reference while pinned
    bool submitted = false;
    std::mutex mu; ///< waiters sleep on `cv`; the finisher notifies
    std::condition_variable cv;
};

/// One disk's submission queue. The lock guards every field, the items'
/// `next`/`abandoned`/`completed` flags and their completion slots.
struct alignas(64) AsyncEngine::DiskQueue {
    std::mutex mu;
    std::condition_variable cv; ///< this disk's worker: work or stop
    Item* head = nullptr;
    Item* tail = nullptr;
    std::uint32_t queued = 0;
    Item* executing = nullptr; ///< visible to the watchdog
    bool stop = false;
    std::uint64_t executed = 0; ///< completions (worker, watchdog, shutdown)
    std::uint64_t timeouts = 0;
    double busy_seconds = 0;

    /// Move the head item (null if none) to `executing`. Caller holds mu.
    Item* pop() {
        executing = head;
        if (head != nullptr) {
            head = head->next;
            if (head == nullptr) tail = nullptr;
            --queued;
        }
        return executing;
    }
};

void AsyncEngine::unpin(State& batch) {
    if (batch.pinned.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::shared_ptr<State> last = std::move(batch.self);
    }
}

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
    queues_ = std::make_unique<DiskQueue[]>(disks_.size());
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
    stop_.store(true, std::memory_order_relaxed);
    for (std::size_t d = 0; d < disks_.size(); ++d) {
        DiskQueue& q = queues_[d];
        Item* stopped = nullptr;
        {
            std::lock_guard<std::mutex> lock(q.mu);
            q.stop = true;
            // Unexecuted requests must not run (the submitter is unwinding
            // and its buffers or the disks may be going away) but their
            // batches must still complete, or a stray wait would hang.
            stopped = q.head;
            q.head = q.tail = nullptr;
            q.queued = 0;
            for (Item* it = stopped; it != nullptr; it = it->next) {
                IoCompletion& c = it->batch->completions[it->index];
                c.ok = false;
                c.error = std::make_exception_ptr(IoError(
                    "async engine stopped before request executed", it->request.disk,
                    it->request.block));
                it->completed = true;
                ++q.executed;
            }
        }
        q.cv.notify_one();
        while (stopped != nullptr) {
            Item* next = stopped->next;
            State& batch = *stopped->batch;
            finish(batch);
            unpin(batch);
            stopped = next;
        }
    }
    for (auto& w : workers_) w.join();
    if (watchdog_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(watchdog_mu_);
            watchdog_stop_ = true;
        }
        watchdog_cv_.notify_all();
        watchdog_.join();
    }
}

AsyncBatch AsyncEngine::prepare(std::size_t n) {
    BS_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max(),
               "AsyncEngine: batch has too many requests");
    AsyncBatch batch;
    batch.state_ = std::make_shared<State>();
    batch.state_->items.resize(n);
    batch.state_->completions.resize(n);
    return batch;
}

IoRequest& AsyncEngine::request(AsyncBatch& batch, std::size_t i) {
    BS_REQUIRE(batch.valid() && !batch.state_->submitted && i < batch.state_->items.size(),
               "AsyncEngine::request: no such slot in an unsubmitted batch");
    return batch.state_->items[i].request;
}

AsyncBatch AsyncEngine::submit(std::vector<IoRequest> requests) {
    AsyncBatch batch = prepare(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) request(batch, i) = requests[i];
    submit(batch);
    return batch;
}

void AsyncEngine::submit(AsyncBatch& batch) {
    BS_REQUIRE(batch.valid() && !batch.state_->submitted,
               "AsyncEngine::submit needs a prepared, unsubmitted batch");
    State& s = *batch.state_;
    const auto n = static_cast<std::uint32_t>(s.items.size());
    BS_REQUIRE(n == 0 || !stop_.load(std::memory_order_relaxed), "AsyncEngine::submit after stop");
    std::size_t staged = 0;
    for (const Item& it : s.items) {
        BS_REQUIRE(it.request.disk < disks_.size(),
                   "AsyncEngine: request names nonexistent disk");
        if (deadline_us_ > 0 && it.request.kind == IoRequest::Kind::kRead) {
            staged += disks_[it.request.disk]->block_size();
        }
    }
    s.submitted = true;
    if (n == 0) return;
    s.staging.resize(staged);
    const auto deadline =
        staged > 0 ? std::chrono::steady_clock::now() + std::chrono::microseconds(deadline_us_)
                   : std::chrono::steady_clock::time_point{};
    // Fill in the items and completions, and link each disk's requests
    // into one chain in submission order.
    struct Chain {
        Item* head = nullptr;
        Item* tail = nullptr;
        std::uint32_t count = 0;
    };
    thread_local std::vector<Chain> chains;
    chains.assign(disks_.size(), Chain{});
    staged = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        Item& it = s.items[i];
        it.batch = &s;
        it.index = i;
        IoCompletion& c = s.completions[i];
        c.request_index = i;
        c.disk = it.request.disk;
        c.block = it.request.block;
        if (deadline_us_ > 0 && it.request.kind == IoRequest::Kind::kRead) {
            it.staging = s.staging.data() + staged;
            it.deadline = deadline;
            staged += disks_[it.request.disk]->block_size();
        }
        Chain& ch = chains[it.request.disk];
        it.next = nullptr;
        (ch.tail != nullptr ? ch.tail->next : ch.head) = &it;
        ch.tail = &it;
        ++ch.count;
    }
    s.remaining.store(n, std::memory_order_relaxed);
    s.pinned.store(n, std::memory_order_relaxed);
    s.self = batch.state_;
    // Count before any worker can complete (and uncount) a request.
    const std::uint64_t in_flight = in_flight_.fetch_add(n, std::memory_order_acq_rel) + n;
    std::uint64_t peak = peak_in_flight_.load(std::memory_order_relaxed);
    while (in_flight > peak &&
           !peak_in_flight_.compare_exchange_weak(peak, in_flight, std::memory_order_relaxed)) {
    }
    if (queue_depth_ != nullptr) queue_depth_->record(in_flight);

    // Hand every chain over under its disk's lock, once.
    for (std::size_t d = 0; d < disks_.size(); ++d) {
        const Chain& ch = chains[d];
        if (ch.head == nullptr) continue;
        DiskQueue& q = queues_[d];
        bool was_empty;
        {
            std::lock_guard<std::mutex> lock(q.mu);
            was_empty = q.head == nullptr;
            (q.tail != nullptr ? q.tail->next : q.head) = ch.head;
            q.tail = ch.tail;
            q.queued += ch.count;
        }
        // The worker sleeps only on an empty queue.
        if (was_empty) q.cv.notify_one();
    }
}

void AsyncEngine::finish(State& batch) {
    if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // A waiter between its check and its sleep holds the batch lock:
        // passing through it first makes the wake-up impossible to miss.
        { std::lock_guard<std::mutex> lock(batch.mu); }
        batch.cv.notify_all();
    }
    if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        { std::lock_guard<std::mutex> lock(idle_mu_); }
        idle_cv_.notify_all();
    }
}

const std::vector<IoCompletion>& AsyncEngine::wait(AsyncBatch& batch) {
    BS_REQUIRE(batch.valid() && batch.state_->submitted,
               "AsyncEngine::wait needs a submitted batch");
    State& s = *batch.state_;
    if (s.remaining.load(std::memory_order_acquire) != 0) {
        std::unique_lock<std::mutex> lock(s.mu);
        s.cv.wait(lock, [&] { return s.remaining.load(std::memory_order_acquire) == 0; });
    }
    return s.completions;
}

bool AsyncEngine::done(const AsyncBatch& batch) const {
    BS_REQUIRE(batch.valid() && batch.state_->submitted,
               "AsyncEngine::done needs a submitted batch");
    return batch.state_->remaining.load(std::memory_order_acquire) == 0;
}

void AsyncEngine::drain() {
    if (in_flight_.load(std::memory_order_acquire) == 0) return;
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [&] { return in_flight_.load(std::memory_order_acquire) == 0; });
}

AsyncEngineMetrics AsyncEngine::metrics() const {
    AsyncEngineMetrics m;
    for (std::size_t d = 0; d < disks_.size(); ++d) {
        std::lock_guard<std::mutex> lock(queues_[d].mu);
        m.busy_seconds += queues_[d].busy_seconds;
        m.block_ops += queues_[d].executed;
    }
    m.max_in_flight = peak_in_flight_.load(std::memory_order_relaxed);
    return m;
}

std::uint64_t AsyncEngine::timeouts() const {
    std::uint64_t total = 0;
    for (std::size_t d = 0; d < disks_.size(); ++d) {
        std::lock_guard<std::mutex> lock(queues_[d].mu);
        total += queues_[d].timeouts;
    }
    return total;
}

std::vector<std::uint32_t> AsyncEngine::per_disk_in_flight() const {
    std::vector<std::uint32_t> depth(disks_.size(), 0);
    for (std::size_t d = 0; d < disks_.size(); ++d) {
        std::lock_guard<std::mutex> lock(queues_[d].mu);
        depth[d] = queues_[d].queued + (queues_[d].executing != nullptr ? 1u : 0u);
    }
    return depth;
}

void AsyncEngine::worker_loop(std::uint32_t disk_index) {
    DiskQueue& q = queues_[disk_index];
    Disk& disk = *disks_[disk_index];
    Histogram* backoff = backoff_us_.empty() ? nullptr : backoff_us_[disk_index];
    Item* item = nullptr;
    for (;;) {
        if (item == nullptr) {
            std::unique_lock<std::mutex> lock(q.mu);
            q.cv.wait(lock, [&] { return q.stop || q.head != nullptr; });
            item = q.pop();
            if (item == nullptr) return; // stopped, and no work left
        }
        // Deadline-mode reads land in the item's staging block: if the
        // watchdog abandons us mid-read, the caller's buffer is already
        // being refilled from parity and must not be overwritten by a late
        // wakeup.
        IoRequest request = item->request;
        if (item->staging != nullptr) request.read_buf = item->staging;
        const auto t0 = std::chrono::steady_clock::now();
        const IoCompletion res = execute_with_retry(disk, request, retry_, backoff);
        const auto t1 = std::chrono::steady_clock::now();
        const bool is_read = request.kind == IoRequest::Kind::kRead;
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
            ev.args[0] = {"disk", static_cast<std::int64_t>(request.disk)};
            ev.args[1] = {"block", static_cast<std::int64_t>(request.block)};
            ev.n_args = 2;
            tracer_->emit(ev);
        }
        // Settle this item and take the next one under one lock.
        State& batch = *item->batch;
        bool completed_here = false;
        Item* next = nullptr;
        {
            std::lock_guard<std::mutex> lock(q.mu);
            q.busy_seconds += std::chrono::duration<double>(t1 - t0).count();
            if (!item->abandoned) {
                // This worker still owns the completion slot; a timed-out
                // item was already completed (and counted) by the watchdog,
                // and its caller buffer must stay untouched.
                IoCompletion& c = batch.completions[item->index];
                c.ok = res.ok;
                c.error = res.error;
                c.transient_retries = res.transient_retries;
                if (res.ok && item->staging != nullptr) {
                    std::copy_n(item->staging, disk.block_size(), item->request.read_buf);
                }
                item->completed = true;
                ++q.executed;
                completed_here = true;
            }
            next = q.pop();
        }
        if (completed_here) finish(batch);
        unpin(batch); // may free the batch: `item` is dead from here
        item = next;
    }
}

void AsyncEngine::watchdog_loop() {
    const auto tick = std::chrono::microseconds(std::max<std::uint64_t>(deadline_us_ / 2, 100));
    std::unique_lock<std::mutex> lock(watchdog_mu_);
    while (!watchdog_stop_) {
        watchdog_cv_.wait_for(lock, tick);
        if (watchdog_stop_) return;
        lock.unlock();
        // Preserve the crash scene while the timeout is fresh. The dump
        // does file I/O, so it runs with no lock held.
        if (expire_overdue()) flight_auto_dump("io.deadline");
        lock.lock();
    }
}

bool AsyncEngine::expire_overdue() {
    const auto now = std::chrono::steady_clock::now();
    bool fired = false;
    for (std::size_t d = 0; d < disks_.size(); ++d) {
        DiskQueue& q = queues_[d];
        Item* expired = nullptr; ///< expired queued items, in queue order
        Item** expired_tail = &expired;
        Item* expired_running = nullptr;
        {
            std::lock_guard<std::mutex> lock(q.mu);
            auto overdue = [&](const Item* it) {
                return it != nullptr && it->staging != nullptr && !it->completed &&
                       now >= it->deadline;
            };
            auto expire = [&](Item& it) {
                it.abandoned = true;
                it.completed = true;
                IoCompletion& c = it.batch->completions[it.index];
                c.ok = false;
                std::ostringstream os;
                os << "read outstanding past " << deadline_us_ << "us deadline: disk "
                   << it.request.disk << " block " << it.request.block;
                c.error = std::make_exception_ptr(
                    TimedOutIo(os.str(), it.request.disk, it.request.block));
                ++q.executed;
                ++q.timeouts;
            };
            // A queued item past its deadline is starved behind a hung
            // request; expire it and unlink it so the worker never runs it.
            Item* prev = nullptr;
            for (Item* it = q.head; it != nullptr;) {
                Item* next = it->next;
                if (overdue(it)) {
                    (prev != nullptr ? prev->next : q.head) = next;
                    if (q.tail == it) q.tail = prev;
                    --q.queued;
                    expire(*it);
                    it->next = nullptr;
                    *expired_tail = it;
                    expired_tail = &it->next;
                } else {
                    prev = it;
                }
                it = next;
            }
            if (overdue(q.executing)) {
                expire(*q.executing);
                expired_running = q.executing;
                // Its worker unpins the batch when it returns; keep the
                // batch alive until this expiry is counted.
                expired_running->batch->pinned.fetch_add(1, std::memory_order_relaxed);
                // Counted after the queued expiries, as they were found.
                // Its worker never follows an executing item's `next`.
                expired_running->next = nullptr;
                *expired_tail = expired_running;
            }
        }
        while (expired != nullptr) {
            Item* next = expired->next;
            flight_note("io.deadline_expired", "watchdog",
                        static_cast<std::int64_t>(expired->request.disk),
                        static_cast<std::int64_t>(expired->request.block));
            fired = true;
            State& batch = *expired->batch;
            finish(batch);
            unpin(batch);
            expired = next;
        }
    }
    return fired;
}

} // namespace balsort
