#pragma once
// The one per-thread event ring behind the Tracer, the FlightRecorder and
// the Profiler (DESIGN.md §11). They differ only in payload and retention.
//
//   * Registration: a thread finds its ring in one thread_local claim
//     cache keyed by the recorder's never-reused owner id, so a recorder
//     rebuilt at a recycled address never revives a stale ring. local()
//     allocates on a thread's first event; local_preallocated() takes a
//     ring built up front with one fetch_add (the SIGPROF handler's path).
//   * Publication: the writer zeroes a slot's seq, stores the payload as
//     atomic words, then release-stores seq = ordinal. A reader keeps the
//     slot only if seq reads that ordinal before and after the payload, so
//     a dump racing a writer skips a torn slot. Word stores are release
//     and word loads acquire (free on x86) in place of fences, which TSan
//     does not model.
//   * Retention: bounded rings overwrite the oldest slot (head wraps with a
//     mask); unbounded rings append a chunk of slots when one fills.
//   * Clock: obs_now_us(), one steady-clock base per process.
//   * Export: ChromeTraceWriter, the one writer of {"traceEvents":[...]}.
//
// Payload strings (names, categories, arg keys) must have static storage
// duration: rings store the pointers only.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string_view>
#include <type_traits>
#include <vector>

namespace balsort {

struct TraceArg {
    const char* key = nullptr;
    std::int64_t value = 0;
};

struct TraceEvent {
    const char* name = nullptr; // static-lifetime string
    const char* cat = nullptr;  // static-lifetime string
    char phase = 'X';           // 'X' complete, 'i' instant, 'b'/'e' async
    std::uint32_t tid = 0;      // row id (thread or lane)
    std::int64_t ts_us = 0;     // obs clock (obs_now_us)
    std::int64_t dur_us = 0;    // 'X' only
    std::uint64_t id = 0;       // async pair id ('b'/'e' only)
    TraceArg args[4];
    std::uint8_t n_args = 0;
};

/// Microseconds on the obs clock: the steady clock since the process
/// loaded the obs library. Async-signal-safe.
std::int64_t obs_now_us();
/// An already-captured steady_clock point on the same axis.
std::int64_t obs_ts_us(std::chrono::steady_clock::time_point tp);

namespace detail {
std::uint64_t next_ring_owner();
/// The calling thread's ring for `owner`, or nullptr. Async-signal-safe.
void* find_claim(std::uint64_t owner);
/// Makes `ring` the calling thread's ring for `owner`, evicting the least
/// recently used claim when the cache is full. Async-signal-safe.
void put_claim(std::uint64_t owner, void* ring);
} // namespace detail

/// Writes one Chrome trace_event JSON object, loadable in Perfetto or
/// chrome://tracing: the constructor opens {"traceEvents":[ and the
/// destructor closes it.
class ChromeTraceWriter {
  public:
    explicit ChromeTraceWriter(std::ostream& os);
    ~ChromeTraceWriter();
    ChromeTraceWriter(const ChromeTraceWriter&) = delete;
    ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

    /// A thread_name metadata record: the viewer's label for row `tid`.
    void thread_name(std::uint32_t tid, std::string_view name);
    void event(const TraceEvent& ev);

  private:
    std::ostream& os_;
    bool first_ = true;
};

/// One ring per thread, all of one owner: its recorder.
template <class Payload>
class EventRings {
    static_assert(std::is_trivially_copyable_v<Payload>);
    static constexpr std::size_t kWords = (sizeof(Payload) + 7) / 8;

    struct Slot {
        std::atomic<std::uint64_t> seq{0}; ///< 0 = empty or mid-write; else ordinal
        std::atomic<std::uint64_t> words[kWords];
    };
    struct Chunk {
        explicit Chunk(std::uint32_t n) : slots(new Slot[n]) {}
        std::unique_ptr<Slot[]> slots;
        std::atomic<Chunk*> next{nullptr};
    };

  public:
    class Ring {
      public:
        Ring(std::uint32_t slots, bool bounded) : first_(slots), mask_(slots - 1), bounded_(bounded) {}

        /// The one store path. Only the owning thread calls it; it
        /// allocates only when an unbounded ring starts a new chunk.
        void push(const Payload& p) {
            const std::uint64_t pos = head_.load(std::memory_order_relaxed);
            if (!bounded_ && pos > 0 && (pos & mask_) == 0) {
                more_.push_back(std::make_unique<Chunk>(mask_ + 1));
                tail_->next.store(more_.back().get(), std::memory_order_release);
                tail_ = more_.back().get();
            }
            std::uint64_t w[kWords] = {};
            std::memcpy(w, &p, sizeof(Payload));
            Slot& s = tail_->slots[pos & mask_];
            s.seq.store(0, std::memory_order_relaxed);
            for (std::size_t i = 0; i < kWords; ++i) s.words[i].store(w[i], std::memory_order_release);
            s.seq.store(pos + 1, std::memory_order_release);
            head_.store(pos + 1, std::memory_order_release);
        }

        /// Events ever pushed, overwritten ones included.
        std::uint64_t count() const { return head_.load(std::memory_order_acquire); }

        /// Calls f(payload) for each retained event, oldest first. Safe
        /// concurrently with push(): a slot being rewritten is skipped.
        template <class F>
        void read(F&& f) const {
            const std::uint64_t head = count();
            std::uint64_t pos = bounded_ && head > mask_ + 1 ? head - (mask_ + 1) : 0;
            const Chunk* c = &first_;
            for (; pos < head; ++pos) {
                if (!bounded_ && pos > 0 && (pos & mask_) == 0) c = c->next.load(std::memory_order_acquire);
                const Slot& s = c->slots[pos & mask_];
                if (s.seq.load(std::memory_order_acquire) != pos + 1) continue;
                std::uint64_t w[kWords];
                for (std::size_t i = 0; i < kWords; ++i) w[i] = s.words[i].load(std::memory_order_acquire);
                if (s.seq.load(std::memory_order_relaxed) != pos + 1) continue;
                Payload p{};
                std::memcpy(&p, w, sizeof(Payload));
                f(p);
            }
        }

        std::uint32_t tid = 0; ///< 1-based claim order: the ring's export row

      private:
        Chunk first_;
        Chunk* tail_ = &first_;
        std::vector<std::unique_ptr<Chunk>> more_; ///< unbounded growth, owner-only
        std::atomic<std::uint64_t> head_{0};       ///< next slot ordinal (pre-wrap)
        const std::uint64_t mask_;
        const bool bounded_;
    };

    /// `slots` is a ring's capacity (bounded) or chunk size (unbounded), a
    /// power of two. `preallocated` > 0 builds a pool for local_preallocated().
    EventRings(std::uint32_t slots, bool bounded, std::uint32_t preallocated = 0)
        : slots_(slots), bounded_(bounded) {
        for (std::uint32_t i = 0; i < preallocated; ++i) {
            rings_.push_back(std::make_unique<Ring>(slots, bounded));
            rings_.back()->tid = i + 1;
        }
    }

    /// The calling thread's ring, allocated and registered on first use.
    Ring* local() {
        if (void* r = detail::find_claim(id_)) return static_cast<Ring*>(r);
        std::lock_guard<std::mutex> lock(mu_);
        rings_.push_back(std::make_unique<Ring>(slots_, bounded_));
        Ring* ring = rings_.back().get();
        ring->tid = static_cast<std::uint32_t>(rings_.size());
        claimed_.store(ring->tid, std::memory_order_release);
        detail::put_claim(id_, ring);
        return ring;
    }

    /// The calling thread's ring from the pool: one fetch_add, no
    /// allocation, no lock (async-signal-safe); nullptr once it runs out.
    Ring* local_preallocated() {
        if (void* r = detail::find_claim(id_)) return static_cast<Ring*>(r);
        const std::uint32_t i = claimed_.fetch_add(1, std::memory_order_acq_rel);
        if (i >= rings_.size()) return nullptr;
        detail::put_claim(id_, rings_[i].get());
        return rings_[i].get();
    }

    /// Every claimed ring in claim order; each lives as long as `this`.
    std::vector<const Ring*> rings() const {
        std::lock_guard<std::mutex> lock(mu_);
        const std::size_t n =
            std::min<std::size_t>(claimed_.load(std::memory_order_acquire), rings_.size());
        std::vector<const Ring*> out;
        for (std::size_t i = 0; i < n; ++i) out.push_back(rings_[i].get());
        return out;
    }

    /// Events ever pushed across all rings.
    std::uint64_t count() const {
        std::uint64_t n = 0;
        for (const Ring* r : rings()) n += r->count();
        return n;
    }

  private:
    const std::uint64_t id_ = detail::next_ring_owner();
    const std::uint32_t slots_;
    const bool bounded_;
    mutable std::mutex mu_; ///< rings_ growth in local(); a pool never grows
    std::vector<std::unique_ptr<Ring>> rings_;
    std::atomic<std::uint32_t> claimed_{0};
};

} // namespace balsort
