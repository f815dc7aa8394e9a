#pragma once
// Span tracer with Chrome trace export: *when* each pipeline phase ran,
// what each disk worker did meanwhile, how long a staged prefetch sat in
// flight. The unbounded user of the obs event ring (event_ring.hpp): each
// thread's ring grows a chunk at a time and keeps every event, because the
// analyzer needs every span. Timestamps are on the obs clock, shared with
// flight dumps and profiler samples.
//
// Events: Span, an RAII complete event ("X"); instant ("i"): fault
// retries, reconstructions; async begin/end ("b"/"e") matched by id:
// prefetch issue/consume. Threads get rows 1..N in registration order;
// named lanes (a pipeline phase, a disk worker) get rows from 1000 up.
//
// Cost model: call sites hold a `Tracer*` that is null when tracing is off,
// and every helper (and Span) no-ops on null. tracer() reads one atomic;
// BALSORT_NO_OBS makes it constexpr nullptr so instrumentation compiles out.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/event_ring.hpp"

namespace balsort {

class Tracer {
  public:
    /// Events per chunk of a thread's ring; a full chunk gets a successor.
    static constexpr std::uint32_t kChunkEvents = 1024;

    Tracer();

    /// Now on the obs clock, in microseconds.
    std::int64_t now_us() const { return obs_now_us(); }

    /// An already-captured steady_clock point as trace time.
    std::int64_t ts_us(std::chrono::steady_clock::time_point tp) const { return obs_ts_us(tp); }

    /// The row of a named lane (a logical track, not an OS thread),
    /// registered on first use. Idempotent per name; thread-safe.
    std::uint32_t lane(const std::string& name);

    /// Fresh id for an async begin/end pair.
    std::uint64_t next_async_id() { return async_id_.fetch_add(1, std::memory_order_relaxed) + 1; }

    /// Appends a fully-formed event to the calling thread's ring.
    /// ev.tid == 0 means "the calling thread's row".
    void emit(TraceEvent ev);

    void instant(const char* name, const char* cat, std::uint32_t lane_tid = 0,
                 std::initializer_list<TraceArg> args = {}) {
        point('i', name, cat, 0, lane_tid, args);
    }
    void async_begin(const char* name, const char* cat, std::uint64_t id,
                     std::uint32_t lane_tid = 0, std::initializer_list<TraceArg> args = {}) {
        point('b', name, cat, id, lane_tid, args);
    }
    void async_end(const char* name, const char* cat, std::uint64_t id,
                   std::uint32_t lane_tid = 0, std::initializer_list<TraceArg> args = {}) {
        point('e', name, cat, id, lane_tid, args);
    }

    /// Every event as Chrome trace JSON. Call once producers have quiesced
    /// (workers joined): a concurrent emit() may or may not make it in.
    void write_chrome_trace(std::ostream& os) const;
    bool write_chrome_trace_file(const std::string& path) const;

    /// Total events recorded so far.
    std::size_t event_count() const { return rings_.count(); }

  private:
    void point(char phase, const char* name, const char* cat, std::uint64_t id,
               std::uint32_t lane_tid, std::initializer_list<TraceArg> args);

    EventRings<TraceEvent> rings_{kChunkEvents, /*bounded=*/false};
    std::atomic<std::uint64_t> async_id_{0};
    mutable std::mutex mu_; // lanes_
    std::vector<std::pair<std::string, std::uint32_t>> lanes_;
};

/// RAII span: emits one complete ("X") event covering the scope's lifetime.
/// Null tracer → every member is a no-op, so call sites need no branches.
class Span {
  public:
    Span(Tracer* t, const char* name, const char* cat, std::uint32_t lane_tid = 0) : t_(t) {
        if (t_ != nullptr) ev_ = {name, cat, 'X', lane_tid, t_->now_us(), 0, 0, {}, 0};
    }
    ~Span() {
        if (t_ == nullptr) return;
        ev_.dur_us = t_->now_us() - ev_.ts_us;
        t_->emit(ev_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void arg(const char* key, std::int64_t value) {
        if (t_ != nullptr && ev_.n_args < 4) ev_.args[ev_.n_args++] = {key, value};
    }

  private:
    Tracer* t_;
    TraceEvent ev_;
};

namespace detail {
extern std::atomic<Tracer*> g_tracer;
/// Tracers ever constructed. A process that never built one cannot have a
/// legitimate installation, so tracer() then ignores the install slot (a
/// stray write to it reads as "tracing off", not as a garbage pointer).
extern std::atomic<std::uint64_t> g_tracer_epoch;
} // namespace detail

/// The installed tracer, or nullptr when tracing is off. With BALSORT_NO_OBS
/// this is constexpr nullptr and every `if (Tracer* t = tracer())` branch is
/// provably dead at compile time.
#ifdef BALSORT_NO_OBS
constexpr Tracer* tracer() { return nullptr; }
#else
inline Tracer* tracer() {
    Tracer* t = detail::g_tracer.load(std::memory_order_acquire);
    if (t != nullptr && detail::g_tracer_epoch.load(std::memory_order_relaxed) == 0) {
        return nullptr; // slot holds a value no code in this process wrote
    }
    return t;
}
#endif

/// Scoped install: publishes `t` as the process-wide tracer for the guard's
/// lifetime, restoring the previous installee on destruction. A null `t` is
/// a no-op guard (the existing installation, if any, stays visible) so
/// callers can construct one unconditionally from an optional option.
class TracerInstallGuard {
  public:
    explicit TracerInstallGuard(Tracer* t);
    ~TracerInstallGuard();
    TracerInstallGuard(const TracerInstallGuard&) = delete;
    TracerInstallGuard& operator=(const TracerInstallGuard&) = delete;

  private:
    Tracer* prev_ = nullptr;
    bool active_ = false;
};

} // namespace balsort
