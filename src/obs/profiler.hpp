#pragma once
// Sampling CPU profiler: SIGPROF-driven stack capture into lock-free
// per-thread rings (DESIGN.md §17) — the "where does compute time go"
// instrument the tracer cannot be.
//
// The Tracer (tracer.hpp) records what the code *says* it is doing —
// phases, engine ops, prefetch pairs. The profiler records what the CPU
// is *actually* doing: every time the process burns ~1/hz seconds of CPU
// time the kernel delivers SIGPROF to the running thread, whose handler
// captures a raw `backtrace()` into that thread's fixed ring using the
// flight recorder's slot discipline (relaxed payload stores, a
// release-published sequence ordinal, wrap-around overwrites the oldest).
// Zero dependencies beyond glibc: <execinfo.h> backtrace for capture,
// <dlfcn.h> dladdr for lazy symbolization at dump time.
//
// Signal-safety rules (the handler's contract, tested under TSan):
//   * no allocation — rings are preallocated at construction, a thread
//     claims one with a single fetch_add; when the pool is exhausted the
//     sample is counted as dropped, never blocked on;
//   * no locks — slots are plain stores behind an atomic head;
//   * backtrace() is preloaded at start() (its first call may dlopen
//     libgcc, which is not async-signal-safe);
//   * errno is saved and restored; the timer is armed with SA_RESTART so
//     sampling never surfaces EINTR to the disk layer.
//
// Determinism: sampling observes CPU time only. Model quantities
// (io_steps, comparisons, hashes) are byte-identical with the profiler on
// or off — pinned by the overhead-guard test and the gated
// `recorder=profiler` rung of bench_trace.
//
// Output, after stop():
//   * folded(os)        — collapsed stacks ("main;sort;merge 42"), one
//                         line per unique stack, flamegraph.pl /
//                         speedscope / inferno ready, sorted
//                         deterministically;
//   * emit_to_tracer(t) — one instant event per sample on a per-thread
//                         "profile ..." lane of an existing Tracer, so the
//                         samples land in the same Chrome trace as the
//                         phase spans and engine ops.
//
// Exactly one profiler can be armed at a time (the handler reads one
// process-wide slot); start()/stop() nest by refcount so concurrent
// scheduler jobs can share the daemon's profiler. With BALSORT_NO_OBS the
// entire class is a no-op stub and every call site compiles out.
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace balsort {

#ifndef BALSORT_NO_OBS

/// Sampling parameters. The defaults fit a CI smoke run; tests shrink the
/// ring to exercise wrap-around without needing millions of samples.
struct ProfilerConfig {
    /// Samples per second of *CPU time* (ITIMER_PROF). A prime, so the
    /// sampler cannot phase-lock with periodic work.
    std::uint32_t hz = 997;
    /// Per-thread ring capacity in samples; must be a power of two.
    std::uint32_t ring_slots = 8192;
    /// Maximum threads that can be sampled concurrently; later threads'
    /// samples are counted in dropped_samples().
    std::uint32_t max_threads = 64;
};

class Tracer;

class Profiler {
  public:
    explicit Profiler(ProfilerConfig cfg = {});
    ~Profiler();
    Profiler(const Profiler&) = delete;
    Profiler& operator=(const Profiler&) = delete;

    /// Arms the SIGPROF handler + interval timer. Refcounted: nested
    /// start() calls on the same profiler stack, and only the matching
    /// final stop() disarms. Throws std::runtime_error if a *different*
    /// Profiler is currently armed (one process-wide sampler).
    void start();
    /// Disarms after the last nested start() unwinds. Safe to call only
    /// as the pair of a successful start().
    void stop();
    bool running() const;

    /// Samples recorded (surviving or overwritten) / dropped for want of a
    /// ring or frame space. Approximate while running; exact after stop().
    std::uint64_t sample_count() const;
    std::uint64_t dropped_samples() const;

    const ProfilerConfig& config() const;

    /// Collapsed/folded stacks: "sym_a;sym_b;sym_leaf <count>" per line,
    /// root first, deterministically ordered (descending count, then
    /// lexicographic). Symbolization is lazy (dladdr, demangled) and
    /// cached. Call after stop(); concurrent sampling during a dump reads
    /// torn slots.
    void folded(std::ostream& os) const;
    std::string folded_string() const;
    bool folded_file(const std::string& path) const;

    /// Re-emits every surviving sample as an instant event on `t`, one
    /// synthetic "profile <tid>" lane per sampled thread, named by the
    /// sample's leaf symbol. The symbol strings are interned in this
    /// profiler, so `t` must be serialized before the profiler dies.
    /// Returns the number of events emitted.
    std::uint64_t emit_to_tracer(Tracer* t) const;

    /// Test hook: inject a fabricated sample (bypassing the signal path)
    /// into the calling thread's ring, exactly as the handler would store
    /// it. Lets unit tests drive ring wrap-around deterministically.
    void record_sample_for_test(void* const* frames, std::uint32_t n_frames);

  private:
    static void signal_handler(int);
    void sample_current_thread();

    struct Ring;
    struct Impl;
    Impl* impl_;
};

/// RAII start/stop for the optional profiler carried by ObsPolicy: a
/// null profiler is a no-op guard, like TracerInstallGuard.
class ProfilerScope {
  public:
    explicit ProfilerScope(Profiler* p) : p_(p) {
        if (p_ != nullptr) p_->start();
    }
    ~ProfilerScope() {
        if (p_ != nullptr) p_->stop();
    }
    ProfilerScope(const ProfilerScope&) = delete;
    ProfilerScope& operator=(const ProfilerScope&) = delete;

  private:
    Profiler* p_;
};

#else // BALSORT_NO_OBS

struct ProfilerConfig {
    std::uint32_t hz = 997;
    std::uint32_t ring_slots = 8192;
    std::uint32_t max_threads = 64;
};

class Tracer;

/// Compile-out stub: same surface, no state, no signals. Call sites keep
/// their shape and the optimizer deletes them.
class Profiler {
  public:
    explicit Profiler(ProfilerConfig cfg = {}) : cfg_(cfg) {}
    void start() {}
    void stop() {}
    bool running() const { return false; }
    std::uint64_t sample_count() const { return 0; }
    std::uint64_t dropped_samples() const { return 0; }
    const ProfilerConfig& config() const { return cfg_; }
    void folded(std::ostream&) const {}
    std::string folded_string() const { return {}; }
    bool folded_file(const std::string&) const { return false; }
    std::uint64_t emit_to_tracer(Tracer*) const { return 0; }
    void record_sample_for_test(void* const*, std::uint32_t) {}

  private:
    ProfilerConfig cfg_;
};

class ProfilerScope {
  public:
    explicit ProfilerScope(Profiler*) {}
};

#endif // BALSORT_NO_OBS

} // namespace balsort
