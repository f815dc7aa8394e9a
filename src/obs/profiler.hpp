#pragma once
// Sampling CPU profiler (DESIGN.md §17): where compute time goes, which the
// tracer's self-reported spans cannot say. Every ~1/hz seconds of CPU time
// SIGPROF interrupts the running thread; the handler unwinds with
// backtrace(), starts the stack at the interrupted PC from its ucontext
// (dropping its own frames; the PC alone if the unwinder did not reach
// it), and pushes the sample into the thread's ring: a bounded,
// preallocated user of the obs event ring (event_ring.hpp). Symbols are
// resolved with dladdr at dump time.
//
// The handler's contract (tested under TSan): no allocation (a thread
// claims a preallocated ring with one fetch_add; an exhausted pool drops
// the sample), no locks, backtrace() preloaded by start() (its first call
// may dlopen libgcc), errno saved, SA_RESTART so sampling never surfaces
// EINTR to the disk layer. It observes CPU time only: model quantities are
// byte-identical with the profiler on or off (the overhead-guard test and
// the gated `recorder=profiler` rung of bench_trace).
//
// One profiler can be armed at a time (the handler reads one process-wide
// slot); start()/stop() nest by refcount so concurrent scheduler jobs can
// share the daemon's profiler. With BALSORT_NO_OBS the class is a no-op
// stub and every call site compiles out.
#include <csignal>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace balsort {

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

#ifndef BALSORT_NO_OBS

class Profiler {
  public:
    explicit Profiler(ProfilerConfig cfg = {});
    ~Profiler();
    Profiler(const Profiler&) = delete;
    Profiler& operator=(const Profiler&) = delete;

    /// Arms the SIGPROF handler + interval timer. Nested start() calls on
    /// the same profiler are refcounted; the matching final stop() disarms.
    /// Throws std::runtime_error if a *different* Profiler is armed.
    void start();
    void stop();
    bool running() const;

    /// Samples recorded (surviving or overwritten) / dropped for want of a
    /// ring or frames. Approximate while running; exact after stop().
    std::uint64_t sample_count() const;
    std::uint64_t dropped_samples() const;

    const ProfilerConfig& config() const;

    /// Folded stacks for flamegraph.pl / speedscope: "root;...;leaf <count>"
    /// per line, by descending count then lexicographically. After stop().
    void folded(std::ostream& os) const;
    std::string folded_string() const;
    bool folded_file(const std::string& path) const;

    /// One instant per surviving sample on `t`, on a "profile <tid>" lane
    /// per sampled thread, named after the interrupted function; samples
    /// are on the obs clock, so they line up with the tracer's spans. The
    /// names live here: serialize `t` before this profiler dies. Returns
    /// the number of events emitted.
    std::uint64_t emit_to_tracer(Tracer* t) const;

    /// Test hook: stores a fabricated sample into the calling thread's
    /// ring through the handler's own store path.
    void record_sample_for_test(void* const* frames, std::uint32_t n_frames);

  private:
    static void signal_handler(int, siginfo_t*, void* uctx);

    struct Impl;
    Impl* impl_;
};

#else // BALSORT_NO_OBS

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

#endif // BALSORT_NO_OBS

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

} // namespace balsort
