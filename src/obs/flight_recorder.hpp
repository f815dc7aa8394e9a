#pragma once
// Flight recorder: the always-on sibling of the Tracer, answering "what were
// the last few thousand things each thread did before the fault I did not
// expect". The bounded user of the obs event ring (event_ring.hpp):
// kRingSlots per thread, a note is a few relaxed stores, nothing allocates
// after a thread's first note, and new notes overwrite the oldest.
//
// dump() writes the surviving notes as Chrome trace instants on the obs
// clock, the time axis of a Tracer export, without stopping writers. The
// fault ladder, the deadline watchdog and the scheduler's job-failure path
// call auto_dump(why), so a crash scene is kept without anyone asking.
// A process singleton; with BALSORT_NO_OBS the free helpers are no-ops.
#include <cstdint>
#include <iosfwd>
#include <string>

namespace balsort {

#ifndef BALSORT_NO_OBS

class FlightRecorder {
  public:
    /// Slots per thread ring. Power of two so the wrap is a mask.
    static constexpr std::uint32_t kRingSlots = 2048;

    static FlightRecorder& instance();

    /// Appends one note to the calling thread's ring (lock-free after the
    /// thread's first note). `name`/`cat` must be static-lifetime strings.
    void note(const char* name, const char* cat, std::int64_t a0 = 0, std::int64_t a1 = 0);

    /// Every surviving note as Chrome trace JSON. Safe during note().
    void dump(std::ostream& os) const;
    bool dump_file(const std::string& path) const;

    /// Where auto_dump() derives its output name from: an explicit set
    /// wins over BALSORT_FLIGHT_DUMP; empty disables.
    void set_auto_dump_path(const std::string& path);
    std::string auto_dump_path() const;

    /// Notes "flight.dump" tagged with `why` (a static-lifetime string),
    /// then dumps to "<stem>.<pid>.<k>.<ext>" next to the configured path,
    /// k counting this process's auto-dumps, so concurrent failing jobs or
    /// chaos-replay forks never clobber each other's crash scene. Returns
    /// the path written, empty when unconfigured or the write failed.
    std::string auto_dump(const char* why);

    /// The path this process's last successful auto_dump() wrote, if any.
    std::string last_auto_dump_path() const;

    /// Total notes ever recorded (monotonic; includes overwritten ones).
    std::uint64_t note_count() const;

    /// Now on the obs clock, in microseconds.
    std::int64_t now_us() const;

  private:
    FlightRecorder();
    ~FlightRecorder() = delete; // process singleton, never destroyed
    FlightRecorder(const FlightRecorder&) = delete;
    FlightRecorder& operator=(const FlightRecorder&) = delete;

    struct Impl;
    Impl* impl_;
};

/// One note in the calling thread's flight ring (no-op under
/// BALSORT_NO_OBS). Strings must have static storage duration.
inline void flight_note(const char* name, const char* cat, std::int64_t a0 = 0,
                        std::int64_t a1 = 0) {
    FlightRecorder::instance().note(name, cat, a0, a1);
}

/// FlightRecorder::auto_dump(why) on the singleton (BALSORT_NO_OBS: no-op).
inline std::string flight_auto_dump(const char* why) {
    return FlightRecorder::instance().auto_dump(why);
}

#else // BALSORT_NO_OBS

inline void flight_note(const char*, const char*, std::int64_t = 0, std::int64_t = 0) {}
inline std::string flight_auto_dump(const char*) { return {}; }

#endif // BALSORT_NO_OBS

} // namespace balsort
