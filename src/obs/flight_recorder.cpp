#include "obs/flight_recorder.hpp"

#ifndef BALSORT_NO_OBS

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>

#include <unistd.h>

#include "obs/event_ring.hpp"

namespace balsort {

struct FlightRecorder::Impl {
    struct Note {
        const char* name;
        const char* cat;
        std::int64_t ts_us, a0, a1;
    };
    EventRings<Note> rings{kRingSlots, /*bounded=*/true};
    mutable std::mutex mu_; // dump path
    std::string dump_path;
    bool dump_path_set = false;
    std::atomic<std::uint64_t> auto_dump_ordinal{0};
    std::string last_auto_dump;
};

FlightRecorder::FlightRecorder() : impl_(new Impl) {}

FlightRecorder& FlightRecorder::instance() {
    // Leaked on purpose: threads may note() during static destruction.
    static FlightRecorder* const rec = new FlightRecorder();
    return *rec;
}

std::int64_t FlightRecorder::now_us() const { return obs_now_us(); }

void FlightRecorder::note(const char* name, const char* cat, std::int64_t a0, std::int64_t a1) {
    impl_->rings.local()->push({name, cat, obs_now_us(), a0, a1});
}

std::uint64_t FlightRecorder::note_count() const { return impl_->rings.count(); }

void FlightRecorder::dump(std::ostream& os) const {
    ChromeTraceWriter w(os);
    for (const auto* ring : impl_->rings.rings()) {
        w.thread_name(ring->tid, "flight " + std::to_string(ring->tid));
        ring->read([&](const Impl::Note& n) {
            w.event({n.name, n.cat != nullptr ? n.cat : "flight", 'i', ring->tid, n.ts_us, 0, 0,
                     {{"a0", n.a0}, {"a1", n.a1}}, 2});
        });
    }
}

bool FlightRecorder::dump_file(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    if (os) dump(os);
    return os.flush().good();
}

void FlightRecorder::set_auto_dump_path(const std::string& path) {
    std::lock_guard<std::mutex> lock(impl_->mu_);
    impl_->dump_path = path;
    impl_->dump_path_set = true;
}

std::string FlightRecorder::auto_dump_path() const {
    {
        std::lock_guard<std::mutex> lock(impl_->mu_);
        if (impl_->dump_path_set) return impl_->dump_path;
    }
    const char* env = std::getenv("BALSORT_FLIGHT_DUMP");
    return env != nullptr ? std::string(env) : std::string();
}

std::string FlightRecorder::auto_dump(const char* why) {
    note("flight.dump", why);
    const std::string configured = auto_dump_path();
    if (configured.empty()) return {};
    // The pid separates processes sharing one configured path (chaos-replay
    // forks); the ordinal separates one process's dumps (failing jobs).
    const std::uint64_t k = impl_->auto_dump_ordinal.fetch_add(1, std::memory_order_relaxed) + 1;
    std::filesystem::path path(configured);
    std::ostringstream suffix;
    suffix << '.' << ::getpid() << '.' << k << path.extension().string();
    path.replace_extension() += suffix.str();
    if (!dump_file(path.string())) return {};
    std::lock_guard<std::mutex> lock(impl_->mu_);
    impl_->last_auto_dump = path.string();
    return impl_->last_auto_dump;
}

std::string FlightRecorder::last_auto_dump_path() const {
    std::lock_guard<std::mutex> lock(impl_->mu_);
    return impl_->last_auto_dump;
}

} // namespace balsort

#endif // BALSORT_NO_OBS
