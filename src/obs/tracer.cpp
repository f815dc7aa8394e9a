#include "obs/tracer.hpp"

#include <fstream>

namespace balsort {

namespace detail {
std::atomic<Tracer*> g_tracer{nullptr};
// Tracers ever constructed: the install-slot validity check in tracer()
// (see the declaration in tracer.hpp).
std::atomic<std::uint64_t> g_tracer_epoch{0};
} // namespace detail

Tracer::Tracer() { detail::g_tracer_epoch.fetch_add(1, std::memory_order_relaxed); }

std::uint32_t Tracer::lane(const std::string& name) {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [n, tid] : lanes_) {
        if (n == name) return tid;
    }
    const auto tid = static_cast<std::uint32_t>(1000 + lanes_.size());
    lanes_.emplace_back(name, tid);
    return tid;
}

void Tracer::emit(TraceEvent ev) {
    auto* ring = rings_.local();
    if (ev.tid == 0) ev.tid = ring->tid;
    ring->push(ev);
}

void Tracer::point(char phase, const char* name, const char* cat, std::uint64_t id,
                   std::uint32_t lane_tid, std::initializer_list<TraceArg> args) {
    TraceEvent ev{name, cat, phase, lane_tid, now_us(), 0, id, {}, 0};
    for (const TraceArg& a : args) {
        if (ev.n_args < 4) ev.args[ev.n_args++] = a;
    }
    emit(ev);
}

void Tracer::write_chrome_trace(std::ostream& os) const {
    std::lock_guard<std::mutex> lk(mu_);
    ChromeTraceWriter w(os);
    for (const auto& [name, tid] : lanes_) w.thread_name(tid, name);
    for (const auto* ring : rings_.rings()) {
        if (ring->count() == 0) continue;
        w.thread_name(ring->tid, "thread " + std::to_string(ring->tid));
        ring->read([&w](const TraceEvent& ev) { w.event(ev); });
    }
}

bool Tracer::write_chrome_trace_file(const std::string& path) const {
    std::ofstream os(path);
    if (os) write_chrome_trace(os);
    return os.good();
}

TracerInstallGuard::TracerInstallGuard(Tracer* t) {
    if (t != nullptr) {
        prev_ = detail::g_tracer.exchange(t, std::memory_order_acq_rel);
        active_ = true;
    }
}

TracerInstallGuard::~TracerInstallGuard() {
    if (active_) detail::g_tracer.store(prev_, std::memory_order_release);
}

} // namespace balsort
