#include "obs/event_ring.hpp"

#include <ostream>

#include "obs/json.hpp"

namespace balsort {

std::int64_t obs_ts_us(std::chrono::steady_clock::time_point tp) {
    static const std::chrono::steady_clock::time_point base = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::microseconds>(tp - base).count();
}

std::int64_t obs_now_us() { return obs_ts_us(std::chrono::steady_clock::now()); }

// Fixes the epoch at load time, before any timestamp a caller could take
// and before any signal handler could be the first reader.
[[maybe_unused]] const std::int64_t g_obs_epoch_fixed = obs_now_us();

namespace detail {

namespace {

/// A claim-cache entry. A fill marks it busy first, so a SIGPROF handler
/// interrupting the fill never takes or matches a half-written entry.
struct Claim {
    std::atomic<std::uint64_t> owner{0}; ///< 0 = free
    std::atomic<void*> ring{nullptr};
    std::atomic<std::uint64_t> used{0}; ///< LRU stamp
};
constexpr std::uint64_t kBusy = ~std::uint64_t{0};

/// The thread's claims. Room for the recorders a thread writes to at once;
/// evicting a live claim only costs its owner a fresh ring.
thread_local struct {
    Claim claims[8];
    std::atomic<std::uint64_t> clock{0}; ///< LRU stamps
} tl_cache;

std::uint64_t tick() { return tl_cache.clock.fetch_add(1, std::memory_order_relaxed) + 1; }

std::atomic<std::uint64_t> g_ring_owner{0};

} // namespace

std::uint64_t next_ring_owner() { return g_ring_owner.fetch_add(1, std::memory_order_relaxed) + 1; }

void* find_claim(std::uint64_t owner) {
    for (Claim& c : tl_cache.claims) {
        if (c.owner.load() != owner) continue;
        void* ring = c.ring.load();
        // A signal handler may have re-filled the entry between the loads.
        if (c.owner.load() != owner) return nullptr;
        c.used.store(tick(), std::memory_order_relaxed);
        return ring;
    }
    return nullptr;
}

void put_claim(std::uint64_t owner, void* ring) {
    Claim* victim = nullptr;
    for (Claim& c : tl_cache.claims) {
        if (c.owner.load() == kBusy) continue;
        if (victim == nullptr ||
            c.used.load(std::memory_order_relaxed) < victim->used.load(std::memory_order_relaxed)) {
            victim = &c;
        }
    }
    if (victim == nullptr) return; // every entry mid-fill: claim again next event
    victim->owner.store(kBusy);
    victim->ring.store(ring);
    victim->used.store(tick(), std::memory_order_relaxed);
    victim->owner.store(owner);
}

} // namespace detail

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : os_(os) { os_ << "{\"traceEvents\":["; }

ChromeTraceWriter::~ChromeTraceWriter() { os_ << "]}"; }

void ChromeTraceWriter::thread_name(std::uint32_t tid, std::string_view name) {
    os_ << (first_ ? "" : ",") << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"";
    write_json_escaped(os_, name);
    os_ << "\"}}";
    first_ = false;
}

void ChromeTraceWriter::event(const TraceEvent& ev) {
    os_ << (first_ ? "" : ",") << "{\"name\":\"";
    first_ = false;
    write_json_escaped(os_, ev.name != nullptr ? ev.name : "");
    os_ << "\",\"cat\":\"";
    write_json_escaped(os_, ev.cat != nullptr ? ev.cat : "");
    os_ << "\",\"ph\":\"" << ev.phase << "\",\"pid\":1,\"tid\":" << ev.tid << ",\"ts\":" << ev.ts_us;
    if (ev.phase == 'X') os_ << ",\"dur\":" << ev.dur_us;
    if (ev.phase == 'b' || ev.phase == 'e') os_ << ",\"id\":" << ev.id;
    // Instants are thread-scoped: a tick on their row, not a full-height line.
    if (ev.phase == 'i') os_ << ",\"s\":\"t\"";
    if (ev.n_args > 0) {
        os_ << ",\"args\":{";
        for (std::uint8_t i = 0; i < ev.n_args; ++i) {
            os_ << (i > 0 ? ",\"" : "\"");
            write_json_escaped(os_, ev.args[i].key != nullptr ? ev.args[i].key : "");
            os_ << "\":" << ev.args[i].value;
        }
        os_ << '}';
    }
    os_ << '}';
}

} // namespace balsort
