#include "obs/profiler.hpp"

#ifndef BALSORT_NO_OBS

#include <cerrno>
#include <cstring>
#include <sys/time.h>
#include <ucontext.h>

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "obs/event_ring.hpp"
#include "obs/tracer.hpp"

namespace balsort {

namespace {

/// The profiler the SIGPROF handler samples into: set by start(), cleared
/// by the final stop(). The handler's acquire load pairs with start().
std::atomic<Profiler*> g_active_profiler{nullptr};

/// One captured stack, the profiler's ring payload.
struct Sample {
    static constexpr std::uint32_t kMaxFrames = 48;
    std::int64_t ts_us;
    std::uint32_t n;
    void* frames[kMaxFrames]; ///< leaf (the interrupted PC) first
};

/// The PC the signal interrupted; nullptr where the ucontext is unknown.
void* interrupted_pc(void* uctx) {
    const auto* uc = static_cast<const ucontext_t*>(uctx);
#if defined(__x86_64__)
    return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
    (void)uc;
    return nullptr;
#endif
}

/// Demangled symbol for one code address, via dladdr. Falls back to the
/// object's basename+offset, then to a hex literal — always non-empty and
/// deterministic for a fixed process image.
std::string symbolize_addr(void* addr) {
    Dl_info info{};
    if (dladdr(addr, &info) != 0 && info.dli_sname != nullptr) {
        int status = 0;
        char* dem = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
        if (status == 0 && dem != nullptr) {
            std::string out(dem);
            std::free(dem);
            return out;
        }
        return info.dli_sname;
    }
    std::ostringstream os;
    auto offset = reinterpret_cast<std::uintptr_t>(addr);
    if (info.dli_fname != nullptr) {
        const char* base = std::strrchr(info.dli_fname, '/');
        os << (base != nullptr ? base + 1 : info.dli_fname) << '+';
        offset -= reinterpret_cast<std::uintptr_t>(info.dli_fbase);
    }
    os << "0x" << std::hex << offset;
    return os.str();
}

const ProfilerConfig& checked(const ProfilerConfig& cfg) {
    if (cfg.hz == 0) throw std::invalid_argument("Profiler: hz must be positive");
    if (cfg.ring_slots == 0 || (cfg.ring_slots & (cfg.ring_slots - 1)) != 0) {
        throw std::invalid_argument("Profiler: ring_slots must be a power of two");
    }
    if (cfg.max_threads == 0) throw std::invalid_argument("Profiler: max_threads must be positive");
    return cfg;
}

} // namespace

struct Profiler::Impl {
    explicit Impl(const ProfilerConfig& c)
        : cfg(c), rings(c.ring_slots, /*bounded=*/true, c.max_threads) {}

    ProfilerConfig cfg;
    EventRings<Sample> rings; ///< preallocated, claimed by the handler
    std::atomic<std::uint64_t> dropped{0};
    // start()/stop() bookkeeping — driver-thread side only, mutex-guarded.
    std::mutex mu;
    int nesting = 0;
    struct sigaction prev_sa {};
    struct itimerval prev_timer {};
    // Symbols for folded()/emit_to_tracer. Map nodes keep each c_str()
    // stable, as the Tracer's static-lifetime string contract needs.
    mutable std::mutex sym_mu;
    mutable std::map<void*, std::string> syms;

    /// The one sample store path, for the SIGPROF handler and
    /// record_sample_for_test alike: no allocation, no locks.
    void store(void* const* frames, std::uint32_t n) {
        auto* ring = rings.local_preallocated();
        if (ring == nullptr || n == 0) {
            dropped.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        Sample s{};
        s.ts_us = obs_now_us();
        s.n = std::min(n, Sample::kMaxFrames);
        std::memcpy(s.frames, frames, s.n * sizeof(void*));
        ring->push(s);
    }

    /// Every surviving sample with its ring's row. Call after stop().
    std::vector<std::pair<std::uint32_t, Sample>> collect() const {
        std::vector<std::pair<std::uint32_t, Sample>> out;
        for (const auto* ring : rings.rings()) {
            ring->read([&](const Sample& s) { out.emplace_back(ring->tid, s); });
        }
        return out;
    }

    /// Restores the previous timer and handler, then clears the active
    /// slot; a handler already in flight still sees valid rings.
    void disarm() {
        setitimer(ITIMER_PROF, &prev_timer, nullptr);
        sigaction(SIGPROF, &prev_sa, nullptr);
        g_active_profiler.store(nullptr, std::memory_order_release);
    }

    /// One address's symbol, alive as long as the profiler. Caller holds sym_mu.
    const char* intern(void* addr) const {
        auto [it, fresh] = syms.try_emplace(addr);
        if (fresh) it->second = symbolize_addr(addr);
        return it->second.c_str();
    }
};

Profiler::Profiler(ProfilerConfig cfg) : impl_(new Impl(checked(cfg))) {}

Profiler::~Profiler() {
    {
        // Still armed is a caller bug, but leaving the handler pointed at
        // freed rings would turn it into a crash.
        std::lock_guard<std::mutex> lock(impl_->mu);
        if (impl_->nesting > 0) impl_->disarm();
    }
    delete impl_;
}

const ProfilerConfig& Profiler::config() const { return impl_->cfg; }

bool Profiler::running() const {
    return g_active_profiler.load(std::memory_order_acquire) == this;
}

std::uint64_t Profiler::sample_count() const { return impl_->rings.count(); }

std::uint64_t Profiler::dropped_samples() const {
    return impl_->dropped.load(std::memory_order_relaxed);
}

void Profiler::signal_handler(int, siginfo_t*, void* uctx) {
    // Async-signal-safe: an acquire load, an unwind, ring stores. errno is
    // saved: the interrupted code may be between a syscall and its check.
    const int saved_errno = errno;
    if (Profiler* p = g_active_profiler.load(std::memory_order_acquire)) {
        void* frames[Sample::kMaxFrames];
        void** end = frames + std::max(0, ::backtrace(frames, static_cast<int>(Sample::kMaxFrames)));
        // Attribute the sample to the code it interrupted: the stack starts
        // at the PC, below this handler and the signal trampoline.
        void* pc = interrupted_pc(uctx);
        void** leaf = pc != nullptr ? std::find(frames, end, pc) : frames;
        if (leaf == end && pc != nullptr) {
            p->impl_->store(&pc, 1); // the unwinder never reached the PC
        } else {
            p->impl_->store(leaf, static_cast<std::uint32_t>(end - leaf));
        }
    }
    errno = saved_errno;
}

void Profiler::record_sample_for_test(void* const* frames, std::uint32_t n_frames) {
    impl_->store(frames, n_frames);
}

void Profiler::start() {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->nesting > 0) {
        ++impl_->nesting; // nested start on the same profiler: refcount
        return;
    }
    Profiler* expected = nullptr;
    if (!g_active_profiler.compare_exchange_strong(expected, this, std::memory_order_acq_rel)) {
        throw std::runtime_error("Profiler: another profiler is already armed "
                                 "(one process-wide SIGPROF sampler)");
    }

    // Preload backtrace()'s unwinder: its *first* call may dlopen
    // libgcc_s, which allocates — not something a signal handler may do.
    void* warm[4];
    (void)::backtrace(warm, 4);

    struct sigaction sa {};
    sa.sa_sigaction = &Profiler::signal_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART | SA_SIGINFO;
    if (sigaction(SIGPROF, &sa, &impl_->prev_sa) != 0) {
        g_active_profiler.store(nullptr, std::memory_order_release);
        throw std::runtime_error("Profiler: sigaction(SIGPROF) failed");
    }

    const long interval_us = std::max<long>(1, 1000000L / impl_->cfg.hz);
    struct itimerval timer {};
    timer.it_interval.tv_sec = interval_us / 1000000L;
    timer.it_interval.tv_usec = interval_us % 1000000L;
    timer.it_value = timer.it_interval;
    if (setitimer(ITIMER_PROF, &timer, &impl_->prev_timer) != 0) {
        sigaction(SIGPROF, &impl_->prev_sa, nullptr);
        g_active_profiler.store(nullptr, std::memory_order_release);
        throw std::runtime_error("Profiler: setitimer(ITIMER_PROF) failed");
    }
    impl_->nesting = 1;
}

void Profiler::stop() {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->nesting == 0) return; // unmatched stop: tolerate
    if (--impl_->nesting == 0) impl_->disarm();
}

void Profiler::folded(std::ostream& os) const {
    // Aggregate identical stacks on raw addresses first (cheap), then
    // symbolize each unique stack once, re-merging stacks whose symbolized
    // forms collide (adjacent addresses inside one function).
    std::map<std::vector<void*>, std::uint64_t> by_addr;
    for (const auto& [tid, s] : impl_->collect()) ++by_addr[{s.frames, s.frames + s.n}];

    std::lock_guard<std::mutex> lock(impl_->sym_mu);
    std::map<std::string, std::uint64_t> by_stack;
    for (const auto& [frames, count] : by_addr) {
        std::string line;
        // Folded format is root-first; samples are stored leaf-first.
        for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
            const char* sym = impl_->intern(*it);
            if (!line.empty()) line += ';';
            // Semicolons and spaces are the format's structure; squash any
            // that appear inside a symbol (operator overloads, lambdas).
            for (const char* c = sym; *c != '\0'; ++c) {
                line += (*c == ';' || *c == ' ' || *c == '\n') ? '_' : *c;
            }
        }
        by_stack[line] += count;
    }

    // Deterministic order: descending count, then lexicographic.
    std::vector<std::pair<std::string, std::uint64_t>> rows(by_stack.begin(), by_stack.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return std::tie(b.second, a.first) < std::tie(a.second, b.first);
    });
    for (const auto& [stack, count] : rows) os << stack << ' ' << count << '\n';
}

std::string Profiler::folded_string() const {
    std::ostringstream os;
    folded(os);
    return os.str();
}

bool Profiler::folded_file(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    if (os) folded(os);
    return os.flush().good();
}

std::uint64_t Profiler::emit_to_tracer(Tracer* t) const {
    if (t == nullptr) return 0;
    const auto samples = impl_->collect();
    std::lock_guard<std::mutex> lock(impl_->sym_mu);
    for (const auto& [tid, s] : samples) {
        // Named after the sample's leaf: the interrupted function.
        t->emit({impl_->intern(s.frames[0]), "profile", 'i', t->lane("profile " + std::to_string(tid)),
                 s.ts_us, 0, 0, {{"frames", s.n}}, 1});
    }
    return samples.size();
}

} // namespace balsort

#endif // BALSORT_NO_OBS
