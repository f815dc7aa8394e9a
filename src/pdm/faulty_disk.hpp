#pragma once
/// \file faulty_disk.hpp
/// Deterministic fault injection for the PDM layer (DESIGN.md §8).
///
/// `FaultInjectingDisk` decorates any `Disk` and injects the fault
/// taxonomy a storage engineer plans for:
///   * transient read/write errors   -> throws TransientIoError (retryable)
///   * permanent disk death          -> throws DiskFailed forever after
///   * torn writes                   -> silently persists only a prefix
///   * silent bit flips              -> silently flips one bit of a write
///
/// Every decision comes from private xoshiro256** streams seeded from
/// (FaultSpec::seed, disk_id), so a given seed reproduces the *identical*
/// fault sequence for an identical operation sequence — fault scenarios
/// are as replayable as the sort itself (the library-wide determinism
/// contract of DESIGN.md §5.9 extended to failures). To keep the stream
/// alignment independent of which fault kinds are enabled, every read
/// draws exactly one uniform and every write exactly three, plus extra
/// draws only when a silent corruption actually fires. Reads and writes
/// draw from *separate* streams: the async engine's prefetch reorders
/// reads relative to writes on a disk (never reads relative to reads, or
/// writes relative to writes), and per-kind streams keep the injected
/// rate-fault sequence identical whether or not the engine is on
/// (DESIGN.md §9). `die_after_ops` counts ops of both kinds and is the
/// one knob that remains sensitive to cross-kind order.

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>

#include "pdm/disk.hpp"
#include "util/random.hpp"

namespace balsort {

/// Per-disk fault model; all rates are probabilities in [0, 1].
struct FaultSpec {
    std::uint64_t seed = 0;          ///< base seed of the injection stream
    double read_transient_rate = 0;  ///< P[read throws TransientIoError]
    double write_transient_rate = 0; ///< P[write throws before persisting]
    double torn_write_rate = 0;      ///< P[write persists only a prefix, silently]
    double bit_flip_rate = 0;        ///< P[write lands with one bit flipped, silently]
    std::uint64_t die_after_ops = 0; ///< permanent death after this many ops (0 = never)

    // --- hang faults (DESIGN.md §8, §13) ---
    // A hung read stalls for `hang_duration_us` and then completes
    // *successfully* — the device did not fail, it was just slow, which is
    // precisely the fault a deadline must catch (no error ever surfaces).
    // Hangs draw from a third RNG stream and a separate op counter so that
    // enabling them leaves the transient/torn/flip sequences of a given
    // seed untouched.
    double read_hang_rate = 0;        ///< P[read stalls for hang_duration_us]
    std::uint64_t hang_every_ops = 0; ///< deterministic: every k-th read hangs (0 = off)
    std::uint64_t hang_duration_us = 0; ///< stall length in microseconds

    bool any_faults() const {
        return read_transient_rate > 0 || write_transient_rate > 0 || torn_write_rate > 0 ||
               bit_flip_rate > 0 || die_after_ops > 0 || read_hang_rate > 0 ||
               hang_every_ops > 0;
    }
};

/// Disk decorator injecting `FaultSpec` faults deterministically.
class FaultInjectingDisk final : public Disk {
public:
    FaultInjectingDisk(std::unique_ptr<Disk> inner, const FaultSpec& spec, std::uint32_t disk_id);

    std::size_t block_size() const override { return inner_->block_size(); }
    /// Metadata stays readable even after death (a controller knows the
    /// geometry of a dead drive); only data transfers fail.
    std::uint64_t size_blocks() const override { return inner_->size_blocks(); }

    void read_block(std::uint64_t index, std::span<Record> out) const override;
    void write_block(std::uint64_t index, std::span<const Record> in) override;

    bool alive() const {
        std::lock_guard<std::mutex> lock(inject_mu_);
        return !dead_;
    }

    // ---- observability (tests assert on these) ----
    std::uint64_t ops_issued() const {
        std::lock_guard<std::mutex> lock(inject_mu_);
        return ops_;
    }
    std::uint64_t injected_read_errors() const {
        std::lock_guard<std::mutex> lock(inject_mu_);
        return injected_read_errors_;
    }
    std::uint64_t injected_write_errors() const {
        std::lock_guard<std::mutex> lock(inject_mu_);
        return injected_write_errors_;
    }
    std::uint64_t injected_hangs() const {
        std::lock_guard<std::mutex> lock(inject_mu_);
        return injected_hangs_;
    }

    /// Complete injection state, for checkpoint/restore: a resumed run must
    /// replay the *same* fault sequence the interrupted run would have seen
    /// (DESIGN.md §13). The FaultSpec itself is config, not state, and is
    /// echoed by the caller.
    struct State {
        std::array<std::uint64_t, 4> read_rng, write_rng, hang_rng;
        std::uint64_t ops = 0;
        std::uint64_t hang_ops = 0;
        bool dead = false;
        std::uint64_t read_errors = 0, write_errors = 0, torn_writes = 0, bit_flips = 0,
                      hangs = 0;
    };
    State export_state() const;
    void import_state(const State& s);

    Disk& inner() { return *inner_; }
    const Disk& inner() const { return *inner_; }

private:
    /// Caller must hold inject_mu_.
    void count_op_and_check_death_locked(const char* what, std::uint64_t index) const;

    std::unique_ptr<Disk> inner_;
    FaultSpec spec_;
    std::uint32_t disk_id_;
    // The injection decision state (RNG streams, op clocks, counters) is
    // shared between an engine worker and the main thread during deadline
    // failover (§13: the main thread reconstructs around a hung read while
    // the worker is still inside it), so it lives under inject_mu_. The
    // lock covers only the decision — never the injected stall or the
    // inner I/O — and a single-threaded run draws the identical sequence.
    // Mutable: read_block is const in the Disk interface, but injection
    // consumes the RNG stream and advances the op clock.
    mutable std::mutex inject_mu_;
    mutable Xoshiro256 read_rng_;
    Xoshiro256 write_rng_;
    mutable Xoshiro256 hang_rng_;
    mutable std::uint64_t ops_ = 0;
    mutable std::uint64_t hang_ops_ = 0;
    mutable bool dead_ = false;
    mutable std::uint64_t injected_read_errors_ = 0;
    std::uint64_t injected_write_errors_ = 0;
    std::uint64_t injected_torn_writes_ = 0;
    std::uint64_t injected_bit_flips_ = 0;
    mutable std::uint64_t injected_hangs_ = 0;
};

} // namespace balsort
