#include "core/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <concepts>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <tuple>
#include <type_traits>

#include "core/sort_pipeline.hpp"
#include "obs/metrics.hpp"
#include "pdm/checksum.hpp"

namespace balsort {

namespace {

constexpr char kMagic[8] = {'B', 'S', 'C', 'K', 'P', 'T', '1', '\0'};

// ---------------------------------------------------------------------------
// Payload wire format: fixed-width little-endian fields appended in struct
// order, vectors as u64 count + elements, bools as one byte, doubles as
// their IEEE-754 bit pattern. The file is consumed by the process (or a
// successor process on the same machine) that wrote it, so no cross-endian
// provision is made.
//
// Each structure's field list is written once, as a `fields(ar, x)`
// overload over the archive: Enc runs it to append the fields, Dec to read
// them back in the same order. An archive's operator() takes a value with
// no padding (a number, a std::array of numbers) as its raw bytes and any
// other structure through its `fields` overload (found by argument-
// dependent lookup on the archive). `seq` is a count-prefixed vector taken
// element by element, `flat` one whose elements travel as raw bytes.
// ---------------------------------------------------------------------------

class Enc {
public:
    template <class... T>
    void operator()(const T&... v) { (one(v), ...); }
    /// `min_wire` bounds the decoder's count; the encoder has no use for it.
    template <class R>
    void seq(const R& v, std::uint64_t /*min_wire*/) {
        one(static_cast<std::uint64_t>(std::size(v)));
        for (const auto& x : v) one(x);
    }
    template <class T>
    void flat(const std::vector<T>& v) {
        static_assert(std::has_unique_object_representations_v<T>, "flat: padded element");
        one(static_cast<std::uint64_t>(v.size()));
        raw(v.data(), v.size() * sizeof(T));
    }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
    template <class T>
    void one(const T& v) {
        if constexpr (std::is_arithmetic_v<T> || std::has_unique_object_representations_v<T>) {
            raw(&v, sizeof v);
        } else {
            fields(*this, v);
        }
    }
    void raw(const void* p, std::size_t n) {
        const auto* c = static_cast<const std::uint8_t*>(p);
        buf_.insert(buf_.end(), c, c + n);
    }

    std::vector<std::uint8_t> buf_;
};

class Dec {
public:
    Dec(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}
    template <class... T>
    void operator()(T&... v) { (one(v), ...); }
    template <class T>
    void seq(std::vector<T>& v, std::uint64_t min_wire) {
        const std::uint64_t n = count(min_wire);
        v.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
            T x{};
            one(x);
            v.push_back(std::move(x));
        }
    }
    template <class T>
    void flat(std::vector<T>& v) {
        const std::uint64_t n = count(sizeof(T));
        v.resize(static_cast<std::size_t>(n));
        if (n > 0) std::memcpy(v.data(), take(n * sizeof(T)), n * sizeof(T));
    }
    /// A u64 element count, refused when the remaining payload cannot hold
    /// that many elements of at least `min_wire` bytes each.
    std::uint64_t count(std::uint64_t min_wire) {
        std::uint64_t n = 0;
        one(n);
        if (n > static_cast<std::uint64_t>(end_ - p_) / min_wire) {
            throw IoError("checkpoint: implausible element count (corrupt record?)");
        }
        return n;
    }
    bool done() const { return p_ == end_; }

private:
    template <class T>
    void one(T& v) {
        if constexpr (std::is_same_v<T, bool>) {
            v = *take(1) != 0;
        } else if constexpr (std::is_arithmetic_v<T> ||
                             std::has_unique_object_representations_v<T>) {
            std::memcpy(&v, take(sizeof v), sizeof v);
        } else {
            fields(*this, v);
        }
    }
    const std::uint8_t* take(std::size_t n) {
        if (static_cast<std::size_t>(end_ - p_) < n) {
            throw IoError("checkpoint: truncated record payload");
        }
        const std::uint8_t* r = p_;
        p_ += n;
        return r;
    }

    const std::uint8_t* p_;
    const std::uint8_t* end_;
};

/// `S` is `T` or `const T`: one field list serves the encoder (const
/// record) and the decoder (record being filled).
template <class S, class T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

/// 12 wire bytes (16 in memory, with padding), so never `flat`.
template <class Ar, Of<BlockOp> S>
void fields(Ar& ar, S& op) {
    ar(op.disk, op.block);
}

// A VRun travels in its pre-flattening wire form: per virtual block its
// vdisk, its op list and its valid count. The decoder re-derives the flat
// layout and refuses any run that layout cannot express.
void fields(Enc& e, const VRun& run) {
    const std::uint32_t g = run.group();
    e(static_cast<std::uint64_t>(run.counts.size()));
    for (std::size_t k = 0; k < run.counts.size(); ++k) {
        const std::span<const BlockOp> ops = std::span<const BlockOp>(run.blocks).subspan(k * g, g);
        e(ops[0].disk / g);
        e.seq(ops, 12);
        e(run.counts[k]);
    }
    e(run.n_records);
}

void fields(Dec& d, VRun& run) {
    const std::uint64_t n = d.count(16);
    for (std::uint64_t k = 0; k < n; ++k) {
        std::uint32_t vdisk = 0, count = 0;
        std::vector<BlockOp> ops;
        d(vdisk);
        d.seq(ops, 12);
        d(count);
        if (ops.empty() || (k > 0 && ops.size() != run.group())) {
            throw IoError("checkpoint: bucket run has virtual blocks of unequal op count "
                          "(corrupt record?)");
        }
        if (vdisk != ops[0].disk / ops.size()) {
            throw IoError("checkpoint: virtual block's vdisk disagrees with its first op "
                          "(corrupt record?)");
        }
        run.append(ops, count);
    }
    d(run.n_records);
}

template <class Ar, Of<BucketOutput> S>
void fields(Ar& ar, S& bkt) {
    ar(bkt.run, bkt.min_key, bkt.max_key, bkt.is_equal_class, bkt.has_sketch_pivots);
    ar.flat(bkt.sketch_pivots.keys);
    ar(bkt.repositioned);
}

template <class Ar, Of<CheckpointFrame> S>
void fields(Ar& ar, S& f) {
    ar(f.n, f.depth, f.has_pivots);
    if (f.has_pivots) ar.flat(f.pivots.keys);
    ar(f.has_buckets);
    if (f.has_buckets) ar.seq(f.buckets, 1);
    ar(f.next_bucket);
}

template <class Ar, Of<IoStats> S>
void fields(Ar& ar, S& io) {
    ar(io.read_steps, io.write_steps, io.blocks_read, io.blocks_written, io.transient_retries,
       io.corrupt_blocks, io.reconstructions, io.degraded_writes, io.parity_blocks_written,
       io.rmw_reads, io.io_timeouts, io.engine_busy_seconds, io.engine_stall_seconds,
       io.async_block_ops, io.max_in_flight, io.prefetch_block_ops);
}

template <class Ar, Of<ChecksummedDisk::Sidecar> S>
void fields(Ar& ar, S& s) {
    ar.flat(s.crcs);
    ar.seq(s.has_crc, 1);
    ar.seq(s.lost, 1);
}

template <class Ar, Of<FaultInjectingDisk::State> S>
void fields(Ar& ar, S& s) {
    ar(s.read_rng, s.write_rng, s.hang_rng, s.ops, s.hang_ops, s.dead, s.read_errors,
       s.write_errors, s.torn_writes, s.bit_flips, s.hangs);
}

template <class Ar, Of<DiskArraySnapshot::PerDisk> S>
void fields(Ar& ar, S& pd) {
    ar(pd.next_free);
    ar.flat(pd.free_blocks);
    ar(pd.health.alive, pd.health.transient_retries, pd.health.corrupt_blocks,
       pd.health.reconstructions, pd.health.degraded_writes);
    ar.flat(pd.parity_carried);
    ar(pd.has_fault_state);
    if (pd.has_fault_state) ar(pd.fault_state);
    ar(pd.has_sidecar);
    if (pd.has_sidecar) ar(pd.sidecar);
    ar(pd.has_image);
    if (pd.has_image) ar.flat(pd.image);
}

template <class Ar, Of<DiskArraySnapshot> S>
void fields(Ar& ar, S& snap) {
    ar.seq(snap.disks, 1);
    ar(snap.has_parity_sidecar);
    if (snap.has_parity_sidecar) ar(snap.parity_sidecar);
    ar(snap.has_parity_image);
    if (snap.has_parity_image) ar.flat(snap.parity_image);
}

template <class Ar, Of<CheckpointRecord> S>
void fields(Ar& ar, S& r) {
    ar(r.seq, r.resumes, r.n, r.m, r.p, r.d, r.b, r.dv, r.backend, r.synchronized_writes);
    ar.seq(r.frames, 1);
    ar.seq(r.out_run.blocks, 12);
    ar(r.out_run.n_records);
    ar.flat(r.out_buffer);
    ar(r.out_next_disk, r.comparisons, r.moves, r.collectives, r.pram_steps, r.io_delta);
    ar(r.levels, r.s_used, r.base_cases, r.equal_class_records, r.max_bucket_records,
       r.bucket_bound, r.worst_bucket_read_ratio);
    auto& bal = r.balance;
    ar(bal.tracks, bal.direct_blocks, bal.matched_blocks, bal.deferred_blocks,
       bal.rearrange_rounds, bal.max_rounds_per_track, bal.match_draws, bal.invariant1_held,
       bal.invariant2_held);
    ar(r.disks);
}

/// Removes the tmp file on every unwind path until disarmed — the RAII
/// scratch guard the orphan test exercises.
class UnlinkGuard {
public:
    explicit UnlinkGuard(std::string path) : path_(std::move(path)) {}
    ~UnlinkGuard() {
        if (armed_) ::unlink(path_.c_str());
    }
    void disarm() { armed_ = false; }
    UnlinkGuard(const UnlinkGuard&) = delete;
    UnlinkGuard& operator=(const UnlinkGuard&) = delete;

private:
    std::string path_;
    bool armed_ = true;
};

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
    std::ostringstream os;
    os << "checkpoint: " << what << " '" << path << "': " << std::strerror(errno);
    throw IoError(os.str());
}

} // namespace

std::vector<std::uint8_t> encode_checkpoint(const CheckpointRecord& rec) {
    Enc e;
    e(rec);
    return e.take();
}

CheckpointRecord decode_checkpoint(const std::uint8_t* data, std::size_t len) {
    Dec d(data, len);
    CheckpointRecord rec;
    d(rec);
    if (!d.done()) throw IoError("checkpoint: trailing bytes after record (corrupt?)");
    return rec;
}

void write_checkpoint_atomic(const std::string& path, const CheckpointRecord& rec) {
    const std::vector<std::uint8_t> payload = encode_checkpoint(rec);
    const std::uint32_t crc = crc32(payload.data(), payload.size());
    const std::uint64_t len = payload.size();

    const std::string tmp = path + ".tmp";
    UnlinkGuard guard(tmp);
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) throw_errno("cannot create", tmp);
    {
        // Frame: magic, payload length, payload CRC, payload.
        std::vector<std::uint8_t> head(sizeof(kMagic) + 8 + 4);
        std::memcpy(head.data(), kMagic, sizeof(kMagic));
        std::memcpy(head.data() + 8, &len, 8);
        std::memcpy(head.data() + 16, &crc, 4);
        auto write_all = [&](const std::uint8_t* p, std::size_t n) {
            while (n > 0) {
                const ssize_t w = ::write(fd, p, n);
                if (w < 0) {
                    if (errno == EINTR) continue;
                    const int saved = errno;
                    ::close(fd);
                    errno = saved;
                    throw_errno("write failed", tmp);
                }
                p += w;
                n -= static_cast<std::size_t>(w);
            }
        };
        write_all(head.data(), head.size());
        write_all(payload.data(), payload.size());
    }
    if (::fsync(fd) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throw_errno("fsync failed", tmp);
    }
    if (::close(fd) != 0) throw_errno("close failed", tmp);
    if (::rename(tmp.c_str(), path.c_str()) != 0) throw_errno("rename failed", path);
    guard.disarm();
    // Durability of the rename itself: fsync the directory (best effort —
    // some filesystems reject O_RDONLY|O_DIRECTORY fsync; the record is
    // still crash-consistent, just possibly the previous one).
    std::string dir = path;
    const std::size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? std::string(".") : dir.substr(0, slash == 0 ? 1 : slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

CheckpointRecord load_checkpoint(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError("checkpoint: cannot open '" + path + "'");
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (bytes.size() < sizeof(kMagic) + 12) throw IoError("checkpoint: file too short: " + path);
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
        throw IoError("checkpoint: bad magic (not a checkpoint file): " + path);
    }
    std::uint64_t len = 0;
    std::uint32_t crc = 0;
    std::memcpy(&len, bytes.data() + 8, 8);
    std::memcpy(&crc, bytes.data() + 16, 4);
    if (bytes.size() != sizeof(kMagic) + 12 + len) {
        throw IoError("checkpoint: length mismatch (truncated write?): " + path);
    }
    const auto* payload = reinterpret_cast<const std::uint8_t*>(bytes.data()) + 20;
    if (crc32(payload, static_cast<std::size_t>(len)) != crc) {
        throw IoError("checkpoint: payload CRC mismatch (torn or corrupt): " + path);
    }
    return decode_checkpoint(payload, static_cast<std::size_t>(len));
}

// ---------------------------------------------------------------------------
// Checkpointer
// ---------------------------------------------------------------------------

namespace {

/// A record's configuration echo, validated on resume...
auto config_echo(CheckpointRecord& r) {
    return std::tie(r.n, r.m, r.p, r.d, r.b, r.dv, r.backend, r.synchronized_writes);
}

/// ...and the live sort's values for it.
auto config_echo(const DriverState& st) {
    return std::make_tuple(st.cfg.n, st.cfg.m, st.cfg.p, st.disks.num_disks(),
                           st.disks.block_size(), st.vdisks.count(),
                           static_cast<std::uint8_t>(st.disks.backend()),
                           std::uint8_t{st.job.io_policy.synchronized_writes});
}

/// The SortReport partials the meters cannot rederive; CheckpointRecord
/// and SortReport name them alike.
template <class R>
auto report_partials(R& r) {
    return std::tie(r.levels, r.s_used, r.base_cases, r.equal_class_records, r.max_bucket_records,
                    r.bucket_bound, r.worst_bucket_read_ratio, r.balance);
}

} // namespace

Checkpointer::Checkpointer(std::string path, DriverState& st, IoStats io_before)
    : path_(std::move(path)), st_(st), io_before_(io_before) {}

void Checkpointer::resume(const std::string& path, ResumeCursor& cursor) {
    CheckpointRecord rec = load_checkpoint(path);
    BS_REQUIRE(config_echo(rec) == config_echo(st_),
               "resume: checkpoint was written under a different configuration");
    st_.disks.restore(rec.disks);
    st_.meter.add_comparisons(rec.comparisons);
    st_.meter.add_moves(rec.moves);
    st_.meter.add_collectives(rec.collectives);
    st_.cost.charge_steps(rec.pram_steps);
    st_.out.restore(std::move(rec.out_run), std::move(rec.out_buffer), rec.out_next_disk);
    if (st_.report != nullptr) report_partials(*st_.report) = report_partials(rec);
    seq_ = rec.seq;
    resumes_ = rec.resumes + 1;
    io_resumed_ = rec.io_delta;
    for (auto& frame : rec.frames) cursor.frames.push_back(std::move(frame));
    if (MetricsRegistry* reg = metrics(); reg != nullptr) {
        reg->counter("recovery.resumes").add();
    }
}

CheckpointRecord Checkpointer::capture() const {
    CheckpointRecord rec;
    rec.seq = seq_;
    rec.resumes = resumes_;
    config_echo(rec) = config_echo(st_);

    rec.frames.reserve(st_.frames.size());
    for (const PipelineFrame& pf : st_.frames) {
        CheckpointFrame f;
        f.n = pf.n;
        f.depth = pf.depth;
        f.next_bucket = pf.next_bucket;
        f.has_pivots = pf.pivots != nullptr;
        if (f.has_pivots) f.pivots = *pf.pivots;
        f.has_buckets = pf.buckets != nullptr;
        if (f.has_buckets) {
            f.buckets.reserve(pf.buckets->size());
            // A consumed bucket (blocks released) keeps its slot so indices
            // line up, but carries no storage.
            for (std::size_t i = 0; i < pf.buckets->size(); ++i) {
                f.buckets.push_back(i < pf.next_bucket ? BucketOutput{} : (*pf.buckets)[i]);
            }
        }
        rec.frames.push_back(std::move(f));
    }

    rec.out_run = st_.out.run();
    rec.out_buffer = st_.out.buffer();
    rec.out_next_disk = st_.out.next_disk();

    rec.comparisons = st_.meter.comparisons();
    rec.moves = st_.meter.moves();
    rec.collectives = st_.meter.collectives();
    rec.pram_steps = st_.cost.steps();
    rec.io_delta = io_resumed_;
    rec.io_delta += st_.disks.job_stats() - io_before_;
    if (st_.report != nullptr) report_partials(rec) = report_partials(*st_.report);

    rec.disks = st_.disks.snapshot();
    return rec;
}

void Checkpointer::boundary() {
    // Order is the crash-consistency contract (DESIGN.md §13): (1) every
    // in-flight block op lands before the state that references it is
    // captured; (2) blocks released since the last boundary actually enter
    // the allocator — a mid-epoch reuse would let a crash replay read
    // overwritten data; (3) capture; (4) durable write; (5) crash hook.
    st_.disks.drain_async();
    st_.disks.flush_release_quarantine();
    ++seq_;
    const CheckpointRecord rec = capture();
    write_checkpoint_atomic(path_, rec);
    if (MetricsRegistry* reg = metrics(); reg != nullptr) {
        reg->counter("recovery.checkpoints_written").add();
    }
    if (const auto& hook = st_.job.durability_policy.on_checkpoint; hook) hook(seq_);
}

} // namespace balsort
