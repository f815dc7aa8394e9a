#include "core/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

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
// ---------------------------------------------------------------------------

class Enc {
public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u32(std::uint32_t v) { raw(&v, sizeof v); }
    void u64(std::uint64_t v) { raw(&v, sizeof v); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    void raw(const void* p, std::size_t n) {
        const auto* c = static_cast<const std::uint8_t*>(p);
        buf_.insert(buf_.end(), c, c + n);
    }
    void u64s(const std::vector<std::uint64_t>& v) {
        u64(v.size());
        if (!v.empty()) raw(v.data(), v.size() * sizeof(std::uint64_t));
    }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
    std::vector<std::uint8_t> buf_;
};

class Dec {
public:
    Dec(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}
    std::uint8_t u8() { return *take(1); }
    std::uint32_t u32() {
        std::uint32_t v;
        std::memcpy(&v, take(sizeof v), sizeof v);
        return v;
    }
    std::uint64_t u64() {
        std::uint64_t v;
        std::memcpy(&v, take(sizeof v), sizeof v);
        return v;
    }
    double f64() { return std::bit_cast<double>(u64()); }
    bool b() { return u8() != 0; }
    const std::uint8_t* take(std::size_t n) {
        if (static_cast<std::size_t>(end_ - p_) < n) {
            throw IoError("checkpoint: truncated record payload");
        }
        const std::uint8_t* r = p_;
        p_ += n;
        return r;
    }
    std::uint64_t count(std::uint64_t elem_size) {
        const std::uint64_t n = u64();
        if (elem_size != 0 && n > static_cast<std::uint64_t>(end_ - p_) / elem_size) {
            throw IoError("checkpoint: implausible element count (corrupt record?)");
        }
        return n;
    }
    std::vector<std::uint64_t> u64s() {
        const std::uint64_t n = count(sizeof(std::uint64_t));
        std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
        if (n > 0) std::memcpy(v.data(), take(n * sizeof(std::uint64_t)), n * sizeof(std::uint64_t));
        return v;
    }
    bool done() const { return p_ == end_; }

private:
    const std::uint8_t* p_;
    const std::uint8_t* end_;
};

void put_block_ops(Enc& e, std::span<const BlockOp> ops) {
    e.u64(ops.size());
    for (const BlockOp& op : ops) {
        e.u32(op.disk);
        e.u64(op.block);
    }
}

std::vector<BlockOp> get_block_ops(Dec& d) {
    const std::uint64_t n = d.count(12);
    std::vector<BlockOp> ops(static_cast<std::size_t>(n));
    for (auto& op : ops) {
        op.disk = d.u32();
        op.block = d.u64();
    }
    return ops;
}

void put_records(Enc& e, const std::vector<Record>& recs) {
    e.u64(recs.size());
    if (!recs.empty()) e.raw(recs.data(), recs.size() * sizeof(Record));
}

std::vector<Record> get_records(Dec& d) {
    const std::uint64_t n = d.count(sizeof(Record));
    std::vector<Record> recs(static_cast<std::size_t>(n));
    if (n > 0) std::memcpy(recs.data(), d.take(n * sizeof(Record)), n * sizeof(Record));
    return recs;
}

// A VRun travels in its pre-flattening wire form: per virtual block its
// vdisk, its op list and its valid count. The decoder re-derives the flat
// layout and refuses any run that layout cannot express.
void put_vrun(Enc& e, const VRun& run) {
    const std::uint32_t g = run.group();
    e.u64(run.counts.size());
    for (std::size_t k = 0; k < run.counts.size(); ++k) {
        const std::span<const BlockOp> ops = std::span<const BlockOp>(run.blocks).subspan(k * g, g);
        e.u32(ops[0].disk / g);
        put_block_ops(e, ops);
        e.u32(run.counts[k]);
    }
    e.u64(run.n_records);
}

VRun get_vrun(Dec& d) {
    VRun run;
    const std::uint64_t n = d.count(16);
    for (std::uint64_t k = 0; k < n; ++k) {
        const std::uint32_t vdisk = d.u32();
        const std::vector<BlockOp> ops = get_block_ops(d);
        const std::uint32_t count = d.u32();
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
    run.n_records = d.u64();
    return run;
}

void put_bucket(Enc& e, const BucketOutput& bkt) {
    put_vrun(e, bkt.run);
    e.u64(bkt.min_key);
    e.u64(bkt.max_key);
    e.b(bkt.is_equal_class);
    e.b(bkt.has_sketch_pivots);
    e.u64s(bkt.sketch_pivots.keys);
    e.b(bkt.repositioned);
}

BucketOutput get_bucket(Dec& d) {
    BucketOutput bkt;
    bkt.run = get_vrun(d);
    bkt.min_key = d.u64();
    bkt.max_key = d.u64();
    bkt.is_equal_class = d.b();
    bkt.has_sketch_pivots = d.b();
    bkt.sketch_pivots.keys = d.u64s();
    bkt.repositioned = d.b();
    return bkt;
}

void put_io(Enc& e, const IoStats& io) {
    e.u64(io.read_steps);
    e.u64(io.write_steps);
    e.u64(io.blocks_read);
    e.u64(io.blocks_written);
    e.u64(io.transient_retries);
    e.u64(io.corrupt_blocks);
    e.u64(io.reconstructions);
    e.u64(io.degraded_writes);
    e.u64(io.parity_blocks_written);
    e.u64(io.rmw_reads);
    e.u64(io.io_timeouts);
    e.f64(io.engine_busy_seconds);
    e.f64(io.engine_stall_seconds);
    e.u64(io.async_block_ops);
    e.u64(io.max_in_flight);
    e.u64(io.prefetch_block_ops);
}

IoStats get_io(Dec& d) {
    IoStats io;
    io.read_steps = d.u64();
    io.write_steps = d.u64();
    io.blocks_read = d.u64();
    io.blocks_written = d.u64();
    io.transient_retries = d.u64();
    io.corrupt_blocks = d.u64();
    io.reconstructions = d.u64();
    io.degraded_writes = d.u64();
    io.parity_blocks_written = d.u64();
    io.rmw_reads = d.u64();
    io.io_timeouts = d.u64();
    io.engine_busy_seconds = d.f64();
    io.engine_stall_seconds = d.f64();
    io.async_block_ops = d.u64();
    io.max_in_flight = d.u64();
    io.prefetch_block_ops = d.u64();
    return io;
}

void put_sidecar(Enc& e, const ChecksummedDisk::Sidecar& s) {
    e.u64(s.crcs.size());
    if (!s.crcs.empty()) e.raw(s.crcs.data(), s.crcs.size() * sizeof(std::uint32_t));
    e.u64(s.has_crc.size());
    for (bool v : s.has_crc) e.b(v);
    e.u64(s.lost.size());
    for (bool v : s.lost) e.b(v);
}

ChecksummedDisk::Sidecar get_sidecar(Dec& d) {
    ChecksummedDisk::Sidecar s;
    const std::uint64_t nc = d.count(sizeof(std::uint32_t));
    s.crcs.resize(static_cast<std::size_t>(nc));
    if (nc > 0) std::memcpy(s.crcs.data(), d.take(nc * sizeof(std::uint32_t)), nc * sizeof(std::uint32_t));
    const std::uint64_t nh = d.count(1);
    s.has_crc.resize(static_cast<std::size_t>(nh));
    for (std::uint64_t i = 0; i < nh; ++i) s.has_crc[i] = d.b();
    const std::uint64_t nl = d.count(1);
    s.lost.resize(static_cast<std::size_t>(nl));
    for (std::uint64_t i = 0; i < nl; ++i) s.lost[i] = d.b();
    return s;
}

void put_rng(Enc& e, const std::array<std::uint64_t, 4>& s) {
    for (std::uint64_t w : s) e.u64(w);
}

std::array<std::uint64_t, 4> get_rng(Dec& d) {
    return {d.u64(), d.u64(), d.u64(), d.u64()};
}

void put_fault_state(Enc& e, const FaultInjectingDisk::State& s) {
    put_rng(e, s.read_rng);
    put_rng(e, s.write_rng);
    put_rng(e, s.hang_rng);
    e.u64(s.ops);
    e.u64(s.hang_ops);
    e.b(s.dead);
    e.u64(s.read_errors);
    e.u64(s.write_errors);
    e.u64(s.torn_writes);
    e.u64(s.bit_flips);
    e.u64(s.hangs);
}

FaultInjectingDisk::State get_fault_state(Dec& d) {
    FaultInjectingDisk::State s;
    s.read_rng = get_rng(d);
    s.write_rng = get_rng(d);
    s.hang_rng = get_rng(d);
    s.ops = d.u64();
    s.hang_ops = d.u64();
    s.dead = d.b();
    s.read_errors = d.u64();
    s.write_errors = d.u64();
    s.torn_writes = d.u64();
    s.bit_flips = d.u64();
    s.hangs = d.u64();
    return s;
}

void put_snapshot(Enc& e, const DiskArraySnapshot& snap) {
    e.u64(snap.disks.size());
    for (const DiskArraySnapshot::PerDisk& pd : snap.disks) {
        e.u64(pd.next_free);
        e.u64s(pd.free_blocks);
        e.b(pd.health.alive);
        e.u64(pd.health.transient_retries);
        e.u64(pd.health.corrupt_blocks);
        e.u64(pd.health.reconstructions);
        e.u64(pd.health.degraded_writes);
        e.u64s(pd.parity_carried);
        e.b(pd.has_fault_state);
        if (pd.has_fault_state) put_fault_state(e, pd.fault_state);
        e.b(pd.has_sidecar);
        if (pd.has_sidecar) put_sidecar(e, pd.sidecar);
        e.b(pd.has_image);
        if (pd.has_image) put_records(e, pd.image);
    }
    e.b(snap.has_parity_sidecar);
    if (snap.has_parity_sidecar) put_sidecar(e, snap.parity_sidecar);
    e.b(snap.has_parity_image);
    if (snap.has_parity_image) put_records(e, snap.parity_image);
}

DiskArraySnapshot get_snapshot(Dec& d) {
    DiskArraySnapshot snap;
    const std::uint64_t n = d.count(1);
    snap.disks.resize(static_cast<std::size_t>(n));
    for (auto& pd : snap.disks) {
        pd.next_free = d.u64();
        pd.free_blocks = d.u64s();
        pd.health.alive = d.b();
        pd.health.transient_retries = d.u64();
        pd.health.corrupt_blocks = d.u64();
        pd.health.reconstructions = d.u64();
        pd.health.degraded_writes = d.u64();
        pd.parity_carried = d.u64s();
        pd.has_fault_state = d.b();
        if (pd.has_fault_state) pd.fault_state = get_fault_state(d);
        pd.has_sidecar = d.b();
        if (pd.has_sidecar) pd.sidecar = get_sidecar(d);
        pd.has_image = d.b();
        if (pd.has_image) pd.image = get_records(d);
    }
    snap.has_parity_sidecar = d.b();
    if (snap.has_parity_sidecar) snap.parity_sidecar = get_sidecar(d);
    snap.has_parity_image = d.b();
    if (snap.has_parity_image) snap.parity_image = get_records(d);
    return snap;
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
    e.u64(rec.seq);
    e.u64(rec.resumes);
    e.u64(rec.n);
    e.u64(rec.m);
    e.u64(rec.p);
    e.u32(rec.d);
    e.u32(rec.b);
    e.u32(rec.dv);
    e.u8(rec.backend);
    e.u8(rec.synchronized_writes);
    e.u64(rec.frames.size());
    for (const CheckpointFrame& f : rec.frames) {
        e.u64(f.n);
        e.u32(f.depth);
        e.b(f.has_pivots);
        if (f.has_pivots) e.u64s(f.pivots.keys);
        e.b(f.has_buckets);
        if (f.has_buckets) {
            e.u64(f.buckets.size());
            for (const BucketOutput& bkt : f.buckets) put_bucket(e, bkt);
        }
        e.u64(f.next_bucket);
    }
    put_block_ops(e, rec.out_run.blocks);
    e.u64(rec.out_run.n_records);
    put_records(e, rec.out_buffer);
    e.u32(rec.out_next_disk);
    e.u64(rec.comparisons);
    e.u64(rec.moves);
    e.u64(rec.collectives);
    e.u64(rec.pram_steps);
    put_io(e, rec.io_delta);
    e.u32(rec.levels);
    e.u32(rec.s_used);
    e.u64(rec.base_cases);
    e.u64(rec.equal_class_records);
    e.u64(rec.max_bucket_records);
    e.u64(rec.bucket_bound);
    e.f64(rec.worst_bucket_read_ratio);
    e.u64(rec.balance.tracks);
    e.u64(rec.balance.direct_blocks);
    e.u64(rec.balance.matched_blocks);
    e.u64(rec.balance.deferred_blocks);
    e.u64(rec.balance.rearrange_rounds);
    e.u64(rec.balance.max_rounds_per_track);
    e.u64(rec.balance.match_draws);
    e.b(rec.balance.invariant1_held);
    e.b(rec.balance.invariant2_held);
    put_snapshot(e, rec.disks);
    return e.take();
}

CheckpointRecord decode_checkpoint(const std::uint8_t* data, std::size_t len) {
    Dec d(data, len);
    CheckpointRecord rec;
    rec.seq = d.u64();
    rec.resumes = d.u64();
    rec.n = d.u64();
    rec.m = d.u64();
    rec.p = d.u64();
    rec.d = d.u32();
    rec.b = d.u32();
    rec.dv = d.u32();
    rec.backend = d.u8();
    rec.synchronized_writes = d.u8();
    const std::uint64_t nf = d.count(1);
    rec.frames.resize(static_cast<std::size_t>(nf));
    for (auto& f : rec.frames) {
        f.n = d.u64();
        f.depth = d.u32();
        f.has_pivots = d.b();
        if (f.has_pivots) f.pivots.keys = d.u64s();
        f.has_buckets = d.b();
        if (f.has_buckets) {
            const std::uint64_t nb = d.count(1);
            f.buckets.resize(static_cast<std::size_t>(nb));
            for (auto& bkt : f.buckets) bkt = get_bucket(d);
        }
        f.next_bucket = d.u64();
    }
    rec.out_run.blocks = get_block_ops(d);
    rec.out_run.n_records = d.u64();
    rec.out_buffer = get_records(d);
    rec.out_next_disk = d.u32();
    rec.comparisons = d.u64();
    rec.moves = d.u64();
    rec.collectives = d.u64();
    rec.pram_steps = d.u64();
    rec.io_delta = get_io(d);
    rec.levels = d.u32();
    rec.s_used = d.u32();
    rec.base_cases = d.u64();
    rec.equal_class_records = d.u64();
    rec.max_bucket_records = d.u64();
    rec.bucket_bound = d.u64();
    rec.worst_bucket_read_ratio = d.f64();
    rec.balance.tracks = d.u64();
    rec.balance.direct_blocks = d.u64();
    rec.balance.matched_blocks = d.u64();
    rec.balance.deferred_blocks = d.u64();
    rec.balance.rearrange_rounds = d.u64();
    rec.balance.max_rounds_per_track = d.u64();
    rec.balance.match_draws = d.u64();
    rec.balance.invariant1_held = d.b();
    rec.balance.invariant2_held = d.b();
    rec.disks = get_snapshot(d);
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

Checkpointer::Checkpointer(std::string path, DriverState& st, IoStats io_before)
    : path_(std::move(path)), st_(st), io_before_(io_before) {}

void Checkpointer::arm_resume(const CheckpointRecord& rec) {
    seq_ = rec.seq;
    resumes_ = rec.resumes + 1;
    io_resumed_ = rec.io_delta;
}

CheckpointRecord Checkpointer::capture() const {
    CheckpointRecord rec;
    rec.seq = seq_;
    rec.resumes = resumes_;
    rec.n = st_.cfg.n;
    rec.m = st_.cfg.m;
    rec.p = st_.cfg.p;
    rec.d = st_.disks.num_disks();
    rec.b = st_.disks.block_size();
    rec.dv = st_.vdisks.count();
    rec.backend = static_cast<std::uint8_t>(st_.disks.backend());
    rec.synchronized_writes = st_.job.io_policy.synchronized_writes ? 1 : 0;

    rec.frames.reserve(st_.frames.size());
    for (const PipelineFrame& pf : st_.frames) {
        CheckpointFrame f;
        f.n = pf.n;
        f.depth = pf.depth;
        f.next_bucket = pf.next_bucket;
        if (pf.pivots != nullptr) {
            f.has_pivots = true;
            f.pivots = *pf.pivots;
        }
        if (pf.buckets != nullptr) {
            f.has_buckets = true;
            f.buckets.reserve(pf.buckets->size());
            for (std::size_t i = 0; i < pf.buckets->size(); ++i) {
                if (i < pf.next_bucket) {
                    // Already consumed (blocks released): keep the slot so
                    // indices line up, but carry no storage.
                    f.buckets.emplace_back();
                } else {
                    f.buckets.push_back((*pf.buckets)[i]);
                }
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

    if (st_.report != nullptr) {
        rec.levels = st_.report->levels;
        rec.s_used = st_.report->s_used;
        rec.base_cases = st_.report->base_cases;
        rec.equal_class_records = st_.report->equal_class_records;
        rec.max_bucket_records = st_.report->max_bucket_records;
        rec.bucket_bound = st_.report->bucket_bound;
        rec.worst_bucket_read_ratio = st_.report->worst_bucket_read_ratio;
        rec.balance = st_.report->balance;
    }

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
