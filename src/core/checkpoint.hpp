#pragma once
/// \file checkpoint.hpp
/// Crash-consistent checkpoint/resume for Balance Sort (DESIGN.md §13).
///
/// At every phase boundary of the staged pipeline (after the pivot pass,
/// after the Balance pass, after each consumed bucket) the driver can
/// serialize a complete restartable image of the sort — the recursion
/// stack with each level's pivots and live bucket runs, the emit writer,
/// the model meters, the I/O accounting delta, and the array's allocator /
/// health / checksum-sidecar / fault-RNG state — into a single
/// write-ahead checkpoint file. The file is framed with a magic tag,
/// a payload CRC-32, and a length, and replaced atomically
/// (tmp + fsync + rename), so a crash at any instant leaves either the
/// previous checkpoint or the new one, never a torn record.
///
/// `balance_sort` with `DurabilityPolicy::resume_from` loads such a record,
/// restores the array and driver state, and replays the pipeline from the
/// last durable boundary. Because every boundary is reached with the
/// engine drained and the release-quarantine flushed, and because the
/// algorithm itself is deterministic, the resumed run produces the
/// byte-identical output run and the identical model accounting
/// (io_steps(), comparisons, PRAM steps, structure counters) as an
/// uninterrupted run — the property the chaos harness (tests/chaos)
/// asserts by killing a sort at every boundary.
///
/// Durability model: "process crash". The atomic-rename protocol makes the
/// checkpoint file itself torn-proof against power loss, but the scratch
/// block files are only guaranteed current up to the OS page cache — the
/// simulator targets kill -9 / aborts, not torn platters (DESIGN.md §13).

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/balance.hpp"
#include "pdm/disk_array.hpp"
#include "pdm/io_stats.hpp"
#include "pdm/striping.hpp"

namespace balsort {

struct DriverState;

/// One level of the recursion stack as checkpointed: the level's input
/// size, its pivots (present from the first boundary the level appears
/// in), its bucket outputs (present once Balance ran; consumed buckets
/// are serialized empty), and the key-order index of the next bucket the
/// walk will process.
struct CheckpointFrame {
    std::uint64_t n = 0;
    std::uint32_t depth = 0;
    bool has_pivots = false;
    PivotSet pivots;
    bool has_buckets = false;
    std::vector<BucketOutput> buckets;
    std::uint64_t next_bucket = 0;
};

/// The complete restartable image of a sort at one durable boundary.
struct CheckpointRecord {
    /// Boundary sequence number, cumulative across resumes: the k-th
    /// boundary of the *logical* sort writes seq k whether or not a crash
    /// intervened, so `SortReport::checkpoints_written` of a resumed run
    /// equals the uninterrupted run's.
    std::uint64_t seq = 0;
    std::uint64_t resumes = 0; ///< completed resume generations before this

    // --- configuration echo, validated on resume ---
    std::uint64_t n = 0, m = 0, p = 0;
    std::uint32_t d = 0, b = 0, dv = 0;
    std::uint8_t backend = 0;
    std::uint8_t synchronized_writes = 0;

    // --- pipeline recursion stack, root first ---
    std::vector<CheckpointFrame> frames;

    // --- emit writer (RunWriter) ---
    BlockRun out_run;
    std::vector<Record> out_buffer;
    std::uint32_t out_next_disk = 0;

    // --- model meters ---
    std::uint64_t comparisons = 0, moves = 0, collectives = 0, pram_steps = 0;
    /// I/O accounted to the sort so far (cumulative across resumes).
    IoStats io_delta;

    // --- SortReport partials not derivable from the meters ---
    std::uint32_t levels = 0, s_used = 0;
    std::uint64_t base_cases = 0, equal_class_records = 0;
    std::uint64_t max_bucket_records = 0, bucket_bound = 0;
    double worst_bucket_read_ratio = 1.0;
    BalanceStats balance;

    // --- the array (allocator, health, sidecars, fault RNG streams) ---
    DiskArraySnapshot disks;
};

/// Serialize / parse the record payload (no file framing).
std::vector<std::uint8_t> encode_checkpoint(const CheckpointRecord& rec);
CheckpointRecord decode_checkpoint(const std::uint8_t* data, std::size_t len);

/// Durably replace `path` with `rec`: write magic + CRC-32 + length +
/// payload to `path + ".tmp"` (removed on any unwind), fsync, rename over
/// `path`, then best-effort fsync of the containing directory. Throws
/// IoError on any filesystem failure.
void write_checkpoint_atomic(const std::string& path, const CheckpointRecord& rec);

/// Load and verify (magic, length, CRC) a checkpoint file. Throws IoError
/// on a missing, truncated, or corrupt file.
CheckpointRecord load_checkpoint(const std::string& path);

/// The recursion-stack replay cursor handed to the pipeline on resume:
/// process_node pops the front frame at each level to skip the phases the
/// interrupted run already completed.
struct ResumeCursor {
    std::deque<CheckpointFrame> frames;
};

/// Writes checkpoints at pipeline boundaries. Owned by balance_sort when
/// DurabilityPolicy::checkpoint_path is set; the pipeline reaches it through
/// DriverState::checkpointer.
class Checkpointer {
public:
    /// `io_before` is the array's stats at sort entry (the same baseline
    /// the final report subtracts). For a resumed sort, arm_resume()
    /// additionally carries the interrupted run's accumulated I/O.
    Checkpointer(std::string path, DriverState& st, IoStats io_before);

    /// Continue the seq / resume-generation / I/O accounting of a loaded
    /// record instead of starting fresh.
    void arm_resume(const CheckpointRecord& rec);

    /// One durable boundary: drain the async engine, flush the array's
    /// release quarantine, capture the full record, write it atomically,
    /// then fire DurabilityPolicy::on_checkpoint (the chaos harness's crash
    /// hook — it may throw or _exit).
    void boundary();

    std::uint64_t seq() const { return seq_; }
    std::uint64_t resumes() const { return resumes_; }
    const IoStats& io_resumed() const { return io_resumed_; }

private:
    CheckpointRecord capture() const;

    std::string path_;
    DriverState& st_;
    IoStats io_before_;
    IoStats io_resumed_{}; ///< accumulated by prior generations
    std::uint64_t seq_ = 0;
    std::uint64_t resumes_ = 0;
};

} // namespace balsort
