#pragma once
/// \file sort_pipeline.hpp
/// The staged driver of Balance Sort (DESIGN.md §10).
///
/// What used to be one recursive blob (`sort_rec`) is an explicit pipeline
/// of four named stages over a shared `DriverState`, scheduled by a small
/// `SortPipeline` that walks the bucket tree in key order:
///
///   PivotPhase    — the level's partition elements (one §5 sampling read
///                   pass, skipped when the parent's streaming sketch
///                   already supplied pivots),
///   BalancePhase  — one Balance pass (Algorithms 3-6) splitting the level
///                   into buckets spread over the virtual disks,
///   BaseCasePhase — a <= M bucket: load, internal parallel sort, append,
///   EmitPhase     — already-sorted buckets streamed straight to the
///                   output, and §4.4 bucket repositioning.
///
/// Scheduling adds *cross-bucket overlap*: while bucket i's base case
/// sorts on the thread pool, bucket i+1's first memoryload is physically
/// prefetched through the async engine (VRunSource::start_prefetch).
/// Because staged prefetches charge nothing and model costs land at
/// consumption time in the serial order, io_steps(), block counts, the
/// step-observer sequence, and the sorted output are bit-identical to the
/// pre-pipeline recursive driver — only wall-clock changes (tested against
/// captured pre-refactor goldens in tests/test_pipeline.cpp).
///
/// Both public entry points share this driver: balance_sort() constructs a
/// DriverState and runs the pipeline directly; hier_sort() layers the
/// hierarchy meter over the same pipeline via balance_sort().

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/balance_sort.hpp"
#include "core/vrun.hpp"
#include "pram/executor.hpp"
#include "pram/pram_cost.hpp"
#include "util/buffer_pool.hpp"
#include "util/work_meter.hpp"

namespace balsort {

class Checkpointer;
class Tracer;
struct ResumeCursor;

/// Re-opens one level's input from the start (each pass over a level needs
/// a fresh stream: pivot pass, then Balance pass).
using SourceFactory = std::function<std::unique_ptr<RecordSource>()>;

/// One live level of the recursion stack, mirrored for the checkpointer
/// (DESIGN.md §13): the pointers view the node's local pivots/buckets, and
/// `next_bucket` is the key-order index of the bucket the walk will
/// process next (so a resume knows where to pick the level back up).
struct PipelineFrame {
    std::uint64_t n = 0;
    std::uint32_t depth = 0;
    const PivotSet* pivots = nullptr;
    std::vector<BucketOutput>* buckets = nullptr;
    std::uint64_t next_bucket = 0;
};

/// Everything one sort shares across pipeline stages. Owns the worker
/// pool, the model meters, the output writer, and the record-buffer pool;
/// borrows the array and configuration from the entry point.
struct DriverState {
    DiskArray& disks;
    VirtualDisks vdisks;
    const PdmConfig& cfg;
    /// The validated sort configuration, read directly by every stage.
    const SortJobConfig& job;
    /// Private executor, created only when no ComputePolicy::shared_executor
    /// was supplied and the resolved thread count exceeds 1.
    std::unique_ptr<Executor> owned_exec;
    /// This sort's compute-accounting channel: task counts on a shared
    /// executor flow here instead of mixing with other jobs'.
    ComputeChannel compute;
    /// The parallelism view every algorithm takes: logical width = the
    /// resolved thread count, fanned out on the borrowed or owned executor.
    Parallel pool;
    WorkMeter meter;
    PramCost cost;
    RunWriter out;
    SortReport* report;
    /// Recycled record buffers, capped at a few memoryloads so the pool
    /// never grows past what the serial driver would have had live.
    BufferPool buffers;
    PhaseProfile profile;

    // Observability (DESIGN.md §11): the installed tracer bound once at
    // construction (balance_sort publishes ObsPolicy::trace first) plus one
    // timeline lane per pipeline phase. All phases no-op on a null tracer.
    Tracer* tracer = nullptr;
    std::uint32_t lane_pivot = 0;
    std::uint32_t lane_balance = 0;
    std::uint32_t lane_base = 0;
    std::uint32_t lane_emit = 0;
    /// Key-order index of the bucket the pipeline is currently inside
    /// (span arg; -1 = the top-level node).
    std::int64_t cur_bucket = -1;

    // Checkpointing (DESIGN.md §13): the live recursion stack (root first,
    // internal nodes only — base cases are atomic between boundaries) and
    // the boundary writer, null unless DurabilityPolicy::checkpoint_path is
    // set.
    std::vector<PipelineFrame> frames;
    Checkpointer* checkpointer = nullptr;

    DriverState(DiskArray& d, const PdmConfig& c, const SortJobConfig& j, std::uint32_t dv,
                std::uint32_t threads, SortReport* rep);

    /// The staging pool. A caller-provided IoPolicy::shared_pool takes
    /// precedence over the sort's own pool so co-scheduled jobs can
    /// recycle buffers across each other.
    BufferPool* buffer_pool() {
        BufferPool* shared = job.io_policy.shared_pool;
        return shared != nullptr ? shared : &buffers;
    }

    /// Cooperative cancellation (DESIGN.md §14): throws JobCancelled when
    /// SortJobConfig::cancel_flag is set and has been raised. Called at
    /// node entry and between buckets — boundaries where the array holds no
    /// partially transferred state, so the caller can reclaim scratch safely.
    void check_cancelled() const;

    /// Live-progress publication (DESIGN.md §16): no-ops without a
    /// ObsPolicy::progress sink. Relaxed stores — watchers tolerate any
    /// interleaving; no model quantity reads these.
    void progress_phase(std::uint32_t id) const {
        if (ProgressSink* p = job.obs_policy.progress; p != nullptr) {
            p->phase_id.store(id, std::memory_order_relaxed);
        }
    }
    void progress_emitted(std::uint64_t n_records) const {
        if (ProgressSink* p = job.obs_policy.progress; p != nullptr) {
            p->records_emitted.fetch_add(n_records, std::memory_order_relaxed);
        }
    }
};

/// Accumulates wall-clock into one PhaseProfile field for the lifetime of
/// a stage invocation.
class PhaseTimer {
public:
    explicit PhaseTimer(double& sink);
    ~PhaseTimer();
    PhaseTimer(const PhaseTimer&) = delete;
    PhaseTimer& operator=(const PhaseTimer&) = delete;

private:
    double& sink_;
    std::chrono::steady_clock::time_point t0_;
};

/// Stage 1: choose S and compute the level's partition elements.
class PivotPhase {
public:
    explicit PivotPhase(DriverState& st) : st_(st) {}
    /// The level's bucket-count target under the configured policy.
    std::uint32_t choose_s(std::uint64_t n) const;
    /// One sampling read pass ([ViSa], §5) — or the parent's sketch pivots
    /// verbatim, skipping the pass. `take_source` yields the level's input.
    PivotSet run(const std::function<std::unique_ptr<RecordSource>()>& take_source,
                 std::uint64_t n, std::uint32_t s_target, const PivotSet* premade);

private:
    DriverState& st_;
};

/// Stage 2: one Balance pass (Algorithms 3-6) over the level's input.
class BalancePhase {
public:
    explicit BalancePhase(DriverState& st) : st_(st) {}
    std::vector<BucketOutput> run(const std::function<std::unique_ptr<RecordSource>()>& take_source,
                                  const PivotSet& pivots, std::uint32_t sketch_child_s,
                                  std::uint64_t n, std::uint32_t depth, std::uint32_t s_target);

private:
    DriverState& st_;
};

/// Stage 3: a <= M bucket — load it, sort it with the P processors, append
/// it to the output. `after_load` (may be empty) runs between the load and
/// the sort: the scheduler uses it to issue the next bucket's staged
/// prefetch so the engine works under the sort.
class BaseCasePhase {
public:
    explicit BaseCasePhase(DriverState& st) : st_(st) {}
    void run(RecordSource& src, std::uint64_t n, const std::function<void()>& after_load);

private:
    DriverState& st_;
};

/// Stage 4: emission paths that bypass recursion — already-sorted buckets
/// (equal classes, single-key ranges) streamed to the output, and §4.4
/// repositioning of buckets that will recurse.
class EmitPhase {
public:
    explicit EmitPhase(DriverState& st) : st_(st) {}
    /// Copy an already-sorted source straight to the output, one
    /// memoryload at a time.
    void stream_copy(RecordSource& src);
    /// §4.4 repositioning: rewrite a bucket's virtual blocks into (nearly)
    /// consecutive locations on each virtual disk — a swept read plus a
    /// streamed cyclic write — so the recursion's two passes over the
    /// bucket stream instead of sweeping the whole level region. Returns
    /// the new run and releases the old one.
    VRun reposition(const VRun& run);

private:
    DriverState& st_;
};

/// Walks the bucket tree, invoking the stages per node and scheduling the
/// cross-bucket overlap between sibling buckets.
class SortPipeline {
public:
    explicit SortPipeline(DriverState& st);
    /// Sort the whole input (the top-level node); output lands in st.out.
    /// A non-null `resume` replays a checkpointed run: each level pops its
    /// restored frame and skips the phases the interrupted run completed.
    void run(const SourceFactory& top, std::uint64_t n, ResumeCursor* resume = nullptr);

private:
    /// One node of the bucket tree (the old sort_rec). `first_source`, if
    /// non-null, serves the node's *first* read pass (a staged prefetch
    /// from the scheduler); later passes re-open via `factory`.
    /// `overlap_hook` is forwarded to BaseCasePhase when the node is a
    /// base case.
    void process_node(const SourceFactory& factory, std::unique_ptr<RecordSource> first_source,
                      std::uint64_t n, std::uint32_t depth, const PivotSet* premade_pivots,
                      const std::function<void()>& overlap_hook, ResumeCursor* resume);
    /// The scheduler: children in key order with next-bucket staging.
    /// On resume, `start_bucket` skips children the interrupted run fully
    /// consumed and `resume` is threaded into the first child processed.
    void walk_buckets(std::vector<BucketOutput>& buckets, std::uint64_t n, std::uint32_t depth,
                      std::uint64_t start_bucket, ResumeCursor* resume);

    DriverState& st_;
    PivotPhase pivot_;
    BalancePhase balance_;
    BaseCasePhase base_;
    EmitPhase emit_;
};

} // namespace balsort
