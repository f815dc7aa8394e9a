#include "core/sort_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/block_fill.hpp"
#include "core/checkpoint.hpp"
#include "core/partition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/tracer.hpp"
#include "pram/parallel_sort.hpp"

namespace balsort {

namespace {

/// Phase-span bookkeeping: captures the pre-phase io_steps() so the span
/// can carry the phase's model-I/O delta alongside bucket id and record
/// count. Pure observation — job_stats() is only *read*, on the driver
/// thread, and attributes to this job's channel when one is bound so a
/// neighbour job's traffic never leaks into the span.
class PhaseSpan {
public:
    PhaseSpan(DriverState& st, const char* name, std::uint32_t lane, std::uint64_t records)
        : st_(st), span_(st.tracer, name, "phase", lane) {
        if (st_.tracer != nullptr) {
            steps_before_ = st_.disks.job_stats().io_steps();
            span_.arg("bucket", st_.cur_bucket);
            span_.arg("records", static_cast<std::int64_t>(records));
        }
    }
    ~PhaseSpan() {
        if (st_.tracer != nullptr) {
            span_.arg("io_steps",
                      static_cast<std::int64_t>(st_.disks.job_stats().io_steps() - steps_before_));
        }
    }
    PhaseSpan(const PhaseSpan&) = delete;
    PhaseSpan& operator=(const PhaseSpan&) = delete;

private:
    DriverState& st_;
    Span span_;
    std::uint64_t steps_before_ = 0;
};

} // namespace

DriverState::DriverState(DiskArray& d, const PdmConfig& c, const SortJobConfig& j,
                         std::uint32_t dv, std::uint32_t threads, SortReport* rep)
    : disks(d),
      vdisks(d, dv, j.io_policy.synchronized_writes),
      cfg(c),
      job(j),
      // Borrow the service's shared executor when one was supplied; spin a
      // private one only for a genuinely multi-threaded private run. The
      // Parallel view's logical width is `threads` either way — charges
      // never depend on the physical worker count.
      owned_exec(j.compute_policy.shared_executor == nullptr && threads > 1
                     ? std::make_unique<Executor>(threads - 1)
                     : nullptr),
      pool(threads,
           j.compute_policy.shared_executor != nullptr ? j.compute_policy.shared_executor
                                                       : owned_exec.get(),
           &compute),
      cost(c.p),
      // §6: with synchronized writes even the output run is written in
      // fully striped (common fresh index) stripes, so *every* write of
      // the sort is parity-friendly, not just the bucket tracks.
      out(d, 0, j.io_policy.synchronized_writes),
      report(rep) {
    tracer = balsort::tracer();
    if (tracer != nullptr) {
        lane_pivot = tracer->lane("phase:pivot");
        lane_balance = tracer->lane("phase:balance");
        lane_base = tracer->lane("phase:base_case");
        lane_emit = tracer->lane("phase:emit");
    }
}

void DriverState::check_cancelled() const {
    if (job.cancel_flag != nullptr && job.cancel_flag->load(std::memory_order_relaxed)) {
        throw JobCancelled("balance_sort: cancelled by request");
    }
}

PhaseTimer::PhaseTimer(double& sink) : sink_(sink), t0_(std::chrono::steady_clock::now()) {}

PhaseTimer::~PhaseTimer() {
    sink_ += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
}

std::uint32_t PivotPhase::choose_s(std::uint64_t n) const {
    switch (st_.job.bucket_policy) {
        case BucketPolicy::kSqrtLevel:
            // §4.3 square-root decomposition, re-evaluated at every level.
            return std::max<std::uint32_t>(
                2, static_cast<std::uint32_t>(
                       std::sqrt(static_cast<double>(n) / st_.vdisks.count())));
        case BucketPolicy::kFixed:
        case BucketPolicy::kPaperPdm:
        default:
            return st_.job.s_target != 0
                       ? st_.job.s_target
                       : default_bucket_count(st_.cfg, st_.vdisks.vblock_records());
    }
}

PivotSet PivotPhase::run(const std::function<std::unique_ptr<RecordSource>()>& take_source,
                         std::uint64_t n, std::uint32_t s_target, const PivotSet* premade) {
    PhaseTimer timer(st_.profile.pivot_seconds);
    if (premade != nullptr && !premade->keys.empty()) {
        return *premade; // parent's sketch: skip the read pass
    }
    st_.progress_phase(ProgressSink::kPivot);
    flight_note("pivot", "phase", static_cast<std::int64_t>(n));
    PhaseSpan span(st_, "pivot", st_.lane_pivot, n);
    auto src = take_source();
    return compute_pivots_sampling(*src, n, st_.cfg.m, s_target, st_.pool, &st_.meter,
                                   &st_.cost);
}

std::vector<BucketOutput> BalancePhase::run(
    const std::function<std::unique_ptr<RecordSource>()>& take_source, const PivotSet& pivots,
    std::uint32_t sketch_child_s, std::uint64_t n, std::uint32_t depth, std::uint32_t s_target) {
    PhaseTimer timer(st_.profile.balance_seconds);
    st_.progress_phase(ProgressSink::kBalance);
    flight_note("balance", "phase", static_cast<std::int64_t>(n));
    PhaseSpan span(st_, "balance", st_.lane_balance, n);
    BalanceStats bstats;
    std::vector<BucketOutput> buckets;
    {
        auto src = take_source();
        buckets = balance_pass(*src, pivots, st_.vdisks, st_.cfg.m, st_.job.balance_opts, st_.pool,
                               &st_.meter, &st_.cost, &bstats, sketch_child_s, st_.buffer_pool());
    }
    if (st_.report != nullptr) {
        st_.report->balance.merge(bstats);
        for (const auto& bucket : buckets) {
            // Theorem 4 observable: reading a bucket vs. its optimum. Only
            // meaningful once a bucket spans at least one full round of the
            // virtual disks.
            if (bucket.run.counts.size() >= st_.vdisks.count()) {
                const double ratio =
                    static_cast<double>(bucket.run.read_steps(st_.disks.num_disks())) /
                    static_cast<double>(bucket.run.optimal_read_steps(st_.disks.num_disks()));
                st_.report->worst_bucket_read_ratio =
                    std::max(st_.report->worst_bucket_read_ratio, ratio);
            }
            if (depth == 0) {
                st_.report->max_bucket_records =
                    std::max(st_.report->max_bucket_records, bucket.run.n_records);
            }
        }
        if (depth == 0) {
            st_.report->bucket_bound = bucket_size_bound(n, st_.cfg.m, s_target);
        }
    }
    return buckets;
}

void BaseCasePhase::run(RecordSource& src, std::uint64_t n,
                        const std::function<void()>& after_load) {
    PhaseTimer timer(st_.profile.base_case_seconds);
    st_.progress_phase(ProgressSink::kBaseCase);
    flight_note("base_case", "phase", static_cast<std::int64_t>(n));
    PhaseSpan span(st_, "base_case", st_.lane_base, n);
    // The bucket is sorted in place, in the source's buffer.
    const std::span<Record> load = src.next(n);
    // The scheduler's staging point: the next bucket's memoryload goes to
    // the engine here, so its transfers run under the sort below.
    if (after_load) after_load();
    parallel_merge_sort(load, st_.pool, &st_.meter, &st_.cost);
    st_.out.append(load);
    st_.progress_emitted(load.size());
    if (st_.report != nullptr) st_.report->base_cases += 1;
}

void EmitPhase::stream_copy(RecordSource& src) {
    PhaseTimer timer(st_.profile.emit_seconds);
    st_.progress_phase(ProgressSink::kEmit);
    flight_note("stream_copy", "phase", static_cast<std::int64_t>(src.remaining()));
    PhaseSpan span(st_, "stream_copy", st_.lane_emit, src.remaining());
    while (src.remaining() > 0) {
        const std::span<const Record> load = src.next(st_.cfg.m);
        st_.out.append(load);
        st_.progress_emitted(load.size());
        st_.meter.add_moves(load.size());
    }
}

VRun EmitPhase::reposition(const VRun& run) {
    PhaseTimer timer(st_.profile.emit_seconds);
    PhaseSpan span(st_, "reposition", st_.lane_emit, run.n_records);
    RunSource src(st_.disks, run, st_.buffer_pool());
    // One track per read and write step through a one-bucket distributor:
    // D' virtual blocks, block j on virtual disk j, only the last one padded.
    const std::uint32_t dv = st_.vdisks.count();
    const std::uint64_t track = static_cast<std::uint64_t>(dv) * st_.vdisks.vblock_records();
    const PivotSet one_bucket;
    BlockFill fill(st_.vdisks, one_bucket, track, st_.buffer_pool());
    std::vector<std::uint32_t> vds(dv);
    std::iota(vds.begin(), vds.end(), 0u);
    std::vector<BlockFill::Block> step;
    while (src.remaining() > 0) {
        const std::span<const Record> chunk = src.next(track);
        fill.scatter(chunk, st_.pool);
        if (src.remaining() == 0) fill.flush_tails();
        fill.take(dv, step);
        fill.write(step, std::span<const std::uint32_t>(vds).first(step.size()));
        st_.meter.add_moves(chunk.size());
    }
    VRun& fresh = fill.buckets[0].run;
    BS_MODEL_CHECK(fresh.n_records == run.n_records, "reposition: record count changed");
    run.release(st_.disks);
    return std::move(fresh);
}

SortPipeline::SortPipeline(DriverState& st)
    : st_(st), pivot_(st), balance_(st), base_(st), emit_(st) {}

void SortPipeline::run(const SourceFactory& top, std::uint64_t n, ResumeCursor* resume) {
    if (ProgressSink* p = st_.job.obs_policy.progress; p != nullptr) {
        p->records_total.store(n, std::memory_order_relaxed);
        p->records_emitted.store(0, std::memory_order_relaxed);
    }
    process_node(top, nullptr, n, 0, nullptr, {}, resume);
    st_.progress_phase(ProgressSink::kDone);
    BS_MODEL_CHECK(resume == nullptr || resume->frames.empty(),
                   "resume: checkpoint frames left unconsumed (record does not match this sort)");
}

void SortPipeline::process_node(const SourceFactory& factory,
                                std::unique_ptr<RecordSource> first_source, std::uint64_t n,
                                std::uint32_t depth, const PivotSet* premade_pivots,
                                const std::function<void()>& overlap_hook, ResumeCursor* resume) {
    if (n == 0) return;
    st_.check_cancelled();
    if (st_.report != nullptr) {
        st_.report->levels = std::max(st_.report->levels, depth + 1);
    }
    BS_MODEL_CHECK(depth <= 64, "balance_sort: recursion too deep (pivots not splitting?)");

    // The node's *first* read pass may be served by a source the scheduler
    // already staged through the engine; later passes re-open fresh.
    auto take_source = [&]() -> std::unique_ptr<RecordSource> {
        if (first_source != nullptr) return std::move(first_source);
        return factory();
    };

    // ---- Base case: one memoryload, internal parallel sort. ----
    // Atomic between checkpoint boundaries: never mirrored in a frame.
    if (n <= st_.cfg.m) {
        auto src = take_source();
        base_.run(*src, n, overlap_hook);
        return;
    }

    // Resume (DESIGN.md §13): the last durable boundary serialized this
    // node's frame if it was mid-flight — pop it and skip the phases whose
    // results it carries (their model charges arrived with the restored
    // meters, so skipping re-creates the uninterrupted accounting exactly).
    CheckpointFrame restored;
    bool node_resumed = false;
    if (resume != nullptr && !resume->frames.empty()) {
        restored = std::move(resume->frames.front());
        resume->frames.pop_front();
        node_resumed = true;
        BS_MODEL_CHECK(restored.n == n && restored.depth == depth && restored.has_pivots,
                       "resume: checkpoint frame does not match this node");
    }

    // Mirror the node for the checkpointer. Indices, not references — the
    // frames vector may reallocate as children push theirs.
    st_.frames.push_back(PipelineFrame{n, depth, nullptr, nullptr, 0});
    const std::size_t fi = st_.frames.size() - 1;
    struct FramePop {
        DriverState& st;
        ~FramePop() { st.frames.pop_back(); }
    } frame_pop{st_};

    // ---- Stage 1: partition elements (§5, [ViSa]). ----
    const std::uint32_t s_target = pivot_.choose_s(n);
    if (st_.report != nullptr && depth == 0) st_.report->s_used = s_target;
    const PivotSet pivots = node_resumed ? std::move(restored.pivots)
                                         : pivot_.run(take_source, n, s_target, premade_pivots);
    BS_MODEL_CHECK(!pivots.keys.empty(), "pivot selection produced no pivots on N > M input");
    st_.frames[fi].pivots = &pivots;
    // After-pivot boundary. A resumed node's pivots came *from* a durable
    // record, so re-writing that boundary would double-count it (the seq
    // numbering is cumulative across resumes).
    if (st_.checkpointer != nullptr && !node_resumed) st_.checkpointer->boundary();

    // ---- Stage 2: Balance (Algorithms 3-6). ----
    const bool sketch_children = st_.job.pivot_method == PivotMethod::kStreamingSketch &&
                                 st_.job.bucket_policy != BucketPolicy::kSqrtLevel;
    const bool buckets_restored = node_resumed && restored.has_buckets;
    std::vector<BucketOutput> buckets =
        buckets_restored ? std::move(restored.buckets)
                         : balance_.run(take_source, pivots, sketch_children ? s_target : 0, n,
                                        depth, s_target);
    st_.frames[fi].buckets = &buckets;
    st_.frames[fi].next_bucket = buckets_restored ? restored.next_bucket : 0;
    if (st_.checkpointer != nullptr && !buckets_restored) st_.checkpointer->boundary();

    // ---- Stages 3-4 over the buckets in key order (Algorithm 1 l. 7-9). ----
    walk_buckets(buckets, n, depth, buckets_restored ? restored.next_bucket : 0,
                 node_resumed ? resume : nullptr);
}

void SortPipeline::walk_buckets(std::vector<BucketOutput>& buckets, std::uint64_t n,
                                std::uint32_t depth, std::uint64_t start_bucket,
                                ResumeCursor* resume) {
    // Our node's frame is the top of the stack here (children push/pop
    // theirs strictly inside process_node below).
    const std::size_t fi = st_.frames.size() - 1;
    // Cross-bucket staging slot (DESIGN.md §10): a source for bucket
    // `index` whose first window is already in flight through the engine.
    struct Staged {
        std::unique_ptr<RunSource> src;
        std::size_t index = 0;
    };
    Staged staged;

    auto sorted_already = [](const BucketOutput& b) {
        return b.is_equal_class || b.min_key == b.max_key;
    };
    // §4.4: only buckets that will recurse are repositioned; base cases
    // are read exactly once anyway.
    auto will_reposition = [&](const BucketOutput& b) {
        return st_.job.reposition_buckets && !sorted_already(b) && b.run.n_records > st_.cfg.m;
    };

    // Each bucket's blocks are released once it has been fully consumed,
    // so the simulated footprint stays O(N) at every depth. On resume,
    // buckets below start_bucket were consumed by the interrupted run
    // (restored with empty runs) and are not revisited.
    for (std::size_t i = static_cast<std::size_t>(start_bucket); i < buckets.size(); ++i) {
        st_.check_cancelled();
        auto& bucket = buckets[i];
        if (bucket.run.n_records == 0) continue;
        st_.frames[fi].next_bucket = i;
        st_.cur_bucket = static_cast<std::int64_t>(i);

        std::unique_ptr<RunSource> first;
        if (staged.src != nullptr && staged.index == i) first = std::move(staged.src);
        staged = Staged{};

        // Staging eligibility: the immediately-next non-empty bucket (the
        // engine's per-disk queues are FIFO — staging further ahead would
        // delay nearer reads), and never one that will be repositioned
        // (repositioning rewrites and releases the staged storage).
        std::function<void()> hook;
        std::size_t j = i + 1;
        while (j < buckets.size() && buckets[j].run.n_records == 0) ++j;
        if (j < buckets.size() && !will_reposition(buckets[j])) {
            BucketOutput& next = buckets[j];
            hook = [this, &next, j, &staged]() {
                auto src = std::make_unique<RunSource>(st_.disks, next.run, st_.buffer_pool());
                if (src->start_prefetch(st_.cfg.m, &st_.profile.overlap_hidden_seconds)) {
                    st_.profile.staged_prefetches += 1;
                    staged.src = std::move(src);
                    staged.index = j;
                }
            };
        }

        if (sorted_already(bucket)) {
            // Equal-class bucket or single-key range: already sorted.
            if (first != nullptr) {
                emit_.stream_copy(*first);
            } else {
                RunSource src(st_.disks, bucket.run, st_.buffer_pool());
                emit_.stream_copy(src);
            }
            if (st_.report != nullptr) st_.report->equal_class_records += bucket.run.n_records;
            bucket.run.release(st_.disks);
            st_.frames[fi].next_bucket = i + 1;
            if (st_.checkpointer != nullptr) st_.checkpointer->boundary();
            continue;
        }
        BS_MODEL_CHECK(bucket.run.n_records < n,
                       "bucket did not shrink: partitioning made no progress");
        // The `repositioned` flag survives checkpointing: a boundary written
        // while this bucket's child was mid-flight serialized the bucket
        // with the *fresh* run, and the resumed walk must not rewrite it.
        if (!bucket.repositioned && will_reposition(bucket)) {
            bucket.run = emit_.reposition(bucket.run);
            bucket.repositioned = true;
        }
        const VRun& run = bucket.run; // lives until this iteration ends
        SourceFactory bucket_factory = [this, &run]() -> std::unique_ptr<RecordSource> {
            return std::make_unique<RunSource>(st_.disks, run, st_.buffer_pool());
        };
        process_node(bucket_factory, std::move(first), run.n_records, depth + 1,
                     bucket.has_sketch_pivots ? &bucket.sketch_pivots : nullptr, hook, resume);
        resume = nullptr; // only the first child processed can be mid-flight
        bucket.run.release(st_.disks);
        st_.frames[fi].next_bucket = i + 1;
        if (st_.checkpointer != nullptr) st_.checkpointer->boundary();
    }
    // An unconsumed staged source (none in the current scheduling rules)
    // completes its in-flight read in ~RunReader before `staged` dies.
}

} // namespace balsort
