// Regression and observability tests for the staged sort pipeline
// (DESIGN.md §10).
//
// The pre-refactor recursive driver (`sort_rec`) no longer exists, so the
// bit-identical-accounting guarantee is pinned by goldens captured from it
// before the refactor: full step-observer sequences (FNV-1a over
// direction, fan-out, and every per-disk block address), output record
// hashes, and the model counters, for representative configurations of
// both entry points. Any change to io_steps(), the observer sequence, the
// block counts, or the sorted output — from the stage split, the buffer
// pool, or cross-bucket staging — fails these tests.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/balance_sort.hpp"
#include "core/hier_sort.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"
#include "util/buffer_pool.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

struct SortTrace {
    IoStats io;
    std::uint32_t levels = 0;
    std::uint64_t base_cases = 0;
    std::uint32_t s_used = 0;
    std::uint64_t step_hash = kFnvOffset;
    std::uint64_t out_hash = kFnvOffset;
    SortReport report;
};

/// Run one sort while hashing the full parallel-step sequence the array
/// observer sees and the sorted output records. A memory-backed array runs
/// the inline executor unless `workers`; a file-backed one always sorts on
/// the workers.
SortTrace traced_sort(Workload w, const PdmConfig& cfg, const SortJobConfig& opt,
                      DiskBackend backend, bool workers = false) {
    DiskArray disks = backend == DiskBackend::kFile
                          ? DiskArray(cfg.d, cfg.b, DiskBackend::kFile,
                                      std::filesystem::temp_directory_path().string())
                          : DiskArray(cfg.d, cfg.b);
    disks.set_async(workers);
    SortTrace t;
    disks.set_step_observer([&t](bool is_read, std::span<const BlockOp> ops) {
        t.step_hash = fnv1a(t.step_hash, is_read ? 1 : 2);
        t.step_hash = fnv1a(t.step_hash, ops.size());
        for (const auto& op : ops) {
            t.step_hash = fnv1a(t.step_hash, op.disk);
            t.step_hash = fnv1a(t.step_hash, op.block);
        }
    });
    auto input = generate(w, cfg.n, 42);
    auto sorted = balance_sort_records(disks, input, cfg, opt, &t.report);
    for (const Record& r : sorted) {
        t.out_hash = fnv1a(t.out_hash, r.key);
        t.out_hash = fnv1a(t.out_hash, r.payload);
    }
    t.io = t.report.io;
    t.levels = t.report.levels;
    t.base_cases = t.report.base_cases;
    t.s_used = t.report.s_used;
    return t;
}

struct Golden {
    std::uint64_t rs, ws, br, bw;
    std::uint32_t levels;
    std::uint64_t base_cases;
    std::uint32_t s_used;
    std::uint64_t step_hash, out_hash;
};

void expect_matches(const SortTrace& t, const Golden& g) {
    EXPECT_EQ(t.io.read_steps, g.rs);
    EXPECT_EQ(t.io.write_steps, g.ws);
    EXPECT_EQ(t.io.blocks_read, g.br);
    EXPECT_EQ(t.io.blocks_written, g.bw);
    EXPECT_EQ(t.levels, g.levels);
    EXPECT_EQ(t.base_cases, g.base_cases);
    EXPECT_EQ(t.s_used, g.s_used);
    EXPECT_EQ(t.step_hash, g.step_hash);
    EXPECT_EQ(t.out_hash, g.out_hash);
}

// ---------------------------------------------------------------------------
// Goldens captured from the pre-refactor recursive driver (commit 2a5d75e),
// memory backend, input seed 42. Verified stable across repeated runs.
// ---------------------------------------------------------------------------

TEST(PipelineGoldens, DefaultOptionsUniform) {
    PdmConfig cfg{.n = 1 << 14, .m = 1 << 10, .d = 8, .b = 16, .p = 4};
    const Golden g{1327, 749, 10396, 5776, 6, 23, 2,
                   8400640918805680260ull, 9391579865765926199ull};
    expect_matches(traced_sort(Workload::kUniform, cfg, {}, DiskBackend::kMemory), g);
}

TEST(PipelineGoldens, StreamingSketchZipf) {
    PdmConfig cfg{.n = 20000, .m = 1024, .d = 4, .b = 8, .p = 2};
    SortJobConfig opt;
    opt.pivot_method = PivotMethod::kStreamingSketch;
    const Golden g{3052, 3156, 12142, 9642, 4, 21, 3,
                   2001929164921609248ull, 4489769194646271066ull};
    expect_matches(traced_sort(Workload::kZipf, cfg, opt, DiskBackend::kMemory), g);
}

TEST(PipelineGoldens, SynchronizedWritesReverse) {
    PdmConfig cfg{.n = 12000, .m = 512, .d = 8, .b = 8, .p = 2};
    SortJobConfig opt;
    opt.io_policy.synchronized_writes = true;
    const Golden g{2139, 1165, 16748, 9208, 6, 32, 2,
                   15301356196869035716ull, 11783058181912304141ull};
    expect_matches(traced_sort(Workload::kReverse, cfg, opt, DiskBackend::kMemory), g);
}

TEST(PipelineGoldens, RepositionBucketsGaussian) {
    // §4.4 repositioning rewrites every recursing bucket before its child
    // pass; n leaves ragged final blocks in the rewritten runs.
    PdmConfig cfg{.n = 30011, .m = 1024, .d = 8, .b = 8, .p = 2};
    SortJobConfig opt;
    opt.reposition_buckets = true;
    const Golden g{5656, 4555, 44548, 29844, 5, 75, 3,
                   7565067432507818598ull, 7103970127395338848ull};
    expect_matches(traced_sort(Workload::kGaussian, cfg, opt, DiskBackend::kMemory), g);
}

TEST(PipelineGoldens, HierSortHmmLog) {
    HierSortConfig hc;
    hc.h = 16;
    hc.model = HierModelSpec::hmm(CostFn::log());
    HierSortReport rep;
    auto recs = generate(Workload::kUniform, 4096, 7);
    auto sorted = hier_sort(recs, hc, &rep);
    EXPECT_NEAR(rep.total_time, 34771.655764, 1e-3);
    EXPECT_EQ(rep.tracks, 2742u);
    EXPECT_EQ(rep.mechanics.io.read_steps, 1571u);
    EXPECT_EQ(rep.mechanics.io.write_steps, 1171u);
    std::uint64_t oh = kFnvOffset;
    for (const Record& r : sorted) {
        oh = fnv1a(oh, r.key);
        oh = fnv1a(oh, r.payload);
    }
    EXPECT_EQ(oh, 5414309037085656959ull);
    // Satellite: hier_sort populates elapsed_seconds like balance_sort.
    EXPECT_GT(rep.elapsed_seconds, 0.0);
    EXPECT_GT(rep.mechanics.elapsed_seconds, 0.0);
    EXPECT_LE(rep.mechanics.elapsed_seconds, rep.elapsed_seconds);
}

// ---------------------------------------------------------------------------
// Mode matrix: every executor (mem-inline, mem-worker, file-worker) must
// produce identical model quantities, observer sequences, and output.
// ---------------------------------------------------------------------------

TEST(PipelineModes, AccountingIdenticalAcrossAllModes) {
    PdmConfig cfg{.n = 20000, .m = 1024, .d = 4, .b = 8, .p = 2};
    const SortTrace ref = traced_sort(Workload::kUniform, cfg, {}, DiskBackend::kMemory);
    ASSERT_GT(ref.io.io_steps(), 0u);

    struct Mode {
        const char* name;
        DiskBackend backend;
        bool workers; ///< file-backed sorts turn the workers on themselves
    };
    for (const Mode& ex : {Mode{"mem-inline", DiskBackend::kMemory, false},
                           Mode{"mem-worker", DiskBackend::kMemory, true},
                           Mode{"file-worker", DiskBackend::kFile, false}}) {
        const SortTrace t = traced_sort(Workload::kUniform, cfg, {}, ex.backend, ex.workers);
        SCOPED_TRACE(ex.name);
        EXPECT_EQ(t.io.read_steps, ref.io.read_steps);
        EXPECT_EQ(t.io.write_steps, ref.io.write_steps);
        EXPECT_EQ(t.io.blocks_read, ref.io.blocks_read);
        EXPECT_EQ(t.io.blocks_written, ref.io.blocks_written);
        EXPECT_EQ(t.levels, ref.levels);
        EXPECT_EQ(t.base_cases, ref.base_cases);
        EXPECT_EQ(t.step_hash, ref.step_hash);
        EXPECT_EQ(t.out_hash, ref.out_hash);
        EXPECT_EQ(t.report.equal_class_records, ref.report.equal_class_records);
        // The executor really was the one named.
        EXPECT_EQ(t.io.async_block_ops > 0, ex.workers || ex.backend == DiskBackend::kFile);
    }
}

// ---------------------------------------------------------------------------
// Observability overhead guard (DESIGN.md §11): tracing observes, never
// perturbs. A sort with a tracer and a metrics registry installed must be
// bit-identical — io_steps, the full observer sequence, and the sorted
// output — to the same sort with observability off.
// ---------------------------------------------------------------------------

TEST(ObservabilityGuard, TracingChangesNoModelQuantity) {
    PdmConfig cfg{.n = 20000, .m = 1024, .d = 4, .b = 8, .p = 2};
    const SortTrace plain = traced_sort(Workload::kUniform, cfg, {}, DiskBackend::kMemory);

    Tracer tracer;
    MetricsRegistry metrics;
    SortJobConfig opt;
    opt.obs_policy.trace = &tracer;
    opt.obs_policy.metrics = &metrics;
    const SortTrace obs = traced_sort(Workload::kUniform, cfg, opt, DiskBackend::kMemory);

    EXPECT_EQ(obs.io.read_steps, plain.io.read_steps);
    EXPECT_EQ(obs.io.write_steps, plain.io.write_steps);
    EXPECT_EQ(obs.io.blocks_read, plain.io.blocks_read);
    EXPECT_EQ(obs.io.blocks_written, plain.io.blocks_written);
    EXPECT_EQ(obs.levels, plain.levels);
    EXPECT_EQ(obs.base_cases, plain.base_cases);
    EXPECT_EQ(obs.s_used, plain.s_used);
    EXPECT_EQ(obs.step_hash, plain.step_hash);
    EXPECT_EQ(obs.out_hash, plain.out_hash);
#ifndef BALSORT_NO_OBS
    // And the instruments really were live, not silently disconnected.
    EXPECT_GT(tracer.event_count(), 0u);
    EXPECT_GT(metrics.histogram("pool.acquire_records").count(), 0u);
#endif
}

// The sampling profiler is the most invasive observer — SIGPROF fires at
// the default rate throughout the sort, interrupting the pipeline at
// arbitrary points — and must still leave every model quantity, the full
// step-observer sequence, and the sorted output byte-identical. This is
// the overhead-guard acceptance test for `balsort_cli --profile`.
TEST(ObservabilityGuard, SamplingProfilerChangesNoModelQuantity) {
    PdmConfig cfg{.n = 20000, .m = 1024, .d = 4, .b = 8, .p = 2};
    const SortTrace plain = traced_sort(Workload::kUniform, cfg, {}, DiskBackend::kMemory);

    Profiler profiler; // default config = the CLI's default rate (997 Hz)
    SortJobConfig opt;
    opt.obs_policy.profiler = &profiler;
    const SortTrace prof = traced_sort(Workload::kUniform, cfg, opt, DiskBackend::kMemory);

    EXPECT_EQ(prof.io.io_steps(), plain.io.io_steps());
    EXPECT_EQ(prof.io.read_steps, plain.io.read_steps);
    EXPECT_EQ(prof.io.write_steps, plain.io.write_steps);
    EXPECT_EQ(prof.io.blocks_read, plain.io.blocks_read);
    EXPECT_EQ(prof.io.blocks_written, plain.io.blocks_written);
    EXPECT_EQ(prof.report.comparisons, plain.report.comparisons);
    EXPECT_EQ(prof.levels, plain.levels);
    EXPECT_EQ(prof.base_cases, plain.base_cases);
    EXPECT_EQ(prof.s_used, plain.s_used);
    EXPECT_EQ(prof.step_hash, plain.step_hash);
    EXPECT_EQ(prof.out_hash, plain.out_hash);
}

// The balance timeline (DESIGN.md §12) is the same kind of pure observer:
// recording every track's balance-quality sample must leave io_steps, the
// full observer sequence, and the sorted output bit-identical.
TEST(ObservabilityGuard, BalanceTimelineChangesNoModelQuantity) {
    PdmConfig cfg{.n = 20000, .m = 1024, .d = 4, .b = 8, .p = 2};
    const SortTrace plain = traced_sort(Workload::kUniform, cfg, {}, DiskBackend::kMemory);

    BalanceTimeline timeline;
    SortJobConfig opt;
    opt.balance_opts.timeline = &timeline;
    const SortTrace obs = traced_sort(Workload::kUniform, cfg, opt, DiskBackend::kMemory);

    EXPECT_EQ(obs.io.io_steps(), plain.io.io_steps());
    EXPECT_EQ(obs.io.read_steps, plain.io.read_steps);
    EXPECT_EQ(obs.io.write_steps, plain.io.write_steps);
    EXPECT_EQ(obs.io.blocks_read, plain.io.blocks_read);
    EXPECT_EQ(obs.io.blocks_written, plain.io.blocks_written);
    EXPECT_EQ(obs.levels, plain.levels);
    EXPECT_EQ(obs.base_cases, plain.base_cases);
    EXPECT_EQ(obs.s_used, plain.s_used);
    EXPECT_EQ(obs.step_hash, plain.step_hash);
    EXPECT_EQ(obs.out_hash, plain.out_hash);
    // The recorder really ran: one sample per Balance track.
    EXPECT_FALSE(timeline.tracks.empty());
    EXPECT_EQ(timeline.tracks.size(), obs.report.balance.tracks);
}

// ---------------------------------------------------------------------------
// PhaseProfile
// ---------------------------------------------------------------------------

TEST(PhaseProfileTest, PopulatedForEverySort) {
    PdmConfig cfg{.n = 20000, .m = 1024, .d = 4, .b = 8, .p = 2};
    DiskArray disks(cfg.d, cfg.b);
    auto input = generate(Workload::kUniform, cfg.n, 11);
    SortReport rep;
    balance_sort_records(disks, input, cfg, {}, &rep);
    const PhaseProfile& ph = rep.phases;
    // All four stages ran on a recursing instance.
    EXPECT_GT(ph.pivot_seconds, 0.0);
    EXPECT_GT(ph.balance_seconds, 0.0);
    EXPECT_GT(ph.base_case_seconds, 0.0);
    EXPECT_GT(ph.phase_seconds(), 0.0);
    // Stage intervals are disjoint driver-thread time: their sum (minus
    // engine time hidden under compute) can never exceed the wall clock.
    EXPECT_GT(rep.elapsed_seconds, 0.0);
    EXPECT_GE(rep.elapsed_seconds, ph.phase_seconds() - ph.overlap_hidden_seconds);
    // Memory backend on the inline executor: no engine, so no staging.
    EXPECT_EQ(ph.staged_prefetches, 0u);
    EXPECT_EQ(ph.overlap_hidden_seconds, 0.0);
    // Pooling is on by default and the sort recurses, so reuse happened.
    EXPECT_GT(ph.pool_hits + ph.pool_misses, 0u);
    EXPECT_GT(ph.pool_hits, 0u);
    EXPECT_GT(ph.pool_hit_rate(), 0.0);
}

// ---------------------------------------------------------------------------
// Cross-bucket staging
// ---------------------------------------------------------------------------

TEST(CrossBucketStaging, EngagesOnAsyncBackend) {
    PdmConfig cfg{.n = 20000, .m = 1024, .d = 4, .b = 8, .p = 2};
    DiskArray disks(cfg.d, cfg.b, DiskBackend::kFile,
                    std::filesystem::temp_directory_path().string());
    auto input = generate(Workload::kUniform, cfg.n, 13);
    SortReport rep;
    balance_sort_records(disks, input, cfg, {}, &rep); // file-backed: workers on
    EXPECT_GT(rep.phases.staged_prefetches, 0u);
    EXPECT_GT(rep.io.async_block_ops, 0u);
    // Intra-run double buffering (DESIGN.md §9) prefetches too: a staged
    // prefetch reads one memoryload window of at most m/b + d blocks, and
    // the total exceeds what staging alone could account for.
    EXPECT_GT(rep.io.prefetch_block_ops,
              rep.phases.staged_prefetches * (cfg.m / cfg.b + cfg.d));
}

TEST(CrossBucketStaging, NoOpWithoutEngine) {
    PdmConfig cfg{.n = 20000, .m = 1024, .d = 4, .b = 8, .p = 2};
    DiskArray disks(cfg.d, cfg.b); // memory backend, inline executor
    auto input = generate(Workload::kUniform, cfg.n, 13);
    SortReport rep;
    balance_sort_records(disks, input, cfg, {}, &rep);
    EXPECT_EQ(rep.phases.staged_prefetches, 0u);
    EXPECT_EQ(rep.io.prefetch_block_ops, 0u);
}

// ---------------------------------------------------------------------------
// Crash consistency (DESIGN.md §13): a sort interrupted at ANY durable
// boundary and resumed from the checkpoint must be indistinguishable from
// an uninterrupted checkpointing run — the same observer-step sequence
// (hashed across both generations), the same output bytes, the same model
// accounting, and the same cumulative checkpoint count. And checkpointing
// itself must leave every model quantity of a plain run untouched (only
// the physical placement of recycled blocks may move, because releases
// are quarantined between boundaries).
// ---------------------------------------------------------------------------

struct Crash {};

struct CkTrace {
    std::uint64_t step_hash = kFnvOffset;
    std::uint64_t out_hash = kFnvOffset;
    SortReport report;
};

/// One checkpointing sort on a single live array: optionally crash (throw)
/// at boundary `crash_at`, then resume from the checkpoint on the same
/// array. The observer hash accumulates across both generations.
CkTrace checkpointed_sort(const PdmConfig& cfg, const SortJobConfig& base_opt,
                          DiskBackend backend, const std::string& path,
                          std::uint64_t crash_at, bool workers = false) {
    DiskArray disks = backend == DiskBackend::kFile
                          ? DiskArray(cfg.d, cfg.b, DiskBackend::kFile,
                                      std::filesystem::temp_directory_path().string())
                          : DiskArray(cfg.d, cfg.b);
    disks.set_async(workers);
    CkTrace t;
    disks.set_step_observer([&t](bool is_read, std::span<const BlockOp> ops) {
        t.step_hash = fnv1a(t.step_hash, is_read ? 1 : 2);
        t.step_hash = fnv1a(t.step_hash, ops.size());
        for (const auto& op : ops) {
            t.step_hash = fnv1a(t.step_hash, op.disk);
            t.step_hash = fnv1a(t.step_hash, op.block);
        }
    });
    auto records = generate(Workload::kUniform, cfg.n, 42);
    const BlockRun input = write_striped(disks, records);
    SortJobConfig opt = base_opt;
    opt.durability_policy.checkpoint_path = path;
    BlockRun out;
    bool crashed = false;
    if (crash_at != 0) {
        opt.durability_policy.on_checkpoint = [crash_at](std::uint64_t seq) {
            if (seq == crash_at) throw Crash{};
        };
    }
    try {
        out = balance_sort(disks, input, cfg, opt, &t.report);
    } catch (const Crash&) {
        crashed = true;
    }
    if (crashed) {
        opt.durability_policy.on_checkpoint = nullptr;
        opt.durability_policy.resume_from = path;
        out = balance_sort(disks, input, cfg, opt, &t.report);
    }
    for (const Record& r : read_run(disks, out)) {
        t.out_hash = fnv1a(t.out_hash, r.key);
        t.out_hash = fnv1a(t.out_hash, r.payload);
    }
    std::filesystem::remove(path);
    return t;
}

void expect_resume_equals_fresh(const CkTrace& t, const CkTrace& fresh,
                                std::uint64_t total_boundaries) {
    EXPECT_EQ(t.step_hash, fresh.step_hash);
    EXPECT_EQ(t.out_hash, fresh.out_hash);
    EXPECT_EQ(t.report.io.read_steps, fresh.report.io.read_steps);
    EXPECT_EQ(t.report.io.write_steps, fresh.report.io.write_steps);
    EXPECT_EQ(t.report.io.blocks_read, fresh.report.io.blocks_read);
    EXPECT_EQ(t.report.io.blocks_written, fresh.report.io.blocks_written);
    EXPECT_EQ(t.report.comparisons, fresh.report.comparisons);
    EXPECT_EQ(t.report.pram_time, fresh.report.pram_time);
    EXPECT_EQ(t.report.levels, fresh.report.levels);
    EXPECT_EQ(t.report.base_cases, fresh.report.base_cases);
    EXPECT_EQ(t.report.equal_class_records, fresh.report.equal_class_records);
    // Seq is cumulative across the crash: the k-th logical boundary writes
    // seq k whether or not a crash intervened.
    EXPECT_EQ(t.report.checkpoints_written, total_boundaries);
    EXPECT_EQ(t.report.resumes, 1u);
}

TEST(CrashConsistency, ResumeEqualsFreshAtEveryBoundaryMemory) {
    const PdmConfig cfg{.n = 4000, .m = 512, .d = 4, .b = 8, .p = 2};
    const SortJobConfig opt;
    for (bool workers : {false, true}) {
        const char* executor = workers ? "worker" : "inline";
        const std::string path = (std::filesystem::temp_directory_path() /
                                  (std::string("balsort_resume_mem_") + executor + ".ck"))
                                     .string();
        const CkTrace fresh = checkpointed_sort(cfg, opt, DiskBackend::kMemory, path, 0, workers);
        const std::uint64_t k_total = fresh.report.checkpoints_written;
        ASSERT_GT(k_total, 4u) << "config too small to exercise boundaries";
        EXPECT_EQ(fresh.report.resumes, 0u);

        // Checkpointing changes no model quantity of the plain run.
        const SortTrace plain =
            traced_sort(Workload::kUniform, cfg, opt, DiskBackend::kMemory, workers);
        EXPECT_EQ(fresh.report.io.read_steps, plain.io.read_steps);
        EXPECT_EQ(fresh.report.io.write_steps, plain.io.write_steps);
        EXPECT_EQ(fresh.report.io.blocks_read, plain.io.blocks_read);
        EXPECT_EQ(fresh.report.io.blocks_written, plain.io.blocks_written);
        EXPECT_EQ(fresh.out_hash, plain.out_hash);

        for (std::uint64_t k = 1; k <= k_total; ++k) {
            SCOPED_TRACE("crash at boundary " + std::to_string(k) + "/" +
                         std::to_string(k_total) + " (" + executor + ")");
            const CkTrace t =
                checkpointed_sort(cfg, opt, DiskBackend::kMemory, path, k, workers);
            expect_resume_equals_fresh(t, fresh, k_total);
        }
    }
}

TEST(CrashConsistency, ResumeEqualsFreshFileBackend) {
    // File-backed sorts always run on the worker executor.
    const PdmConfig cfg{.n = 4000, .m = 512, .d = 4, .b = 8, .p = 2};
    const SortJobConfig opt;
    const std::string path =
        (std::filesystem::temp_directory_path() / "balsort_resume_file.ck").string();
    const CkTrace fresh = checkpointed_sort(cfg, opt, DiskBackend::kFile, path, 0);
    const std::uint64_t k_total = fresh.report.checkpoints_written;
    ASSERT_GT(k_total, 4u);
    EXPECT_GT(fresh.report.io.async_block_ops, 0u);
    for (std::uint64_t k : {std::uint64_t{1}, k_total / 2, k_total}) {
        SCOPED_TRACE("crash at boundary " + std::to_string(k) + "/" + std::to_string(k_total));
        const CkTrace t = checkpointed_sort(cfg, opt, DiskBackend::kFile, path, k);
        expect_resume_equals_fresh(t, fresh, k_total);
    }
}

// Synchronized-writes mode goes through a different emit path; one crash
// point suffices to pin the resume contract there too.
TEST(CrashConsistency, ResumeEqualsFreshSynchronizedWrites) {
    const PdmConfig cfg{.n = 4000, .m = 512, .d = 4, .b = 8, .p = 2};
    SortJobConfig opt;
    opt.io_policy.synchronized_writes = true;
    const std::string path =
        (std::filesystem::temp_directory_path() / "balsort_resume_syncw.ck").string();
    const CkTrace fresh = checkpointed_sort(cfg, opt, DiskBackend::kMemory, path, 0);
    const std::uint64_t k_total = fresh.report.checkpoints_written;
    ASSERT_GT(k_total, 2u);
    const CkTrace t = checkpointed_sort(cfg, opt, DiskBackend::kMemory, path, k_total / 2);
    expect_resume_equals_fresh(t, fresh, k_total);
}

// hier_sort resumes with a brand-new internal lanes array: the memory
// backend's block images travel inside the checkpoint record, so the
// resumed call restores them before replaying. The PDM model quantities
// must match the uninterrupted run; the charged hierarchy_time reflects
// only post-resume lane traffic (documented caveat).
TEST(CrashConsistency, HierSortResumesOnFreshLanes) {
    const std::string path =
        (std::filesystem::temp_directory_path() / "balsort_resume_hier.ck").string();
    HierSortConfig hc;
    hc.h = 16;
    hc.model = HierModelSpec::hmm(CostFn::log());
    hc.durability.checkpoint_path = path;
    auto recs = generate(Workload::kUniform, 4096, 7);

    HierSortReport fresh_rep;
    const auto fresh = hier_sort(recs, hc, &fresh_rep);
    const std::uint64_t k_total = fresh_rep.mechanics.checkpoints_written;
    ASSERT_GT(k_total, 2u);

    hc.durability.on_checkpoint = [k_total](std::uint64_t seq) {
        if (seq == k_total / 2) throw Crash{};
    };
    EXPECT_THROW(hier_sort(recs, hc, nullptr), Crash);

    hc.durability.on_checkpoint = nullptr;
    hc.durability.resume_from = path;
    HierSortReport rep;
    const auto resumed = hier_sort(recs, hc, &rep);
    EXPECT_EQ(resumed, fresh);
    EXPECT_EQ(rep.mechanics.io.read_steps, fresh_rep.mechanics.io.read_steps);
    EXPECT_EQ(rep.mechanics.io.write_steps, fresh_rep.mechanics.io.write_steps);
    EXPECT_EQ(rep.mechanics.io.blocks_read, fresh_rep.mechanics.io.blocks_read);
    EXPECT_EQ(rep.mechanics.io.blocks_written, fresh_rep.mechanics.io.blocks_written);
    EXPECT_EQ(rep.mechanics.checkpoints_written, k_total);
    EXPECT_EQ(rep.mechanics.resumes, 1u);
    // The lane meter is observer-driven and restarts on resume, so its
    // track count covers only the post-resume traffic (the caveat
    // documented on HierSortConfig::durability).
    EXPECT_GT(rep.tracks, 0u);
    EXPECT_LT(rep.tracks, fresh_rep.tracks);
    std::filesystem::remove(path);
}

// A checkpoint from one configuration must be rejected by another: the
// config echo guards against resuming into a different geometry.
TEST(CrashConsistency, ResumeRejectsMismatchedConfiguration) {
    const PdmConfig cfg{.n = 4000, .m = 512, .d = 4, .b = 8, .p = 2};
    const std::string path =
        (std::filesystem::temp_directory_path() / "balsort_resume_mismatch.ck").string();
    DiskArray disks(cfg.d, cfg.b);
    auto records = generate(Workload::kUniform, cfg.n, 42);
    const BlockRun input = write_striped(disks, records);
    SortJobConfig opt;
    opt.durability_policy.checkpoint_path = path;
    opt.durability_policy.on_checkpoint = [](std::uint64_t seq) {
        if (seq == 2) throw Crash{};
    };
    EXPECT_THROW(balance_sort(disks, input, cfg, opt), Crash);

    opt.durability_policy.on_checkpoint = nullptr;
    opt.durability_policy.resume_from = path;
    PdmConfig other = cfg;
    other.m = 1024; // different memory capacity
    EXPECT_THROW(balance_sort(disks, input, other, opt), std::invalid_argument);
    // resume_from without checkpoint_path is rejected up front.
    SortJobConfig no_ck;
    no_ck.durability_policy.resume_from = path;
    EXPECT_THROW(balance_sort(disks, input, cfg, no_ck), std::invalid_argument);
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

TEST(BufferPoolTest, RecyclesCapacity) {
    BufferPool pool;
    {
        auto a = pool.acquire(100);
        EXPECT_EQ(a->size(), 100u);
    }
    auto s = pool.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_GE(s.retained_records, 100u);
    EXPECT_GE(s.high_water_records, 100u);
    {
        auto b = pool.acquire(50); // served from the retained buffer
        EXPECT_EQ(b->size(), 50u);
    }
    s = pool.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
}

TEST(BufferPoolTest, CapDropsReturns) {
    BufferPool pool(/*max_retained_records=*/10);
    { auto a = pool.acquire(100); }
    const auto s = pool.stats();
    EXPECT_EQ(s.dropped, 1u);
    EXPECT_EQ(s.retained_records, 0u);
}

TEST(BufferPoolTest, UnpooledFallback) {
    auto lease = BufferPool::acquire_from(nullptr, 64);
    EXPECT_EQ(lease->size(), 64u);
    lease->at(0) = Record{1, 2};
    // Destruction of an unpooled lease must not touch any pool.
}

TEST(BufferPoolTest, LeaseMoveTransfersOwnership) {
    BufferPool pool;
    auto a = pool.acquire(32);
    auto* data = a->data();
    BufferPool::Lease b = std::move(a);
    EXPECT_EQ(b->data(), data);
    EXPECT_EQ(b->size(), 32u);
    b = BufferPool::Lease{}; // early return to the pool
    const auto s = pool.stats();
    EXPECT_GE(s.retained_records, 32u);
}

TEST(BufferPoolTest, PicksSmallestSufficientBuffer) {
    BufferPool pool;
    { auto a = pool.acquire(1000); }
    { auto b = pool.acquire(100); } // recycles the 1000-cap buffer
    {
        // Both retained: 1000-cap and (the shrunk-but-capacity-1000) — the
        // pool tracks capacity, so just assert hits keep happening.
        auto c = pool.acquire(500);
        const auto s = pool.stats();
        EXPECT_EQ(s.misses, 1u);
        EXPECT_EQ(s.hits, 2u);
    }
}

} // namespace
} // namespace balsort
