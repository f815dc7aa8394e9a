#pragma once
/// \file balsort.hpp
/// Umbrella header: the library's public surface in one include.
///
///     #include "balsort.hpp"
///
/// brings in everything a user of the sorting library needs:
///  * `PdmConfig` — the machine parameters (N, M, D, B, P) of the parallel
///    disk model (pdm/config.hpp);
///  * `DiskArray`, `DiskBackend`, `FaultTolerance`, `DeviceModel` — the
///    simulated D-disk array with fault injection, checksums, parity, and
///    the asynchronous request/completion engine (pdm/disk_array.hpp);
///  * `BlockRun`, `write_striped`, `read_run` — laying data out on the
///    array and getting it back (pdm/striping.hpp);
///  * `SortReport`, `balance_sort`, `balance_sort_records` — the flagship
///    Theorem 1 sort and its measurements (core/balance_sort.hpp);
///  * `sort_stream`, `sort_file` — the streaming, self-checking external
///    sort driver around any sort step (core/sort_stream.hpp);
///  * `SortJobConfig`, `IoPolicy`, `ComputePolicy`, `DurabilityPolicy`,
///    `ObsPolicy` — the sort configuration, one builder-style struct
///    (core/sort_config.hpp);
///  * `SortScheduler`, `SchedulerConfig`, `JobSpec`, `JobStatus`,
///    `IoArbiter` — the concurrent multi-job sort service: admission
///    control, fair I/O scheduling, and per-job lifecycle over one shared
///    array (src/svc/; DESIGN.md §14);
///  * `HierSortConfig`, `HierSortReport`, `hier_sort` — the §4.3
///    memory-hierarchy drivers (core/hier_sort.hpp);
///  * `IoStats`, `IoTrace` — step accounting and tracing
///    (pdm/io_stats.hpp, pdm/trace.hpp);
///  * `Tracer`, `Span`, `MetricsRegistry`, `RunManifest` — the wall-clock
///    observability layer: Chrome-trace span export, latency histograms,
///    and run manifests (obs/tracer.hpp, obs/metrics.hpp,
///    obs/run_manifest.hpp; DESIGN.md §11);
///  * `Record`, `Workload`, `generate` — record type and test workloads
///    (util/record.hpp, util/workload.hpp).
///
/// Internal building blocks (Balance passes, matching, quantile sketches,
/// PRAM sorters, baselines) keep their own headers under `core/`, `pram/`,
/// and `baselines/`; include those directly only when programming against
/// the library's internals.

#include "core/balance_sort.hpp"
#include "core/hier_sort.hpp"
#include "core/sort_config.hpp"
#include "core/sort_stream.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/run_manifest.hpp"
#include "obs/tracer.hpp"
#include "pdm/config.hpp"
#include "pdm/disk_array.hpp"
#include "pdm/io_stats.hpp"
#include "pdm/striping.hpp"
#include "pdm/trace.hpp"
#include "svc/io_arbiter.hpp"
#include "svc/job.hpp"
#include "svc/sort_scheduler.hpp"
#include "util/record.hpp"
#include "util/workload.hpp"
