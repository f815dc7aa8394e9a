#!/usr/bin/env python3
"""End-to-end sort benchmark for balsort (see README.md in this directory).

    python3 perfbench/run.py --workload ref-uniform --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first run configures and builds
`balsort_cli` and the benchmark harness into `.bench_build/perfbench`; all
scratch files live under `.perfbench_work/` and are removed on exit.

`--trace 0` measures the end-to-end metrics over repeated untraced runs;
`--trace 1` makes one untraced and one traced run plus the per-layer
replays and prints the per-layer metrics. Every output is checked. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
CLI = BUILD / "balsort_examples" / "balsort_cli"
HARNESS = BUILD / "perfbench_harness"

# Shapes (README.md). D, B, M are the CLI's flags; the CLI otherwise runs
# with its own defaults, on purpose.
WORKLOADS = {
    "ref-uniform": {"kind": "cli", "n": 4_000_000, "d": 8, "b": 256, "m": 65_536},
    "small-block": {"kind": "cli", "n": 2_000_000, "d": 8, "b": 32, "m": 65_536},
    "svc-mix": {"kind": "svc", "jobs": 8, "n": 500_000, "d": 8, "b": 256, "m": 65_536},
}
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
CLOSURE_MIN = 0.98

# The model counts the determinism guard pins (identical across repetitions
# and between traced and untraced runs); each comparison uses the keys both
# sides have ("blocks" = read + written, all the CLI's --stats shows).
MODEL_KEYS = ("io_steps", "blocks", "read_steps", "write_steps", "blocks_read",
              "blocks_written", "levels", "s_used", "base_cases", "tracks", "direct_blocks",
              "matched_blocks", "deferred_blocks", "rearrange_rounds")
# A service job's time budget (JobStatus::budget, plus its queue wait).
SVC_BUDGET = ("gate_wait_s", "queue_wait_s", "io_wait_s", "pool_wait_s", "other_s")


def log(msg):
    print(msg, flush=True)


class Tally:
    """Attempts and failures; every failure is printed with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILURE: {what}")
        return ok


# ---- build and processes ---------------------------------------------------

def build():
    """Configure once, then (re)build the two targets; output to stderr."""
    cache = BUILD / "CMakeCache.txt"
    src = ROOT / "perfbench"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={src}" not in cache.read_text():
        shutil.rmtree(BUILD)
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(src), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                  "--target", "balsort_cli", "perfbench_harness"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def spawn(argv, stdout_path):
    """Run argv to completion; returns (wall_s, rusage, exit_code, stdout)."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode, Path(stdout_path).read_text()


def harness(*args):
    res = subprocess.run([str(HARNESS), *map(str, args)], capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"harness {args[0]} failed: {res.stderr.strip()}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def provenance():
    try:
        describe = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        describe = ""
    build_type = "unknown"
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    return {"git_describe": describe or "unknown (not a git checkout)",
            "nproc": os.cpu_count(), "build_type": build_type}


# ---- metric helpers ----------------------------------------------------------

def hist_percentile(hists, q):
    """Percentile of the merged power-of-two histograms, interpolated inside
    the bucket (bucket k holds [2^(k-1), 2^k), reported by its upper bound;
    bucket 0 holds the values that truncated to 0, taken as [0, 1))."""
    merged = {}
    for h in hists:
        for ub, count in h.get("buckets", []):
            merged[ub] = merged.get(ub, 0) + count
    total = sum(merged.values())
    if total == 0:
        return 0.0
    target = q / 100.0 * total
    seen = 0
    for ub in sorted(merged):
        count = merged[ub]
        if seen + count >= target:
            lo = (ub + 1) / 2 if ub > 0 else 0.0
            return lo + (target - seen) / count * (ub + 1 - lo)
        seen += count
    return float(max(merged))


def registry_layers(reg):
    """Per-layer metrics read from a MetricsRegistry JSON snapshot."""
    hists = reg.get("histograms", {})
    gauges = reg.get("gauges", {})

    def disks(kind):
        return [h for name, h in hists.items() if name.startswith("disk") and name.endswith(kind)]

    return {
        "engine.queue_depth_p50": hist_percentile([hists.get("engine.queue_depth", {})], 50),
        "disk.read_latency_us_p50": hist_percentile(disks(".read_latency_us"), 50),
        "disk.read_latency_us_p99": hist_percentile(disks(".read_latency_us"), 99),
        "disk.write_latency_us_p50": hist_percentile(disks(".write_latency_us"), 50),
        "disk.write_latency_us_p99": hist_percentile(disks(".write_latency_us"), 99),
        "executor.tasks": gauges.get("executor.tasks", 0),
        "executor.steals": gauges.get("executor.steals", 0),
        "executor.parks": gauges.get("executor.parks", 0),
    }


def lanes_from_registry(reg):
    """Compute lanes of the run: the executor's workers plus the caller."""
    workers = reg.get("histograms", {}).get("executor.worker_tasks", {}).get("count", 0)
    return workers + 1


def model_of(rep):
    return {k: rep[k] for k in MODEL_KEYS if k in rep}


def guard_model(tally, reps, what):
    """Determinism guard: model counts identical across `reps`."""
    ref = model_of(reps[0])
    for rep in reps[1:]:
        now = model_of(rep)
        diff = {k: (ref[k], now[k]) for k in ref.keys() & now.keys() if ref[k] != now[k]}
        tally.attempt(not diff, f"{what}: model counts differ between runs: {diff}")


def layer_metrics_from(report, sort_s):
    """The pipeline / balance / engine / pdm / pool rows of one sort."""
    phases = [report["pivot_s"], report["balance_s"], report["base_case_s"], report["emit_s"]]
    placed = report["direct_blocks"] + report["matched_blocks"] + report["deferred_blocks"]
    pool_total = report["pool_hits"] + report["pool_misses"]
    io_s = report["io_wait_s"] + report["pool_wait_s"] + report.get("gate_wait_s", 0.0)
    return {
        "pipeline.pivot_s": report["pivot_s"],
        "pipeline.balance_s": report["balance_s"],
        "pipeline.base_case_s": report["base_case_s"],
        "pipeline.emit_s": report["emit_s"],
        "pipeline.other_s": sort_s - sum(phases),
        "pipeline.phase_cover_frac": sum(phases) / sort_s,
        "pipeline.io_wait_s": report["io_wait_s"],
        "pipeline.pool_wait_s": report["pool_wait_s"],
        "pipeline.compute_s": max(0.0, sort_s - io_s),
        "pipeline.overlap_hidden_s": report["overlap_hidden_s"],
        "pipeline.staged_prefetches": report["staged_prefetches"],
        "pipeline.levels": report["levels"],
        "pipeline.s_used": report["s_used"],
        "pipeline.base_cases": report["base_cases"],
        "balance.tracks": report["tracks"],
        "balance.direct_blocks": report["direct_blocks"],
        "balance.matched_blocks": report["matched_blocks"],
        "balance.deferred_blocks": report["deferred_blocks"],
        "balance.rearrange_rounds": report["rearrange_rounds"],
        "balance.direct_frac": report["direct_blocks"] / placed if placed else 0.0,
        "engine.busy_s": report["engine_busy_s"],
        "engine.stall_s": report["engine_stall_s"],
        "engine.block_ops": report["async_block_ops"],
        "engine.max_in_flight": report["max_in_flight"],
        "pdm.read_steps": report["read_steps"],
        "pdm.write_steps": report["write_steps"],
        "pdm.blocks_read": report["blocks_read"],
        "pdm.blocks_written": report["blocks_written"],
        "compute.helped": report["compute_helped"],
        "pool.hit_rate": report["pool_hits"] / pool_total if pool_total else 0.0,
        "pool.misses": report["pool_misses"],
    }


def repeat(tally, seconds, one_rep):
    """Repetitions until `seconds` have passed (at least MIN_REPS); failed
    ones (None) are dropped, and a run that only fails stops early."""
    reps = []
    t0 = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - t0 < seconds:
        rep = one_rep()
        if rep is not None:
            reps.append(rep)
        elif tally.attempted >= MIN_REPS and not reps:
            break
    return reps


def print_ceilings(layers, records_per_s):
    log(f"ceilings: records_per_s {records_per_s:.0f} rec/s | "
        f"ceiling.std_sort_s {layers['ceiling.std_sort_s']:.4f} s | "
        f"ceiling.scratch_io_s {layers['ceiling.scratch_io_s']:.4f} s | "
        f"ceiling.sort_frac {layers['ceiling.sort_frac']:.3f}")


# ---- CLI workloads -------------------------------------------------------------

def parse_stats(text):
    """The `--stats` table of balsort_cli: metric name -> value string."""
    rows = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0] and cells[0] != "metric":
            rows[cells[0]] = cells[1].replace(",", "").rstrip("%")
    return rows


def manifest_report(man):
    """A manifest flattened to the field names the svc harness prints."""
    io, rep, ph, bal = man["io"], man["report"], man["phases"], man["balance"]
    return {
        "io_steps": io["io_steps"], "read_steps": io["read_steps"],
        "write_steps": io["write_steps"], "blocks_read": io["blocks_read"],
        "blocks_written": io["blocks_written"], "utilization": io["utilization"],
        "blocks": io["blocks_read"] + io["blocks_written"],
        "engine_busy_s": io["engine_busy_seconds"], "engine_stall_s": io["engine_stall_seconds"],
        "async_block_ops": io["async_block_ops"], "max_in_flight": io["max_in_flight"],
        "levels": rep["levels"], "s_used": rep["s_used"], "base_cases": rep["base_cases"],
        "sort_s": rep["elapsed_seconds"],
        "pivot_s": ph["pivot_seconds"], "balance_s": ph["balance_seconds"],
        "base_case_s": ph["base_case_seconds"], "emit_s": ph["emit_seconds"],
        "io_wait_s": ph["io_wait_seconds"], "pool_wait_s": ph["pool_wait_seconds"],
        "gate_wait_s": ph["gate_wait_seconds"],
        "overlap_hidden_s": ph["overlap_hidden_seconds"],
        "staged_prefetches": ph["staged_prefetches"], "pool_hits": ph["pool_hits"],
        "pool_misses": ph["pool_misses"], "compute_helped": ph["compute_helped"],
        "tracks": bal["tracks"], "direct_blocks": bal["direct_blocks"],
        "matched_blocks": bal["matched_blocks"], "deferred_blocks": bal["deferred_blocks"],
        "rearrange_rounds": bal["rearrange_rounds"],
    }


def cli_rep(tally, shape, work, inp, traced):
    """One balsort_cli invocation plus its output check (outside the timing)."""
    out = work / "out.bin"
    argv = [str(CLI), str(inp), str(out), "--stats", "--scratch", str(work),
            "--disks", str(shape["d"]), "--block", str(shape["b"]), "--mem", str(shape["m"])]
    if traced:
        argv += ["--trace", str(work / "trace.json"), "--metrics-json", str(work / "metrics.json"),
                 "--manifest", str(work / "manifest.json")]
    wall, usage, code, text = spawn(argv, work / "cli_stdout.txt")
    stats = parse_stats(text)
    rep = {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
           "cpu_s": usage.ru_utime + usage.ru_stime}
    if code != 0 or "sort elapsed (s)" not in stats:
        tally.attempt(False, f"balsort_cli exited {code}")
        return None
    check = harness("check", inp, out)
    out.unlink()
    if not tally.attempt(check["ok"], f"wrong output: {check}"):
        return None
    rep["sort_s"] = float(stats["sort elapsed (s)"])
    rep["setup_s"] = wall - rep["sort_s"]
    rep["io_steps"] = int(stats["parallel I/O steps"])
    rep["blocks"] = int(stats["scratch bytes moved"]) // (16 * shape["b"])
    if traced:
        rep["manifest"] = json.loads((work / "manifest.json").read_text())
        rep["registry"] = json.loads((work / "metrics.json").read_text())
    log(f"  run: wall {wall:.4f} s, sort {rep['sort_s']:.2f} s, io_steps {rep['io_steps']}, "
        f"rss {rep['rss_mb']:.1f} MB{' (traced)' if traced else ''}")
    return rep


def cli_workload(tally, shape, work, seed, seconds, trace):
    inp = work / "in.bin"
    harness("gen", inp, shape["n"], seed)
    n = shape["n"]
    if not trace:
        reps = repeat(tally, seconds, lambda: cli_rep(tally, shape, work, inp, traced=False))
        if not reps:
            return {}
        guard_model(tally, reps, "untraced repetitions")
        walls = [r["wall_s"] for r in reps]
        return {
            "records_per_s": n / median(walls),
            "sort_s": median([r["sort_s"] for r in reps]),
            "setup_s": median([r["setup_s"] for r in reps]),
            "peak_rss_mb": median([r["rss_mb"] for r in reps]),
            "io_steps": reps[0]["io_steps"],
            "job_p50_s": median(walls),
        }

    plain = cli_rep(tally, shape, work, inp, traced=False)
    traced = cli_rep(tally, shape, work, inp, traced=True)
    if plain is None or traced is None:
        return {}
    report = manifest_report(traced["manifest"])
    sort_s = report["sort_s"]
    guard_model(tally, [plain, report], "untraced vs traced run")
    layers = layer_metrics_from(report, sort_s)
    layers["pdm.utilization"] = report["utilization"]
    layers.update(registry_layers(traced["registry"]))
    layers["proc.cpu_s"] = traced["cpu_s"]
    for k in SVC_BUDGET:
        layers[f"svc.{k}"] = 0.0  # no service layer on the CLI path
    layers.update(harness("replay", inp, work, shape["d"], shape["b"], shape["m"],
                          lanes_from_registry(traced["registry"]), report["s_used"],
                          report["blocks_read"], report["blocks_written"]))
    layers["ceiling.sort_frac"] = (layers["ceiling.std_sort_s"]
                                   + layers["ceiling.scratch_io_s"]) / sort_s
    layers["trace.overhead_frac"] = sort_s / plain["sort_s"] - 1.0
    cover = layers["pipeline.phase_cover_frac"]
    closed = sum(layers[f"pipeline.{p}_s"] for p in ("pivot", "balance", "base_case", "emit", "other"))
    log(f"closure: phases + other = {closed:.6f} s = sort_s {sort_s:.6f} s; phases cover "
        f"{100 * cover:.2f}% ({'ok' if cover >= CLOSURE_MIN else 'BELOW'} the "
        f"{100 * CLOSURE_MIN:.0f}% rule); trace.overhead_frac {layers['trace.overhead_frac']:+.4f}")
    print_ceilings(layers, n / plain["wall_s"])
    return layers


# ---- the sort-service workload ---------------------------------------------------

def svc_rep(tally, shape, work, seed, solo, traced):
    """One closed batch in a fresh harness process; every job checked."""
    wall, usage, code, text = spawn(
        [str(HARNESS), "svc", str(work), str(seed), str(shape["jobs"]), str(shape["n"]),
         "1" if traced else "0"], work / "svc_stdout.txt")
    if code != 0:
        tally.attempt(False, f"svc batch exited {code}")
        return None
    rep = json.loads(text.strip().splitlines()[-1])
    for job, ref in zip(rep["jobs"], solo):
        ok = job["state"] == "succeeded" and job["output_hash"] == ref["output_hash"]
        tally.attempt(ok, f"job {job['name']}: state {job['state']}, hash {job['output_hash']} "
                          f"vs solo {ref['output_hash']}")
        # Determinism guard: per-job model counts equal the solo run's.
        guard_model(tally, [ref, job], f"job {job['name']} vs its solo run")
    rep["rss_mb"] = usage.ru_maxrss / 1024.0
    rep["cpu_s"] = usage.ru_utime + usage.ru_stime
    rep["io_steps"] = sum(j["io_steps"] for j in rep["jobs"])
    rep["job_p50_s"] = median([j["latency_s"] for j in rep["jobs"]])
    rep["sort_s"] = median([j["sort_s"] for j in rep["jobs"]])
    log(f"  batch: makespan {rep['makespan_s']:.4f} s, setup {rep['setup_s'] * 1e3:.3f} ms, "
        f"job p50 {rep['job_p50_s']:.4f} s, io_steps {rep['io_steps']}, "
        f"rss {rep['rss_mb']:.1f} MB{' (traced)' if traced else ''}")
    return rep


def svc_workload(tally, shape, work, seed, seconds, trace):
    solo = harness("svc-solo", seed, shape["jobs"], shape["n"])["jobs"]
    records = shape["jobs"] * shape["n"]
    if not trace:
        reps = repeat(tally, seconds, lambda: svc_rep(tally, shape, work, seed, solo, traced=False))
        if not reps:
            return {}
        return {
            "records_per_s": records / median([r["makespan_s"] for r in reps]),
            "sort_s": median([r["sort_s"] for r in reps]),
            "setup_s": median([r["setup_s"] for r in reps]),
            "peak_rss_mb": median([r["rss_mb"] for r in reps]),
            "io_steps": reps[0]["io_steps"],
            "job_p50_s": median([r["job_p50_s"] for r in reps]),
        }

    plain = svc_rep(tally, shape, work, seed, solo, traced=False)
    traced = svc_rep(tally, shape, work, seed, solo, traced=True)
    if plain is None or traced is None:
        return {}
    jobs = traced["jobs"]
    summed = {k: sum(j[k] for j in jobs) for k in jobs[0] if isinstance(jobs[0][k], (int, float))}
    summed["max_in_flight"] = max(j["max_in_flight"] for j in jobs)
    summed["levels"] = max(j["levels"] for j in jobs)
    summed["s_used"] = max(j["s_used"] for j in jobs)
    layers = layer_metrics_from(summed, summed["sort_s"])
    layers["pdm.utilization"] = ((summed["blocks_read"] + summed["blocks_written"])
                                 / (summed["io_steps"] * shape["d"]))
    registry = json.loads((work / "svc_metrics.json").read_text())
    layers.update(registry_layers(registry))
    layers["proc.cpu_s"] = traced["cpu_s"]
    for k in SVC_BUDGET:
        layers[f"svc.{k}"] = median([j[f"svc_{k}"] for j in jobs])
    # Replays and ceilings on one uniform job's shape.
    first = jobs[0]
    inp = work / "job.bin"
    harness("gen", inp, shape["n"], seed)
    lanes = min(4, os.cpu_count() or 1)
    layers.update(harness("replay", inp, work, shape["d"], shape["b"], shape["m"], lanes,
                          first["s_used"], first["blocks_read"], first["blocks_written"]))
    layers["ceiling.sort_frac"] = (layers["ceiling.std_sort_s"]
                                   + layers["ceiling.scratch_io_s"]) / first["sort_s"]
    layers["trace.overhead_frac"] = traced["sort_s"] / plain["sort_s"] - 1.0
    log(f"closure (not gated for service jobs): phases cover "
        f"{100 * layers['pipeline.phase_cover_frac']:.2f}% of the summed job sort time; "
        f"trace.overhead_frac {layers['trace.overhead_frac']:+.4f}")
    print_ceilings(layers, records / plain["makespan_s"])
    return layers


# ---- main --------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # BENCHMARK.json names the metrics of each mode and their units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    build()
    shape = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    log(f"provenance: {json.dumps(provenance())}")
    tally = Tally()
    try:
        run = cli_workload if shape["kind"] == "cli" else svc_workload
        values = run(tally, shape, work, args.seed, args.seconds, args.trace == 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    missing = sorted(units.keys() - values.keys())
    if missing:
        tally.attempt(False, f"metrics not measured: {missing}")
    for name, m in metrics.items():
        log(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    error_rate = tally.failed / max(1, tally.attempted)
    log(f"error_rate {error_rate:.4f} ({tally.failed} of {tally.attempted} checks failed)")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
