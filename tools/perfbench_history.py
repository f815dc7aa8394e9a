#!/usr/bin/env python3
"""Turn one perfbench run into a line of the bench/history trend ledger.

    python3 perfbench/run.py --workload ref-uniform --seed 1 --seconds 30 --trace 0 \\
        | python3 tools/perfbench_history.py >> bench/history/perfbench.jsonl

Reads run.py's whole stdout: the "workload ..." header line, the
"provenance: {...}" line and the result JSON on the last line. Writes one
balsort-history-v1 line (bench "perfbench", one variant per workload and
seed), so `benchgate --trend bench/history` renders it next to the bench
suites: the workload shape is the config, `io_steps` is the model token
(exact per seed, so a change shows as MODEL CHANGE), `sort_s` is the wall
column, and the result line itself is kept verbatim under "perfbench".
"""

import datetime
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import WORKLOADS  # noqa: E402  (the shapes run.py benchmarks)


def history_line(workload, seed, seconds, git_describe, result, timestamp=None):
    shape = WORKLOADS[workload]
    n = shape["n"] * shape.get("jobs", 1)
    metrics = result["metrics"]
    return {
        "schema": "balsort-history-v1",
        "bench": "perfbench",
        "git_describe": git_describe,
        "timestamp": timestamp or datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "smoke": seconds < 30,
        "variants": [{
            "variant": f"{workload} seed={seed}",
            "config": {"n": n, "m": shape["m"], "d": shape["d"], "b": shape["b"], "p": 1},
            "model": {"io_steps": metrics["io_steps"]["value"]},
            "wall_seconds": metrics["sort_s"]["value"],
            "perfbench": result,
        }],
    }


def main():
    lines = [line.rstrip("\n") for line in sys.stdin if line.strip()]
    header = next((l.split() for l in lines if l.startswith("workload ")), None)
    prov = next((l for l in lines if l.startswith("provenance: ")), None)
    if header is None or prov is None or not lines:
        sys.exit("perfbench_history: input is not run.py's stdout")
    fields = dict(zip(header[0::2], header[1::2]))
    if fields.get("trace") != "0":
        sys.exit("perfbench_history: only untraced (--trace 0) runs go in the ledger")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit("perfbench_history: the run failed its checks")
    line = history_line(fields["workload"], int(fields["seed"]), float(fields["seconds"]),
                        json.loads(prov[len("provenance: "):])["git_describe"], result)
    print(json.dumps(line, separators=(",", ":")))


if __name__ == "__main__":
    main()
