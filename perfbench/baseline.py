"""Record a baseline: every workload over several seeds, untraced and traced.

Usage (from the repository root):

    python3 perfbench/baseline.py --out perfbench/baseline/NAME.json

For each workload it runs `run.py --trace 0` once per seed 1..10 and reports
each end-to-end metric's median, quartiles and spread (quartile distance over
the median, as `statistics.quantiles(values, n=4)` gives them); then it runs
`run.py --trace 1` on seed 1 and reports each per-layer metric.  The file also records the machine and the commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Numbers run.py prints before its result line, recorded beside the metrics.
DIAGNOSTICS = ("op_wall_ms", "calibration_ms", "setup_wall_s", "rss_before_ops_mb")
SEEDS = list(range(1, 11))
TRACE_SEEDS = SEEDS[:1]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[1] in DIAGNOSTICS:
            result[fields[1]] = float(fields[2])
    print(f"{workload} seed {seed} trace {trace}: {result['wall_s']:.1f} s, correct={result['correct']} "
          f"{ {k: round(m['value'], 4) for k, m in result['metrics'].items() if trace == 0} }",
          file=sys.stderr, flush=True)
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def machine() -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(), "git_sha": sha}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    doc = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": SEEDS,
           "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = [run_once(workload, s, spec["run_seconds"], 0) for s in SEEDS]
        traced = [run_once(workload, s, spec["run_seconds"], 1) for s in TRACE_SEEDS]
        entry = {
            "correct": all(r["correct"] for r in plain + traced),
            "failed": sum(r["failed"] for r in plain + traced),
            "attempted": sum(r["attempted"] for r in plain + traced),
            "run_wall_s": [round(r["wall_s"], 2) for r in plain + traced],
            **{name: summarize([r[name] for r in plain]) for name in DIAGNOSTICS},
            "end_to_end": {
                m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in plain])
                for m in spec["end_to_end"]
            },
            "per_layer": {
                m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in traced)
                for m in spec["per_layer"]
            },
        }
        doc["workloads"][workload] = entry
        for name, s in [*entry["end_to_end"].items(), *((n, entry[n]) for n in DIAGNOSTICS)]:
            print(f"{workload:16} {name:18} median {s['median']:.5g} spread {s['spread']:.3f}",
                  file=sys.stderr, flush=True)
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
