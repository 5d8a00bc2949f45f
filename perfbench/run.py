"""Run one benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run builds its inputs from the seed, times the set-up (a fresh
interpreter importing graphwalk and loading every input graph, several
times), runs one warm-up operation, then repeats the operation for S
seconds, with a fixed calibration loop between operations, and last checks
the outputs.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json: `op_rel` is the median operation time over the calibration
time around it.  With --trace 1 operations alternate between untraced and
traced, and it reports the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
# The set-up probe's calibration loop takes about this long on the 2-CPU
# machine the first baseline was recorded on; `setup_s` is scaled to it.
PROBE_CAL_REFERENCE_S = 0.040
MIN_OPS = 3

_CAL_DOC = {f"k{i}": [i, str(i) * 3, {"a": float(i)}] for i in range(3000)}
_CAL_ARRAY = np.random.default_rng(0).random(300_000)


def calibration_ms() -> float:
    """Time a fixed mix of interpreter, allocation and numpy work, in ms.

    The speed of a shared machine drifts by tens of percent over minutes.
    An operation's time divided by this loop's time, measured right around
    it, cancels most of that drift; the program cannot change the loop.
    """
    gc.collect()
    start = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    json.dumps(_CAL_DOC, indent=2)
    for _ in range(5):
        np.cumsum(_CAL_ARRAY).sum()
    return 1e3 * (perf_counter() - start)


def load_program() -> None:
    """Import graphwalk from this checkout's src/, or stop the run."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import graphwalk
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import graphwalk from {src}: {exc}")
    if not Path(graphwalk.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: graphwalk was imported from outside {src}")


def declared_units(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def setup_seconds(bench) -> tuple[float, float]:
    """One set-up in a fresh interpreter, timed from inside it.

    Returns the set-up's seconds, and the same scaled to the reference speed
    of the probe's calibration loop (set-up time times the reference over
    the loop's time around the set-up), which cancels most of the machine's
    drift from run to run.
    """
    graphs = [f"{path}:{'node' if node else 'edge'}" for path, node in bench.graphs()]
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"), *graphs],
        capture_output=True, text=True, timeout=120, check=True,
    )
    setup, cal = (float(x) for x in out.stdout.split()[-2:])
    return setup, setup * PROBE_CAL_REFERENCE_S / cal


def measure(bench, until: float, first_digests: list[str], tracer=None):
    """Repeat the operation until `until` (at least MIN_OPS times of each kind).

    The calibration loop runs between operations.  With a tracer,
    operations alternate between untraced and traced, so a slow spell of the
    machine hits both kinds alike.  Returns, for the untraced operations,
    their values (ms), their values over the mean calibration time just
    before and after, and their wall times (s); then the traced wall times
    and the per-layer metrics of each traced operation.  The workload's
    trace checks run on each traced operation.
    """
    ops, rel, walls, traced_walls, layers = [], [], [], [], []
    cal = [calibration_ms()]
    kinds = (ops,) if tracer is None else (ops, traced_walls)
    while perf_counter() < until or any(len(k) < MIN_OPS for k in kinds):
        traced = tracer is not None and len(traced_walls) < len(ops)
        if traced:
            tracer.begin_pass()
            tracer.install()
            bench.tracer = tracer
        start = perf_counter()
        try:
            value = bench.run_op()
            wall = perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
                bench.tracer = None
        cal.append(calibration_ms())
        if traced:
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer.totals, tracer.counters))
            record_checks(bench, bench.trace_checks(layers[-1]))
        else:
            ops.append(value)
            rel.append(value / ((cal[-2] + cal[-1]) / 2))
            walls.append(wall)
        bench.attempted += 1
        if bench.output_digests() != first_digests:
            bench.failures.append(f"operation {len(ops) + len(traced_walls)} did not reproduce the first outputs")
    return ops, rel, walls, traced_walls, layers, cal


def record_checks(bench, checks) -> None:
    """Count each check in `attempted`, and in `failed` when it does not hold."""
    for label, ok, detail in checks:
        bench.attempted += 1
        print(f"check {'ok  ' if ok else 'FAIL'} {label}: {detail}", file=sys.stderr)
        if not ok:
            bench.failures.append(label)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Run one workload; `scale` "smoke" is the tiny size of the benchmark's tests."""
    load_program()

    work = ROOT / ".perfbench-work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = WORKLOADS[workload](work, scale, seed)
        bench.prepare()
        setups = [setup_seconds(bench) for _ in range(SETUP_REPEATS)]

        rss_before_ops = peak_rss_mb()
        bench.run_op()
        first = bench.output_digests()

        start = perf_counter()
        if not trace:
            ops, rel, _, _, _, cal = measure(bench, start + seconds, first)
            # Read before the checks, which compile and walk on their own.
            peak = peak_rss_mb()
            print(f"{workload:16} {'op_wall_ms':32} {statistics.median(ops):.6g} ms\n"
                  f"{workload:16} {'calibration_ms':32} {statistics.median(cal):.6g} ms\n"
                  f"{workload:16} {'setup_wall_s':32} {statistics.median(s for s, _ in setups):.6g} s\n"
                  f"{workload:16} {'rss_before_ops_mb':32} {rss_before_ops:.6g} MB")
            metrics = {
                "op_rel": statistics.median(rel),
                "setup_s": statistics.median(s for _, s in setups),
                "peak_rss_mb": peak,
            }
            units = declared_units("end_to_end")
        else:
            tracer = Tracer()
            _, _, plain, traced, layers, _ = measure(bench, start + seconds, first, tracer)
            metrics = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
            overhead = statistics.median(traced) - statistics.median(plain)
            metrics["trace.overhead_s"] = overhead
            metrics["trace.overhead_frac"] = overhead / statistics.median(plain)
            out = ROOT / ".perfbench-out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"trace-{workload}-seed{seed}.json")
            units = declared_units("per_layer")
        # Every operation reproduced the first one's outputs byte for byte
        # (counted in `measure`), so checking the last outputs checks them all.
        record_checks(bench, bench.check())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for failure in bench.failures:
        print(f"failed: {failure}", file=sys.stderr)
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{args.workload:16} {name:32} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:16} {'failed_frac':32} {result['failed'] / result['attempted']:.6g}"
          f" ({result['failed']} of {result['attempted']})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
