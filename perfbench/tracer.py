"""Spans and counters recorded from outside the graphwalk package.

The tracer replaces module attributes with timing wrappers and puts the
originals back afterwards.  It patches every graphwalk module that binds a
wrapped function, so aliases such as `cli.run_sweep` (bound at import) and
module globals such as `walk.step` (looked up on each call) are both timed.

Each wrapped call is a span: name, start, end, parent span, and the id of the
request (one CLI command or library call group) it belongs to.  Hot callees
(`step`, `apply_instruction`, ...) are aggregated per (name, parent) into
count, total and self time instead of being kept one by one.  Self time is a
span's duration minus the time its traced children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, hot).  Names are reported as "<module>.<attribute>".
TARGETS = (
    ("graph", "parse_graph_document", False),
    ("graph", "greedy_coloring", False),
    ("graph", "polarity_from_coloring", False),
    ("graph", "starify", False),
    ("walk", "step", True),
    ("walk", "apply_oracle", True),
    ("walk", "apply_coin", True),
    ("walk", "apply_scattering", True),
    ("walk", "edge_probabilities", True),
    ("walk", "evolve", True),
    ("walk", "search", True),
    ("walk", "guaranteed_search", True),
    ("walk", "sweep", False),
    ("walk", "step_matrix", False),
    ("spectral", "complete_graph_report", False),
    ("compiler", "build_layout", False),
    ("compiler", "compile_oracle", False),
    ("compiler", "compile_coin", False),
    ("compiler", "compile_scatter", True),
    ("compiler", "compile_step", False),
    ("compiler", "circuit_from_json", False),
    ("compiler", "locality_audit", False),
    ("compiler", "Circuit.to_json", False),
    ("simulator", "apply_instruction", True),
    ("simulator", "run", False),
    ("simulator", "step_circuit_matrix", False),
    ("simulator", "_project", True),
    ("simulator", "project_to_walk_state", False),
    ("simulator", "verify_circuit_equivalence", False),
    ("cli", "main", False),
)

# Parents under which a walk step continues an evolution from the uniform
# start state, so equal (operator, t) keys are repeated work.
_FROM_DIAGONAL = {"walk.evolve", "walk.sweep"}


class Tracer:
    """Times wrapped graphwalk calls; per-pass totals plus a full span log."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.hot: dict[tuple[str, str | None], list[float]] = {}
        self.request_id = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self.begin_pass()

    def begin_pass(self) -> None:
        """Start fresh per-pass totals: name -> [count, total_s, self_s]."""
        self.totals: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self._distinct: set = set()

    @contextmanager
    def request(self):
        """Group the spans of one CLI command or library call sequence."""
        self.request_id += 1
        self._distinct = set()
        yield

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0.0), value)

    def _record(self, name, parent, start, end, self_s, hot):
        dur = end - start
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])
        tot[0] += 1
        tot[1] += dur
        tot[2] += self_s
        if hot:
            agg = self.hot.setdefault((name, parent), [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += self_s
        else:
            self.spans.append((name, start, end, parent, self.request_id))

    def _wrap(self, fn, name, hot):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if name == "simulator.apply_instruction":
                span = f"{name}.{args[1].gate.value}"
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [span, 0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                tracer._record(
                    span, parent and parent[0], start, end, end - start - frame[1], hot
                )
            if hook is not None:
                hook(tracer, args, kwargs, result, parent and parent[0])
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded graphwalk module.

        The targets' home modules are imported first: a workload that calls
        only library functions has not loaded `graphwalk.cli`.

        A target the program no longer has is skipped; its metrics read 0.
        """
        homes = {m: importlib.import_module(f"graphwalk.{m}") for m, _, _ in TARGETS}
        modules = [m for k, m in sys.modules.items() if k == "graphwalk" or k.startswith("graphwalk.")]
        for mod_name, attr, hot in TARGETS:
            home = homes[mod_name]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is not None and hasattr(cls, meth):
                    self._patch(cls, meth, self._wrap(getattr(cls, meth), name, hot))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, hot)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def write(self, path) -> None:
        """Write the span log and the hot-callee aggregates as JSON."""
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "request": r}
                for n, s, e, p, r in self.spans
            ],
            "hot": [
                {"name": n, "parent": p, "count": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.hot.items(), key=lambda kv: str(kv[0]))
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _on_step(tracer, args, kwargs, result, parent):
    g, p = args[1], args[2]
    coin = kwargs.get("coin", args[3] if len(args) > 3 else None)
    oracle = kwargs.get("oracle", args[4] if len(args) > 4 else None)
    tracer.count("steps")
    if parent in _FROM_DIAGONAL:
        marked = None if oracle is None else (oracle.marked, oracle.matrix.tobytes())
        coin_key = None if coin is None else coin.matrix.tobytes()
        key = (id(g), id(p), marked, coin_key, result.t)
        if key in tracer._distinct:
            return
        tracer._distinct.add(key)
    tracer.count("distinct_steps")


def _on_search(tracer, args, kwargs, result, parent):
    oracle = kwargs.get("oracle", args[2] if len(args) > 2 else None)
    tracer.count("draws")
    if result in oracle.marked:
        tracer.count("hits")


def _on_guaranteed(tracer, args, kwargs, result, parent):
    tracer.count("draws", result[1])
    tracer.count("hits")


def _on_compile_step(tracer, args, kwargs, result, parent):
    tracer.count("instructions", len(result.instructions))
    for ins in result.instructions:
        tracer.count(f"gates.{ins.gate.value}")
        if ins.matrix is not None:
            tracer.count("matrix_entries", ins.matrix.size)


def _on_to_json(tracer, args, kwargs, result, parent):
    tracer.count("json_bytes", len(result.encode()))


def _on_apply_instruction(tracer, args, kwargs, result, parent):
    tracer.peak("peak_support", len(result.amps))


def _on_circuit_matrix(tracer, args, kwargs, result, parent):
    tracer.count("columns", result[0].shape[1])


_HOOKS = {
    "walk.step": _on_step,
    "walk.search": _on_search,
    "walk.guaranteed_search": _on_guaranteed,
    "compiler.compile_step": _on_compile_step,
    "compiler.Circuit.to_json": _on_to_json,
    "simulator.apply_instruction": _on_apply_instruction,
    "simulator.step_circuit_matrix": _on_circuit_matrix,
}

GATE_KINDS = ("x", "z", "cnot", "swap", "mcx", "ctrl-unitary")


def layer_metrics(totals: dict, counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by their benchmark names."""

    def total(*names):
        return sum(totals[n][1] for n in names if n in totals)

    def self_time(*names):
        return sum(totals[n][2] for n in names if n in totals)

    def calls(name):
        return totals[name][0] if name in totals else 0

    def ratio(num, den, empty):
        return counters.get(num, 0.0) / counters[den] if counters.get(den) else empty

    out = {
        "graph.parse_s": total("graph.parse_graph_document"),
        "graph.color_s": total("graph.greedy_coloring"),
        "graph.polarity_s": total("graph.polarity_from_coloring"),
        "graph.starify_s": total("graph.starify"),
        "walk.step_calls": calls("walk.step"),
        "walk.step_s": total("walk.step"),
        "walk.oracle_s": total("walk.apply_oracle"),
        "walk.coin_s": total("walk.apply_coin"),
        "walk.scatter_s": total("walk.apply_scattering"),
        "walk.probs_s": total("walk.edge_probabilities"),
        "walk.evolve_calls": calls("walk.evolve"),
        # No steps wasted when none are traced (say, evolution without step).
        "walk.useful_step_ratio": ratio("distinct_steps", "steps", 1.0),
        "walk.sample_s": self_time("walk.search", "walk.guaranteed_search"),
        "walk.draws": counters.get("draws", 0.0),
        "walk.hit_ratio": ratio("hits", "draws", 0.0),
        "walk.step_matrix_s": total("walk.step_matrix"),
        "spectral.report_s": total("spectral.complete_graph_report"),
        "compiler.layout_s": total("compiler.build_layout"),
        "compiler.oracle_coin_s": total("compiler.compile_oracle", "compiler.compile_coin"),
        "compiler.scatter_s": total("compiler.compile_scatter"),
        "compiler.instructions": counters.get("instructions", 0.0),
        "compiler.matrix_entries": counters.get("matrix_entries", 0.0),
        "compiler.to_json_s": total("compiler.Circuit.to_json"),
        "compiler.json_bytes": counters.get("json_bytes", 0.0),
        "compiler.from_json_s": total("compiler.circuit_from_json"),
        "compiler.audit_s": total("compiler.locality_audit"),
        "simulator.gates_applied": sum(
            calls(f"simulator.apply_instruction.{k}") for k in GATE_KINDS
        ),
        "simulator.peak_support": counters.get("peak_support", 0.0),
        "simulator.columns": counters.get("columns", 0.0),
        "simulator.run_s": total("simulator.run"),
        "simulator.circuit_matrix_s": total("simulator.step_circuit_matrix"),
        "simulator.project_s": total("simulator._project"),
        "cli.self_s": self_time("cli.main"),
    }
    for kind in GATE_KINDS:
        out[f"compiler.gates.{kind}"] = counters.get(f"gates.{kind}", 0.0)
        out[f"simulator.gate_s.{kind}"] = total(f"simulator.apply_instruction.{kind}")
    return out
