"""The benchmark's workloads: inputs, one measured operation, output checks.

Each workload calls the program the way a user does: `graphwalk.cli.main`
with an argument list (every output goes to a file), or, for `circuit-run`,
the public library calls.  Names are looked up on the modules at call time so
that the tracer's wrappers take effect.

A workload writes its inputs in `prepare` (untimed), names the graph files a
set-up loads, runs one operation per `run_op` and returns the operation's
time in milliseconds, and checks the outputs of its last operation in
`check`.  Every operation must reproduce the first one's outputs byte for
byte, so these are the outputs of all of them.
Compiles that only prepare an input run in a child interpreter, so that this
process's peak memory comes from the measured operations.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs

TOL = 1e-9          # sweep probabilities against an independent model
CIRCUIT_TOL = 1e-10  # circuit against the walk, and leaked weight
FIVE_SIGMA_TAIL = 2.87e-7  # one-sided normal tail beyond 5 sigma
SRC = Path(__file__).resolve().parents[1] / "src"

# Sizes per scale.  "full" is what the benchmark measures; "smoke" is a tiny
# run of the same code for the benchmark's own tests.
SIZES = {
    "full": {
        "walk-sweep": {"n": 10000, "e": 50000, "t": 20, "star": 50000, "star_t": 40, "complete": 100},
        "search": {"star": 4096, "trials": 12},
        "search-lasvegas": {"n": 1000, "e": 3000, "steps": 1, "trials": 24},
        "circuit-compile": {"star": 256, "n": 20, "d": 4},
        "circuit-verify": {"n": 20, "d": 4},
        "circuit-run": {"star": 128},
    },
    "smoke": {
        "walk-sweep": {"n": 40, "e": 90, "t": 6, "star": 20, "star_t": 8, "complete": 5},
        "search": {"star": 64, "trials": 8},
        "search-lasvegas": {"n": 30, "e": 60, "steps": 1, "trials": 3},
        "circuit-compile": {"star": 8, "n": 6, "d": 3},
        "circuit-verify": {"n": 6, "d": 3},
        "circuit-run": {"star": 8},
    },
}

# sha256 of outputs whose inputs do not depend on the seed, recorded on the
# seed commit (see README.md).  The ROADMAP requires these bytes to stay.
DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text())


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def reset_caches() -> None:
    """Start a command from the state a fresh CLI process has.

    Empties graphwalk's in-process caches and collects the previous
    command's garbage, so one command's heap does not speed up or slow down
    the next one.
    """
    gc.collect()
    for name, mod in list(sys.modules.items()):
        if name == "graphwalk" or name.startswith("graphwalk."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def star_t_opt(m: int) -> float:
    """Peak time pi / (2 lambda) of the star search, cos(lambda) = (m-1)/m."""
    return math.pi / (2 * math.atan2(math.sqrt(2 * m - 1), m - 1))


def greedy_colors(n: int, edges: np.ndarray) -> np.ndarray:
    """First-fit coloring in ascending node order (the CLI's default)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    colors = [-1] * n
    for u in range(n):
        taken = {colors[v] for v in adj[u]}
        c = 0
        while c in taken:
            c += 1
        colors[u] = c
    return np.array(colors)


def starified_edges(n: int, edges: np.ndarray) -> np.ndarray:
    """The edges of node mode: the graph's, then pendant edge (u, n + u) per node."""
    nodes = np.arange(n, dtype=np.int64)
    return np.concatenate([edges, np.stack([nodes, nodes + n], axis=1)])


def gamma_tails(k: int, x: float) -> tuple[float, float]:
    """(P(G <= x), P(G > x)) for G ~ Gamma(k, 1), whole k, as Poisson sums."""
    term, upper = math.exp(-x), 0.0
    for j in range(k):
        upper += term
        term *= x / (j + 1)
    return 1.0 - upper, upper


def reference_marked_probs(n: int, edges: np.ndarray, marked: list[int], t_max: int) -> np.ndarray:
    """Marked-edge probability at t = 0..t_max, by an independent walk.

    Same model as the package: polarity + pole at the higher greedy color,
    oracle -X on marked edges then the X coin (a sign flip on marked edges,
    a pole swap elsewhere), then (2/d)J - I at every node over the
    amplitudes facing it.  Amplitude 2k + c is edge k, pole c; pole 0 faces
    the + node.
    """
    colors = greedy_colors(n, edges)
    u, v = edges[:, 0], edges[:, 1]
    plus = np.where(colors[u] > colors[v], u, v)
    facing = np.stack([plus, u + v - plus], axis=1).reshape(-1)
    deg = np.bincount(facing, minlength=n).astype(float)
    scale = 2.0 / deg[facing]
    n_edges = len(edges)
    psi = np.full((n_edges, 2), 1 / math.sqrt(2 * n_edges), dtype=complex)
    probs = np.empty(t_max + 1)
    for t in range(t_max + 1):
        probs[t] = float((np.abs(psi[marked]) ** 2).sum())
        swapped = psi[:, ::-1].copy()
        swapped[marked] = -psi[marked]
        x = swapped.reshape(-1)
        sums = np.bincount(facing, x.real, n) + 1j * np.bincount(facing, x.imag, n)
        psi = (scale * sums[facing] - x).reshape(n_edges, 2)
    return probs


class Workload:
    """Shared plumbing: input files, CLI calls, failure counting."""

    name = ""

    def __init__(self, work: Path, scale: str, seed: int):
        self.work = work
        self.scale = scale
        self.size = SIZES[scale][self.name]
        self.rng = np.random.default_rng(seed)
        self.tracer = None
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: list[Path] = []

    def path(self, name: str) -> Path:
        return self.work / name

    def request(self):
        return self.tracer.request() if self.tracer is not None else nullcontext()

    def timed(self, label: str, fn):
        """Run one command as a fresh process would; return (seconds, result).

        A command that raises is counted as failed and its result is None.
        """
        reset_caches()
        self.attempted += 1
        with self.request():
            start = perf_counter()
            try:
                result = fn()
            except Exception:  # a crash is a failed command, not a lost run
                traceback.print_exc(file=sys.stderr)
                self.failures.append(f"{label}: raised")
                result = None
            return perf_counter() - start, result

    def cli(self, *argv) -> float:
        """Run one CLI command in-process and return its wall time."""
        from graphwalk import cli

        argv = [str(a) for a in argv]
        label = f"graphwalk {' '.join(argv)}"
        seconds, code = self.timed(label, lambda: cli.main(argv))
        if code not in (0, None):
            self.failures.append(f"{label}: exit {code}")
        return seconds

    def cli_child(self, *argv) -> None:
        """Run one untimed CLI command in a child interpreter."""
        argv = [str(a) for a in argv]
        code = f"import sys; sys.path.insert(0, {str(SRC)!r}); from graphwalk import cli; sys.exit(cli.main())"
        self.attempted += 1
        proc = subprocess.run([sys.executable, "-c", code, *argv], timeout=120)
        if proc.returncode != 0:
            self.failures.append(f"graphwalk {' '.join(argv)}: exit {proc.returncode}")

    def graphs(self) -> list[tuple[Path, bool]]:
        """(edge-list file, node mode) pairs that one set-up loads."""
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def run_op(self) -> float:
        raise NotImplementedError

    def check(self) -> list[tuple[str, bool, str]]:
        raise NotImplementedError

    def trace_checks(self, layers: dict[str, float]) -> list[tuple[str, bool, str]]:
        """Checks of one traced operation's per-layer metrics."""
        return []

    def output_digests(self) -> list[str]:
        """Digests of the last operation's outputs, compared across operations."""
        return [sha256(p) if p.exists() else "missing" for p in self.outputs]

    def write_random(self, name: str, n: int, n_edges: int) -> np.ndarray:
        edges = inputs.random_connected_edges(n, n_edges, self.rng)
        inputs.write_edge_list(self.path(name), edges)
        return edges

    def write_regular(self, name: str, n: int, d: int) -> np.ndarray:
        edges = inputs.random_regular_edges(n, d, self.rng)
        inputs.write_edge_list(self.path(name), edges)
        return edges

    def write_star(self, name: str, m: int) -> None:
        inputs.write_edge_list(self.path(name), inputs.star_edges(m))

    def digest_check(self, key: str, path: Path) -> tuple[str, bool, str]:
        def same():
            got = sha256(path)
            return got == DIGESTS.get(key), f"sha256 {got}"

        return _checked(f"{path.name} bytes match the seed commit", same)


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _checked(label: str, fn) -> tuple[str, bool, str]:
    """Run one check; an exception while checking is a failed check."""
    try:
        ok, detail = fn()
    except Exception as exc:  # malformed output must fail the check, not the run
        return (label, False, f"{type(exc).__name__}: {exc}")
    return (label, bool(ok), detail)


class WalkSweep(Workload):
    """One operation: sweep a random graph, sweep a star, analyze K_n."""

    name = "walk-sweep"

    def prepare(self):
        s = self.size
        self.edges = self.write_random("random.txt", s["n"], s["e"])
        self.mark = int(self.rng.integers(0, len(self.edges)))
        self.write_star("star.txt", s["star"])
        self.outputs = [self.path(p) for p in ("random.csv", "star.json", "complete.json")]

    def graphs(self):
        return [(self.path("random.txt"), False), (self.path("star.txt"), False)]

    def run_op(self):
        s = self.size
        u, v = self.edges[self.mark]
        seconds = self.cli("sweep", "--graph", self.path("random.txt"), "--mark-edge", u, v,
                           "--t-max", s["t"], "--out", self.outputs[0])
        seconds += self.cli("sweep", "--graph", self.path("star.txt"), "--mark-edge", 0, 1,
                            "--t-max", s["star_t"], "--out", self.outputs[1])
        seconds += self.cli("analyze-complete", s["complete"], "--out", self.outputs[2])
        return 1e3 * seconds

    def check(self):
        from graphwalk.spectral import star_initial_state, star_reduced_step

        s = self.size
        scale = self.scale

        def random_sweep():
            lines = self.outputs[0].read_text().splitlines()
            got = np.array([float(line.split(",")[1]) for line in lines[1:]])
            want = reference_marked_probs(s["n"], self.edges, [self.mark], s["t"])
            gap = float(np.abs(got - want).max()) if got.shape == want.shape else math.inf
            return lines[0] == "t,p_marked" and gap <= TOL, f"max gap {gap:.3e}"

        def star_sweep():
            got = _json(self.outputs[1])["p_t"]
            state = star_initial_state(s["star"])
            gap = 0.0
            for p in got:
                gap = max(gap, abs(p - state.marked_probability()))
                state = star_reduced_step(state)
            return len(got) == s["star_t"] + 1 and gap <= TOL, f"max gap {gap:.3e}"

        return [
            _checked("random sweep p_t matches the reference walk", random_sweep),
            _checked("star sweep p_t matches the reduced star model", star_sweep),
            self.digest_check(f"{scale}/star-sweep", self.outputs[1]),
            self.digest_check(f"{scale}/analyze-complete", self.outputs[2]),
        ]


class Search(Workload):
    """One operation: trials-mode search on a star at its peak step."""

    name = "search"

    def prepare(self):
        self.write_star("star.txt", self.size["star"])
        self.steps = round(star_t_opt(self.size["star"]))
        self.outputs = [self.path("search.json")]

    def graphs(self):
        return [(self.path("star.txt"), False)]

    def run_op(self):
        return 1e3 * self.cli(
            "search", "--graph", self.path("star.txt"), "--mark-edge", 0, 1,
            "--steps", self.steps, "--trials", self.size["trials"], "--seed", 7,
            "--out", self.outputs[0],
        )

    def check(self):
        from graphwalk.spectral import star_initial_state, star_reduced_step

        trials = self.size["trials"]

        def frequency():
            state = star_initial_state(self.size["star"])
            for _ in range(self.steps):
                state = star_reduced_step(state)
            p = state.marked_probability()
            sigma = math.sqrt(p * (1 - p) / trials)
            doc = _json(self.outputs[0])
            freq = doc["marked_frequency"]
            hits = sum(r["is_marked"] for r in doc["results"])
            ok = len(doc["results"]) == trials and hits == round(freq * trials)
            return ok and abs(freq - p) <= 5 * sigma + 1e-12, f"frequency {freq} vs p {p:.6f}"

        return [
            _checked("marked_frequency within 5 sigma of the reduced model", frequency),
            self.digest_check(f"{self.scale}/search", self.outputs[0]),
        ]


class SearchLasVegas(Workload):
    """One operation: one draw of `search --guaranteed` (command time / draws)."""

    name = "search-lasvegas"

    def prepare(self):
        s = self.size
        self.edges = self.write_random("random.txt", s["n"], s["e"])
        self.node = int(self.rng.integers(0, s["n"]))
        self.seed = int(self.rng.integers(0, 2**31))
        self.outputs = [self.path("lasvegas.json")]

    def graphs(self):
        return [(self.path("random.txt"), True)]

    def run_op(self):
        s = self.size
        seconds = self.cli(
            "search", "--graph", self.path("random.txt"), "--mark-node", self.node,
            "--steps", s["steps"], "--guaranteed", "--trials", s["trials"],
            "--seed", self.seed, "--out", self.outputs[0],
        )
        try:
            self.draws = sum(r["calls"] for r in _json(self.outputs[0])["results"])
        except (OSError, ValueError, KeyError) as exc:
            self.failures.append(f"unreadable search output: {exc}")
            self.draws = 1
        return 1e3 * seconds / self.draws

    def trace_checks(self, layers):
        traced = layers["walk.draws"]
        return [("traced walk.draws equals the output's draws", traced == self.draws,
                 f"{traced:.0f} traced, {self.draws} in the output")]

    def check(self):
        s = self.size

        def all_marked():
            doc = _json(self.outputs[0])
            virtual = s["e"] + self.node
            results = doc["results"]
            ok = len(results) == s["trials"] and all(
                r["is_marked"] and r["node"] == self.node and r["edge_index"] == virtual
                and r["calls"] >= 1 for r in results
            )
            return ok, f"{len(results)} results, draws {sum(r['calls'] for r in results)}"

        def draws_match_model():
            # Each find takes a geometric number of draws with success p, the
            # marked pendant edge's probability after `steps` steps of the
            # reference walk.  For p well below 1, p times the total is
            # Gamma(trials, 1); both tails must stay beyond 5 sigma.
            virtual = s["e"] + self.node
            probs = reference_marked_probs(2 * s["n"], starified_edges(s["n"], self.edges),
                                           [virtual], s["steps"])
            p = float(probs[s["steps"]])
            draws = sum(r["calls"] for r in _json(self.outputs[0])["results"])
            tails = gamma_tails(s["trials"], p * draws)
            return (min(tails) >= FIVE_SIGMA_TAIL,
                    f"{draws} draws, expected {s['trials'] / p:.0f} (p {p:.4e}, tails {tails[0]:.2e} {tails[1]:.2e})")

        return [
            _checked("every guaranteed result is the marked node", all_marked),
            _checked("draw count agrees with the reference walk within 5 sigma", draws_match_model),
        ]


class CircuitCompile(Workload):
    """One operation: compile a star with its audit, compile a random graph."""

    name = "circuit-compile"

    def prepare(self):
        s = self.size
        self.write_star("star.txt", s["star"])
        self.edges = self.write_regular("random.txt", s["n"], s["d"])
        self.mark = int(self.rng.integers(0, len(self.edges)))
        self.outputs = [self.path(p) for p in ("star.circuit.json", "star.audit.json", "random.circuit.json")]

    def graphs(self):
        return [(self.path("star.txt"), False), (self.path("random.txt"), False)]

    def run_op(self):
        u, v = self.edges[self.mark]
        seconds = self.cli("compile", "--graph", self.path("star.txt"), "--mark-edge", 0, 1,
                           "--out", self.outputs[0], "--audit-out", self.outputs[1])
        seconds += self.cli("compile", "--graph", self.path("random.txt"), "--mark-edge", u, v,
                            "--out", self.outputs[2])
        return 1e3 * seconds

    def check(self):
        from graphwalk import (circuit_from_json, compile_step, greedy_coloring,
                               polarity_from_coloring, star_graph)

        def audit():
            doc = _json(self.outputs[1])
            return doc["ok"] is True, f"{len(doc['violations'])} violations"

        def star_round_trip():
            loaded = circuit_from_json(self.outputs[0].read_text())
            g = star_graph(self.size["star"])
            fresh = compile_step(g, polarity_from_coloring(g, greedy_coloring(g)), [0])
            same = loaded.instructions == fresh.instructions
            return (len(loaded.instructions) == len(fresh.instructions) and same,
                    f"{len(loaded.instructions)} instructions loaded")

        def random_equivalence():
            return circuit_equivalent(self.path("random.txt"), self.edges[self.mark],
                                      self.outputs[2])

        return [
            _checked("star audit ok", audit),
            _checked("star document loads back with the same instructions", star_round_trip),
            _checked("random document is equivalent to the walk step", random_equivalence),
        ]


def circuit_equivalent(graph_path: Path, edge, circuit_path: Path) -> tuple[bool, str]:
    """Check a compiled document against the walk step, column by column."""
    from graphwalk import (circuit_from_json, greedy_coloring, parse_graph,
                           polarity_from_coloring, verify_circuit_equivalence)

    g = parse_graph(graph_path.read_text())
    p = polarity_from_coloring(g, greedy_coloring(g))
    marked = [g.edge_index(int(edge[0]), int(edge[1]))]
    report = verify_circuit_equivalence(
        g, p, marked, circuit=circuit_from_json(circuit_path.read_text()),
        tolerance=CIRCUIT_TOL,
    )
    return report.ok, f"deviation {report.max_deviation:.3e}, leakage {report.max_leakage:.3e}"


class CircuitVerify(Workload):
    """One operation: `verify --circuit` on a compiled random graph."""

    name = "circuit-verify"

    def prepare(self):
        s = self.size
        self.edges = self.write_regular("random.txt", s["n"], s["d"])
        self.mark = int(self.rng.integers(0, len(self.edges)))
        self.outputs = [self.path("verify.json")]
        self.cli_child("compile", *self.mark_args(), "--out", self.path("random.circuit.json"))

    def graphs(self):
        return [(self.path("random.txt"), False)]

    def mark_args(self):
        u, v = self.edges[self.mark]
        return ["--graph", self.path("random.txt"), "--mark-edge", u, v]

    def run_op(self):
        return 1e3 * self.cli("verify", *self.mark_args(), "--circuit",
                              self.path("random.circuit.json"), "--out", self.outputs[0])

    def check(self):
        def report():
            doc = _json(self.outputs[0])
            ok = (doc["ok"] is True and doc["max_deviation"] <= CIRCUIT_TOL
                  and doc["max_leakage"] <= CIRCUIT_TOL)
            return ok, f"deviation {doc['max_deviation']:.3e}, leakage {doc['max_leakage']:.3e}"

        return [_checked("verify reports ok within 1e-10", report)]


class CircuitRun(Workload):
    """One operation: load a compiled star step, run it, project it."""

    name = "circuit-run"

    def prepare(self):
        self.write_star("star.txt", self.size["star"])
        self.cli_child("compile", "--graph", self.path("star.txt"), "--mark-edge", 0, 1,
                       "--out", self.path("star.circuit.json"))
        self.text = self.path("star.circuit.json").read_text()

    def graphs(self):
        return [(self.path("star.txt"), False)]

    def run_op(self):
        from graphwalk import compiler, simulator

        def load_run_project():
            circuit = compiler.circuit_from_json(self.text)
            state = simulator.run(circuit)
            return state, simulator.project_to_walk_state(state, circuit.layout)

        seconds, self.result = self.timed("circuit-run", load_run_project)
        return 1e3 * seconds

    def check(self):
        from graphwalk import (OracleSpec, evolve, greedy_coloring,
                               polarity_from_coloring, star_graph)

        def matches_walk():
            state, walk_state = self.result
            g = star_graph(self.size["star"])
            p = polarity_from_coloring(g, greedy_coloring(g))
            want = evolve(g, p, OracleSpec(marked=frozenset({0})), 1).psi
            gap = float(np.abs(walk_state.psi - want).max())
            total = sum(abs(a) ** 2 for a in state.amps.values())
            leaked = total - float((np.abs(walk_state.psi) ** 2).sum())
            return gap <= CIRCUIT_TOL and leaked <= CIRCUIT_TOL, f"gap {gap:.3e}, leaked {leaked:.3e}"

        return [_checked("run projection equals one walk step", matches_walk)]

    def output_digests(self) -> list[str]:
        if self.result is None:
            return ["missing"]
        state, _ = self.result
        blob = json.dumps(sorted((k, a.real, a.imag) for k, a in state.amps.items()))
        return [hashlib.sha256(blob.encode()).hexdigest()]


WORKLOADS = {cls.name: cls for cls in (WalkSweep, Search, SearchLasVegas, CircuitCompile, CircuitVerify, CircuitRun)}
