"""Closed-form analysis of the search on stars and complete graphs.

On a star with one marked edge the walk collapses to four amplitudes: the
marked edge's pair and the shared pair of the unmarked edges.  Three of them
evolve under a 3x3 matrix whose complex eigenvalue phase sets the hitting
time; the fourth just alternates sign.  Starified complete graphs inherit a
pi*N/4 peak-time law used here as the analytic reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graph import (
    PolarityMap,
    _count,
    _index,
    complete_graph,
    star_graph,
    starify,
)
from . import walk


def _check_m(m: int) -> None:
    m = _index(m, "a leaf count")
    if m < 2:
        raise ValueError(f"star reduction needs at least 2 leaves, got m={m}")
    if m > 2**1022:  # the spectrum takes 2m - 1 as a float
        raise ValueError(f"star reduction needs m <= 2**1022 leaves, got m >= 2**{m.bit_length() - 1}")


def _check_n(n: int) -> int:
    """n as a complete-graph node count: n(n + 1) walk amplitudes need int64 indices."""
    n = _index(n, "a node count")
    if n < 3:
        raise ValueError(f"complete-graph analysis needs n >= 3, got {n}")
    if n > 2**31:
        raise ValueError(f"complete-graph analysis needs n <= 2**31, got n >= 2**{n.bit_length() - 1}")
    return n


@dataclass(frozen=True)
class StarReducedState:
    """Reduced state of the star walk with one marked edge.

    Attributes:
        alpha_plus / alpha_minus: Hub-facing and leaf-facing amplitudes shared
            by every unmarked edge.
        psi_plus / psi_minus: Hub-facing and leaf-facing amplitudes of the
            marked edge.
        m: Number of leaves (= hub degree).
        t: Steps taken.
    """

    alpha_plus: complex
    alpha_minus: complex
    psi_plus: complex
    psi_minus: complex
    m: int
    t: int = 0

    def marked_probability(self) -> float:
        return abs(self.psi_plus) ** 2 + abs(self.psi_minus) ** 2

    def norm(self) -> float:
        return math.sqrt(
            (self.m - 1) * (abs(self.alpha_plus) ** 2 + abs(self.alpha_minus) ** 2)
            + abs(self.psi_plus) ** 2
            + abs(self.psi_minus) ** 2
        )


def star_initial_state(m: int) -> StarReducedState:
    """Uniform superposition over the 2m amplitudes of an m-leaf star."""
    _check_m(m)
    a = 1.0 / math.sqrt(2 * m)
    return StarReducedState(a, a, a, a, m=m, t=0)


def star_reduced_step(s: StarReducedState) -> StarReducedState:
    """One walk step in the reduced star variables.

    Same oracle/coin/scattering step as the full walk, folded onto the
    symmetric subspace: the hub mixes the m hub-facing amplitudes by
    `star_matrix`, each leaf reflects its own trivially, and the marked
    edge's leaf-facing amplitude carries the oracle's sign.

    Examples:
        >>> s1 = star_reduced_step(star_initial_state(2))
        >>> s1.alpha_plus, s1.alpha_minus, s1.psi_plus, s1.psi_minus
        (-0.5, 0.5, 0.5, -0.5)
    """
    alpha_plus, alpha_minus, psi_plus = (
        star_matrix(s.m) @ (s.alpha_plus, s.alpha_minus, s.psi_plus)
    ).tolist()
    return StarReducedState(alpha_plus, alpha_minus, psi_plus, -s.psi_minus, m=s.m, t=s.t + 1)


def star_matrix(m: int) -> np.ndarray:
    """The 3x3 evolution matrix on (alpha_plus, alpha_minus, psi_plus)."""
    _check_m(m)
    return np.array(
        [
            [0.0, (m - 2) / m, -2.0 / m],
            [1.0, 0.0, 0.0],
            [0.0, 2.0 * (m - 1) / m, (m - 2) / m],
        ]
    )


@dataclass(frozen=True)
class StarSpectrum:
    """Spectral summary of the reduced star evolution.

    Attributes:
        m: Number of leaves.
        lam: Phase of the complex eigenvalue pair, in (0, pi).
        eigenvalues: (-1, e^{i lam}, e^{-i lam}).
        t_opt: Continuous peak-time estimate pi / (2 lam).
        p_asymptotic: Large-m limit of the peak success probability.
    """

    m: int
    lam: float
    eigenvalues: tuple[complex, complex, complex]
    t_opt: float
    p_asymptotic: float


def star_spectrum(m: int) -> StarSpectrum:
    """Eigenstructure of the reduced star walk.

    The 3x3 matrix has eigenvalues -1 and a conjugate pair on the unit
    circle, e^{+-i lam} with cos(lam) = (m-1)/m; the success amplitude
    rotates at rate lam, so the probability peaks near pi / (2 lam), which
    grows like (pi/2) * sqrt(m/2).

    Examples:
        >>> round(star_spectrum(100).t_opt, 2)
        11.1
    """
    _check_m(m)
    lam = math.atan2(math.sqrt(2 * m - 1), m - 1)
    ev = complex((m - 1) / m, math.sqrt(2 * m - 1) / m)
    return StarSpectrum(
        m=m,
        lam=lam,
        eigenvalues=(complex(-1.0), ev, ev.conjugate()),
        t_opt=math.pi / (2 * lam),
        p_asymptotic=1.0,
    )


def star_predicted_prob(m: int, t: float) -> float:
    """Closed-form estimate sin^2(lam * t) of the marked-edge probability."""
    return math.sin(star_spectrum(m).lam * t) ** 2


def reduced_vs_full(m: int, t_max: int) -> float:
    """Largest amplitude gap between the reduced and full star walks.

    Runs both dynamics from the uniform superposition for t = 0..t_max with
    edge 0 marked, comparing all four reduced amplitudes against their full
    counterparts at every step.  The full walk takes the edge list's
    polarity, which puts every + pole at the hub, as the reduction assumes.

    Returns:
        max over t of the max absolute amplitude difference.
    """
    _check_m(m)
    t_max = _count(t_max, "t_max")
    g = star_graph(m)
    p = PolarityMap(g.edges[:, 0])
    plan = walk.WalkPlan(g, p, walk.OracleSpec(marked=frozenset({0})))
    full = walk.diagonal_state(g)
    reduced = star_initial_state(m)
    worst = 0.0
    for _ in range(t_max + 1):
        worst = max(
            worst,
            abs(full.psi[0, 0] - reduced.psi_plus),
            abs(full.psi[0, 1] - reduced.psi_minus),
            float(np.abs(full.psi[1:, 0] - reduced.alpha_plus).max()),
            float(np.abs(full.psi[1:, 1] - reduced.alpha_minus).max()),
        )
        plan.step(full)
        reduced = star_reduced_step(reduced)
    return worst


def complete_graph_report(n: int, t_max: int) -> walk.SweepReport:
    """Node search on the complete graph, via its starified extension.

    Marks the virtual edge of node 0 and sweeps the walk, then attaches the
    analytic peak-time estimate pi * n / 4 to the report.  The sweep does
    not depend on the polarity, so the + pole sits at each edge's lower
    endpoint and no coloring is computed.
    """
    star = starify(complete_graph(_check_n(n)))
    g = star.graph
    p = PolarityMap(g.edges[:, 0])
    oracle = walk.OracleSpec(marked=frozenset({star.virtual_edge_of(0)}))
    return replace(walk.sweep(g, p, oracle, t_max), predicted_t=math.pi * n / 4)
