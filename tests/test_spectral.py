"""Reduced star dynamics, its spectrum, and model-versus-walk agreement."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from graphwalk import (
    OracleSpec,
    PolarityMap,
    StarReducedState,
    complete_graph,
    complete_graph_report,
    greedy_coloring,
    polarity_from_coloring,
    reduced_vs_full,
    star_graph,
    star_initial_state,
    star_matrix,
    star_predicted_prob,
    star_reduced_step,
    star_spectrum,
    starify,
    sweep,
)

MARK0 = OracleSpec(marked=frozenset({0}))


def test_initial_state_amplitudes():
    s = star_initial_state(4)
    root = 1 / math.sqrt(8)
    assert s.alpha_plus == pytest.approx(root)
    assert s.psi_plus == pytest.approx(root)
    assert s.marked_probability() == pytest.approx(0.25)
    assert s.norm() == pytest.approx(1.0)
    assert s.t == 0


def test_reduced_step_two_leaves():
    s = star_reduced_step(StarReducedState(0.5, 0.5, 0.5, 0.5, m=2))
    assert s.alpha_plus == pytest.approx(-0.5)
    assert s.alpha_minus == pytest.approx(0.5)
    assert s.psi_plus == pytest.approx(0.5)
    assert s.psi_minus == pytest.approx(-0.5)
    assert s.t == 1


def test_reduced_step_fixes_zero_state():
    s = star_reduced_step(StarReducedState(0, 0, 0, 0, m=7))
    assert s.norm() == 0


def test_reduced_step_preserves_norm():
    s = star_initial_state(100)
    for _ in range(50):
        s = star_reduced_step(s)
        assert s.norm() == pytest.approx(1.0, abs=1e-12)


def test_reduced_step_alternates_minus_component():
    s = StarReducedState(0.1, 0.2, 0.3, 0.4, m=5)
    for parity in range(1, 5):
        s = star_reduced_step(s)
        assert s.psi_minus == pytest.approx(0.4 * (-1) ** parity)


@pytest.mark.parametrize("m", [1, 0, -3])
def test_small_stars_rejected(m):
    with pytest.raises(ValueError, match="at least 2"):
        star_initial_state(m)
    with pytest.raises(ValueError, match="at least 2"):
        star_spectrum(m)


@pytest.mark.parametrize("m", [2.5, 3.0, True, "3"])
def test_leaf_counts_must_be_integers(m):
    for f in (star_initial_state, star_matrix, star_spectrum):
        with pytest.raises(TypeError):
            f(m)


def test_leaf_counts_take_numpy_integers():
    assert star_initial_state(np.int64(3)) == star_initial_state(3)
    assert reduced_vs_full(np.int64(3), np.int32(4)) == reduced_vs_full(3, 4)


def test_reduced_vs_full_rejects_negative_t_max():
    with pytest.raises(ValueError, match="t_max must be nonnegative"):
        reduced_vs_full(3, -1)
    with pytest.raises(TypeError, match="bool"):
        reduced_vs_full(3, True)


@pytest.mark.parametrize("m", [2, 10, 100, 10_000])
def test_eigenvalues_match_closed_form(m):
    spectrum = star_spectrum(m)
    evals = np.linalg.eigvals(star_matrix(m))
    expected = sorted(spectrum.eigenvalues, key=lambda z: (z.real, z.imag))
    got = sorted(evals, key=lambda z: (z.real, z.imag))
    np.testing.assert_allclose(got, expected, atol=1e-10)
    assert cmath.exp(1j * spectrum.lam) == pytest.approx(
        (m - 1 + 1j * math.sqrt(2 * m - 1)) / m, abs=1e-12
    )


@pytest.mark.parametrize("m", [2, 3, 17, 1024, 10**6])
def test_eigenvalues_on_unit_circle(m):
    for ev in star_spectrum(m).eigenvalues:
        assert abs(abs(ev) - 1) < 1e-14


def test_two_leaf_spectrum_closed_form():
    spectrum = star_spectrum(2)
    assert spectrum.lam == pytest.approx(math.pi / 3)
    assert spectrum.eigenvalues[0] == pytest.approx(-1.0)
    assert spectrum.eigenvalues[1] == pytest.approx((1 + 1j * math.sqrt(3)) / 2)
    assert spectrum.t_opt == pytest.approx(1.5)


def test_t_opt_approaches_quarter_period_scaling():
    spectrum = star_spectrum(100)
    assert spectrum.t_opt == pytest.approx(11.0979, abs=1e-3)
    # Large-m asymptote: pi/2 * sqrt(m/2).
    assert spectrum.t_opt == pytest.approx(math.pi / 2 * math.sqrt(50), abs=0.05)
    assert spectrum.p_asymptotic == pytest.approx(1.0, abs=0.02)


def test_predicted_prob_endpoints():
    assert star_predicted_prob(64, 0) == 0.0
    spectrum = star_spectrum(64)
    assert star_predicted_prob(64, spectrum.t_opt) == pytest.approx(1.0, abs=1e-12)


def test_predicted_prob_tracks_walk_at_peak():
    # Frozen gap between the sinusoidal model and the exact walk for m=400
    # at the rounded optimum t=22.
    rep = sweep(star_graph(400), PolarityMap((0,) * 400), MARK0, 22)
    gap = abs(rep.probs[22] - star_predicted_prob(400, 22))
    assert gap == pytest.approx(0.00136, abs=5e-4)
    assert gap < 0.05


@pytest.mark.parametrize("m", [2, 100])
def test_reduced_matches_full_walk(m):
    dev = reduced_vs_full(m, 30)
    assert dev < 1e-12


def test_complete_graph_report_peak():
    rep = complete_graph_report(8, 10)
    predicted = math.pi * 8 / 4
    assert rep.predicted_t == pytest.approx(predicted)
    assert abs(rep.t_star - predicted) / predicted < 0.25
    assert rep.p_star > 0.8


@pytest.mark.parametrize("n", [3, 5, 12])
def test_complete_graph_report_equals_the_colored_sweep(n):
    # The report takes the edge list's polarity; the sweep does not depend
    # on it, so it matches the sweep under the coloring polarity bit for bit.
    star = starify(complete_graph(n))
    g = star.graph
    p = polarity_from_coloring(g, greedy_coloring(g))
    t_max = math.ceil(math.pi * n / 2)
    want = sweep(g, p, OracleSpec(marked=frozenset({star.virtual_edge_of(0)})), t_max)
    rep = complete_graph_report(n, t_max)
    assert np.array(rep.probs).tobytes() == np.array(want.probs).tobytes()
    assert rep.t_star == want.t_star
    assert np.float64(rep.p_star).tobytes() == np.float64(want.p_star).tobytes()


def test_complete_graph_report_rejects_tiny_n():
    with pytest.raises(ValueError, match="n >= 3"):
        complete_graph_report(2, 5)


def test_complete_graph_report_rejects_n_beyond_int64_indices():
    # Checked before the graph is built: numpy would refuse the size itself.
    for n in (2**31 + 1, np.int64(2**40), 10**400):
        with pytest.raises(ValueError, match=r"n <= 2\*\*31, got n >= 2\*\*"):
            complete_graph_report(n, 3)


@pytest.mark.parametrize("f", [star_initial_state, star_matrix, star_spectrum])
def test_star_reduction_rejects_m_beyond_float_range(f):
    f(2**1022)
    with pytest.raises(ValueError, match=r"m <= 2\*\*1022 leaves, got m >= 2\*\*1022$"):
        f(2**1022 + 1)
