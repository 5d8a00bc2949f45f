"""Walk dynamics: operators, search, sweeps, and their invariants."""

from __future__ import annotations

import json

import numpy as np
import pytest

from graphwalk import (
    CallCapExceededError,
    CoinSpec,
    DiffusionOperator,
    Graph,
    OracleSpec,
    PolarityMap,
    WalkPlan,
    WalkState,
    apply_coin,
    apply_oracle,
    apply_scattering,
    complete_graph,
    diagonal_state,
    edge_probabilities,
    evolve,
    greedy_coloring,
    guaranteed_search,
    path_graph,
    polarity_from_coloring,
    random_connected_graph,
    search,
    star_graph,
    star_initial_state,
    star_reduced_step,
    starify,
    step,
    step_matrix,
    sweep,
)
from graphwalk import walk as walk_module
from helpers import random_walk_state

MARK0 = OracleSpec(marked=frozenset({0}))
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def coloring_polarity(g):
    return polarity_from_coloring(g, greedy_coloring(g))


def hub_polarity(m):
    return PolarityMap((0,) * m)


def test_diagonal_state_path3():
    s = diagonal_state(path_graph(3))
    np.testing.assert_allclose(s.psi, np.full((2, 2), 0.5))
    assert s.t == 0


def test_diagonal_state_star2():
    s = diagonal_state(star_graph(2))
    np.testing.assert_allclose(s.psi, np.full((2, 2), 0.5))


def test_diagonal_state_single_edge():
    s = diagonal_state(complete_graph(2))
    np.testing.assert_allclose(s.psi, np.full((1, 2), 1 / np.sqrt(2)))


def test_diagonal_state_needs_edges():
    with pytest.raises(ValueError, match="no edges"):
        diagonal_state(Graph(1, ()))


def test_coin_spec_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        CoinSpec(np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(ValueError, match="2x2"):
        CoinSpec(np.eye(3))


def test_oracle_spec_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        OracleSpec(frozenset({0}), np.array([[2, 0], [0, 1]], dtype=complex))


@pytest.mark.parametrize(
    "make", [CoinSpec, lambda m: OracleSpec(frozenset({0}), m)], ids=["coin", "oracle"]
)
def test_spec_copies_and_freezes_matrix(make):
    m = HADAMARD.copy()
    spec = make(m)
    assert not np.shares_memory(spec.matrix, m)
    m[0, 0] = 5.0
    np.testing.assert_array_equal(spec.matrix, HADAMARD)
    with pytest.raises(ValueError, match="read-only"):
        spec.matrix[0, 0] = 1.0


def test_apply_oracle_minus_x():
    s = WalkState(np.array([[0.6, 0.8j]]))
    apply_oracle(s, MARK0)
    np.testing.assert_allclose(s.psi, [[-0.8j, -0.6]])


def test_apply_oracle_no_mark_is_identity():
    s = random_walk_state(4, np.random.default_rng(0))
    before = s.psi.copy()
    apply_oracle(s, OracleSpec())
    np.testing.assert_array_equal(s.psi, before)


def test_apply_oracle_star2_diagonal():
    s = diagonal_state(star_graph(2))
    apply_oracle(s, MARK0)
    np.testing.assert_allclose(s.psi[0], [-0.5, -0.5])
    np.testing.assert_allclose(s.psi[1], [0.5, 0.5])


def test_apply_oracle_out_of_range():
    s = diagonal_state(star_graph(2))
    with pytest.raises(ValueError, match="out of range"):
        apply_oracle(s, OracleSpec(marked=frozenset({5})))


def test_apply_coin_swaps_components():
    s = WalkState(np.array([[0.6, 0.8j], [1.0, 0.0]]))
    apply_coin(s, CoinSpec())
    np.testing.assert_allclose(s.psi, [[0.8j, 0.6], [0.0, 1.0]])


def test_apply_coin_identity():
    s = random_walk_state(3, np.random.default_rng(1))
    before = s.psi.copy()
    apply_coin(s, CoinSpec(np.eye(2, dtype=complex)))
    np.testing.assert_array_equal(s.psi, before)


def test_apply_coin_fixes_diagonal():
    s = diagonal_state(path_graph(4))
    before = s.psi.copy()
    apply_coin(s, CoinSpec())
    np.testing.assert_allclose(s.psi, before, atol=1e-15)


def test_scattering_degree_1_identity():
    g = complete_graph(2)
    s = random_walk_state(1, np.random.default_rng(2))
    before = s.psi.copy()
    apply_scattering(s, g, PolarityMap((0,)))
    np.testing.assert_allclose(s.psi, before, atol=1e-15)


def test_scattering_degree_2_swaps_facing_pair():
    g = path_graph(3)
    p = PolarityMap((0, 1))  # node 1 faces e0's minus and e1's plus
    s = WalkState(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    apply_scattering(s, g, p)
    np.testing.assert_allclose(s.psi, [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)


def test_scattering_degree_3_first_column():
    g = star_graph(3)
    s = WalkState(np.zeros((3, 2), dtype=complex))
    s.psi[0, 0] = 1.0
    apply_scattering(s, g, hub_polarity(3))
    np.testing.assert_allclose(s.psi[:, 0], [-1 / 3, 2 / 3, 2 / 3], atol=1e-15)
    np.testing.assert_allclose(s.psi[:, 1], 0, atol=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 17, 64])
def test_scattering_matches_dense_diffusion(d):
    g = star_graph(d)
    rng = np.random.default_rng(d)
    s = random_walk_state(d, rng)
    expected_hub = DiffusionOperator(d).matrix @ s.psi[:, 0]
    apply_scattering(s, g, hub_polarity(d))
    np.testing.assert_allclose(s.psi[:, 0], expected_hub, atol=1e-13)


def test_diffusion_operator_involution():
    for d in (1, 2, 5, 33):
        m = DiffusionOperator(d).matrix
        np.testing.assert_allclose(m @ m, np.eye(d), atol=1e-12)
        np.testing.assert_allclose(m, m.T)


def test_scattering_twice_is_identity():
    for seed in range(5):
        g = random_connected_graph(10, extra_edges=8, seed=seed)
        p = coloring_polarity(g)
        s = random_walk_state(g.n_edges, np.random.default_rng(seed))
        before = s.psi.copy()
        apply_scattering(apply_scattering(s, g, p), g, p)
        np.testing.assert_allclose(s.psi, before, atol=1e-12)


def test_step_fixed_point_without_mark():
    for g in (path_graph(5), complete_graph(4), star_graph(6)):
        s = diagonal_state(g)
        step(s, g, coloring_polarity(g))
        np.testing.assert_allclose(
            s.psi, diagonal_state(g).psi, atol=1e-12
        )
        assert s.t == 1


def test_step_star2_matches_reduced_recurrence():
    g = star_graph(2)
    s = diagonal_state(g)
    reduced = star_initial_state(2)
    for _ in range(6):
        step(s, g, hub_polarity(2), oracle=MARK0)
        reduced = star_reduced_step(reduced)
        np.testing.assert_allclose(
            s.psi,
            [
                [reduced.psi_plus, reduced.psi_minus],
                [reduced.alpha_plus, reduced.alpha_minus],
            ],
            atol=1e-13,
        )


def test_step_path3_one_hot_transport():
    # + poles: edge 0 at node 0, edge 1 at node 1.  A walker leaving edge 0
    # through node 1 must land on edge 1's component facing node 1.
    g = path_graph(3)
    p = PolarityMap((0, 1))
    s = WalkState(np.zeros((2, 2), dtype=complex))
    s.psi[0, 0] = 1.0
    step(s, g, p)
    expected = np.zeros((2, 2), dtype=complex)
    expected[1, 0] = 1.0
    np.testing.assert_allclose(s.psi, expected, atol=1e-15)


def test_edge_probabilities_diagonal_uniform():
    g = complete_graph(4)
    probs = edge_probabilities(diagonal_state(g))
    np.testing.assert_allclose(probs, np.full(6, 1 / 6), atol=1e-15)


def test_edge_probabilities_one_hot():
    psi = np.zeros((3, 2), dtype=complex)
    psi[1, 1] = 1.0
    np.testing.assert_allclose(edge_probabilities(WalkState(psi)), [0, 1, 0])


def test_edge_probabilities_rejects_denormalized():
    with pytest.raises(ValueError, match="norm"):
        edge_probabilities(WalkState(np.ones((2, 2), dtype=complex)))


def test_marked_probability_matches_reduced_model():
    g = star_graph(2)
    s = diagonal_state(g)
    reduced = star_initial_state(2)
    for _ in range(10):
        step(s, g, hub_polarity(2), oracle=MARK0)
        reduced = star_reduced_step(reduced)
        assert edge_probabilities(s)[0] == pytest.approx(
            reduced.marked_probability(), abs=1e-13
        )


def test_step_norm_preserved_long_run():
    g = random_connected_graph(20, extra_edges=25, seed=11)
    s = evolve(g, coloring_polarity(g), MARK0, 200)
    assert abs(s.norm() - 1) < 1e-12
    assert s.t == 200


def test_step_linearity():
    g = random_connected_graph(8, extra_edges=6, seed=5)
    p = coloring_polarity(g)
    rng = np.random.default_rng(5)
    s1 = random_walk_state(g.n_edges, rng)
    s2 = random_walk_state(g.n_edges, rng)
    a, b = 0.3 - 0.7j, 1.1 + 0.2j
    combo = WalkState(a * s1.psi + b * s2.psi)
    step(combo, g, p, oracle=MARK0)
    step(s1, g, p, oracle=MARK0)
    step(s2, g, p, oracle=MARK0)
    np.testing.assert_allclose(combo.psi, a * s1.psi + b * s2.psi, atol=1e-13)


def test_endpoint_order_does_not_matter():
    p = PolarityMap((1, 1))
    rep1 = sweep(Graph(3, ((0, 1), (1, 2))), p, MARK0, 12)
    rep2 = sweep(Graph(3, ((1, 0), (2, 1))), p, MARK0, 12)
    assert rep1.probs == rep2.probs


def test_step_matrix_is_unitary():
    g = random_connected_graph(6, extra_edges=4, seed=2)
    m = step_matrix(g, coloring_polarity(g), oracle=MARK0)
    np.testing.assert_allclose(m @ m.conj().T, np.eye(2 * g.n_edges), atol=1e-12)


def column_by_column_step_matrix(g, p, coin=None, oracle=None):
    """Reference step matrix: the step applied to each unit amplitude in turn."""
    dim = 2 * g.n_edges
    mat = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        state = WalkState(np.zeros((g.n_edges, 2), dtype=complex))
        state.psi[j // 2, j % 2] = 1.0
        step(state, g, p, coin=coin, oracle=oracle)
        mat[:, j] = state.psi.reshape(-1)
    return mat


@pytest.mark.parametrize("marked", [{0}, {1, 5}], ids=["one-mark", "two-marks"])
@pytest.mark.parametrize("seed", range(4))
def test_step_matrix_equals_column_by_column(seed, marked):
    g = random_connected_graph(9, extra_edges=7, seed=seed)
    p = coloring_polarity(g)
    oracle = OracleSpec(marked=frozenset(marked))
    assert np.array_equal(
        step_matrix(g, p, oracle=oracle), column_by_column_step_matrix(g, p, oracle=oracle)
    )
    coin = CoinSpec(HADAMARD)
    np.testing.assert_allclose(
        step_matrix(g, p, coin=coin, oracle=oracle),
        column_by_column_step_matrix(g, p, coin=coin, oracle=oracle),
        rtol=0, atol=1e-12,
    )


def reference_step_matrix(g, p, oracle, coin):
    """One step as a dense product, independent of the plan's indexing.

    apply_oracle and apply_coin act on each unit column; then every node's
    dense (2/d)J - I fills the block of rows facing it, found through
    the graph's CSR slices and PolarityMap.component_at.
    """
    dim = 2 * g.n_edges
    local = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        s = WalkState(np.zeros((g.n_edges, 2), dtype=complex))
        s.psi[j // 2, j % 2] = 1.0
        apply_coin(apply_oracle(s, oracle), coin)
        local[:, j] = s.psi.reshape(-1)
    scatter = np.zeros((dim, dim))
    for u in range(g.n):
        rows = [2 * k + p.component_at(k, u) for k in g.edge[g.indptr[u] : g.indptr[u + 1]]]
        scatter[np.ix_(rows, rows)] = DiffusionOperator(len(rows)).matrix
    return scatter @ local


def plan_cases():
    for seed in range(3):
        g = random_connected_graph(10, extra_edges=9, seed=seed)
        yield f"random-{seed}", g, coloring_polarity(g), {seed, 7}
        star = starify(random_connected_graph(6, extra_edges=4, seed=seed))
        g = star.graph
        yield f"starified-{seed}", g, coloring_polarity(g), {star.virtual_edge_of(seed)}


PLAN_CASES = list(plan_cases())


@pytest.mark.parametrize("name,g,p,marked", PLAN_CASES, ids=[c[0] for c in PLAN_CASES])
def test_plan_matches_reference_with_default_specs(name, g, p, marked):
    oracle = OracleSpec(marked=frozenset(marked))
    plan = WalkPlan(g, p, oracle)
    ref = reference_step_matrix(g, p, oracle, CoinSpec())
    # Each column has one nonzero of modulus 1, so no rounding separates them.
    assert np.array_equal(plan.matrix(), ref)
    s = random_walk_state(g.n_edges, np.random.default_rng(len(name)))
    want = ref @ s.psi.reshape(-1)
    np.testing.assert_allclose(plan.step(s).psi.reshape(-1), want, rtol=0, atol=1e-12)


def test_default_step_equals_matrix_products_bitwise():
    """With the default specs a step gathers pole partners and flips marked
    signs; over 20 steps that equals the 2x2 matrix products exactly."""
    g = random_connected_graph(30, extra_edges=50, seed=4)
    p = coloring_polarity(g)
    marked = [3, 17]
    oracle = OracleSpec(marked=frozenset(marked))
    plan = WalkPlan(g, p, oracle)
    coin_m = CoinSpec().matrix
    marked_m = coin_m @ oracle.matrix
    fast = random_walk_state(g.n_edges, np.random.default_rng(8))
    slow = fast.copy()
    for _ in range(20):
        plan.step(fast)
        y = slow.psi @ coin_m.T
        y[marked] = slow.psi[marked] @ marked_m.T
        slow.psi = y
        plan.scatter(slow)
        assert np.array_equal(fast.psi, slow.psi)


@pytest.mark.parametrize("coin", [None, HADAMARD], ids=["x-coin", "hadamard-coin"])
def test_step_writes_state_in_place_and_shares_no_buffer(coin):
    """A step writes into `state.psi` itself; two states stepped in turn by
    one plan match states stepped by plans of their own."""
    g = random_connected_graph(12, extra_edges=10, seed=2)
    p = coloring_polarity(g)
    coin = CoinSpec() if coin is None else CoinSpec(coin)
    oracle = OracleSpec(marked=frozenset({1, 5}))
    shared = WalkPlan(g, p, oracle, coin)
    a = random_walk_state(g.n_edges, np.random.default_rng(0))
    b = random_walk_state(g.n_edges, np.random.default_rng(1))
    a_alone, b_alone = a.copy(), b.copy()
    psi = a.psi
    for _ in range(5):
        shared.step(a)
        shared.step(b)
        WalkPlan(g, p, oracle, coin).step(a_alone)
        WalkPlan(g, p, oracle, coin).step(b_alone)
    assert a.psi is psi
    assert np.array_equal(a.psi, a_alone.psi) and np.array_equal(b.psi, b_alone.psi)


@pytest.mark.parametrize(
    "layout", ["fortran", "read-only"],
)
def test_step_copies_a_psi_it_cannot_write(layout):
    g = random_connected_graph(8, extra_edges=6, seed=3)
    plan = WalkPlan(g, coloring_polarity(g), MARK0)
    given = random_walk_state(g.n_edges, np.random.default_rng(4)).psi
    if layout == "fortran":
        given = np.asfortranarray(given)
    else:
        given.setflags(write=False)
    before = given.copy()
    state = WalkState(given)
    want = WalkState(before.copy())
    plan.step(state)
    plan.step(want)
    assert np.array_equal(given, before)
    assert state.psi.flags.c_contiguous and np.array_equal(state.psi, want.psi)


PHASE = np.diag([1j, 1.0])
ROTATION = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]], dtype=complex)


@pytest.mark.parametrize(
    "coin,action",
    [(None, None), (None, PHASE), (HADAMARD, None), (None, ROTATION)],
    ids=["default-specs", "phase-oracle", "hadamard-coin", "rotation-oracle"],
)
@pytest.mark.parametrize("name,g,p,marked", PLAN_CASES[:2], ids=[c[0] for c in PLAN_CASES[:2]])
def test_plan_matrix_is_the_step_on_each_unit_state(name, g, p, marked, coin, action):
    coin = CoinSpec() if coin is None else CoinSpec(coin)
    oracle = OracleSpec(frozenset(marked)) if action is None else OracleSpec(frozenset(marked), action)
    matrix = WalkPlan(g, p, oracle, coin).matrix()
    assert np.array_equal(matrix, column_by_column_step_matrix(g, p, coin=coin, oracle=oracle))


@pytest.mark.parametrize(
    "coin,action",
    [(HADAMARD, None), (None, ROTATION), (None, PHASE), (HADAMARD, ROTATION)],
    ids=["hadamard-coin", "rotation-oracle", "phase-oracle", "both"],
)
@pytest.mark.parametrize("name,g,p,marked", PLAN_CASES[:2], ids=[c[0] for c in PLAN_CASES[:2]])
def test_plan_matches_reference_with_other_specs(name, g, p, marked, coin, action):
    coin = CoinSpec() if coin is None else CoinSpec(coin)
    oracle = OracleSpec(frozenset(marked)) if action is None else OracleSpec(frozenset(marked), action)
    plan = WalkPlan(g, p, oracle, coin)
    ref = reference_step_matrix(g, p, oracle, coin)
    np.testing.assert_allclose(plan.matrix(), ref, rtol=0, atol=1e-12)
    s = random_walk_state(g.n_edges, np.random.default_rng(3))
    want = ref @ s.psi.reshape(-1)
    np.testing.assert_allclose(plan.step(s).psi.reshape(-1), want, rtol=0, atol=1e-12)


def test_search_t0_samples_uniformly():
    g = star_graph(5)
    p = coloring_polarity(g)
    rng = np.random.default_rng(42)
    draws = [search(g, p, MARK0, 0, rng) for _ in range(5000)]
    freqs = np.bincount(draws, minlength=5) / 5000
    np.testing.assert_allclose(freqs, 0.2, atol=0.03)


def test_search_deterministic_per_seed():
    g = star_graph(9)
    p = coloring_polarity(g)
    assert search(g, p, MARK0, 3, 123) == search(g, p, MARK0, 3, 123)


def test_search_single_edge_graph():
    g = complete_graph(2)
    p = coloring_polarity(g)
    for t in (0, 1, 5):
        assert search(g, p, MARK0, t, 0) == 0


def test_search_near_peak_finds_marked_edge():
    # First probability peak of the 64-leaf star sits at t=8 (p = 0.989).
    g = star_graph(64)
    p = coloring_polarity(g)
    rng = np.random.default_rng(7)
    hits = sum(search(g, p, MARK0, 8, rng) == 0 for _ in range(2000))
    assert hits / 2000 >= 0.9


def test_search_validates_input():
    g = star_graph(3)
    p = coloring_polarity(g)
    with pytest.raises(ValueError, match="marked"):
        search(g, p, OracleSpec(), 1, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        search(g, p, MARK0, -1, 0)


def test_guaranteed_search_certain_success():
    g = complete_graph(2)
    p = coloring_polarity(g)
    for s in range(5):
        edge, calls = guaranteed_search(g, p, MARK0, 3, s)
        assert (edge, calls) == (0, 1)


def test_guaranteed_search_mean_calls():
    # At the peak (t=4) the 16-leaf star succeeds with p = 0.97807, so the
    # call count is geometric with mean 1/p = 1.0224.
    g = star_graph(16)
    p = coloring_polarity(g)
    rng = np.random.default_rng(99)
    calls = [guaranteed_search(g, p, MARK0, 4, rng)[1] for _ in range(3000)]
    assert np.mean(calls) == pytest.approx(1 / 0.9780737236142154, rel=0.10)


@pytest.mark.parametrize("mark", [8, -1])
@pytest.mark.parametrize(
    "run",
    [
        lambda g, p, o: sweep(g, p, o, 3),
        lambda g, p, o: evolve(g, p, o, 0),
        lambda g, p, o: search(g, p, o, 0, 0),
        lambda g, p, o: guaranteed_search(g, p, o, 0, 0, max_calls=200_000),
    ],
    ids=["sweep", "evolve", "search", "guaranteed_search"],
)
def test_bad_mark_rejected_before_any_work(run, mark):
    g = star_graph(8)
    with pytest.raises(ValueError, match="out of range for 8 edges"):
        run(g, coloring_polarity(g), OracleSpec(marked=frozenset({mark})))


def test_plan_shares_one_evolution(monkeypatch):
    g = star_graph(16)
    p = coloring_polarity(g)
    expected = [search(g, p, MARK0, 3, s) for s in range(5)]
    expected_calls = [guaranteed_search(g, p, MARK0, 3, s) for s in range(5)]
    evolved = []
    real_evolve = walk_module.evolve

    def counting_evolve(*args, **kwargs):
        evolved.append(args[3])
        return real_evolve(*args, **kwargs)

    monkeypatch.setattr(walk_module, "evolve", counting_evolve)
    plan = WalkPlan(g, p, MARK0)
    assert [search(g, p, MARK0, 3, s, plan=plan) for s in range(5)] == expected
    assert [guaranteed_search(g, p, MARK0, 3, s, plan=plan) for s in range(5)] == expected_calls
    assert evolved == [3]


def test_plan_must_belong_to_the_arguments():
    g = star_graph(4)
    p = coloring_polarity(g)
    plan = WalkPlan(g, p, MARK0)
    with pytest.raises(ValueError, match="plan was built"):
        search(g, p, OracleSpec(marked=frozenset({0})), 1, 0, plan=plan)
    with pytest.raises(ValueError, match="plan was built"):
        guaranteed_search(g, p, MARK0, 1, 0, coin=CoinSpec(), plan=plan)
    with pytest.raises(ValueError, match="plan was built"):
        evolve(star_graph(4), p, MARK0, 1, plan=plan)


def test_guaranteed_search_call_cap():
    # Seeded first draw at t=0 lands on edge 10 of 16; marking edge 0 makes
    # the single permitted call miss deterministically.
    g = star_graph(16)
    p = coloring_polarity(g)
    with pytest.raises(CallCapExceededError) as info:
        guaranteed_search(g, p, MARK0, 0, 0, max_calls=1)
    assert info.value.calls == 1
    with pytest.raises(ValueError, match="cap"):
        guaranteed_search(g, p, MARK0, 0, 0, max_calls=0)


def test_sweep_unmarked_constant_zero_column():
    g = path_graph(4)
    rep = sweep(g, coloring_polarity(g), OracleSpec(), 10)
    assert rep.probs == (0.0,) * 11
    assert rep.t_star == 0  # ties break to the smallest t
    assert rep.marked == ()


def test_sweep_rejects_norm_drift(monkeypatch):
    def leaky_step(self, state):
        state.psi *= 1.001
        return state

    monkeypatch.setattr(WalkPlan, "step", leaky_step)
    g = star_graph(4)
    with pytest.raises(ValueError, match="^state norm drifted: total probability 1.002"):
        sweep(g, polarity_from_coloring(g, greedy_coloring(g)), MARK0, t_max=2)


def test_sweep_star64_first_peak():
    g = star_graph(64)
    rep = sweep(g, coloring_polarity(g), MARK0, 12)
    assert rep.t_star == 8
    assert rep.p_star == pytest.approx(0.98919, abs=1e-4)
    assert rep.t_max == 12
    assert all(0 <= q <= 1 + 1e-12 for q in rep.probs)


def test_sweep_starified_complete_peak_near_prediction():
    star = starify(complete_graph(8))
    g = star.graph
    oracle = OracleSpec(marked=frozenset({star.virtual_edge_of(0)}))
    rep = sweep(g, coloring_polarity(g), oracle, 10)
    predicted = np.pi * 8 / 4
    assert abs(rep.t_star - predicted) / predicted < 0.25


def test_sweep_report_csv():
    g = star_graph(2)
    rep = sweep(g, hub_polarity(2), MARK0, 3)
    lines = rep.to_csv().splitlines()
    assert lines[0] == "t,p_marked"
    assert len(lines) == 5
    t, p = lines[1].split(",")
    assert t == "0"
    assert float(p) == pytest.approx(0.5)


def test_sweep_report_csv_with_prediction():
    g = star_graph(2)
    rep = sweep(g, hub_polarity(2), MARK0, 2, predicted_t=1.5)
    lines = rep.to_csv().splitlines()
    assert lines[0] == "t,p_marked,predicted_T"
    assert lines[1].endswith(",1.5")


def test_sweep_report_json():
    g = star_graph(2)
    rep = sweep(g, hub_polarity(2), MARK0, 3)
    doc = json.loads(json.dumps(rep.to_json_dict()))
    assert doc["t_star"] == rep.t_star
    assert doc["p_star"] == rep.p_star
    assert doc["n_nodes"] == 3
    assert doc["n_edges"] == 2
    assert doc["marked"] == [0]
    assert len(doc["p_t"]) == 4
    assert "predicted_T" not in doc


def test_walk_state_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        WalkState(np.zeros(4))
