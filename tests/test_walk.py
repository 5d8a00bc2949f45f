"""Walk dynamics: operators, search, sweeps, and their invariants."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from graphwalk import (
    CallCapExceededError,
    Graph,
    OracleSpec,
    PolarityMap,
    WalkPlan,
    WalkState,
    complete_graph,
    cycle_graph,
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
from graphwalk.graph import facing_amplitudes
from helpers import grover_matrix, random_walk_state, reference_coin, reference_oracle

MARK0 = OracleSpec(marked=frozenset({0}))


def coloring_polarity(g):
    return polarity_from_coloring(g, greedy_coloring(g))


def hub_polarity(m):
    return PolarityMap((0,) * m)


def scatter(state, g, p):
    """Every node's diffusion alone: a plan's step with no oracle on the
    pole-swapped state, since the step's X coin swaps the poles back bit for
    bit."""
    state.psi = state.psi[:, ::-1]
    return WalkPlan(g, p).step(state)


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


@pytest.mark.parametrize(
    "mark",
    [1.7, "3", np.float64(2.0), True, False],
    ids=["float", "string", "numpy-float", "true", "false"],
)
def test_oracle_spec_rejects_marks_that_are_not_integers(mark):
    with pytest.raises(TypeError):
        OracleSpec(marked={mark})


def test_oracle_spec_takes_numpy_integer_marks():
    spec = OracleSpec(marked={np.int64(3), np.int32(1)})
    assert spec.marked == frozenset({1, 3})
    assert {type(k) for k in spec.marked} == {int}


def test_apply_oracle_minus_x():
    s = WalkState(np.array([[0.6, 0.8j]]))
    reference_oracle(s, MARK0)
    np.testing.assert_allclose(s.psi, [[-0.8j, -0.6]])


def test_apply_oracle_no_mark_is_identity():
    s = random_walk_state(4, np.random.default_rng(0))
    before = s.psi.copy()
    reference_oracle(s, OracleSpec())
    np.testing.assert_array_equal(s.psi, before)


def test_apply_oracle_star2_diagonal():
    s = diagonal_state(star_graph(2))
    reference_oracle(s, MARK0)
    np.testing.assert_allclose(s.psi[0], [-0.5, -0.5])
    np.testing.assert_allclose(s.psi[1], [0.5, 0.5])


def test_apply_oracle_out_of_range():
    s = diagonal_state(star_graph(2))
    with pytest.raises(ValueError, match="out of range"):
        reference_oracle(s, OracleSpec(marked=frozenset({5})))


def test_apply_coin_swaps_components():
    s = WalkState(np.array([[0.6, 0.8j], [1.0, 0.0]]))
    reference_coin(s)
    np.testing.assert_allclose(s.psi, [[0.8j, 0.6], [0.0, 1.0]])


def test_apply_coin_fixes_diagonal():
    s = diagonal_state(path_graph(4))
    before = s.psi.copy()
    reference_coin(s)
    np.testing.assert_allclose(s.psi, before, atol=1e-15)


def test_scattering_degree_1_identity():
    g = complete_graph(2)
    s = random_walk_state(1, np.random.default_rng(2))
    before = s.psi.copy()
    scatter(s, g, PolarityMap((0,)))
    np.testing.assert_allclose(s.psi, before, atol=1e-15)


def test_scattering_degree_2_swaps_facing_pair():
    g = path_graph(3)
    p = PolarityMap((0, 1))  # node 1 faces e0's minus and e1's plus
    s = WalkState(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    scatter(s, g, p)
    np.testing.assert_allclose(s.psi, [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)


def test_scattering_degree_3_first_column():
    g = star_graph(3)
    s = WalkState(np.zeros((3, 2), dtype=complex))
    s.psi[0, 0] = 1.0
    scatter(s, g, hub_polarity(3))
    np.testing.assert_allclose(s.psi[:, 0], [-1 / 3, 2 / 3, 2 / 3], atol=1e-15)
    np.testing.assert_allclose(s.psi[:, 1], 0, atol=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 17, 64])
def test_scattering_matches_dense_diffusion(d):
    g = star_graph(d)
    rng = np.random.default_rng(d)
    s = random_walk_state(d, rng)
    expected_hub = grover_matrix(d) @ s.psi[:, 0]
    scatter(s, g, hub_polarity(d))
    np.testing.assert_allclose(s.psi[:, 0], expected_hub, atol=1e-13)


def test_diffusion_operator_involution():
    for d in (1, 2, 5, 33):
        m = grover_matrix(d)
        np.testing.assert_allclose(m @ m, np.eye(d), atol=1e-12)
        np.testing.assert_allclose(m, m.T)


def test_scattering_twice_is_identity():
    for seed in range(5):
        g = random_connected_graph(10, extra_edges=8, seed=seed)
        p = coloring_polarity(g)
        s = random_walk_state(g.n_edges, np.random.default_rng(seed))
        before = s.psi.copy()
        scatter(scatter(s, g, p), g, p)
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


def test_edge_probabilities_rejects_a_nan_state():
    # abs(nan - 1) > 1e-9 is False: the norm check is written so NaN fails it.
    with pytest.raises(ValueError, match="^state norm drifted: total probability nan$"):
        edge_probabilities(WalkState(np.full((3, 2), np.nan)))


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
    assert abs(np.linalg.norm(s.psi) - 1) < 1e-12
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


def column_by_column_step_matrix(g, p, oracle=None):
    """Reference step matrix: the step applied to each unit amplitude in turn."""
    dim = 2 * g.n_edges
    mat = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        state = WalkState(np.zeros((g.n_edges, 2), dtype=complex))
        state.psi[j // 2, j % 2] = 1.0
        step(state, g, p, oracle=oracle)
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


def reference_step_matrix(g, p, oracle):
    """One step as a dense product, independent of the plan's indexing.

    reference_oracle and reference_coin act on each unit column; then every node's
    dense (2/d)J - I fills the block of rows facing it, found through
    the graph's CSR slices and PolarityMap.component_at.
    """
    dim = 2 * g.n_edges
    local = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        s = WalkState(np.zeros((g.n_edges, 2), dtype=complex))
        s.psi[j // 2, j % 2] = 1.0
        reference_coin(reference_oracle(s, oracle))
        local[:, j] = s.psi.reshape(-1)
    scatter = np.zeros((dim, dim))
    for u in range(g.n):
        rows = [2 * k + p.component_at(k, u) for k in g.edge[g.indptr[u] : g.indptr[u + 1]]]
        scatter[np.ix_(rows, rows)] = grover_matrix(len(rows))
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
    ref = reference_step_matrix(g, p, oracle)
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
    coin_m = np.array([[0, 1], [1, 0]], dtype=complex)  # X
    marked_m = coin_m @ -coin_m  # the coin after the -X oracle
    fast = random_walk_state(g.n_edges, np.random.default_rng(8))
    slow = WalkState(fast.psi.copy())
    for _ in range(20):
        plan.step(fast)
        y = slow.psi @ coin_m.T
        y[marked] = slow.psi[marked] @ marked_m.T
        slow.psi = y
        scatter(slow, g, p)
        assert np.array_equal(fast.psi, slow.psi)


def test_step_writes_state_in_place_and_shares_no_buffer():
    """A step writes into `state.psi` itself; two states stepped in turn by
    one plan match states stepped by plans of their own."""
    g = random_connected_graph(12, extra_edges=10, seed=2)
    p = coloring_polarity(g)
    oracle = OracleSpec(marked=frozenset({1, 5}))
    shared = WalkPlan(g, p, oracle)
    a = random_walk_state(g.n_edges, np.random.default_rng(0))
    b = random_walk_state(g.n_edges, np.random.default_rng(1))
    a_alone, b_alone = WalkState(a.psi.copy()), WalkState(b.psi.copy())
    psi = a.psi
    for _ in range(5):
        shared.step(a)
        shared.step(b)
        WalkPlan(g, p, oracle).step(a_alone)
        WalkPlan(g, p, oracle).step(b_alone)
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


# `matrix()` is filled from the closed form; the exact walk on each unit
# state must give it bit for bit.  Paths and cycles have degree-2 nodes,
# whose diagonal entries are explicit zeros, and a star's leaves have degree 1.
UNIT_STATE_CASES = PLAN_CASES + [
    (name, g, coloring_polarity(g), {0, g.n_edges // 2})
    for name, g in [
        ("path-5", path_graph(5)), ("cycle-9", cycle_graph(9)), ("star-7", star_graph(7))
    ]
]


@pytest.mark.parametrize("name,g,p,marked", UNIT_STATE_CASES, ids=[c[0] for c in UNIT_STATE_CASES])
def test_plan_matrix_is_the_step_on_each_unit_state(name, g, p, marked):
    oracle = OracleSpec(frozenset(marked))
    matrix = WalkPlan(g, p, oracle).matrix()
    assert np.array_equal(matrix, column_by_column_step_matrix(g, p, oracle=oracle))



@pytest.mark.parametrize("name,g,p,marked", UNIT_STATE_CASES, ids=[c[0] for c in UNIT_STATE_CASES])
def test_scattering_node_is_the_node_each_column_reaches(name, g, p, marked):
    # A step sends column j onto the facing amplitudes of the one node whose
    # diffusion it enters.
    plan = WalkPlan(g, p, OracleSpec(frozenset(marked)))
    facer = np.empty(2 * g.n_edges, np.intp)
    facer[facing_amplitudes(g, p)] = np.repeat(np.arange(g.n), np.diff(g.indptr))
    matrix = plan.matrix()
    for j in range(2 * g.n_edges):
        (node,) = set(facer[np.flatnonzero(matrix[:, j])].tolist())
        assert plan.scattering_node(j) == node


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
    with pytest.raises(ValueError, match="^search needs at least one marked edge$"):
        search(g, p, OracleSpec(), 1, 0)
    with pytest.raises(ValueError, match="^search needs at least one marked edge$"):
        guaranteed_search(g, p, OracleSpec(), 1, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        search(g, p, MARK0, -1, 0)


def test_plan_step_rejects_a_state_of_another_size():
    g = path_graph(4)
    plan = WalkPlan(g, coloring_polarity(g))
    with pytest.raises(ValueError, match="^state has 2 edges, graph has 3$"):
        plan.step(WalkState(np.zeros((2, 2))))


def test_evolve_state_shares_no_buffer_with_its_plan():
    g = star_graph(8)
    p = coloring_polarity(g)
    plan = WalkPlan(g, p, MARK0)
    state = evolve(g, p, MARK0, 3, plan=plan)
    want = state.psi.copy()
    evolve(g, p, MARK0, 5, plan=plan)
    plan.step(diagonal_state(g))
    np.testing.assert_array_equal(state.psi, want)
    assert state.t == 3
    assert state.psi.flags.c_contiguous and state.psi.flags.writeable
    buffers = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
    assert not any(np.shares_memory(state.psi, b) for b in buffers)


@pytest.mark.parametrize(
    "run",
    [lambda g, p: evolve(g, p, None, 2), lambda g, p: sweep(g, p, OracleSpec(), 2)],
    ids=["evolve", "sweep"],
)
def test_walk_needs_edges(run):
    with pytest.raises(ValueError, match="^graph has no edges to walk on$"):
        run(Graph(1, ()), PolarityMap(()))


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


@pytest.mark.parametrize("mark", [8, -1, 2**70, -2**70])
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
        guaranteed_search(g, coloring_polarity(g), MARK0, 1, 0, plan=plan)
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


def _lasvegas_cases():
    """(g, p, oracle, steps) with marked mass about 0.003, 0.978 and 1."""
    star = starify(random_connected_graph(300, 600, seed=1))
    low = OracleSpec(marked=frozenset({star.virtual_edge_of(0)}))
    return [
        (star.graph, coloring_polarity(star.graph), low, 1),
        (star_graph(16), coloring_polarity(star_graph(16)), MARK0, 4),
        (complete_graph(2), coloring_polarity(complete_graph(2)), MARK0, 3),
    ]


# sha256 of guaranteed_search's results and of the shared Generator's final
# state, recorded with the draw-by-draw loop, pinned so that drawing in
# batches stays bitwise the same.
_LASVEGAS_SHA256 = "b50e11794a6dd8df238e4c25227f5287360e676758a06a62d096798b3920b8dc"


def test_guaranteed_search_bytes_are_pinned():
    shared = np.random.default_rng(2024)
    results = []
    for g, p, oracle, steps in _lasvegas_cases():
        plan = WalkPlan(g, p, oracle)
        results += [guaranteed_search(g, p, oracle, steps, s, plan=plan) for s in range(20)]
        results += [guaranteed_search(g, p, oracle, steps, shared, plan=plan) for _ in range(200)]
    payload = repr(results) + repr(shared.bit_generator.state)
    assert hashlib.sha256(payload.encode()).hexdigest() == _LASVEGAS_SHA256


def _scalar_lasvegas(cdf, marked, rng, max_calls):
    """Draw by draw until a marked edge: the reference for batched draws."""
    for calls in range(1, max_calls + 1):
        u = rng.random() * cdf[-1]
        edge = int(min(np.searchsorted(cdf, u, side="right"), len(cdf) - 1))
        if edge in marked:
            return edge, calls
    return None, max_calls


def _zero_mass_plan(steps):
    """A 16-leaf star plan for MARK0 whose cached distribution at `steps`
    puts no weight on edge 0, so every draw misses."""
    g = star_graph(16)
    plan = WalkPlan(g, coloring_polarity(g), MARK0)
    cdf = np.cumsum(np.r_[0.0, np.full(15, 1 / 15)])
    cdf.setflags(write=False)
    plan._cdf = (steps, cdf)
    return plan


def _hand_built_plan(marked, weights, steps):
    """A 16-leaf star plan marking `marked` whose cached distribution at
    `steps` is the cumulative sum of `weights`."""
    g = star_graph(16)
    plan = WalkPlan(g, coloring_polarity(g), OracleSpec(marked=frozenset(marked)))
    cdf = np.cumsum(weights)
    cdf.setflags(write=False)
    plan._cdf = (steps, cdf)
    return plan


# Edges 0, 3, 4, 7, 9 and 15 weigh nothing; so do 12 and 13, side by side.
# Sixteenths sum exactly, so the distribution ends at 1.0 and a draw r is
# the point u = r * 1.0 itself.
_GAPPY_WEIGHTS = np.array([0, 1, 2, 0, 0, 3, 1, 0, 2, 0, 2, 1, 0, 0, 4, 0]) / 16


def _exactness_plan(case):
    """(plan, steps) for a case of the RNG-exactness test below."""
    if case == "zero":
        return _zero_mass_plan(1), 1
    if case == "zero-width":
        # marked 0, 4 and 15 weigh nothing; 5 follows the empty 4
        return _hand_built_plan({0, 4, 5, 15}, _GAPPY_WEIGHTS, 1), 1
    if case in ("low", "star"):
        g, p, oracle, steps = _lasvegas_cases()[case == "star"]
        return WalkPlan(g, p, oracle), steps
    star = starify(random_connected_graph(300, 600, seed=1))
    virtual = star.graph.n_edges - 300  # the virtual edge of node 0
    marked, steps = {
        "several": ({virtual + 5, virtual + 90, virtual + 211}, 1),
        "adjacent": ({virtual + 40, virtual + 41, virtual + 42}, 1),
        "ends": ({0, star.graph.n_edges - 1}, 2),
    }[case]
    g = star.graph
    return WalkPlan(g, coloring_polarity(g), OracleSpec(marked=frozenset(marked))), steps


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
@pytest.mark.parametrize(
    "case, max_calls, seeds",
    [
        ("low", 3, range(5)),  # a cap below the first batch (318 draws)
        ("low", 10**6, range(5)),  # hits after several doubled batches
        ("star", 10**6, range(5)),
        ("zero", 40_000, range(2)),  # misses over 16384 + 16384 + 7232 draws
        ("several", 10**6, range(5)),  # three marked edges apart
        ("several", 50, range(5)),  # a cap that some seeds reach
        ("adjacent", 10**6, range(5)),  # three marked edges in a row
        ("ends", 10**6, range(10)),  # edge 0 and the last edge (PCG64: 5 and 8 hit it)
        ("zero-width", 10**6, range(5)),  # marked edges of no weight
    ],
    ids=["low-cap-3", "low", "star", "zero-cap-40000", "several", "several-cap-50",
         "adjacent", "ends", "zero-width"],
)
def test_guaranteed_search_leaves_rng_after_exactly_calls_draws(bit_generator, case, max_calls, seeds):
    plan, steps = _exactness_plan(case)
    cdf = plan.cdf(steps)
    for seed in seeds:
        rng = np.random.Generator(bit_generator(seed))
        ref = np.random.Generator(bit_generator(seed))
        edge, calls = _scalar_lasvegas(cdf, plan.oracle.marked, ref, max_calls)
        if edge is None:
            with pytest.raises(CallCapExceededError) as info:
                guaranteed_search(plan.g, plan.p, plan.oracle, steps, rng, max_calls=max_calls, plan=plan)
            assert info.value.calls == max_calls
        else:
            assert guaranteed_search(
                plan.g, plan.p, plan.oracle, steps, rng, max_calls=max_calls, plan=plan
            ) == (edge, calls)
        np.testing.assert_array_equal(rng.random(3), ref.random(3))


class _FixedDraws(np.random.Generator):
    """A Generator whose `random(n)` returns the next n of given doubles."""

    def __init__(self, draws):
        super().__init__(np.random.PCG64(0))
        self.draws = list(draws)

    def random(self, n=None):
        out, self.draws[:n] = np.array(self.draws[:n]), []
        return out


@pytest.mark.parametrize(
    "marked",
    [{0}, {15}, {0, 15}, {3}, {3, 4}, {2, 3, 4, 5}, {12, 13}, {1, 14}, set(range(16))],
)
def test_guaranteed_search_hits_exactly_the_edges_a_draw_picks(marked):
    # One call per draw u, at every CDF value and its neighbors (1.0 and
    # past it too, which the clamp gives the last edge), against the edge
    # _draw picks for the same u.
    plan = _hand_built_plan(marked, _GAPPY_WEIGHTS, 1)
    cdf = plan.cdf(1)
    assert cdf[-1] == 1.0
    for u in np.r_[0.0, cdf, np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf), 2.0]:
        edge = int(np.searchsorted(cdf[:-1], u, side="right"))
        try:
            got = guaranteed_search(
                plan.g, plan.p, plan.oracle, 1, _FixedDraws([u]), max_calls=1, plan=plan
            )
        except CallCapExceededError:
            got = None
        assert got == ((edge, 1) if edge in marked else None), u


def test_marked_bounds_follow_the_plans_distribution():
    # One plan searched at changing step counts reads each count's bounds.
    g = star_graph(16)
    p = coloring_polarity(g)
    oracle = OracleSpec(marked=frozenset({0, 7}))
    plan = WalkPlan(g, p, oracle)
    for steps in (0, 4, 0, 2, 2):
        fresh = [guaranteed_search(g, p, oracle, steps, s) for s in range(5)]
        assert [guaranteed_search(g, p, oracle, steps, s, plan=plan) for s in range(5)] == fresh


@pytest.mark.parametrize(
    "bad",
    [True, False, 2.5, np.float64(1.0), "1"],
    ids=["true", "false", "float", "numpy-float", "string"],
)
@pytest.mark.parametrize(
    "run",
    [
        lambda g, p, plan, x: evolve(g, p, MARK0, x),
        lambda g, p, plan, x: search(g, p, MARK0, x, 0, plan=plan),
        lambda g, p, plan, x: guaranteed_search(g, p, MARK0, x, 0, plan=plan),
        lambda g, p, plan, x: guaranteed_search(g, p, MARK0, 1, 0, max_calls=x, plan=plan),
        lambda g, p, plan, x: sweep(g, p, MARK0, x),
        lambda g, p, plan, x: plan.cdf(x),
    ],
    ids=["evolve", "search", "guaranteed_search", "max_calls", "sweep", "cdf"],
)
def test_counts_must_be_integers(run, bad):
    # The plan has a distribution cached at t = 1, which True and 1.0 equal.
    g = star_graph(4)
    p = coloring_polarity(g)
    plan = WalkPlan(g, p, MARK0)
    plan.cdf(1)
    with pytest.raises(TypeError):
        run(g, p, plan, bad)


def test_counts_take_numpy_integers():
    g = star_graph(16)
    p = coloring_polarity(g)
    four, cap = np.int64(4), np.int32(5)
    want = guaranteed_search(g, p, MARK0, 4, 3, max_calls=5)
    assert guaranteed_search(g, p, MARK0, four, 3, max_calls=cap) == want
    assert search(g, p, MARK0, four, 3) == search(g, p, MARK0, 4, 3)
    np.testing.assert_array_equal(evolve(g, p, MARK0, four).psi, evolve(g, p, MARK0, 4).psi)
    assert sweep(g, p, MARK0, np.int64(5)) == sweep(g, p, MARK0, 5)
    with pytest.raises(CallCapExceededError) as info:
        guaranteed_search(g, p, MARK0, 0, 0, max_calls=np.int64(1))
    assert type(info.value.calls) is int


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
def test_search_takes_one_draw(bit_generator):
    g = star_graph(5)
    p = coloring_polarity(g)
    rng = np.random.Generator(bit_generator(7))
    ref = np.random.Generator(bit_generator(7))
    search(g, p, MARK0, 2, rng)
    ref.random()
    np.testing.assert_array_equal(rng.random(3), ref.random(3))


def test_guaranteed_search_on_zero_marked_mass_stays_bounded():
    plan = _zero_mass_plan(2)
    tracemalloc.start()
    try:
        with pytest.raises(CallCapExceededError) as info:
            guaranteed_search(plan.g, plan.p, MARK0, 2, 0, max_calls=10**6, plan=plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.calls == 10**6
    assert peak < 1 << 20


def test_sweep_rejects_negative_t_max():
    g = path_graph(3)
    with pytest.raises(ValueError, match="^t_max must be nonnegative, got -1$"):
        sweep(g, coloring_polarity(g), MARK0, -1)


def test_sweep_unmarked_constant_zero_column():
    g = path_graph(4)
    rep = sweep(g, coloring_polarity(g), OracleSpec(), 10)
    assert rep.probs == (0.0,) * 11
    assert rep.t_star == 0  # ties break to the smallest t
    assert rep.marked == ()


def test_sweep_rejects_norm_drift(monkeypatch):
    def leaky_advance(self):
        self._y *= 1.001

    # sweep steps its plan-ordered state, the buffer _y, through WalkPlan._advance.
    monkeypatch.setattr(WalkPlan, "_advance", leaky_advance)
    g = star_graph(4)
    with pytest.raises(ValueError, match="^state norm drifted: total probability 1.002"):
        sweep(g, polarity_from_coloring(g, greedy_coloring(g)), MARK0, t_max=2)


# sha256 over the `evolve`, `sweep`, public `step`, `matrix()` and `search`
# outputs below, recorded when a plan also took a coin and an oracle matrix
# and had a second gather for them: the one gather left must keep every bit.
_WALK_BYTES_SHA256 = "2fb17e1c57a3f40c14d11f91e9b714152dba845d6f03970a63b2e908d09dc3c9"


def _phased_state(n_edges: int) -> WalkState:
    """A random state with complex phases and zeros of both signs."""
    state = random_walk_state(n_edges, np.random.default_rng(n_edges))
    state.psi.real[::5, 0] = -0.0
    state.psi.imag[::5, 0] = 0.0
    state.psi.real[::7, 1] = 0.0
    state.psi.imag[::7, 1] = -0.0
    return state


def test_walk_bytes_are_pinned():
    graphs = [
        star_graph(1),  # no node of degree >= 2
        cycle_graph(7),  # no node of degree 1
        path_graph(5),
        star_graph(64),
        starify(complete_graph(8)).graph,
        random_connected_graph(300, 0, seed=5),
        random_connected_graph(200, 500, seed=3),
    ]
    digest = hashlib.sha256()
    for g in graphs:
        p = coloring_polarity(g)
        oracle = OracleSpec(frozenset({0, g.n_edges // 2}))
        plan = WalkPlan(g, p, oracle)
        digest.update(evolve(g, p, oracle, 9, plan=plan).psi.tobytes())
        digest.update(np.array(sweep(g, p, oracle, 9).probs).tobytes())
        state = _phased_state(g.n_edges)
        for _ in range(5):
            digest.update(plan.step(state).psi.tobytes())
        digest.update(plan.matrix().tobytes())
        draws = [search(g, p, oracle, 9, s, plan=plan) for s in range(5)]
        digest.update(np.array(draws).tobytes())
    assert digest.hexdigest() == _WALK_BYTES_SHA256


# Zeros of both signs, subnormals and ordinary values, for both parts.
_LEAF_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 2.2e-310, -1.5e-308, 0.3, -0.7)


@pytest.mark.parametrize(
    "g, p",
    [
        (star_graph(1), hub_polarity(1)),  # no node of degree >= 2
        (star_graph(8), hub_polarity(8)),  # leaves face the - poles
        (star_graph(8), coloring_polarity(star_graph(8))),  # leaves face the + poles
        (starify(complete_graph(4)).graph, coloring_polarity(starify(complete_graph(4)).graph)),
    ],
    ids=["single-edge", "star-hub-plus", "star-leaf-plus", "starified-k4"],
)
def test_leaf_pass_gives_the_bits_of_2x_minus_x(g, p):
    # The amplitude facing a degree-1 node after a step is its one-element
    # diffusion of the gathered x (the partner pole, or the pole itself
    # negated on a marked edge): 2x - x, which turns -0.0 into +0.0.
    marked = frozenset(range(0, g.n_edges, 2))
    plan = WalkPlan(g, p, OracleSpec(marked))
    degrees = np.diff(g.indptr)
    j = facing_amplitudes(g, p)[np.repeat(degrees == 1, degrees)]
    on = np.isin(j >> 1, list(marked))
    # The amplitudes the leaf pass reads, each edge class through the values.
    rank = np.empty(len(j), dtype=np.intp)
    rank[on], rank[~on] = np.arange(on.sum()), np.arange((~on).sum())
    values = np.array(_LEAF_VALUES)
    flat = np.full(2 * g.n_edges, 0.25 - 0.5j)
    flat[np.where(on, j, j ^ 1)] = values[rank % 8] + 1j * values[(3 * rank + rank // 8) % 8]
    state = WalkState(flat.reshape(-1, 2).copy())
    x = np.where(on, flat[j] * -1, flat[j ^ 1])
    want = (x * 2.0 - x).view(np.uint64)
    # A plain copy of x would keep a -0.0, on marked and unmarked edges alike.
    changed = (x.view(np.uint64) != want).reshape(-1, 2).any(axis=1)
    assert all(changed[part].any() for part in (on, ~on) if part.any())
    got = plan.step(state).psi.reshape(-1)[j].view(np.uint64)
    np.testing.assert_array_equal(got, want)


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
    rep = replace(sweep(g, hub_polarity(2), MARK0, 2), predicted_t=1.5)
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


@pytest.mark.parametrize("node_mode", [False, True], ids=["edge", "node"])
def test_outputs_do_not_depend_on_the_polarity(node_mode):
    # The plan-ordered dynamics do not depend on which pole faces which
    # endpoint, and every output adds an edge's two poles, which commutes in
    # IEEE arithmetic: probabilities and draws are bitwise the same.
    g = random_connected_graph(40, 60, seed=3)
    marked = {7}
    if node_mode:
        s = starify(g)
        g, marked = s.graph, {s.virtual_edge_of(5)}
    oracle = OracleSpec(marked=frozenset(marked))
    polarities = [coloring_polarity(g), PolarityMap(g.edges[:, 0]), PolarityMap(g.edges[:, 1])]
    assert polarities[0] != polarities[1]
    outputs = []
    for p in polarities:
        plan = WalkPlan(g, p, oracle)
        outputs.append((
            sweep(g, p, oracle, 12).probs,
            edge_probabilities(evolve(g, p, oracle, 7)).tobytes(),
            [search(g, p, oracle, 7, seed, plan=plan) for seed in range(20)],
            [guaranteed_search(g, p, oracle, 2, seed, plan=plan) for seed in range(20)],
        ))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
