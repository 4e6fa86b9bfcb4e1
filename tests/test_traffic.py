"""Street-network flow model tests."""
from __future__ import annotations

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import splu

from icisim import traffic
from icisim.errors import FormatError, RankError, SingularError, TopologyError
from icisim.scenario import (
    ScenarioConfig,
    _grid_topology,
    build_its,
    build_streets,
    dumps,
    generate,
    loads,
)
from icisim.traffic import (
    FlowPattern,
    StreetGraph,
    _DeflatedBlock,
    _anchor_entries,
    _check_structure,
    build_flow_matrix,
    csr_equal,
    network_from_matrix,
)

from conftest import (
    cycle_network, dead_end_network, flow_network, parallel_pair_network, ratios, sampled_ratios,
    street_graph,
)
from oracles import (
    RANK_TOLERANCE,
    anchored_flows,
    loop_check_structure,
    object_topology,
    qr_flow_solution,
    qr_null_vector,
    svd_rank,
)


def test_cycle_matrix_and_rank():
    net = cycle_network()
    assert net.Q.format == "csr" and net.A.format == "csr"
    assert np.array_equal(net.A.toarray(), np.array([[1.0, -1.0], [-1.0, 1.0]]))


_PAIR = {0: (0.0, 0.0), 1: (1.0, 0.0)}
_TWO_PAIRS = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (5.0, 0.0), 3: (6.0, 0.0)}


def test_ratio_on_missing_street_pair():
    graph = street_graph([(0, 1), (1, 0)], _PAIR)
    with pytest.raises(TopologyError):
        flow_network(graph, *ratios({(0, 1): 1.0, (1, 0): 1.0, (0, 7): 0.1}))
    with pytest.raises(TopologyError):
        # Street 0 cannot feed itself: the pair does not meet head-to-tail.
        flow_network(graph, *ratios({(0, 0): 1.0, (1, 0): 1.0}))
    with pytest.raises(TopologyError):
        # A zero share is still a ratio on that pair.
        flow_network(graph, *ratios({(0, 1): 1.0, (0, 0): 0.0, (1, 0): 1.0}))


def test_disconnected_network_fails_rank_check():
    graph = street_graph([(0, 1), (1, 0), (2, 3), (3, 2)], _TWO_PAIRS)
    with pytest.raises(RankError):
        flow_network(graph, *ratios({(0, 1): 1.0, (1, 0): 1.0, (2, 3): 1.0, (3, 2): 1.0}))


def test_bad_share_sums_rejected():
    graph = street_graph([(0, 1), (1, 0)], _PAIR)
    with pytest.raises(ValueError, match="sum to 1"):
        flow_network(graph, *ratios({(0, 1): 0.7, (1, 0): 1.0}))
    with pytest.raises(
        ValueError, match=r"^ratio matrix entry \(0, 1\) is -1.0, not a finite positive share$"
    ):
        flow_network(graph, *ratios({(0, 1): -1.0, (1, 0): 1.0}))


def test_grid2_matrix_matches_hand_assembly():
    # Rebuild the balance matrix I - Q^T entrywise from the sampled shares:
    # the share of inflow j routed to outflow k enters street k's row.
    graph = _grid_topology(ScenarioConfig(grid_n=2, seed=0))
    rows, cols, shares = sampled_ratios(graph, 0)
    net = flow_network(graph, rows, cols, shares)
    expected = np.eye(graph.n)
    for j, k, share in zip(rows, cols, shares):
        expected[k, j] -= share
    assert np.array_equal(net.A.toarray(), expected)
    assert net.n == 8


def test_street_graph_arrays_are_read_only_copies():
    net = cycle_network()
    with pytest.raises(ValueError):
        net.graph.tail[0] = 1
    # The derived arrays are read-only too.
    with pytest.raises(ValueError):
        net.graph.geometry[0, 0] = 0.5
    with pytest.raises(ValueError):
        net.graph.length[0] = 0.5
    # The caller's arrays stay writable and unshared.
    tail, positions = np.array([0, 1]), np.array(list(_PAIR.values()))
    graph = StreetGraph(tail, [1, 0], positions)
    tail[0], positions[1, 0] = 5, 3.0
    assert graph.tail.tolist() == [0, 1] and tail.flags.writeable
    assert graph.geometry.tolist() == [[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
    assert graph.length.tolist() == [1.0, 1.0]


def test_street_graph_derives_geometry_only_from_known_ends():
    # Street 1 runs from intersection 1 to 9, which has no position: its
    # geometry is never read from another intersection's position.  Nor is
    # a negative intersection id read from the end of the positions.
    for tail, head in (([0, 1], [1, 9]), ([0, -1], [1, 0])):
        graph = StreetGraph(tail, head, list(_PAIR.values()))
        for name in ("geometry", "length"):
            with pytest.raises(
                ValueError, match="^street 1 references an intersection with no position$"
            ):
                getattr(graph, name)
        with pytest.raises(ValueError, match="^street 1 references"):
            _check_structure(graph)


def test_solve_cycle():
    net = cycle_network()
    flows = anchored_flows(net, 0, 100.0)
    assert np.allclose(flows, [100.0, 100.0])
    assert flows[0] == 100.0


def test_solve_zero_anchor_flow():
    net = parallel_pair_network(0.3)
    flows = anchored_flows(net, 1, 0.0)
    assert np.allclose(flows, 0.0)


def test_solve_grid3_matches_qr_oracle(grid3_scenario):
    net = grid3_scenario.network
    flows = anchored_flows(net, 0, 1000.0)
    expected = qr_flow_solution(net.A.toarray(), 0, 1000.0)
    assert np.allclose(flows, expected, rtol=1e-8)
    assert np.linalg.norm(net.A @ flows, np.inf) <= 1e-6 * np.abs(flows).max()


def _deviation(net, street: int, delta: float) -> np.ndarray:
    """Balanced flow change when street ``street`` loses ``delta``."""
    return -anchored_flows(net, street, delta)


def test_propagate_zero_delta(grid3_scenario):
    dev = _deviation(grid3_scenario.network, 3, 0.0)
    assert np.array_equal(dev, np.zeros(grid3_scenario.network.n))


def test_propagate_is_linear(grid3_scenario):
    net = grid3_scenario.network
    base = _deviation(net, 5, 12.5)
    assert base[5] == -12.5
    assert np.allclose(_deviation(net, 5, 25.0), 2.0 * base, rtol=1e-12)
    # The anchored cut system, solved afresh at each scale, agrees.
    A = net.A.toarray()
    rng = np.random.default_rng(11)
    for alpha in rng.uniform(0.0, 3.0, 10):
        scaled = -qr_flow_solution(A, 5, 12.5 * alpha)
        assert np.allclose(scaled, alpha * base, rtol=1e-9, atol=1e-12)


def test_propagate_matches_two_solve_difference(grid3_scenario):
    net = grid3_scenario.network
    base_flow, delta = 1000.0, 50.0
    A = net.A.toarray()
    before = qr_flow_solution(A, 0, base_flow)
    after = qr_flow_solution(A, 0, base_flow - delta)
    dev = _deviation(net, 0, delta)
    assert np.allclose(dev, after - before, rtol=1e-8, atol=1e-9)
    assert dev[0] == -delta


def test_anchor_consistency_across_streets(grid2_scenario):
    # The cut system of any anchor lands in the null vector's family.
    net = grid2_scenario.network
    ref = anchored_flows(net, 0, 700.0)
    A = net.A.toarray()
    for anchor in range(1, net.n):
        other = qr_flow_solution(A, anchor, ref[anchor])
        assert np.allclose(other, ref, rtol=1e-8)


def test_conservation_residual_invariant(grid2_scenario, grid3_scenario):
    for sc in (grid2_scenario, grid3_scenario):
        flows = anchored_flows(sc.network, 0, 1000.0)
        assert np.linalg.norm(sc.network.A @ flows, np.inf) <= 1e-6 * np.abs(flows).max()


def test_flows_are_routed_by_the_turning_shares():
    # Q[r, c] is the share of inflow r routed to outflow c, so street c
    # carries q_c = sum_r Q[r, c] q_r.  Read from Q itself, never from
    # net.A, so the check does not follow the solver's convention.  Solving
    # q = Q q instead gave every street the same flow: a worst balance
    # error of 0.79, 1.41 and 1.34 of the largest flow at grids 3, 5 and 9.
    errors, spreads = [], []
    for grid_n in (3, 5, 9):
        net = generate(ScenarioConfig(grid_n=grid_n, seed=0)).network
        v, Q = net.null_vector, net.Q.tocoo()
        routed = np.bincount(Q.col, Q.data * v[Q.row], minlength=net.n)
        errors.append(float(np.abs(routed - v).max() / v.max()))
        spreads.append(float(v.max() / v.min()))
    assert max(errors) <= 1e-9, errors
    # Drawn shares differ, so the flows do too.
    assert min(spreads) > 1.01, spreads


# Smallest null-vector min/max over seeds 0-5: 1.1e-3 at grids 15 and 29,
# 1.3e-3 at grid 30.  The floor is a tenth of that, and five orders of
# magnitude above the 1e-9 at which _anchor_entries refuses a street.
_FLOW_SPREAD_FLOOR = 1e-4


def test_generated_flows_are_positive_and_bounded_in_spread():
    # A generated support is one closed class, so every street carries
    # flow, and each can anchor the impact model without SingularError.
    for grid_n in range(2, 31):
        streets = build_streets(ScenarioConfig(grid_n=grid_n))
        for seed in range(6):
            net = build_its(ScenarioConfig(grid_n=grid_n, seed=seed), streets)
            v = net.null_vector
            assert v.min() > 0.0, (grid_n, seed)
            assert v.min() / v.max() > _FLOW_SPREAD_FLOOR, (grid_n, seed, v.min() / v.max())
            assert np.array_equal(_anchor_entries(net.null_vector, np.arange(net.n)), v)


def _parallel_streets() -> StreetGraph:
    return street_graph([(0, 1), (0, 1), (1, 0), (1, 0)], _PAIR)


def test_singular_anchor_raises():
    # Street 3 runs into a dead end and carries no flow, so no balanced
    # state moves its flow, and its null-vector entry is refused.
    net = dead_end_network()
    with pytest.raises(SingularError):
        _anchor_entries(net.null_vector, [3])
    # Other anchors stay solvable: the loop carries the anchor flow.
    assert _anchor_entries(net.null_vector, [0])[0] == net.null_vector[0]
    flows = anchored_flows(net, 0, 10.0)
    assert flows[0] == 10.0 and flows[1] == pytest.approx(10.0, rel=1e-12)
    assert abs(flows[3]) <= 1e-12
    expected = qr_null_vector(net.A.toarray())
    assert np.allclose(flows, 10.0 * expected / expected[0], rtol=1e-12, atol=1e-12)


def test_loader_matrix_structure_validated():
    Q = np.zeros((4, 4))
    Q[0, 1] = 1.0  # street 1 does not start where street 0 ends
    with pytest.raises(TopologyError):
        network_from_matrix(_parallel_streets(), Q)
    # So does a stored zero there; in a dense matrix a zero is no entry.
    stored_zero = scipy.sparse.coo_array(([0.0], ([0], [1])), shape=(4, 4))
    with pytest.raises(TopologyError, match=r"entry \(0, 1\)"):
        network_from_matrix(_parallel_streets(), stored_zero)


@pytest.mark.parametrize("Q", (np.array(1.0), 1.0, np.ones(4)))
def test_ratio_matrix_needs_the_street_shape(Q):
    # A 0-d input used to reach scipy, which raised a TypeError.
    with pytest.raises(
        ValueError,
        match=rf"^ratio matrix has shape {re.escape(str(np.shape(Q)))}, expected \(4, 4\)$",
    ):
        network_from_matrix(_parallel_streets(), Q)


def test_ratio_matrix_shares_must_be_finite_and_nonnegative():
    graph = _parallel_streets()
    Q = np.zeros((4, 4))
    Q[:2, 2:] = 0.5
    Q[2, 0] = Q[3, 1] = 1.0
    network_from_matrix(graph, Q)
    for value in (-0.5, np.nan, np.inf):
        bad = Q.copy()
        bad[0, 3] = value
        with pytest.raises(ValueError, match=rf"entry \(0, 3\) is {value!r}, not a finite"):
            network_from_matrix(graph, bad)
    def sparse(first, second):
        return scipy.sparse.coo_array(
            ([first, second, 0.5, 0.5, 1.0, 1.0], ([0, 0, 1, 1, 2, 3], [2, 3, 2, 3, 0, 1])),
            shape=(4, 4),
        )

    same = network_from_matrix(graph, sparse(0.5, 0.5))
    assert csr_equal(same.Q, network_from_matrix(graph, Q).Q)
    # A stored zero is a pair with no share: it would drop out of the support.
    with pytest.raises(
        ValueError, match=r"^ratio matrix entry \(0, 3\) is 0.0, not a finite positive share$"
    ):
        network_from_matrix(graph, sparse(1.0, 0.0))
    # A duplicate entry is a repeated pair, whatever its values sum to.
    split = scipy.sparse.coo_array(
        ([-0.5, 1.0, 0.5, 0.5, 0.5, 1.0, 1.0], ([0, 0, 0, 1, 1, 2, 3], [3, 3, 2, 2, 3, 0, 1])),
        shape=(4, 4),
    )
    with pytest.raises(TopologyError, match=r"^turning ratio pair \(0, 3\) is repeated$"):
        network_from_matrix(graph, split)


def test_repeated_pair_is_rejected():
    # Each pair holds one share: two triples on one pair are an error, not a sum.
    graph = street_graph([(0, 1), (1, 0)], _PAIR)
    for rows, cols, pair in (([0, 1, 0], [1, 0, 1], "0, 1"), ([1, 1, 0], [0, 0, 1], "1, 0")):
        with pytest.raises(TopologyError, match=rf"^turning ratio pair \({pair}\) is repeated$"):
            FlowPattern(graph, rows, cols)


def _loop_into_cycle(loop_share, cycle_share):
    """Graph and Q of a loop 0 -> 1 -> 2 -> 0 feeding a loop 3 <-> 4.

    Street 0 passes half its flow on round the first loop and half to
    street 3.  With both shares 1 every row sums to 1, the first loop is
    a class that leaks and the loop 3 <-> 4 is the one closed class; any
    other share leaves rows that do not sum to 1.
    """
    positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, 1.0), 3: (3.0, 0.0)}
    graph = street_graph([(0, 1), (1, 2), (2, 0), (1, 3), (3, 1)], positions)
    Q = np.zeros((5, 5))
    Q[0, 1] = Q[0, 3] = 0.5
    Q[1, 2] = Q[2, 0] = loop_share
    Q[3, 4] = Q[4, 3] = cycle_share
    return graph, Q


def _grid_Q(graph: StreetGraph, seed: int) -> np.ndarray:
    """Dense turning-ratio matrix sampled for a generated grid."""
    rows, cols, shares = sampled_ratios(graph, seed)
    Q = np.zeros((graph.n, graph.n))
    Q[rows, cols] = shares
    return Q


def _two_grids(grid_n: int, seed: int):
    """Two generated grids side by side, 100 km apart, as a graph and the
    (rows, cols, shares) of seeds ``seed`` and ``seed + 10``."""
    graph = _grid_topology(ScenarioConfig(grid_n=grid_n))
    m, offset = graph.n, grid_n * grid_n
    positions = dict(enumerate(graph.positions.tolist()))
    positions.update({i + offset: (x + 100.0, y) for i, (x, y) in list(positions.items())})
    ends = np.stack((graph.tail, graph.head), axis=1)
    both = street_graph(np.concatenate((ends, ends + offset)), positions)
    rows, cols, shares = (
        np.concatenate((ours, theirs + shift)) for ours, theirs, shift in zip(
            sampled_ratios(graph, seed), sampled_ratios(graph, seed + 10), (m, m, 0.0)
        )
    )
    return both, rows, cols, shares


def _leaky_fixtures():
    """(name, graph, Q, streets whose shares do not sum to 1) for hand-made
    matrices with rows that leak or overfill."""
    graph = _parallel_streets()
    Q = np.zeros((4, 4))
    Q[0, 2] = Q[2, 0] = 1.0
    Q[1, 2] = Q[3, 0] = 1e-6
    yield "weak coupling", graph, Q, [1, 3]
    Q = np.zeros((4, 4))
    Q[0, 2] = Q[0, 3] = Q[2, 0] = Q[3, 1] = 1.0
    yield "zero-flow anchor", graph, Q, [0, 1]
    Q = np.zeros((4, 4))
    Q[0, 2] = 0.5
    Q[2, 0] = 1.0
    yield "full rank", graph, Q, [0, 1, 3]
    yield "leaky loop into cycle", *_loop_into_cycle(0.5, 1.0), [1, 2]
    yield "leaky loop into leaky loop", *_loop_into_cycle(0.5, 0.5), [1, 2, 3, 4]


def test_leaky_rows_are_rejected():
    for name, graph, Q, leaky in _leaky_fixtures():
        message = f"^outflow shares of inflow streets {re.escape(str(leaky))} do not sum to 1$"
        with pytest.raises(ValueError, match=message):
            network_from_matrix(graph, Q)


def _rank_fixtures():
    """(name, graph, Q, closed classes) for stochastic matrices on both
    sides of rank n-1."""
    cycle = cycle_network()
    yield "2-street cycle", cycle.graph, cycle.Q.toarray(), 1
    Q = np.zeros((4, 4))
    Q[0, 1] = Q[1, 0] = Q[2, 3] = Q[3, 2] = 1.0
    yield "disconnected", street_graph([(0, 1), (1, 0), (2, 3), (3, 2)], _TWO_PAIRS), Q, 2
    dead_end = dead_end_network()
    yield "dead end", dead_end.graph, dead_end.Q.toarray(), 1
    yield "loop into cycle", *_loop_into_cycle(1.0, 1.0), 1
    Q = np.zeros((2, 2))
    Q[0, 1] = 1.0
    yield "path into a dead end", street_graph([(0, 1), (1, 2)], {**_PAIR, 2: (2.0, 0.0)}), Q, 0
    yield "one street", street_graph([(0, 1)], _PAIR), np.zeros((1, 1)), 0
    graph, rows, cols, shares = _two_grids(2, 0)
    Q = np.zeros((graph.n, graph.n))
    Q[rows, cols] = shares
    yield "two grids", graph, Q, 2
    for grid_n in range(2, 7):
        graph = _grid_topology(ScenarioConfig(grid_n=grid_n))
        yield f"grid {grid_n}", graph, _grid_Q(graph, 0), 1


def test_qr_rank_decision_matches_svd_oracle():
    # The rank is n less the closed classes; a network is accepted exactly
    # when that is n - 1, and the RankError names the count otherwise.
    for name, graph, Q, closed in _rank_fixtures():
        n = Q.shape[0]
        assert svd_rank(np.eye(n) - Q) == n - closed, name
        if closed == 1:
            network_from_matrix(graph, Q)
        else:
            with pytest.raises(RankError, match=f" has {closed} closed classes, "):
                network_from_matrix(graph, Q)


@st.composite
def _random_networks(draw):
    """A graph of up to 5 intersections and 8 streets, a random head-to-tail
    support and shares ``w / sum(w)`` with each ``w`` in {1, 2, 3}."""
    m = draw(st.integers(2, 5))
    tails = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=8))
    heads = [(t + draw(st.integers(1, m - 1))) % m for t in tails]
    angles = 2.0 * np.pi * np.arange(m) / m
    graph = street_graph(list(zip(tails, heads)), dict(enumerate(zip(np.cos(angles), np.sin(angles)))))
    Q = np.zeros((graph.n, graph.n))
    for r in range(graph.n):
        outflows = np.flatnonzero(graph.tail == graph.head[r]).tolist()
        if outflows:
            picked = draw(st.lists(st.sampled_from(outflows), min_size=1, unique=True))
            weights = np.array([draw(st.integers(1, 3)) for _ in picked], dtype=float)
            Q[r, picked] = weights / weights.sum()
    return graph, Q


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_random_networks())
def test_closed_class_count_decides_rank_like_svd(case):
    graph, Q = case
    n = graph.n
    try:
        net = network_from_matrix(graph, Q)
    except RankError:
        net = None
    assert (net is not None) == (svd_rank(np.eye(n) - Q) == n - 1)
    if net is not None:
        expected = qr_null_vector(net.A.toarray())
        assert np.max(np.abs(net.null_vector - expected)) <= 1e-12 * np.max(np.abs(expected))


def _null_vector_fixtures():
    """(name, network) pairs: hand-made networks and generated grids."""
    from test_scenario import HAND_WRITTEN

    yield "cycle", cycle_network()
    yield "parallel pair", parallel_pair_network(0.3)
    yield "dead end", dead_end_network()
    yield "weak coupling into the loop", dead_end_network(1e-6)
    yield "loop into cycle", network_from_matrix(*_loop_into_cycle(1.0, 1.0))
    yield "hand-written", loads(HAND_WRITTEN).network
    for grid_n in range(2, 21):
        graph = _grid_topology(ScenarioConfig(grid_n=grid_n))
        for seed in range(3):
            ratios = sampled_ratios(graph, seed)
            yield f"grid {grid_n} seed {seed}", flow_network(graph, *ratios)


def test_null_vector_matches_qr_oracle():
    for name, net in _null_vector_fixtures():
        expected = qr_null_vector(net.A.toarray())
        error = np.max(np.abs(net.null_vector - expected))
        assert error <= 1e-12 * np.max(np.abs(expected)), name


def test_flow_matrix_stays_sparse_in_memory():
    # The dense A and Q of a grid-40 network (6,240 streets) take 623 MB.
    graph = _grid_topology(ScenarioConfig(grid_n=40))
    ratios = sampled_ratios(graph, 0)
    tracemalloc.start()
    try:
        net = flow_network(graph, *ratios)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.n == 6240
    assert peak < 50 * 2**20


def test_geometry_must_meet_intersection_positions():
    graph = street_graph([(0, 1), (1, 0)], _PAIR)
    shares = ratios({(0, 1): 1.0, (1, 0): 1.0})
    Q = np.array([[0.0, 1.0], [1.0, 0.0]])
    # A graph derives its geometry from the positions, so moving an
    # intersection moves its streets' ends; only a file's stored geometry
    # can miss them (test_loader_checks_intersection_positions).
    moved = replace(graph, positions=[(7.5, -3.25), (1.0, 0.0)])
    for net in (flow_network(moved, *shares), network_from_matrix(moved, Q)):
        assert net.graph.geometry.tolist() == [[7.5, -3.25, 1.0, 0.0], [1.0, 0.0, 7.5, -3.25]]
        assert net.graph.length.tolist() == [float(np.hypot(6.5, 3.25))] * 2


def test_two_generated_grids_fail_rank_check():
    # Side by side, two grids are two closed classes, so the balance matrix
    # has rank n - 2 whatever the shares; the count decides it, where a
    # numeric test would have to tell a tiny LU pivot from zero.
    for grid_n in (2, 3, 4):
        for seed in range(3):
            both, rows, cols, shares = _two_grids(grid_n, seed)
            n = both.n
            Q = np.zeros((n, n))
            Q[rows, cols] = shares
            assert svd_rank(np.eye(n) - Q) == n - 2
            with pytest.raises(RankError, match=f"has 2 closed classes, .* rank {n - 2}, "):
                flow_network(both, rows, cols, shares)


def _record_factors(monkeypatch):
    """The flow core's SuperLU factorisations from now on, as
    ``(permc_spec, factors)`` in call order."""
    made = []

    def recorded(*args, permc_spec, **kwargs):
        lu = splu(*args, permc_spec=permc_spec, **kwargs)
        made.append((permc_spec, lu))
        return lu

    monkeypatch.setattr(traffic, "splu", recorded)
    return made


def test_grid30_factorisation_keeps_its_fill_reducing_ordering(monkeypatch):
    # L+U holds 136,557 entries under SuperLU's default COLAMD ordering and
    # 111,611 under MMD_ATA; without the ordering the LU takes about half
    # as long again.  A second seed on the same street layer is factored
    # in the column order the first one found, with the same fill and the
    # same pivots as a fresh MMD_ATA factorisation of its own.
    made = _record_factors(monkeypatch)
    streets = build_streets(ScenarioConfig(grid_n=30))
    build_its(ScenarioConfig(grid_n=30, seed=0), streets)
    block = streets._analysis
    # The pattern keeps its layout, not views into the first factors.
    assert all(a.flags.owndata for a in block.layout)
    assert np.array_equal(block.layout[3], np.argsort(made[0][1].perm_c))
    config = ScenarioConfig(grid_n=30, seed=1)
    Q = build_its(config, streets).Q
    build_its(config, build_streets(config))
    assert [spec for spec, _ in made] == ["MMD_ATA", "NATURAL", "MMD_ATA"]
    lu, fresh = made[1][1], made[2][1]
    for factors in (lu, fresh):
        assert factors.shape == (Q.shape[0] - 1, Q.shape[0] - 1)
        assert factors.L.nnz + factors.U.nnz <= 115_000
        pivots = np.abs(factors.U.diagonal())
        assert pivots.min() > RANK_TOLERANCE * pivots.max()
    assert lu.L.nnz + lu.U.nnz == fresh.L.nnz + fresh.U.nnz
    assert np.array_equal(lu.perm_r, fresh.perm_r)
    assert np.array_equal(lu.U.diagonal(), fresh.U.diagonal())


def _factors(made):
    """Fill, row pivots and U diagonal of the one factorisation in ``made``,
    which it empties."""
    [(_, lu)] = made
    made.clear()
    return lu.L.nnz + lu.U.nnz, lu.perm_r, lu.U.diagonal()


def test_networks_on_a_shared_pattern_match_fresh_builds(monkeypatch):
    # Seeds 0-3 of each grid reuse the column order that a first seed-0
    # network found; the fresh side orders every block anew by MMD_ATA.
    made = _record_factors(monkeypatch)
    for grid_n in range(2, 31):
        streets = build_streets(ScenarioConfig(grid_n=grid_n))
        build_its(ScenarioConfig(grid_n=grid_n, seed=0), streets)
        made.clear()
        for seed in range(4):
            config = ScenarioConfig(grid_n=grid_n, seed=seed)
            shared = build_its(config, streets)
            assert made[0][0] == "NATURAL"
            ours = _factors(made)
            fresh = build_its(config, build_streets(config))
            assert made[0][0] == "MMD_ATA"
            theirs = _factors(made)
            assert shared.pattern is streets and fresh.pattern is not streets
            assert csr_equal(shared.Q, fresh.Q), (grid_n, seed)
            assert np.array_equal(shared.null_vector, fresh.null_vector), (grid_n, seed)
            assert ours[0] == theirs[0], (grid_n, seed)
            assert np.array_equal(ours[1], theirs[1]), (grid_n, seed)
            assert np.array_equal(ours[2], theirs[2]), (grid_n, seed)


def test_exact_zero_share_leaves_no_stored_zero():
    # One inflow of a grid sends all its flow to one outflow and none to
    # the other.  That zero would drop the pair out of the network's
    # support, so the street pattern refuses it, and still serves the next
    # network with the full support.
    config = ScenarioConfig(grid_n=3, seed=0)
    streets = build_streets(config)
    rows, cols, shares = sampled_ratios(streets.graph, 0)
    zero, other = np.flatnonzero(rows == rows[0])[:2]
    shares[zero], shares[other] = 0.0, shares[other] + shares[zero]
    j, k = rows[zero], cols[zero]
    with pytest.raises(
        ValueError, match=rf"^ratio matrix entry \({j}, {k}\) is 0.0, not a finite positive share$"
    ):
        build_flow_matrix(streets, shares)
    # In a dense matrix a zero is no entry: its network is the one on the
    # smaller support.
    keep = shares != 0.0
    Q = np.zeros((streets.graph.n, streets.graph.n))
    Q[rows, cols] = shares
    dense = network_from_matrix(streets.graph, Q)
    assert dense.pattern.nnz == dense.Q.nnz == streets.nnz - 1 and np.all(dense.Q.data != 0.0)
    reduced = flow_network(streets.graph, rows[keep], cols[keep], shares[keep])
    assert csr_equal(dense.Q, reduced.Q)
    assert np.array_equal(dense.null_vector, reduced.null_vector)
    again = build_its(config, streets)
    assert again.pattern is streets
    assert np.array_equal(again.null_vector, generate(config).network.null_vector)


def test_exact_zero_shares_can_split_the_closed_class():
    # Loops 0 <-> 1 and 2 <-> 3 meet at intersection 1, where streets 0 and
    # 3 each turn into either loop.  Zero shares on both links leave two
    # closed classes: a dense matrix drops them and fails the rank check,
    # a pattern refuses them before the rank is read, and the pattern still
    # serves the next network.
    graph = street_graph([(0, 1), (1, 0), (1, 2), (2, 1)], {**_PAIR, 2: (2.0, 0.0)})
    rows, cols = [0, 0, 1, 2, 3, 3], [1, 2, 0, 3, 1, 2]
    pattern = FlowPattern(graph, rows, cols)
    joined = [0.5, 0.5, 1.0, 1.0, 0.5, 0.5]
    net = build_flow_matrix(pattern, joined)
    assert isinstance(pattern._analysis, _DeflatedBlock)
    split = [1.0, 0.0, 1.0, 1.0, 0.0, 1.0]
    Q = np.zeros((graph.n, graph.n))
    Q[rows, cols] = split
    with pytest.raises(RankError, match=" has 2 closed classes, so the balance matrix has rank 2, "):
        network_from_matrix(graph, Q)
    with pytest.raises(ValueError, match=r"^ratio matrix entry \(0, 2\) is 0.0, not a finite "):
        build_flow_matrix(pattern, split)
    again = build_flow_matrix(pattern, joined)
    assert np.array_equal(again.null_vector, net.null_vector)
    assert np.array_equal(again.null_vector, flow_network(graph, rows, cols, joined).null_vector)


def _edit_street(k, **changes):
    def edit(streets, nodes):
        streets[k] = replace(streets[k], **{key: f(streets[k]) for key, f in changes.items()})
    return edit


def _edit_node(k, **changes):
    def edit(streets, nodes):
        nodes[k] = replace(nodes[k], **{key: f(nodes[k]) for key, f in changes.items()})
    return edit


def _both(*edits):
    def edit(streets, nodes):
        for e in edits:
            e(streets, nodes)
    return edit


def _to_front(k):
    def edit(streets, nodes):
        streets.insert(0, streets.pop(k))
    return edit


_STRUCTURE_EDITS = {
    "id gap": _edit_street(-1, id=lambda s: s.id + 1),
    "repeated id": _edit_street(5, id=lambda s: 4),
    "self-loop": _edit_street(6, head=lambda s: s.tail),
    "wrong length": _edit_street(3, length=lambda s: s.length + 2e-9),
    "unknown intersection": _edit_street(9, tail=lambda s: 42),
    "geometry off": _edit_node(5, position=lambda x: (x.position[0], x.position[1] + 2e-9)),
    "repeated intersection id": _edit_node(3, id=lambda x: 2),
    "repeated intersection id, last one moved": lambda streets, nodes: nodes.append(
        replace(nodes[2], position=(9.0, 9.0))
    ),
    "intersections out of order": lambda streets, nodes: nodes.insert(0, nodes.pop(1)),
    "two faults, later street first in the list": _both(
        _edit_node(8, position=lambda x: (x.position[0] - 1.0, x.position[1])),
        _edit_street(1, head=lambda s: -3),
        _to_front(-1),
    ),
    "two faults, two checks": _both(
        _edit_node(0, position=lambda x: (x.position[0], x.position[1] + 0.5)),
        _edit_street(20, length=lambda s: 3.0),
    ),
    "unchanged": _both(),
}


def _outcome(check) -> str | None:
    """The text of the ValueError or FormatError ``check()`` raises, or None."""
    try:
        check()
    except (ValueError, FormatError) as err:
        return str(err)
    return None


def _with_street_rows(text: str, streets, nodes) -> str:
    """``text`` with its ``intersections`` and ``streets`` blocks written
    from records, in list order."""
    lines = text.splitlines()
    first = lines.index("[its]") + 1
    last = next(k for k, line in enumerate(lines) if line.startswith("ratios "))
    rows = [f"intersections {len(nodes)}"]
    rows += [f"{x.id} {x.position[0]!r} {x.position[1]!r}" for x in nodes]
    rows += [f"streets {len(streets)}", *(f"{s.id} {s.tail} {s.head}" for s in streets)]
    return "\n".join(lines[:first] + rows + lines[last:]) + "\n"


@pytest.mark.parametrize("edit", list(_STRUCTURE_EDITS.values()), ids=list(_STRUCTURE_EDITS))
def test_v3_structure_check_matches_loop_oracle(edit):
    # The grid-3 file with its street and intersection rows edited as
    # records.  A street row is ``id tail head``, and the row of id k must
    # come k-th, so a gap, a repeat or a row out of order is a fault.  Each
    # street runs between the positions of its intersections, so a length
    # or geometry edit is no fault.
    config = ScenarioConfig(grid_n=3)
    streets, nodes = (list(part) for part in object_topology(config))
    edit(streets, nodes)
    text = _with_street_rows(dumps(generate(config)), streets, nodes)
    theirs = _outcome(lambda: loop_check_structure(streets, nodes))
    assert _outcome(lambda: loads(text)) == (None if theirs is None else f"[its] {theirs}")
