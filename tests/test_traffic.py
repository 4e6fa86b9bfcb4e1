"""Street-network flow model tests."""
from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from icisim.errors import RankError, SingularError, TopologyError
from icisim.scenario import (
    ScenarioConfig,
    _grid_topology,
    _rng,
    _sample_ratios,
    _STREAM_RATIOS,
    loads,
)
from icisim.traffic import (
    _check_structure,
    build_flow_matrix,
    intersections_from_streets,
    make_street,
    network_from_matrix,
    solve_flows,
)

from conftest import cycle_network, parallel_pair_network
from oracles import loop_check_structure, qr_flow_solution, qr_null_vector, svd_rank


def test_cycle_matrix_and_rank():
    net = cycle_network()
    assert net.Q.format == "csr" and net.A.format == "csr"
    assert np.array_equal(net.A.toarray(), np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_ratio_on_missing_street_pair():
    positions = {0: (0.0, 0.0), 1: (1.0, 0.0)}
    streets = [
        make_street(0, 0, 1, (positions[0], positions[1])),
        make_street(1, 1, 0, (positions[1], positions[0])),
    ]
    nodes = intersections_from_streets(streets, positions)
    with pytest.raises(TopologyError):
        build_flow_matrix(streets, nodes, {(0, 1): 1.0, (1, 0): 1.0, (0, 7): 0.1})
    with pytest.raises(TopologyError):
        # Street 0 cannot feed itself: the pair does not meet head-to-tail.
        build_flow_matrix(streets, nodes, {(0, 0): 1.0, (1, 0): 1.0})


def test_disconnected_network_fails_rank_check():
    positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (5.0, 0.0), 3: (6.0, 0.0)}
    streets = [
        make_street(0, 0, 1, (positions[0], positions[1])),
        make_street(1, 1, 0, (positions[1], positions[0])),
        make_street(2, 2, 3, (positions[2], positions[3])),
        make_street(3, 3, 2, (positions[3], positions[2])),
    ]
    nodes = intersections_from_streets(streets, positions)
    ratios = {(0, 1): 1.0, (1, 0): 1.0, (2, 3): 1.0, (3, 2): 1.0}
    with pytest.raises(RankError):
        build_flow_matrix(streets, nodes, ratios)


def test_bad_share_sums_rejected():
    positions = {0: (0.0, 0.0), 1: (1.0, 0.0)}
    streets = [
        make_street(0, 0, 1, (positions[0], positions[1])),
        make_street(1, 1, 0, (positions[1], positions[0])),
    ]
    nodes = intersections_from_streets(streets, positions)
    with pytest.raises(ValueError, match="sum to 1"):
        build_flow_matrix(streets, nodes, {(0, 1): 0.7, (1, 0): 1.0})
    with pytest.raises(ValueError, match="negative"):
        build_flow_matrix(streets, nodes, {(0, 1): -1.0, (1, 0): 1.0})


def test_grid2_matrix_matches_hand_assembly():
    # Rebuild the balance matrix entrywise from the sampled shares.
    config = ScenarioConfig(grid_n=2, seed=0)
    streets, nodes = _grid_topology(config)
    ratios = _sample_ratios(streets, nodes, _rng(0, 0, _STREAM_RATIOS))
    net = build_flow_matrix(streets, nodes, ratios)
    n = len(streets)
    expected = np.eye(n)
    for (j, k), share in ratios.items():
        expected[j, k] -= share
    assert np.array_equal(net.A.toarray(), expected)
    assert net.n == 8


def test_solve_cycle():
    net = cycle_network()
    sol = solve_flows(net, 0, 100.0)
    assert np.allclose(sol.flows, [100.0, 100.0])
    assert sol.flows[0] == 100.0


def test_solve_zero_anchor_flow():
    net = parallel_pair_network(0.3)
    sol = solve_flows(net, 1, 0.0)
    assert np.allclose(sol.flows, 0.0)


def test_solve_rejects_negative_flow():
    with pytest.raises(ValueError):
        solve_flows(cycle_network(), 0, -1.0)


def test_solve_grid3_matches_qr_oracle(grid3_scenario):
    net = grid3_scenario.network
    sol = solve_flows(net, 0, 1000.0)
    expected = qr_flow_solution(net.A.toarray(), 0, 1000.0)
    assert np.allclose(sol.flows, expected, rtol=1e-8)
    assert sol.residual(net) <= 1e-6 * np.abs(sol.flows).max()


def _deviation(net, street: int, delta: float) -> np.ndarray:
    """Balanced flow change when street ``street`` loses ``delta``."""
    return -solve_flows(net, street, delta).flows


def test_propagate_zero_delta(grid3_scenario):
    dev = _deviation(grid3_scenario.network, 3, 0.0)
    assert np.array_equal(dev, np.zeros(grid3_scenario.network.n))


def test_propagate_is_linear(grid3_scenario):
    # solve_flows takes nonnegative anchor flows, so the scalings are too.
    net = grid3_scenario.network
    base = _deviation(net, 5, 12.5)
    assert base[5] == -12.5
    assert np.allclose(_deviation(net, 5, 25.0), 2.0 * base, rtol=1e-12)
    rng = np.random.default_rng(11)
    for alpha in rng.uniform(0.0, 3.0, 10):
        scaled = _deviation(net, 5, 12.5 * alpha)
        assert np.allclose(scaled, alpha * base, rtol=1e-9, atol=1e-12)


def test_propagate_matches_two_solve_difference(grid3_scenario):
    net = grid3_scenario.network
    base_flow, delta = 1000.0, 50.0
    before = solve_flows(net, 0, base_flow).flows
    after = solve_flows(net, 0, base_flow - delta).flows
    dev = _deviation(net, 0, delta)
    assert np.allclose(dev, after - before, rtol=1e-8, atol=1e-9)
    assert dev[0] == -delta


def test_anchor_consistency_across_streets(grid2_scenario):
    # Solving from any anchor must land in the same one-dimensional family.
    net = grid2_scenario.network
    ref = solve_flows(net, 0, 700.0).flows
    for anchor in range(1, net.n):
        other = solve_flows(net, anchor, ref[anchor]).flows
        assert np.allclose(other, ref, rtol=1e-8)


def test_conservation_residual_invariant(grid2_scenario, grid3_scenario):
    for sc in (grid2_scenario, grid3_scenario):
        sol = solve_flows(sc.network, sc.config.anchor_street, sc.config.anchor_flow)
        assert sol.residual(sc.network) <= 1e-6 * np.abs(sol.flows).max()


def _parallel_streets():
    positions = {0: (0.0, 0.0), 1: (1.0, 0.0)}
    streets = [
        make_street(0, 0, 1, (positions[0], positions[1])),
        make_street(1, 0, 1, (positions[0], positions[1])),
        make_street(2, 1, 0, (positions[1], positions[0])),
        make_street(3, 1, 0, (positions[1], positions[0])),
    ]
    return streets, intersections_from_streets(streets, positions)


def test_singular_anchor_raises():
    # A loaded convention where street 1 must carry zero flow: removing its
    # column leaves a rank-deficient reduced system.
    streets, nodes = _parallel_streets()
    Q = np.zeros((4, 4))
    Q[0, 2] = 1.0
    Q[0, 3] = 1.0
    Q[2, 0] = 1.0
    Q[3, 1] = 1.0
    net = network_from_matrix(streets, nodes, Q)
    with pytest.raises(SingularError):
        solve_flows(net, 1, 10.0)
    # Other anchors stay solvable.
    sol = solve_flows(net, 0, 10.0)
    assert np.allclose(sol.flows, [10.0, 0.0, 10.0, 0.0], atol=1e-9)


def test_loader_matrix_structure_validated():
    streets, nodes = _parallel_streets()
    Q = np.zeros((4, 4))
    Q[0, 1] = 1.0  # street 1 does not start where street 0 ends
    with pytest.raises(TopologyError):
        network_from_matrix(streets, nodes, Q)


def _leaky_loop_into_cycle(cycle_share):
    """Streets, nodes and Q of a leaky loop 0 -> 1 -> 2 -> 0 feeding a loop 3 <-> 4.

    Street 0 passes half its flow on round the loop and half to street 3.
    With ``cycle_share = 1`` the small loop 3 <-> 4 balances on its own and
    the rank is n - 1, although the larger class does not balance.
    """
    positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, 1.0), 3: (3.0, 0.0)}
    streets = [
        make_street(0, 0, 1, (positions[0], positions[1])),
        make_street(1, 1, 2, (positions[1], positions[2])),
        make_street(2, 2, 0, (positions[2], positions[0])),
        make_street(3, 1, 3, (positions[1], positions[3])),
        make_street(4, 3, 1, (positions[3], positions[1])),
    ]
    Q = np.zeros((5, 5))
    Q[0, 1] = Q[1, 2] = Q[2, 0] = Q[0, 3] = 0.5
    Q[3, 4] = Q[4, 3] = cycle_share
    return streets, intersections_from_streets(streets, positions), Q


def _rank_fixtures():
    """(name, streets, nodes, Q) for hand-made matrices on both sides of rank n-1."""
    cycle = cycle_network()
    yield "2-street cycle", cycle.streets, cycle.intersections, cycle.Q
    positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (5.0, 0.0), 3: (6.0, 0.0)}
    streets = [
        make_street(0, 0, 1, (positions[0], positions[1])),
        make_street(1, 1, 0, (positions[1], positions[0])),
        make_street(2, 2, 3, (positions[2], positions[3])),
        make_street(3, 3, 2, (positions[3], positions[2])),
    ]
    Q = np.zeros((4, 4))
    Q[0, 1] = Q[1, 0] = Q[2, 3] = Q[3, 2] = 1.0
    yield "disconnected", streets, intersections_from_streets(streets, positions), Q
    streets, nodes = _parallel_streets()
    Q = np.zeros((4, 4))
    Q[0, 2] = Q[2, 0] = 1.0
    Q[1, 2] = Q[3, 0] = 1e-6
    yield "weak coupling", streets, nodes, Q
    Q = np.zeros((4, 4))
    Q[0, 2] = Q[0, 3] = Q[2, 0] = Q[3, 1] = 1.0
    yield "zero-flow anchor", streets, nodes, Q
    Q = np.zeros((4, 4))
    Q[0, 2] = 0.5
    Q[2, 0] = 1.0
    yield "full rank", streets, nodes, Q
    yield "leaky loop into cycle", *_leaky_loop_into_cycle(1.0)
    yield "leaky loop into leaky loop", *_leaky_loop_into_cycle(0.5)
    for grid_n in range(2, 7):
        streets, nodes = _grid_topology(ScenarioConfig(grid_n=grid_n))
        ratios = _sample_ratios(streets, nodes, _rng(0, 0, _STREAM_RATIOS))
        Q = np.zeros((len(streets), len(streets)))
        for (j, k), share in ratios.items():
            Q[j, k] = share
        yield f"grid {grid_n}", streets, nodes, Q


def test_qr_rank_decision_matches_svd_oracle():
    decisions = {}
    for name, streets, nodes, Q in _rank_fixtures():
        n = Q.shape[0]
        try:
            network_from_matrix(streets, nodes, Q)
            accepted = True
        except RankError:
            accepted = False
        assert accepted == (svd_rank(np.eye(n) - Q) == n - 1), name
        decisions[name] = accepted
    assert not decisions["disconnected"] and not decisions["full rank"]
    assert decisions["weak coupling"] and decisions["zero-flow anchor"]
    assert all(decisions[f"grid {g}"] for g in range(2, 7))


def _null_vector_fixtures():
    """(name, network) pairs: hand-made conventions and generated grids."""
    from test_scenario import HAND_WRITTEN

    yield "cycle", cycle_network()
    yield "parallel pair", parallel_pair_network(0.3)
    streets, nodes = _parallel_streets()
    Q = np.zeros((4, 4))
    Q[0, 2] = Q[2, 0] = 1.0
    Q[1, 2] = Q[3, 0] = 1e-6
    yield "weak coupling", network_from_matrix(streets, nodes, Q)
    Q = np.zeros((4, 4))
    Q[0, 2] = Q[0, 3] = Q[2, 0] = Q[3, 1] = 1.0
    yield "zero-flow anchor", network_from_matrix(streets, nodes, Q)
    yield "leaky loop into cycle", network_from_matrix(*_leaky_loop_into_cycle(1.0))
    yield "hand-written", loads(HAND_WRITTEN).network
    for grid_n in range(2, 21):
        streets, nodes = _grid_topology(ScenarioConfig(grid_n=grid_n))
        for seed in range(3):
            ratios = _sample_ratios(streets, nodes, _rng(seed, 0, _STREAM_RATIOS))
            yield f"grid {grid_n} seed {seed}", build_flow_matrix(streets, nodes, ratios)


def test_null_vector_matches_qr_oracle():
    for name, net in _null_vector_fixtures():
        expected = qr_null_vector(net.A.toarray())
        error = np.max(np.abs(net.null_vector - expected))
        assert error <= 1e-12 * np.max(np.abs(expected)), name


def test_flow_matrix_stays_sparse_in_memory():
    # The dense A and Q of a grid-40 network (6,240 streets) take 623 MB.
    streets, nodes = _grid_topology(ScenarioConfig(grid_n=40))
    ratios = _sample_ratios(streets, nodes, _rng(0, 0, _STREAM_RATIOS))
    tracemalloc.start()
    try:
        net = build_flow_matrix(streets, nodes, ratios)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.n == 6240
    assert peak < 50 * 2**20


def test_geometry_must_meet_intersection_positions():
    positions = {0: (0.0, 0.0), 1: (1.0, 0.0)}
    streets = [
        make_street(0, 0, 1, (positions[0], positions[1])),
        make_street(1, 1, 0, (positions[1], positions[0])),
    ]
    ratios = {(0, 1): 1.0, (1, 0): 1.0}
    Q = np.array([[0.0, 1.0], [1.0, 0.0]])
    moved = intersections_from_streets(streets, {0: (7.5, -3.25), 1: (1.0, 0.0)})
    with pytest.raises(ValueError, match="geometry"):
        build_flow_matrix(streets, moved, ratios)
    with pytest.raises(ValueError, match="geometry"):
        network_from_matrix(streets, moved, Q)
    # Within the 1e-9 tolerance of the length check the positions still match.
    nudged = intersections_from_streets(streets, {0: (0.0, 5e-10), 1: (1.0, 0.0)})
    assert build_flow_matrix(streets, nudged, ratios).n == 2


def test_two_generated_grids_fail_rank_check():
    # Side by side, two grids give a block whose LU pivot is tiny but not
    # exactly zero, so the pivot threshold has to reject it.
    for grid_n in (2, 3, 4):
        streets, nodes = _grid_topology(ScenarioConfig(grid_n=grid_n))
        m, offset = len(streets), grid_n * grid_n
        positions = {x.id: x.position for x in nodes}
        positions.update({i + offset: (x + 100.0, y) for i, (x, y) in list(positions.items())})
        both = list(streets) + [
            make_street(s.id + m, s.tail + offset, s.head + offset,
                        (positions[s.tail + offset], positions[s.head + offset]))
            for s in streets
        ]
        for seed in range(3):
            ratios = _sample_ratios(streets, nodes, _rng(seed, 0, _STREAM_RATIOS))
            other = _sample_ratios(streets, nodes, _rng(seed + 10, 0, _STREAM_RATIOS))
            ratios.update({(j + m, k + m): share for (j, k), share in other.items()})
            Q = np.zeros((2 * m, 2 * m))
            for (j, k), share in ratios.items():
                Q[j, k] = share
            assert svd_rank(np.eye(2 * m) - Q) == 2 * m - 2
            with pytest.raises(RankError):
                build_flow_matrix(both, intersections_from_streets(both, positions), ratios)


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


_STRUCTURE_EDITS = {
    "id gap": _edit_street(-1, id=lambda s: s.id + 1),
    "repeated id": _edit_street(5, id=lambda s: 4),
    "self-loop": _edit_street(6, head=lambda s: s.tail),
    "wrong length": _edit_street(3, length=lambda s: s.length + 2e-9),
    "listed in and out": _edit_node(4, inbound=lambda x: x.inbound + x.outbound[:1]),
    "unknown street": _edit_node(2, outbound=lambda x: x.outbound + (24,)),
    "negative street": _edit_node(7, inbound=lambda x: (-1,) + x.inbound),
    "unknown listed in and out": _edit_node(
        1, inbound=lambda x: x.inbound + (99,), outbound=lambda x: x.outbound + (99,)
    ),
    "unknown intersection": _edit_street(9, tail=lambda s: 42),
    "missing incidence": _edit_node(4, outbound=lambda x: x.outbound[1:]),
    "lists swapped": _edit_node(0, inbound=lambda x: x.outbound, outbound=lambda x: x.inbound),
    "geometry off": _edit_node(5, position=lambda x: (x.position[0], x.position[1] + 2e-9)),
    "repeated intersection id": _edit_node(3, id=lambda x: 2),
    "repeated intersection id, last one moved": lambda streets, nodes: nodes.append(
        replace(nodes[2], position=(9.0, 9.0))
    ),
    "two faults, later street first in the list": _both(
        _edit_node(8, position=lambda x: (x.position[0] - 1.0, x.position[1])),
        _edit_node(1, outbound=lambda x: x.outbound[1:]),
    ),
    "two faults, two checks": _both(
        _edit_node(0, outbound=lambda x: x.outbound + (77,)),
        _edit_street(20, length=lambda s: 3.0),
    ),
    "listed at a second intersection": _edit_node(8, outbound=lambda x: x.outbound + (0,)),
    "unchanged": _both(),
}


@pytest.mark.parametrize("edit", list(_STRUCTURE_EDITS.values()), ids=list(_STRUCTURE_EDITS))
def test_structure_check_matches_loop_oracle(edit):
    streets, nodes = (list(part) for part in _grid_topology(ScenarioConfig(grid_n=3)))
    edit(streets, nodes)
    streets = tuple(sorted(streets, key=lambda s: s.id))
    nodes = tuple(sorted(nodes, key=lambda x: x.id))

    def outcome(check):
        try:
            check(streets, nodes)
        except ValueError as err:
            return str(err)
        return None

    assert outcome(_check_structure) == outcome(loop_check_structure)
