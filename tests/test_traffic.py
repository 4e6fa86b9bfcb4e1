"""Street-network flow model tests."""
from __future__ import annotations

import numpy as np
import pytest

from icisim.errors import RankError, SingularError, TopologyError
from icisim.scenario import ScenarioConfig, _grid_topology, _rng, _sample_ratios, _STREAM_RATIOS
from icisim.traffic import (
    build_flow_matrix,
    intersections_from_streets,
    make_street,
    network_from_matrix,
    propagate_deviation,
    solve_flows,
)

from conftest import cycle_network, parallel_pair_network
from oracles import qr_flow_solution, svd_rank


def test_cycle_matrix_and_rank():
    net = cycle_network()
    assert np.array_equal(net.A, np.array([[1.0, -1.0], [-1.0, 1.0]]))


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
    assert np.array_equal(net.A, expected)
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
    expected = qr_flow_solution(net.A, 0, 1000.0)
    assert np.allclose(sol.flows, expected, rtol=1e-8)
    assert sol.residual(net) <= 1e-6 * np.abs(sol.flows).max()


def test_propagate_zero_delta(grid3_scenario):
    dev = propagate_deviation(grid3_scenario.network, 3, 0.0)
    assert np.array_equal(dev, np.zeros(grid3_scenario.network.n))


def test_propagate_is_linear(grid3_scenario):
    net = grid3_scenario.network
    base = propagate_deviation(net, 5, 12.5)
    assert np.allclose(propagate_deviation(net, 5, 25.0), 2.0 * base, rtol=1e-12)
    rng = np.random.default_rng(11)
    for alpha in rng.uniform(-3.0, 3.0, 10):
        scaled = propagate_deviation(net, 5, 12.5 * alpha)
        assert np.allclose(scaled, alpha * base, rtol=1e-9, atol=1e-12)


def test_propagate_matches_two_solve_difference(grid3_scenario):
    net = grid3_scenario.network
    base_flow, delta = 1000.0, 50.0
    before = solve_flows(net, 0, base_flow).flows
    after = solve_flows(net, 0, base_flow - delta).flows
    dev = propagate_deviation(net, 0, delta)
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
