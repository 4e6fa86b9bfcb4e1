"""Station-to-street impact model tests."""
from __future__ import annotations

import io

import numpy as np
import pytest

from icisim.coverage import Stations, coverage_from_lengths
from icisim.errors import SingularError
from icisim.impact import (
    ImpactModel, build_impact_model, export_impact_csv, its_deviations,
)
from icisim.scenario import ScenarioConfig, generate, loads

from conftest import cycle_network, dead_end_network, parallel_pair_network, synthetic_impact
from oracles import anchored_flows, dense_impact, finite_difference_total, lstsq_pattern
from test_scenario import HAND_WRITTEN


def _pattern(net, street: int) -> np.ndarray:
    """Balanced flow change per unit cut on ``street``: ``-v / v[street]``."""
    return -anchored_flows(net, street, 1.0)


def test_pattern_has_minus_one_at_its_street(grid3_scenario):
    net = grid3_scenario.network
    for street in (0, 7, net.n - 1):
        assert _pattern(net, street)[street] == -1.0


def test_cycle_pattern_is_hand_computable():
    # Cut matrix is [[-1], [1]]; normal solve gives -1, so the deviation
    # reaches the other street in full.
    net = cycle_network()
    assert np.allclose(_pattern(net, 0), [-1.0, -1.0])


def test_weak_coupling_bounds_remote_entries():
    # A source street that sends epsilon of its flow into a loop and the
    # rest into a dead end: the source sees at most an epsilon-scaled share
    # of a deviation on the loop, and the dead end none.
    eps = 1e-6
    net = dead_end_network(eps)
    pattern = _pattern(net, 0)
    # Direct solve of the normal equations as an independent check.
    A = net.A.toarray()
    A_i = np.delete(A, 0, axis=1)
    a_i = A[:, 0]
    direct = np.linalg.solve(A_i.T @ A_i, A_i.T @ a_i)
    assert np.allclose(pattern, np.insert(direct, 0, -1.0), atol=1e-12)
    assert pattern[1] == pytest.approx(-1.0, rel=1e-12)
    assert abs(pattern[2]) <= 2.0 * eps
    assert abs(pattern[3]) <= 1e-12


def test_null_pattern_route_matches_least_squares(grid3_scenario):
    net = grid3_scenario.network
    A = net.A.toarray()
    for street in (0, 3, 11):
        assert np.allclose(_pattern(net, street), lstsq_pattern(A, street), rtol=1e-9, atol=1e-12)


def _single_station_setup():
    net = cycle_network()
    bs = Stations([(0.5, 0.0)], 1.0, 100.0, 200.0)
    coverage = coverage_from_lengths(net.graph, np.array([[1.0], [0.0]]))
    return net, bs, coverage


def test_station_covering_nothing_scores_zero():
    net = cycle_network()
    bs = Stations([(50.0, 50.0)], 1.0, 100.0, 200.0)
    coverage = coverage_from_lengths(net.graph, np.zeros((2, 1)))
    model = build_impact_model(net.null_vector, coverage, bs)
    assert np.array_equal(model.z_vectors, np.zeros((1, 2)))
    assert model.z_scores[0] == 0.0


def test_station_covering_one_full_street():
    net, bs, coverage = _single_station_setup()
    model = build_impact_model(net.null_vector, coverage, bs)
    expected = _pattern(net, 0) / bs.headroom[0]
    assert np.allclose(model.z_vectors[0], expected, rtol=1e-12)
    assert model.z_scores[0] == pytest.approx(np.abs(expected).sum(), rel=1e-12)


def test_zero_flow_street_is_singular_only_when_covered():
    # Street 3 of the dead-end network carries no flow.
    net = dead_end_network()
    bs = Stations([(0.5, 0.0)], 1.0, 100.0, 200.0)
    covers_flowing = coverage_from_lengths(net.graph, np.array([[1.0], [0.0], [0.0], [0.0]]))
    model = build_impact_model(net.null_vector, covers_flowing, bs)
    vectors, scores = dense_impact(net, covers_flowing, bs)
    assert model.z_scores[0] == pytest.approx(scores[0], rel=1e-12)
    assert np.allclose(model.z_vectors, vectors, rtol=1e-12, atol=0.0)
    covers_dry = coverage_from_lengths(net.graph, np.array([[0.0], [0.0], [0.0], [1.0]]))
    with pytest.raises(SingularError):
        build_impact_model(net.null_vector, covers_dry, bs)
    with pytest.raises(SingularError):
        dense_impact(net, covers_dry, bs)


def test_score_matches_finite_difference_oracle(grid3_scenario):
    impact = grid3_scenario.impact
    for station, cut in ((0, 40.0), (3, 75.0)):
        expected = finite_difference_total(grid3_scenario, station, cut)
        assert impact.z_scores[station] * impact.delta * cut == pytest.approx(
            expected, rel=1e-6
        )


def test_deviation_zero_for_zero_cuts(grid3_scenario):
    impact = grid3_scenario.impact
    assert its_deviations(impact, np.zeros(impact.num_stations)) == 0.0


def test_deviation_saturates_at_headroom(grid3_scenario):
    impact = grid3_scenario.impact
    at_cap = its_deviations(impact, impact.headroom.copy())
    doubled = its_deviations(impact, 2.0 * impact.headroom)
    assert doubled == at_cap


def test_deviation_linear_below_saturation(grid3_scenario):
    impact = grid3_scenario.impact
    rng = np.random.default_rng(5)
    devs = rng.uniform(0.0, 0.5, impact.num_stations) * impact.headroom
    base = its_deviations(impact, devs)
    assert its_deviations(impact, 2.0 * devs) == pytest.approx(2.0 * base, rel=1e-12)
    single = np.zeros(impact.num_stations)
    single[2] = 30.0
    assert its_deviations(impact, single) == pytest.approx(
        impact.z_scores[2] * impact.delta * 30.0, rel=1e-12
    )


def test_deviation_monotone_per_station():
    impact = synthetic_impact(np.array([2.0, 0.5]), np.array([100.0, 100.0]))
    grid = np.linspace(0.0, 150.0, 31)
    values = [its_deviations(impact, np.array([x, 0.0])) for x in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))
    # Linear until 100 W, flat afterwards.
    assert values[-1] == pytest.approx(2.0 * 100.0)


@pytest.mark.parametrize("stations", (1, 7, 8, 39, 129, 449))
def test_stacked_deviations_take_one_dot_per_row(stations):
    # Each row's residual is ``z @ row * delta`` with its own replica's
    # scores, bit for bit; a summed product or a mat-vec rounds differently.
    rng = np.random.default_rng(stations)
    R, K = 3, 5
    null = rng.uniform(0.1, 1.0, (R, 60))
    scale = rng.uniform(-1.0, 1.0, (R, stations)) * 10.0 ** rng.uniform(-4, 4, (R, stations))
    stack = ImpactModel(null, scale, rng.uniform(50.0, 150.0, stations), 1.7)
    devs = rng.uniform(0.0, 200.0, (K, R, stations))
    got = its_deviations(stack, devs)
    # One (1, stations) row per k shared by every replica, as power-sweep cuts.
    shared = its_deviations(stack, devs[:, :1])
    assert got.shape == shared.shape == (K, R)
    clipped = np.clip(devs, 0.0, stack.headroom)
    for r in range(R):
        alone = ImpactModel(null[r], scale[r], stack.headroom, 1.7)
        assert np.array_equal(alone.z_scores, stack.z_scores[r])
        rows = [alone.z_scores @ row * 1.7 for row in clipped[:, r]]
        assert got[:, r].tobytes() == np.array(rows).tobytes()
        assert got[:, r].tobytes() == its_deviations(alone, devs[:, r]).tobytes()
        rows = [alone.z_scores @ row * 1.7 for row in clipped[:, 0]]
        assert shared[:, r].tobytes() == np.array(rows).tobytes()


def test_score_zero_iff_uncovered(grid3_scenario):
    cov_counts = (grid3_scenario.coverage.lengths.toarray() > 0.0).sum(axis=0)
    for b in range(grid3_scenario.impact.num_stations):
        if cov_counts[b] == 0:
            assert grid3_scenario.impact.z_scores[b] == 0.0
        else:
            assert grid3_scenario.impact.z_scores[b] > 0.0


def test_csv_export(grid3_scenario):
    buf = io.StringIO()
    export_impact_csv(grid3_scenario.impact, grid3_scenario.coverage, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].rstrip("\r") == "bs_id,z_score,covered_streets"
    assert len(lines) == 1 + grid3_scenario.impact.num_stations
    first = lines[1].rstrip("\r").split(",")
    assert float(first[1]) == grid3_scenario.impact.z_scores[0]
    assert int(first[2]) == int(
        (grid3_scenario.coverage.lengths.toarray()[:, 0] > 0.0).sum()
    )


def _oracle_cases():
    """(name, network, coverage, stations) for generated and hand-made models."""
    for grid_n in (3, 5, 9):
        for seed in range(3):
            sc = generate(ScenarioConfig(grid_n=grid_n, seed=seed))
            yield f"grid {grid_n} seed {seed}", sc.network, sc.coverage, sc.base_stations
    hand = loads(HAND_WRITTEN)
    yield "hand-written file", hand.network, hand.coverage, hand.base_stations
    stations = Stations([(0.5, 0.0), (1.5, 0.0)], 1.0, [100.0, 80.0], [200.0, 250.0])
    net = parallel_pair_network(0.3)
    lengths = np.array([[1.5, 0.5], [0.0, 2.0], [0.25, 0.0], [0.0, 0.0]])
    yield "parallel pair", net, coverage_from_lengths(net.graph, lengths), stations
    net = dead_end_network()
    lengths = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 0.0], [0.0, 0.0]])
    yield "zero-flow streets uncovered", net, coverage_from_lengths(net.graph, lengths), stations


def test_model_build_matches_per_station_route():
    # The rank-one model against the dense per-street sum of tests/oracles.py.
    for name, net, coverage, stations in _oracle_cases():
        model = build_impact_model(net.null_vector, coverage, stations)
        vectors, scores = dense_impact(net, coverage, stations)
        assert model.z_vectors.shape == vectors.shape, name
        assert np.allclose(model.z_vectors, vectors, rtol=1e-12, atol=0.0), name
        assert np.allclose(model.z_scores, scores, rtol=1e-12, atol=0.0), name
