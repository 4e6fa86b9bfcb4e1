"""Supply-share matrix tests."""
from __future__ import annotations

import numpy as np
import pytest

from icisim.coverage import Stations, coverage_fraction
from icisim.errors import DisconnectedError
from icisim.game import GameInstance
from icisim.power import build_assignment

from conftest import synthetic_impact


def _stations(count: int, p_full: float = 200.0) -> Stations:
    centers = np.stack((np.arange(count, dtype=float), np.zeros(count)), axis=1)
    return Stations(centers, 1.0, p_full / 2.0, p_full)


def _instance(assignment, stations) -> GameInstance:
    return GameInstance(synthetic_impact(np.zeros(len(stations)), stations.headroom), assignment)


def test_single_generator_supplies_everything():
    stations = _stations(4)
    assignment = build_assignment(stations, np.ones((4, 1)))
    assert np.array_equal(assignment.T, np.ones((4, 1)))


def test_two_equal_shares_split_in_half():
    stations = _stations(1)
    assignment = build_assignment(stations, np.array([[3.0, 3.0]]))
    assert np.allclose(assignment.T[0], [0.5, 0.5])


def test_random_wiring_rows_sum_to_one():
    rng = np.random.default_rng(0)
    B, G = 7, 3
    stations = _stations(B)
    wired = rng.random((B, G)) < 0.5
    wired[np.arange(B), rng.integers(0, G, B)] = True
    connected = [tuple(int(b) for b in np.nonzero(wired[:, g])[0]) for g in range(G)]
    # Guarantee every generator lists someone.
    connected = [c if c else (int(rng.integers(B)),) for c in connected]
    shares = np.zeros((B, G))
    for g in range(G):
        for b in connected[g]:
            shares[b, g] = rng.uniform(0.5, 2.0)
    assignment = build_assignment(stations, shares)
    # Independent recomputation of the row sums from the raw weights.
    expected = shares / shares.sum(axis=1, keepdims=True)
    assert np.allclose(assignment.T.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(assignment.T, expected)
    assert np.array_equal(assignment.T > 0.0, shares > 0.0)


def test_station_without_supply_is_rejected():
    stations = _stations(2)
    with pytest.raises(DisconnectedError):
        build_assignment(stations, np.array([[1.0], [0.0]]))


def test_generator_must_list_stations():
    stations = _stations(2)
    with pytest.raises(ValueError, match="generator 1 is connected to no station"):
        build_assignment(stations, np.array([[1.0, 0.0], [1.0, 0.0]]))
    # A negative weight is no line either; the idle generator is named first.
    with pytest.raises(ValueError, match="generator 0 is connected to no station"):
        build_assignment(stations, np.array([[-1.0], [0.0]]))


def test_line_capacity_values():
    stations = _stations(2)
    shares = np.array([[1.0, 0.0], [1.0, 1.0]])
    assignment = build_assignment(stations, shares)
    caps = _instance(assignment, stations).line_caps
    # caps[b, g]: generator 1 has no line to station 0, so that entry is 0.
    assert np.array_equal(caps, [[200.0, 0.0], [100.0, 100.0]])
    assert not assignment.has_line(1, 0)


def test_line_capacities_sum_to_safe_output():
    rng = np.random.default_rng(4)
    B, G = 6, 2
    stations = _stations(B)
    assignment = build_assignment(stations, rng.uniform(0.1, 1.0, (B, G)))
    instance = _instance(assignment, stations)
    for g in range(G):
        lines = instance.line_caps[assignment.T[:, g] > 0.0, g]
        safe = float(assignment.T[:, g] @ assignment.p_full)
        assert lines.sum() == pytest.approx(safe, rel=1e-12)
        assert instance.safe_outputs[g] == pytest.approx(safe, rel=1e-12)
    # Undisturbed, the generators together supply every station in full.
    assert instance.safe_outputs.sum() == pytest.approx(assignment.p_full.sum(), rel=1e-12)


def test_full_supply_gives_full_coverage(grid3_scenario):
    # With no attack and no backup, each station receives its full power.
    assignment, stations = grid3_scenario.assignment, grid3_scenario.base_stations
    supply = (assignment.T * assignment.p_full[:, None]).sum(axis=1)
    assert supply == pytest.approx(stations.p_full, rel=1e-9)
    assert coverage_fraction(stations, supply) == pytest.approx(1.0, abs=1e-12)


def test_share_matrix_validation():
    stations = _stations(2)
    with pytest.raises(ValueError, match="nonnegative"):
        build_assignment(stations, np.array([[1.0], [-0.5]]))
    with pytest.raises(ValueError, match="shape"):
        build_assignment(stations, np.ones((3, 1)))
    with pytest.raises(ValueError, match="shape"):
        build_assignment(stations, np.ones(2))
