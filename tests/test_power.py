"""Supply-share matrix tests."""
from __future__ import annotations

import numpy as np
import pytest

from icisim.coverage import Stations
from icisim.errors import DisconnectedError
from icisim.game import GameInstance
from icisim.power import build_assignment

from conftest import synthetic_impact
from oracles import coverage_fraction


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
    shares = np.array([[0.5, 0.5]])
    assignment = build_assignment(stations, shares)
    assert assignment.T is shares


def test_random_wiring_rows_sum_to_one():
    rng = np.random.default_rng(0)
    B, G = 7, 3
    stations = _stations(B)
    wired = rng.random((B, G)) < 0.5
    wired[np.arange(B), rng.integers(0, G, B)] = True
    connected = [tuple(int(b) for b in np.nonzero(wired[:, g])[0]) for g in range(G)]
    # Guarantee every generator lists someone.
    connected = [c if c else (int(rng.integers(B)),) for c in connected]
    weights = np.zeros((B, G))
    for g in range(G):
        for b in connected[g]:
            weights[b, g] = rng.uniform(0.5, 2.0)
    # Raw weights are not shares; each row over its sum is.
    with pytest.raises(ValueError, match="do not sum to 1"):
        build_assignment(stations, weights)
    shares = weights / weights.sum(axis=1, keepdims=True)
    assignment = build_assignment(stations, shares)
    assert np.allclose(assignment.T.sum(axis=1), 1.0, atol=1e-9)
    assert np.array_equal(assignment.T, shares)
    assert np.array_equal(assignment.T > 0.0, weights > 0.0)


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
    shares = np.array([[1.0, 0.0], [0.5, 0.5]])
    assignment = build_assignment(stations, shares)
    caps = _instance(assignment, stations).line_caps
    # caps[b, g]: generator 1 has no line to station 0, so that entry is 0.
    assert np.array_equal(caps, [[200.0, 0.0], [100.0, 100.0]])
    assert assignment.T[0, 1] == 0.0


def test_line_capacities_sum_to_safe_output():
    rng = np.random.default_rng(4)
    B, G = 6, 2
    stations = _stations(B)
    weights = rng.uniform(0.1, 1.0, (B, G))
    assignment = build_assignment(stations, weights / weights.sum(axis=1, keepdims=True))
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


def test_shares_must_sum_to_one_per_station():
    stations = _stations(3)
    with pytest.raises(ValueError, match=r"^supply shares of stations \[0, 2\] do not sum to 1$"):
        build_assignment(stations, np.array([[3.0, 3.0], [0.25, 0.75], [0.5, 0.5 + 2e-9]]))
    # A NaN share fails the sum rule too.
    with pytest.raises(ValueError, match=r"^supply shares of stations \[1\] do not sum to 1$"):
        build_assignment(stations, np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]]))
    # Within 1e-9 of 1, the shares are stored bit for bit.
    near = np.array([[1.0, 0.0], [0.25, 0.75], [0.5, 0.5 + 5e-10]])
    assert np.array_equal(build_assignment(stations, near).T, near)


def test_share_matrix_validation():
    stations = _stations(2)
    with pytest.raises(ValueError, match="nonnegative"):
        build_assignment(stations, np.array([[1.0], [-0.5]]))
    with pytest.raises(ValueError, match="shape"):
        build_assignment(stations, np.ones((3, 1)))
    with pytest.raises(ValueError, match="shape"):
        build_assignment(stations, np.ones(2))
