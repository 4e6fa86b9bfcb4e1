"""Shared builders for small hand-made fixtures."""
from __future__ import annotations

import numpy as np
import pytest

from icisim.game import GameInstance
from icisim.impact import ImpactModel
from icisim.power import PowerAssignment
from icisim.scenario import (
    _STREAM_RATIOS, ScenarioConfig, _rng, _sample_shares, _turning_support, generate,
)
from icisim.traffic import FlowNetwork, FlowPattern, StreetGraph, build_flow_matrix


def street_graph(ends, positions) -> StreetGraph:
    """Graph of the (tail, head) streets ``ends``, street i on row i, between
    intersections at ``positions`` (id -> point)."""
    tail, head = np.array(ends, dtype=np.int64).reshape(-1, 2).T
    return StreetGraph(tail, head, list(positions), list(positions.values()))


def segment_graph(*segments) -> StreetGraph:
    """Graph with one street per ((x0, y0), (x1, y1)) segment, street i
    running from intersection 2i to 2i + 1 at the segment's ends."""
    positions = {}
    for i, (p, q) in enumerate(segments):
        positions[2 * i], positions[2 * i + 1] = p, q
    return street_graph([(2 * i, 2 * i + 1) for i in range(len(segments))], positions)


def ratios(shares: dict) -> tuple[list, list, list]:
    """The (rows, cols, shares) of a ``{(inflow, outflow): share}`` dict."""
    return [j for j, _ in shares], [k for _, k in shares], list(shares.values())


def flow_network(graph: StreetGraph, rows, cols, shares) -> FlowNetwork:
    """The network of (rows, cols, shares) triples on a fresh pattern."""
    return build_flow_matrix(FlowPattern(graph, rows, cols), shares)


def sampled_ratios(graph: StreetGraph, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A grid's (rows, cols, shares) triples as ``build_its`` draws them."""
    rows, cols = _turning_support(graph)
    return rows, cols, _sample_shares(rows, _rng(seed, _STREAM_RATIOS))


def cycle_network() -> FlowNetwork:
    """Two streets forming the smallest conserving cycle."""
    graph = street_graph([(0, 1), (1, 0)], {0: (0.0, 0.0), 1: (1.0, 0.0)})
    return flow_network(graph, *ratios({(0, 1): 1.0, (1, 0): 1.0}))


def parallel_pair_network(ratio: float = 0.5) -> FlowNetwork:
    """Two intersections joined by two parallel street pairs.

    Each inflow splits ``ratio`` / ``1 - ratio`` between the two outflows on
    the far side, which keeps the network irreducible for any ratio in
    (0, 1).
    """
    graph = street_graph([(0, 1), (1, 0), (0, 1), (1, 0)], {0: (0.0, 0.0), 1: (2.0, 0.0)})
    shares = {
        (0, 1): ratio, (0, 3): 1.0 - ratio,
        (2, 1): 1.0 - ratio, (2, 3): ratio,
        (1, 0): ratio, (1, 2): 1.0 - ratio,
        (3, 0): 1.0 - ratio, (3, 2): ratio,
    }
    return flow_network(graph, *ratios(shares))


def dead_end_network(into_loop: float = 0.5) -> FlowNetwork:
    """A closed two-street loop, a source street feeding it and a dead end.

    Streets 0 (intersection 0 to 1) and 1 (back) form the loop.  Street 2
    runs into intersection 0 from intersection 2, which nothing enters, and
    routes ``into_loop`` of its flow onto street 0 and the rest onto
    street 3, which ends at intersection 3, where no street starts.  The
    loop is the one closed class.  Streets 0 and 1 carry equal flow and
    street 3 none, whether flows balance as ``q = Q q`` or ``q = Q^T q``;
    street 2 carries ``into_loop`` times the loop's flow under the first
    and none under the second.
    """
    graph = street_graph(
        [(0, 1), (1, 0), (2, 0), (0, 3)],
        {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (-1.0, 0.0), 3: (0.0, 1.0)},
    )
    shares = {(0, 1): 1.0, (1, 0): 1.0, (2, 0): into_loop, (2, 3): 1.0 - into_loop}
    return flow_network(graph, *ratios(shares))


def synthetic_impact(z_scores: np.ndarray, headroom: np.ndarray, delta: float = 1.0) -> ImpactModel:
    """Impact model with given nonnegative scores over a one-street network."""
    z_scores = np.asarray(z_scores, dtype=float)
    headroom = np.asarray(headroom, dtype=float)
    return ImpactModel(np.ones(1), z_scores, headroom, delta)


def make_instance(
    z_scores,
    T,
    p_activation,
    p_full,
) -> GameInstance:
    """Game instance from raw arrays; T rows must sum to one on support."""
    T = np.asarray(T, dtype=float)
    p_activation = np.asarray(p_activation, dtype=float)
    p_full = np.asarray(p_full, dtype=float)
    impact = synthetic_impact(np.asarray(z_scores, dtype=float), p_full - p_activation)
    assignment = PowerAssignment(T, p_full)
    return GameInstance(impact, assignment)


def random_instance(rng: np.random.Generator, B: int, G: int) -> GameInstance:
    """Random connected game instance with heterogeneous powers and scores."""
    wired = rng.random((B, G)) < 0.6
    for b in range(B):
        if not wired[b].any():
            wired[b, rng.integers(G)] = True
    for g in range(G):
        if not wired[:, g].any():
            wired[rng.integers(B), g] = True
    shares = np.where(wired, rng.uniform(0.2, 1.0, (B, G)), 0.0)
    T = shares / shares.sum(axis=1, keepdims=True)
    p_activation = rng.uniform(50.0, 120.0, B)
    p_full = p_activation * rng.uniform(1.5, 3.0, B)
    z = rng.uniform(0.1, 3.0, B)
    return make_instance(z, T, p_activation, p_full)


def random_feasible_defense(
    rng: np.random.Generator, instance: GameInstance, scale: float = 0.5
) -> np.ndarray:
    """Defense respecting the station headroom, for payoff-shape tests."""
    return rng.uniform(0.0, scale, instance.num_stations) * instance.headroom


@pytest.fixture(scope="session")
def grid3_scenario():
    return generate(ScenarioConfig(grid_n=3, seed=0))


@pytest.fixture(scope="session")
def grid2_scenario():
    return generate(ScenarioConfig(grid_n=2, seed=0))
