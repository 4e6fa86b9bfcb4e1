"""Hexagonal coverage geometry and power-response tests."""
from __future__ import annotations

import math
import mmap
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from icisim.coverage import (
    CoverageMap,
    Stations,
    _clip_intervals,
    build_coverage,
    coverage_from_lengths,
    hex_tiling,
)
from icisim.errors import OverlapError
from icisim.impact import ImpactModel, its_deviations
from icisim.scenario import ScenarioConfig, _grid_topology
from icisim.traffic import csr_equal

from conftest import segment_graph
from oracles import (
    Hexagon, clip_length_sequential, coverage_fraction, dense_overlap_pair, loop_coverage,
)

SQ3 = math.sqrt(3.0)


def _stations(centers, radius=1.0) -> Stations:
    """Stations at ``centers`` with powers 100 W and 200 W; station k at centers[k]."""
    return Stations(centers, radius, 100.0, 200.0)


PAIR = _stations([(0.0, 0.0), (0.0, SQ3)])
ONE = _stations([(0.0, 0.0)])


# ---------------------------------------------------------------------------
# Tiling


def test_tiny_area_keeps_a_handful_of_cells():
    centers = hex_tiling(((0.0, 0.0), (0.5, 0.5)), 1.0)
    assert 1 <= len(centers) <= 3
    # One returned center must be the nearest cell to the area center.
    target = min(centers, key=lambda c: (c[0] - 0.25) ** 2 + (c[1] - 0.25) ** 2)
    assert math.hypot(target[0] - 0.25, target[1] - 0.25) <= 1.0


def test_tiling_covers_every_sample_point_once():
    bounds = ((0.0, 0.0), (10.0, 10.0))
    centers = hex_tiling(bounds, 1.0)
    arr = np.array(centers)
    xs = np.linspace(0.0, 10.0, 100)
    for x in xs:
        d2 = (arr[:, 0] - x) ** 2
        for y in xs:
            nearest = int(np.argmin(d2 + (arr[:, 1] - y) ** 2))
            assert Hexagon(centers[nearest], 1.0).contains((x, y), tol=1e-9)


def test_doubling_radius_shrinks_center_count_about_fourfold():
    bounds = ((0.0, 0.0), (10.0, 10.0))
    small = len(hex_tiling(bounds, 0.5))
    large = len(hex_tiling(bounds, 1.0))
    ring = 2.0 * (10.0 + 10.0) / (SQ3 * 1.0) + 8  # generous one-ring estimate
    assert abs(large - small / 4.0) <= ring


def test_tiling_validates_inputs():
    with pytest.raises(ValueError):
        hex_tiling(((0.0, 0.0), (1.0, 1.0)), 0.0)
    with pytest.raises(ValueError):
        hex_tiling(((1.0, 0.0), (0.0, 1.0)), 1.0)


# ---------------------------------------------------------------------------
# Clipping


def _clip_length(segment, hexagon: Hexagon) -> float:
    """Length of ``segment`` inside ``hexagon``, from the library's clip
    kernel run on one pair."""
    (x0, y0), (x1, y1) = segment
    cx, cy = hexagon.center
    t_lo, t_hi, live = _clip_intervals(x0 - cx, y0 - cy, x1 - x0, y1 - y0, hexagon.apothem)
    return float((t_hi - t_lo) * math.hypot(x1 - x0, y1 - y0)) if live else 0.0


def test_clip_segment_fully_inside():
    hexagon = Hexagon((0.0, 0.0), 1.0)
    seg = ((-0.3, 0.0), (0.4, 0.1))
    assert _clip_length(seg, hexagon) == pytest.approx(math.hypot(0.7, 0.1), abs=1e-15)


def test_clip_segment_fully_outside():
    hexagon = Hexagon((0.0, 0.0), 1.0)
    assert _clip_length(((5.0, 5.0), (6.0, 5.0)), hexagon) == 0.0


def test_clip_crossing_edge_matches_sequential_oracle():
    hexagon = Hexagon((0.0, 0.0), 1.0)
    # Unit segment leaving through the upper-right edge at a known angle.
    seg = ((0.2, 0.3), (0.2 + math.cos(0.7), 0.3 + math.sin(0.7)))
    ours = _clip_length(seg, hexagon)
    assert ours == pytest.approx(clip_length_sequential(seg, hexagon), abs=1e-12)
    assert 0.0 < ours < 1.0


def test_clip_random_segments_match_oracle_and_never_exceed_length():
    rng = np.random.default_rng(3)
    hexagon = Hexagon((0.5, -0.25), 0.8)
    for _ in range(200):
        p0 = tuple(rng.uniform(-2.0, 2.0, 2))
        p1 = tuple(rng.uniform(-2.0, 2.0, 2))
        ours = _clip_length((p0, p1), hexagon)
        assert ours == pytest.approx(clip_length_sequential((p0, p1), hexagon), abs=1e-12)
        assert ours <= math.hypot(p1[0] - p0[0], p1[1] - p0[1]) + 1e-12


# ---------------------------------------------------------------------------
# Coverage maps


def test_street_inside_single_cell_is_a_unit_row():
    street = segment_graph(((-0.4, 0.0), (0.4, 0.0)))
    cov = build_coverage(street, PAIR)
    assert np.allclose(cov.C[0], [1.0, 0.0])


def test_street_split_evenly_on_shared_edge():
    # Vertical neighbours share the horizontal edge y = sqrt(3)/2; a street
    # crossing it symmetrically is covered half and half.
    street = segment_graph(((0.0, SQ3 / 2 - 0.3), (0.0, SQ3 / 2 + 0.3)))
    cov = build_coverage(street, PAIR)
    assert np.allclose(cov.C[0], [0.5, 0.5])


def test_no_stations_gives_zero_map():
    street = segment_graph(((0.0, 0.0), (1.0, 0.0)))
    cov = build_coverage(street, _stations([]))
    assert cov.C.shape == (1, 0)
    assert cov.lengths.toarray().sum() == 0.0


def test_dense_view_lives_in_its_own_mapping():
    # Off the heap, so that dropping the view returns its pages.
    street = segment_graph(((0.0, SQ3 / 2 - 0.3), (0.0, SQ3 / 2 + 0.3)))
    cov = build_coverage(street, PAIR)
    C = cov.C
    assert np.array_equal(C, cov.fractions.toarray())
    assert C.flags.c_contiguous and C.flags.writeable
    owner = C.base
    while isinstance(owner, np.ndarray):
        owner = owner.base
    # numpy 2 exports the buffer through a memoryview, numpy 1 directly.
    assert isinstance(getattr(owner, "obj", owner), mmap.mmap)


def test_overlapping_cells_raise():
    stations = _stations([(0.0, 0.0), (0.05, 0.0)])
    street = segment_graph(((-0.4, 0.0), (0.4, 0.0)))
    with pytest.raises(OverlapError):
        build_coverage(street, stations)


def test_cells_overlapping_along_a_vertex_direction_raise():
    # Radius-1 cells 1.9 apart along a vertex direction share interior
    # points such as (0.95, 0), though their centres are more than two
    # apothems (sqrt(3)) apart.
    street = segment_graph(((-0.4, 0.0), (0.4, 0.0)))
    with pytest.raises(
        OverlapError, match=r"^cells of stations 0 and 1 have overlapping interiors$"
    ):
        build_coverage(street, _stations([(0.0, 0.0), (1.9, 0.0)]))
    # 2.0 apart they touch at a vertex, and tiling neighbours share an edge.
    for other in ((2.0, 0.0), (1.5, SQ3 / 2.0), (0.0, SQ3)):
        build_coverage(street, _stations([(0.0, 0.0), other]))


@pytest.mark.parametrize("side", (4.0, 9.0, 30.0))
def test_tilings_pass_the_overlap_check(side):
    street = segment_graph(((0.1, 0.1), (0.9, 0.1)))
    for radius in (0.3, 0.5, 0.6, 0.9, 1.0, 1.0 / SQ3, 2.0 / SQ3, 1.3):
        build_coverage(street, _stations(hex_tiling(((0.0, 0.0), (side, side)), radius), radius))


@pytest.mark.parametrize("lengths", (np.array(1.0), 1.0, np.ones(2)))
def test_coverage_from_lengths_needs_a_matrix(lengths):
    # A 0-d input used to reach scipy, which raised a TypeError.
    street = segment_graph(((0.0, 0.0), (1.0, 0.0)))
    shape = np.shape(lengths)
    with pytest.raises(
        ValueError, match=rf"^covered-length matrix has shape {re.escape(str(shape))}, "
                          r"expected \(1, stations\)$"
    ):
        coverage_from_lengths(street, lengths)


def test_partition_of_streets_inside_tiling(grid3_scenario):
    cov = grid3_scenario.coverage
    lengths = grid3_scenario.network.graph.length
    assert np.allclose(cov.lengths.toarray().sum(axis=1), lengths, rtol=1e-6)
    assert np.all(cov.C.sum(axis=1) <= 1.0 + 1e-9)


def test_directed_pair_shares_geometry_coverage(grid3_scenario):
    lengths = grid3_scenario.coverage.lengths.toarray()
    for e in range(grid3_scenario.network.n // 2):
        assert np.array_equal(lengths[2 * e], lengths[2 * e + 1])


def test_coverage_from_lengths_validates_totals():
    street = segment_graph(((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(OverlapError):
        coverage_from_lengths(street, np.array([[0.8, 0.8]]))
    cov = coverage_from_lengths(street, np.array([[0.25, 0.5]]))
    assert np.allclose(cov.C[0], [0.25, 0.5])


def _outcome(build):
    try:
        return build()
    except (ValueError, OverlapError) as err:
        return type(err), str(err)


def test_coverage_from_lengths_dense_and_coo_agree(grid3_scenario):
    graph = grid3_scenario.network.graph
    dense = grid3_scenario.coverage.lengths.toarray()
    n, B = dense.shape
    i, b = np.nonzero(dense)
    coo = scipy.sparse.coo_array((dense[i, b], (i, b)), shape=(n, B))
    for left, right in ((dense, coo), (dense, grid3_scenario.coverage.lengths)):
        a, c = coverage_from_lengths(graph, left), coverage_from_lengths(graph, right)
        assert csr_equal(a.lengths, c.lengths) and csr_equal(a.fractions, c.fractions)
        assert csr_equal(a.lengths, grid3_scenario.coverage.lengths)
        assert csr_equal(a.fractions, grid3_scenario.coverage.fractions)
    # A sparse input's duplicate entries are summed and explicit zeros dropped.
    split = scipy.sparse.coo_array(
        (np.concatenate([dense[i, b] / 2, dense[i, b] / 2, [0.0]]),
         (np.concatenate([i, i, [0]]), np.concatenate([b, b, [B - 1]]))),
        shape=(n, B),
    )
    summed = coverage_from_lengths(graph, split)
    assert np.array_equal(summed.lengths.toarray(), dense)
    assert np.all(summed.lengths.data > 0.0)

    street = segment_graph(((0.0, 0.0), (1.0, 0.0)))
    for bad in (
        np.array([[0.8, 0.8]]),             # more than the street's length
        np.array([[0.5, -0.25]]),           # negative length
        np.array([[0.1, 0.2], [0.3, 0.4]]),  # one row too many
    ):
        rows, cols = np.nonzero(bad)
        as_coo = scipy.sparse.coo_array((bad[rows, cols], (rows, cols)), shape=bad.shape)
        expected = _outcome(lambda: coverage_from_lengths(street, bad))
        assert isinstance(expected, tuple)
        assert _outcome(lambda: coverage_from_lengths(street, as_coo)) == expected


def test_coverage_from_lengths_rejects_non_finite_lengths():
    street = segment_graph(((0.0, 0.0), (1.0, 0.0)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            coverage_from_lengths(street, [[bad, 0.5]])


def _assert_matches_loop_oracle(graph, stations) -> CoverageMap:
    ours = build_coverage(graph, stations)
    oracle = loop_coverage(graph, stations)
    assert csr_equal(ours.lengths, oracle.lengths)
    assert csr_equal(ours.fractions, oracle.fractions)
    return ours


def test_batched_coverage_matches_loop_oracle_on_generated_grids():
    # At radius 0.3 up to five cells share one street, at the other radii at most three.
    for grid_n in range(2, 13):
        graph = _grid_topology(ScenarioConfig(grid_n=grid_n))
        side = grid_n - 1.0
        for radius in (0.3, 0.5, 0.9, 1.0, 1.3, 2.0):
            centers = hex_tiling(((0.0, 0.0), (side, side)), radius)
            _assert_matches_loop_oracle(graph, _stations(centers, radius))


def test_batched_coverage_matches_loop_oracle_on_the_benchmark_grid():
    config = ScenarioConfig(grid_n=30, cell_radius=0.9)
    graph = _grid_topology(config)
    side = config.extent
    centers = hex_tiling(((0.0, 0.0), (side, side)), config.cell_radius)
    cov = _assert_matches_loop_oracle(graph, _stations(centers, config.cell_radius))
    assert cov.lengths.shape == (3480, 449)


def test_batched_coverage_matches_loop_oracle_on_edges_and_vertices():
    # Streets along the hexagons' own edges and diagonals run exactly on
    # shared edges and through the points where three cells meet.
    centers = hex_tiling(((0.0, 0.0), (5.0, 5.0)), 1.0)
    stations = _stations(centers)
    inside = [c for c in centers if 1.0 <= c[0] <= 4.0 and 1.0 <= c[1] <= 4.0]
    assert len(inside) >= 3
    segments = []
    for center in inside:
        corners = Hexagon(center, 1.0).vertices()
        segments += [(p, q) for i, p in enumerate(corners) for q in corners[i + 1:]]
    cov = _assert_matches_loop_oracle(segment_graph(*segments), stations)
    assert np.all(np.diff(cov.lengths.indptr) >= 1)
    # A street lying on the edge shared by stations 0 and 1 goes to station 0.
    on_edge = segment_graph(((-0.4, SQ3 / 2), (0.4, SQ3 / 2)))
    assert np.array_equal(_assert_matches_loop_oracle(on_edge, PAIR).C, [[1.0, 0.0]])
    swapped = _stations([(0.0, SQ3), (0.0, 0.0)])
    assert np.array_equal(_assert_matches_loop_oracle(on_edge, swapped).C, [[1.0, 0.0]])


def test_batched_coverage_matches_loop_oracle_outside_the_tiling():
    stations = _stations(hex_tiling(((0.0, 0.0), (2.0, 2.0)), 1.0))
    far_and_leaving = segment_graph(((40.0, 40.0), (41.0, 40.0)), ((1.0, 1.0), (9.0, 1.0)))
    cov = _assert_matches_loop_oracle(far_and_leaving, stations)
    assert cov.lengths.indptr[1] == 0
    assert 0.0 < cov.C[1].sum() < 1.0


def test_batched_coverage_matches_loop_oracle_on_scattered_mixed_cells():
    # Disjoint cells of mixed radii placed at random (no lattice), and
    # random streets, some in both directions, some partly outside.
    rng = np.random.default_rng(8)
    for _ in range(20):
        centers: list[tuple[float, float]] = []
        radii: list[float] = []
        while len(centers) < 25:
            c, r = rng.uniform(-6.0, 6.0, 2), float(rng.choice([0.3, 0.7, 1.2, 2.0]))
            if all(math.dist(c, o) >= r + q for o, q in zip(centers, radii)):
                centers.append((float(c[0]), float(c[1])))
                radii.append(r)
        stations = _stations(centers, radii)
        segments = []
        for _ in range(0, 60, 2):
            p, q = (tuple(rng.uniform(-7.0, 7.0, 2)) for _ in range(2))
            segments += [(p, q), (q, p)]
        _assert_matches_loop_oracle(segment_graph(*segments), stations)


def test_coverage_stays_sparse_in_memory():
    # Dense lengths and fractions of a grid-40 scenario (6,240 streets, 635
    # stations) take 63 MB, and a station-by-station overlap check 13 MB.
    config = ScenarioConfig(grid_n=40)
    graph = _grid_topology(config)
    side = config.extent
    stations = _stations(hex_tiling(((0.0, 0.0), (side, side)), 1.0))
    tracemalloc.start()
    try:
        cov = build_coverage(graph, stations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cov.lengths.shape == (6240, len(stations))
    assert peak < 10 * 2**20


def _overlap_outcome(stations):
    try:
        build_coverage(segment_graph(((0.0, 0.0), (1.0, 0.0))), stations)
    except OverlapError as err:
        return str(err)
    return None


def test_overlap_check_matches_dense_oracle():
    rng = np.random.default_rng(20261018)
    outcomes = []
    for trial in range(300):
        radius = rng.uniform(0.3, 2.0)
        if trial % 3:
            # A tiling (neighbours share edges exactly), shrunk cells mixed
            # in, a few stations moved, and the ids shuffled.
            centers = np.array(hex_tiling(((0.0, 0.0), tuple(rng.uniform(0.0, 8.0, 2))), radius))
            moved = rng.choice(len(centers), size=rng.integers(0, 3), replace=False)
            centers[moved] += rng.uniform(-radius, radius, (moved.size, 2))
            radii = radius * rng.choice([1.0, 1.0, 0.6, 0.3], size=len(centers))
            order = rng.permutation(len(centers))
            centers, radii = centers[order], radii[order]
        else:
            count = int(rng.integers(2, 40))
            centers = rng.uniform(-10.0, 10.0, (count, 2))
            radii = rng.uniform(0.05, 1.5, count)
        stations = _stations(centers, radii)
        pair = dense_overlap_pair(stations)
        expected = (
            None if pair is None
            else f"cells of stations {pair[0]} and {pair[1]} have overlapping interiors"
        )
        assert _overlap_outcome(stations) == expected, trial
        outcomes.append(pair is None)
    # Both outcomes are exercised often.
    assert 50 <= sum(outcomes) <= 250


# ---------------------------------------------------------------------------
# Power response: its_deviations clamps each shortfall at the headroom, the
# shortfall at which the station's service fraction reaches 0.


def _unit_impact(stations: Stations) -> ImpactModel:
    """Impact model in which every station's shortfall costs 1 per watt."""
    return ImpactModel(np.ones(1), np.ones(len(stations)), stations.headroom, 1.0)


def _lost_watts(stations: Stations, shortfall) -> np.ndarray:
    """Service fraction lost at ``p_full - shortfall`` watts, times the
    headroom, from the power-response oracle."""
    lost = 1.0 - coverage_fraction(stations, stations.p_full - shortfall)
    return lost * (stations.p_full - stations.p_activation)


def test_fraction_at_full_power():
    assert its_deviations(_unit_impact(ONE), [0.0]) == _lost_watts(ONE, 0.0)[0] == 0.0


def test_fraction_at_activation_threshold():
    # At the threshold the station is dark; a larger shortfall adds nothing.
    for shortfall in (100.0, 150.0):
        lost = its_deviations(_unit_impact(ONE), [shortfall])
        assert lost == _lost_watts(ONE, shortfall)[0] == 100.0


def test_fraction_linear_midpoint():
    assert its_deviations(_unit_impact(ONE), [50.0]) == _lost_watts(ONE, 50.0)[0] == 50.0


def test_fraction_is_clamped_monotone_piecewise():
    powers = np.linspace(0.0, 300.0, 61)
    shortfalls = 200.0 - powers
    values = [its_deviations(_unit_impact(ONE), [s]) for s in shortfalls]
    expected = [float(_lost_watts(ONE, s)[0]) for s in shortfalls]
    assert np.allclose(values, expected, rtol=1e-12, atol=1e-12)
    # One shortfall per station sums each station's own lost watts.
    many = _stations(np.zeros((61, 2)))
    assert its_deviations(_unit_impact(many), shortfalls) == pytest.approx(
        sum(values), rel=1e-12
    )
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(v == 100.0 for p, v in zip(powers, values) if p <= 100.0)
    assert all(v == 0.0 for p, v in zip(powers, values) if p >= 200.0)
    mid = (powers >= 100.0) & (powers <= 200.0)
    assert np.allclose(np.array(values)[mid], shortfalls[mid])


def test_station_parameter_validation():
    three = [(0.0, 0.0), (3.0, 0.0), (6.0, 0.0)]
    # Each check names the lowest offending station id.
    with pytest.raises(ValueError, match="^station 1: cell radius must be positive$"):
        Stations(three, [1.0, -1.0, 0.0], 100.0, 200.0)
    with pytest.raises(ValueError, match="^station 0: cell radius must be positive$"):
        Stations(three, [math.nan, 1.0, 1.0], 100.0, 200.0)
    with pytest.raises(ValueError, match="^station 1: need 0 < activation power < full"):
        Stations(three, 1.0, [100.0, 200.0, 0.0], 200.0)
    # A NaN centre used to make a cell that covers nothing, and an infinite
    # full-coverage power an infinite headroom.
    with pytest.raises(ValueError, match="^station 2: centre must be finite$"):
        Stations([(0.0, 0.0), (3.0, 0.0), (math.nan, 0.0)], 1.0, 100.0, 200.0)
    with pytest.raises(ValueError, match="^station 1: cell radius must be finite$"):
        Stations(three, [1.0, math.inf, math.inf], 100.0, 200.0)
    with pytest.raises(ValueError, match="^station 0: full-coverage power must be finite$"):
        Stations(three, 1.0, 100.0, [math.inf, 200.0, 200.0])
    with pytest.raises(ValueError):
        Stations(three, [1.0, 1.0], 100.0, 200.0)


def test_station_table_is_read_only_rows():
    centers = [[0.0, 0.0], [3.0, 0.0]]
    stations = Stations(centers, 1.0, [100.0, 80.0], [200.0, 250.0])
    centers[0][0] = 9.0
    assert len(stations) == 2
    assert np.array_equal(stations.center, [[0.0, 0.0], [3.0, 0.0]])
    assert np.array_equal(stations.cell_radius, [1.0, 1.0])
    assert np.array_equal(stations.headroom, [100.0, 170.0])
    for name in ("center", "cell_radius", "p_activation", "p_full"):
        with pytest.raises(ValueError):
            getattr(stations, name)[0] = 1.0
