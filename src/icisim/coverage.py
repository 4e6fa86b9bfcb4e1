"""Cellular coverage model on a hexagonal cell grid.

Base stations sit at the centers of flat-top hexagons that tile the plane,
so each one serves a disjoint cell.  They are held as one :class:`Stations`
table of arrays, station ``b`` on row ``b``, as streets are rows of a
:class:`~icisim.traffic.StreetGraph`.  The model needs two things from the
geometry: how much of each street segment falls inside each cell, and the
power band over which a station's service degrades.

A street crosses only one or two cells, so coverage is stored sparse: one
(street, station, km) entry per covered stretch, held as a CSR array with
a street per row.  The dense street-by-station fraction matrix
``CoverageMap.C`` is a view built on access; the library never reads it.

The map is built array-at-a-time.  Each street is clipped only against the
cells whose centre lies within reach of it, found by bucketing the centres
on a square grid as wide as the largest reach, so the search is linear in
the street count and fits any station set, lattice or not.  The check that
no two cells overlap runs the same bucket search, from each station's
centre out to the sum of two circumradii, so on a tiling it is linear in
the station count; :func:`~icisim.scenario.loads` runs it too.  All candidate
(street, cell) pairs are then clipped at once by one six-half-plane
kernel, :func:`_clip_intervals`.  It projects on the edge normals
elementwise (``a0*x + a1*y``), never through a BLAS mat-vec, whose fused
multiply-adds would make the covered lengths depend on the BLAS build.
Where two or more cells reach a street, each stretch between their clip
points goes to the lowest station id, in one more pass over all pairs, so
no step loops over streets or pairs.

The power response is piecewise linear: nothing below the activation power
``p_activation``, full service at ``p_full``, and the straight line
``(p - p_activation) / (p_full - p_activation)`` in between.  So a
shortfall of ``s`` watts from full power loses the service fraction
``min(s, headroom) / headroom``, with ``headroom = p_full - p_activation``;
:func:`~icisim.impact.its_deviation` applies that clamp.
"""
from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import OverlapError
from .traffic import StreetGraph, csr_entries
# After .traffic, which loads scipy.sparse through splu: importing
# scipy.sparse first costs about 2,000 more page faults and 60-100 ms
# at package import on a 2-vCPU VM (see traffic.py).
import scipy.sparse

Point = tuple[float, float]

# Edge normals of a flat-top hexagon (angles 30, 90, 150 degrees); the cell
# is the set of points whose projection on each axis is within the apothem.
_HEX_AXES = np.array(
    [
        [math.cos(math.pi / 6), math.sin(math.pi / 6)],
        [0.0, 1.0],
        [-math.cos(math.pi / 6), math.sin(math.pi / 6)],
    ]
)


@dataclass(frozen=True, eq=False)
class Stations:
    """Base stations held as arrays; station ``b`` is row ``b``.

    Station ``b`` at ``center[b]`` serves the flat-top hexagon of
    circumradius ``cell_radius[b]`` and has the activation and full-coverage
    powers ``p_activation[b] < p_full[b]`` (W); a scalar radius or power
    applies to every station.  Every array is a read-only copy.  A centre,
    radius or power that is not finite, a radius that is not positive or
    powers out of order raise ValueError naming the first station at fault.
    """

    center: np.ndarray
    cell_radius: np.ndarray
    p_activation: np.ndarray
    p_full: np.ndarray

    def __post_init__(self) -> None:
        center = np.array(self.center, dtype=float).reshape(-1, 2)
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        for name in ("cell_radius", "p_activation", "p_full"):
            value = np.array(np.broadcast_to(getattr(self, name), len(center)), dtype=float)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        for ok, need in (
            (np.isfinite(center).all(axis=1), "centre must be finite"),
            (self.cell_radius > 0.0, "cell radius must be positive"),
            (self.cell_radius < np.inf, "cell radius must be finite"),
            ((0.0 < self.p_activation) & (self.p_activation < self.p_full),
             "need 0 < activation power < full-coverage power"),
            (self.p_full < np.inf, "full-coverage power must be finite"),
        ):
            if not ok.all():
                raise ValueError(f"station {np.argmin(ok)}: {need}")

    def __len__(self) -> int:
        return len(self.center)

    @property
    def headroom(self) -> np.ndarray:
        """Power band over which coverage degrades, ``p_full - p_activation``."""
        return self.p_full - self.p_activation


def _clip_intervals(x0, y0, dx, dy, apothem):
    """Parameter intervals of segments inside hexagons, one pair per entry.

    Each entry is the segment p0 + t*d, t in [0, 1], given by p0 relative to
    its hexagon's centre (``x0``, ``y0``) and its direction d (``dx``,
    ``dy``), against a hexagon of the given apothem; arguments are arrays or
    scalars that broadcast together.  Each of the six half-planes
    off + t*slope <= apothem shrinks the admissible interval.  The
    projections are computed elementwise as ``a0*x + a1*y``, so one pair and
    a batch of pairs give the same bits (a BLAS mat-vec may fuse the
    multiply-add).  Returns ``(t_lo, t_hi, live)``, where ``live`` marks the
    pairs whose interval is nonempty.
    """
    t_lo = np.zeros(np.broadcast(x0, y0, dx, dy, apothem).shape)
    t_hi = np.ones_like(t_lo)
    live = np.ones(t_lo.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a0, a1 in _HEX_AXES:
            base = a0 * x0 + a1 * y0
            step = a0 * dx + a1 * dy
            for off, slope in ((base, step), (-base, -step)):
                # A cut with slope 0 is inf or nan; np.where discards it.
                t_cut = (apothem - off) / slope
                t_hi = np.where(slope > 0.0, np.minimum(t_hi, t_cut), t_hi)
                t_lo = np.where(slope < 0.0, np.maximum(t_lo, t_cut), t_lo)
                live &= ~((slope == 0.0) & (off > apothem))
    return t_lo, t_hi, live & (t_lo < t_hi)


def hex_tiling(area_bounds: tuple[Point, Point], cell_radius: float) -> list[Point]:
    """Flat-top hexagon centers covering ``area_bounds`` with margin.

    ``area_bounds`` is ((xmin, ymin), (xmax, ymax)).  The lattice is centered
    on the area center and extended one circumradius beyond every side, which
    guarantees that each point of the area lies in a returned cell (the
    nearest center of the infinite lattice is never farther than one radius).
    """
    (xmin, ymin), (xmax, ymax) = area_bounds
    if cell_radius <= 0.0:
        raise ValueError("cell radius must be positive")
    if xmax < xmin or ymax < ymin:
        raise ValueError("empty area bounds")

    r = cell_radius
    dx = 1.5 * r                # column pitch
    dy = math.sqrt(3.0) * r    # row pitch; odd columns offset by dy/2
    cx0 = (xmin + xmax) / 2.0
    cy0 = (ymin + ymax) / 2.0
    margin = r

    centers: list[Point] = []
    col_lo = math.floor((xmin - margin - cx0) / dx)
    col_hi = math.ceil((xmax + margin - cx0) / dx)
    for col in range(col_lo, col_hi + 1):
        x = cx0 + col * dx
        if not (xmin - margin <= x <= xmax + margin):
            continue
        offset = dy / 2.0 if col % 2 else 0.0
        row_lo = math.floor((ymin - margin - cy0 - offset) / dy)
        row_hi = math.ceil((ymax + margin - cy0 - offset) / dy)
        for row in range(row_lo, row_hi + 1):
            y = cy0 + offset + row * dy
            if ymin - margin <= y <= ymax + margin:
                centers.append((x, y))
    centers.sort()
    return centers


@dataclass(frozen=True, eq=False)
class CoverageMap:
    """Covered length and fraction of every (street, station) pair.

    ``lengths[i, b]`` is the km of street ``i`` inside cell ``b`` and
    ``fractions[i, b]`` that km over the street's length.  Both are
    canonical CSR arrays with the same pattern (sorted indices, no stored
    zeros), so a street holds one entry per cell it crosses; build them
    with :func:`coverage_from_lengths`.  ``C`` is the dense fraction matrix,
    built on each access.
    """

    lengths: scipy.sparse.csr_array
    fractions: scipy.sparse.csr_array

    @property
    def num_stations(self) -> int:
        return self.lengths.shape[1]

    @property
    def C(self) -> np.ndarray:
        """Dense (streets, stations) fraction matrix, built on each access.

        The matrix gets its own anonymous memory map, whose pages go back
        to the system when the last reference drops.  Taken from the heap
        instead, a dense copy this size (12.5 MB at grid 30) stays resident
        once freed, and a small allocation that lands in its hole makes the
        next copy extend the heap: peak memory then depends on allocation
        order, up to 9 MB apart between otherwise equal runs.
        """
        rows, cols = self.fractions.shape
        pages = mmap.mmap(-1, max(rows * cols, 1) * 8)
        dense = np.frombuffer(pages, dtype=float, count=rows * cols).reshape(rows, cols)
        return self.fractions.toarray(out=dense)

    @property
    def covered_street_counts(self) -> np.ndarray:
        """Number of streets each station covers, by station id."""
        return np.bincount(self.lengths.indices, minlength=self.num_stations)


def coverage_from_lengths(graph: StreetGraph, lengths) -> CoverageMap:
    """Build a coverage map from covered lengths, one row per street.

    ``lengths`` may be dense or any ``scipy.sparse`` matrix; duplicate
    entries of a sparse input are summed and zeros dropped.  Row i belongs
    to street i of ``graph``.  Raises ValueError for a negative or
    non-finite length, and OverlapError when the cells claim more of a
    street than its length.
    """
    shape = np.shape(lengths)
    if len(shape) != 2 or shape[0] != graph.n:
        raise ValueError(f"covered-length matrix has shape {shape}, expected ({graph.n}, stations)")
    lengths = scipy.sparse.csr_array(lengths, dtype=float, copy=True)
    lengths.sum_duplicates()
    lengths.eliminate_zeros()
    rows, _, km = csr_entries(lengths)
    if not np.all(np.isfinite(km)):
        raise ValueError("covered lengths must be finite")
    if np.any(km < 0.0):
        raise ValueError("covered lengths must be nonnegative")
    street_len = graph.length
    totals = np.bincount(rows, km, minlength=graph.n)
    if np.any(totals > street_len * (1.0 + 1e-6)):
        worst = int(np.argmax(totals - street_len))
        raise OverlapError(
            f"cells claim {totals[worst]:.9f} km of street {worst}, "
            f"which is only {street_len[worst]:.9f} km long"
        )
    fractions = scipy.sparse.csr_array(
        (km / street_len[rows], lengths.indices, lengths.indptr), shape=lengths.shape
    )
    return CoverageMap(lengths, fractions)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``range(starts[k], starts[k] + counts[k])`` over k."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _grid_rank(values: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each query in the sorted unique ``values``, and whether it is there."""
    at = np.minimum(np.searchsorted(values, queries), len(values) - 1)
    return at, values[at] == queries


def _near_pairs(
    points: np.ndarray, reach: np.ndarray, centers: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(point, station) pairs whose station centre lies within reach of the
    point, ordered by point and then station id.

    Point ``p`` reaches station ``s`` when their distance is at most
    ``reach[p] + radii[s] + 1e-9``.  Centres are bucketed on a square grid
    whose side is the largest such sum, so each point measures only the
    stations of the 3x3 buckets around it and the search is linear in the
    number of points.  The buckets are keyed by the rank of their occupied
    columns and rows and sorted column by column, so the three buckets of
    one column are one run of the sorted keys, and any station set works,
    lattice or not.
    """
    if not len(points) or not len(centers):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    origin = centers.min(axis=0)
    widest = reach.max() + radii.max() + 1e-9
    # A few ulps of padding so that rounding in the bucket index never puts
    # a pair at exactly the reach two buckets apart.
    extent = max(np.abs(centers - origin).max(), np.abs(points - origin).max())
    side = widest * (1.0 + 1e-12) + 16.0 * np.spacing(extent)
    cell = np.floor((centers - origin) / side)
    cols, col_of = np.unique(cell[:, 0], return_inverse=True)
    rows, row_of = np.unique(cell[:, 1], return_inverse=True)
    bucket = col_of * len(rows) + row_of
    order = np.argsort(bucket, kind="stable")
    bucket = bucket[order]
    home = np.floor((points - origin) / side)
    # Ranks of the occupied rows from one below to one above each point.
    row_lo = np.searchsorted(rows, home[:, 1] - 1.0, side="left")
    row_hi = np.searchsorted(rows, home[:, 1] + 1.0, side="right")
    starts, counts = [], []
    for dx in (-1.0, 0.0, 1.0):
        col, col_ok = _grid_rank(cols, home[:, 0] + dx)
        lo = np.searchsorted(bucket, col * len(rows) + row_lo)
        hi = np.searchsorted(bucket, col * len(rows) + row_hi)
        starts.append(lo)
        counts.append(np.where(col_ok, hi - lo, 0))
    counts_2d = np.stack(counts, axis=1)
    point = np.repeat(np.arange(len(points)), counts_2d.sum(axis=1))
    station = order[_ranges(np.stack(starts, axis=1).ravel(), counts_2d.ravel())]
    dist = np.hypot(centers[station, 0] - points[point, 0], centers[station, 1] - points[point, 1])
    near = dist <= reach[point] + radii[station] + 1e-9
    point, station = point[near], station[near]
    by_id = np.lexsort((station, point))
    return point[by_id], station[by_id]


def _check_disjoint_cells(stations: Stations) -> None:
    """Cells may share edges and vertices but not interiors.

    Two flat-top hexagons are disjoint exactly when one of the edge normals
    in ``_HEX_AXES`` separates them: the offset of their centres, projected
    on it, is at least the sum of the apothems.  So two interiors overlap
    when on every axis it is below that sum, scaled by ``1 - 1e-9``.  They
    can overlap only when the centres are closer than the sum of the
    circumradii, so each station is measured only against those that
    :func:`_near_pairs` finds within that sum of it.  The projections are
    elementwise, as in :func:`_clip_intervals`.  The first overlapping pair
    is the one with the lowest (lower id, higher id).
    """
    centers, radii = stations.center, stations.cell_radius
    apothems = radii * math.sqrt(3.0) / 2.0
    lo, hi = _near_pairs(centers, radii, centers, radii)
    lo, hi = lo[lo < hi], hi[lo < hi]
    dx = centers[lo, 0] - centers[hi, 0]
    dy = centers[lo, 1] - centers[hi, 1]
    reach = (apothems[lo] + apothems[hi]) * (1.0 - 1e-9)
    overlap = np.ones(lo.shape, dtype=bool)
    for a0, a1 in _HEX_AXES:
        overlap &= np.abs(a0 * dx + a1 * dy) < reach
    bad = np.flatnonzero(overlap)
    if bad.size:
        k = bad[0]
        raise OverlapError(f"cells of stations {lo[k]} and {hi[k]} have overlapping interiors")


def _claimed_spans(
    seg: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray, seg_start: np.ndarray,
    cells_per_seg: np.ndarray,
) -> np.ndarray:
    """Parameter length each (segment, cell) pair keeps of its interval.

    ``seg``, ``t_lo`` and ``t_hi`` give each pair's segment and nonempty
    interval, ordered by segment and then station id; a segment's pairs
    start at ``seg_start``.  Each segment's distinct interval endpoints cut
    it into elementary stretches, and a stretch goes to the lowest-id cell
    whose closed interval contains it.  A pair's runs of touching owned
    stretches are exactly the pieces of its interval that no lower id
    claimed, and summing them from 0 in position order repeats the float
    operations of taking the claims away one pair at a time, so every
    length keeps its bits.
    """
    ends_seg = np.concatenate((seg, seg))
    ends_t = np.concatenate((t_lo, t_hi))
    by_pos = np.lexsort((ends_t, ends_seg))
    ends_seg, ends_t = ends_seg[by_pos], ends_t[by_pos]
    cut = np.flatnonzero((ends_seg[1:] == ends_seg[:-1]) & (ends_t[1:] > ends_t[:-1]))
    lo, hi, of = ends_t[cut], ends_t[cut + 1], ends_seg[cut]
    # Each stretch against every pair of its segment, in station order.
    tries = cells_per_seg[of]
    stretch = np.repeat(np.arange(len(cut)), tries)
    pair = _ranges(seg_start[of], tries)
    hit = np.flatnonzero((t_lo[pair] <= lo[stretch]) & (hi[stretch] <= t_hi[pair]))
    first = hit[np.flatnonzero(np.diff(stretch[hit], prepend=-1))]
    owner, owned = pair[first], stretch[first]
    # A cell's interval is contiguous, so every stretch between two that it
    # owns has an owner too, and a change of owner ends each run.
    run = np.flatnonzero(np.diff(owner, prepend=-1))
    last = np.flatnonzero(np.diff(owner, append=-1))
    spans = hi[owned[last]] - lo[owned[run]]
    return np.bincount(owner[run], spans, minlength=len(seg))


def build_coverage(graph: StreetGraph, stations: Stations) -> CoverageMap:
    """Clip every street of ``graph`` against the cell hexagons near it.

    The build works on whole arrays, with no loop over streets or pairs.
    One stable ``np.lexsort`` of the endpoints, each street's ordered
    lowest first, finds the distinct geometries, so directed streets
    sharing one are clipped once, in the direction of the first of them; a
    bucket search (:func:`_near_pairs`) finds each geometry's candidate
    stations; and one six-half-plane kernel clips every candidate pair at
    once.  A stretch reached by two or more cells, such as one lying
    exactly on a shared cell edge, is assigned to the lowest station id,
    so no stretch is counted twice (:func:`_claimed_spans`).  The cells
    partition each street inside the tiling except in one case: a street
    lying along a shared edge whose endpoints round off it can fall outside
    both half-planes and be left partly uncovered (there is no clip
    tolerance, which would move covered lengths by ulps).  A street lying
    outside the tiling keeps a row summing to less than one; stations whose
    cell interiors overlap raise OverlapError.  Each covered stretch becomes
    one (street, station, km) entry of the map.
    """
    n, ends = graph.n, graph.geometry
    centers, radii = stations.center, stations.cell_radius
    if n:
        _check_disjoint_cells(stations)
    backward = (ends[:, 2] < ends[:, 0]) | ((ends[:, 2] == ends[:, 0]) & (ends[:, 3] < ends[:, 1]))
    keys = np.where(backward[:, None], ends[:, [2, 3, 0, 1]], ends)
    by_key = np.lexsort(keys.T[::-1])
    keys = keys[by_key]
    new = np.ones(n, dtype=bool)
    new[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    first = by_key[new]
    geometry_of = np.empty(n, dtype=np.int64)
    geometry_of[by_key] = np.cumsum(new) - 1
    p0, p1 = ends[first, :2], ends[first, 2:]
    d = p1 - p0
    seg_len = np.hypot(d[:, 0], d[:, 1])
    seg, station = _near_pairs((p0 + p1) / 2.0, seg_len / 2.0, centers, radii)
    t_lo, t_hi, live = _clip_intervals(
        p0[seg, 0] - centers[station, 0],
        p0[seg, 1] - centers[station, 1],
        d[seg, 0],
        d[seg, 1],
        radii[station] * math.sqrt(3.0) / 2.0,
    )
    seg, station, t_lo, t_hi = seg[live], station[live], t_lo[live], t_hi[live]
    cells_per_seg = np.bincount(seg, minlength=len(first))
    seg_start = np.cumsum(cells_per_seg) - cells_per_seg
    km = _claimed_spans(seg, t_lo, t_hi, seg_start, cells_per_seg) * seg_len[seg]
    # Entries left with 0 km are dropped by coverage_from_lengths.
    counts = cells_per_seg[geometry_of]
    entry = _ranges(seg_start[geometry_of], counts)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return coverage_from_lengths(
        graph, scipy.sparse.csr_array((km[entry], station[entry], indptr), shape=(n, len(radii)))
    )
