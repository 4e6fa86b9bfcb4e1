"""Cellular coverage model on a hexagonal cell grid.

Base stations sit at the centers of flat-top hexagons that tile the plane,
so each one serves a disjoint cell.  The model needs two things from the
geometry: how much of each street segment falls inside each cell, and the
fraction of vehicles a station can still serve at a given received power.

A street crosses only one or two cells, so coverage is stored sparse: one
(street, station, km) entry per covered stretch, held as a CSR array with
a street per row.  Each street is clipped only against the cells whose
centre lies within reach of it.  The dense street-by-station fraction
matrix ``CoverageMap.C`` is a view built on access; the library never reads
it.

The power response is piecewise linear: nothing below the activation power
``p_activation``, full service at ``p_full``, and the straight line
``(p - p_activation) / (p_full - p_activation)`` in between.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import OverlapError
from .traffic import Street, csr_entries
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


@dataclass(frozen=True)
class BaseStation:
    """Cell site with hexagon circumradius and its two power thresholds (W)."""

    id: int
    center: Point
    cell_radius: float
    p_activation: float
    p_full: float

    def __post_init__(self) -> None:
        if self.cell_radius <= 0.0:
            raise ValueError(f"station {self.id}: cell radius must be positive")
        if not 0.0 < self.p_activation < self.p_full:
            raise ValueError(
                f"station {self.id}: need 0 < activation power < full-coverage power"
            )

    @property
    def headroom(self) -> float:
        """Power band over which coverage degrades, ``p_full - p_activation``."""
        return self.p_full - self.p_activation

    @cached_property
    def hexagon(self) -> "Hexagon":
        return Hexagon(self.center, self.cell_radius)


@dataclass(frozen=True)
class Hexagon:
    """Flat-top regular hexagon given by center and circumradius."""

    center: Point
    radius: float

    @property
    def apothem(self) -> float:
        return self.radius * math.sqrt(3.0) / 2.0

    def vertices(self) -> list[Point]:
        cx, cy = self.center
        return [
            (cx + self.radius * math.cos(k * math.pi / 3.0),
             cy + self.radius * math.sin(k * math.pi / 3.0))
            for k in range(6)
        ]

    def contains(self, point: Point, tol: float = 1e-12) -> bool:
        d = np.asarray(point, dtype=float) - np.asarray(self.center)
        return bool(np.all(np.abs(_HEX_AXES @ d) <= self.apothem + tol))


def _clip_interval(segment: tuple[Point, Point], hexagon: Hexagon) -> tuple[float, float] | None:
    """Parameter interval of ``segment`` inside the closed hexagon, or None.

    The segment is p0 + t*(p1-p0) for t in [0, 1]; each of the six
    half-planes shrinks the admissible t-interval.
    """
    p0 = np.asarray(segment[0], dtype=float)
    p1 = np.asarray(segment[1], dtype=float)
    c = np.asarray(hexagon.center, dtype=float)
    apothem = hexagon.apothem

    base = _HEX_AXES @ (p0 - c)
    step = _HEX_AXES @ (p1 - p0)
    t_lo, t_hi = 0.0, 1.0
    for sign in (1.0, -1.0):
        for off, slope in zip(sign * base, sign * step):
            # Constraint off + t*slope <= apothem.
            if slope == 0.0:
                if off > apothem:
                    return None
                continue
            t_cut = (apothem - off) / slope
            if slope > 0.0:
                t_hi = min(t_hi, t_cut)
            else:
                t_lo = max(t_lo, t_cut)
            if t_lo >= t_hi:
                return None
    return t_lo, t_hi


def clip_segment_to_hex(segment: tuple[Point, Point], hexagon: Hexagon) -> float:
    """Length of the part of ``segment`` inside the closed hexagon."""
    p0 = np.asarray(segment[0], dtype=float)
    p1 = np.asarray(segment[1], dtype=float)
    interval = _clip_interval(segment, hexagon)
    if interval is None:
        return 0.0
    return float((interval[1] - interval[0]) * np.hypot(*(p1 - p0)))


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
    def num_streets(self) -> int:
        return self.lengths.shape[0]

    @property
    def num_stations(self) -> int:
        return self.lengths.shape[1]

    @property
    def C(self) -> np.ndarray:
        """Dense (streets, stations) fraction matrix, built on each access."""
        return self.fractions.toarray()

    @property
    def covered_street_counts(self) -> np.ndarray:
        """Number of streets each station covers, by station id."""
        return np.bincount(self.lengths.indices, minlength=self.num_stations)


def coverage_from_lengths(streets: Sequence[Street], lengths) -> CoverageMap:
    """Build a coverage map from covered lengths, one row per street.

    ``lengths`` may be dense or any ``scipy.sparse`` matrix; duplicate
    entries of a sparse input are summed and zeros dropped.  Raises
    ValueError for a negative length and OverlapError when the cells claim
    more of a street than its length.
    """
    if not scipy.sparse.issparse(lengths):
        lengths = np.asarray(lengths, dtype=float)
    if lengths.shape[0] != len(streets):
        raise ValueError("covered-length matrix does not match the street count")
    lengths = scipy.sparse.csr_array(lengths, dtype=float, copy=True)
    lengths.sum_duplicates()
    lengths.eliminate_zeros()
    rows, _, km = csr_entries(lengths)
    if np.any(km < 0.0):
        raise ValueError("covered lengths must be nonnegative")
    street_len = np.array([s.length for s in streets], dtype=float)
    totals = np.bincount(rows, km, minlength=len(streets))
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


def _subtract_claimed(
    interval: tuple[float, float], claimed: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Parts of ``interval`` not covered by the sorted disjoint ``claimed``."""
    t0, t1 = interval
    pieces: list[tuple[float, float]] = []
    cursor = t0
    for c0, c1 in claimed:
        if c1 <= cursor:
            continue
        if c0 >= t1:
            break
        if c0 > cursor:
            pieces.append((cursor, min(c0, t1)))
        cursor = max(cursor, c1)
        if cursor >= t1:
            break
    if cursor < t1:
        pieces.append((cursor, t1))
    return pieces


def _check_disjoint_cells(base_stations: Sequence[BaseStation]) -> None:
    """Cells may share edges but not interiors.

    Two interiors overlap when the centres are closer than the sum of the
    apothems, so a station is only compared with those whose centre lies
    within twice the largest apothem in x: sorted by x, each station meets
    the window of stations after it.  The first overlapping pair is the one
    with the lowest (lower index, higher index).
    """
    if len(base_stations) < 2:
        return
    centers = np.array([bs.center for bs in base_stations])
    apothems = np.array([bs.hexagon.apothem for bs in base_stations])
    order = np.argsort(centers[:, 0], kind="stable")
    xs = centers[order, 0]
    # A few ulps of padding so that rounding in ``xs + reach`` never
    # shrinks the window below an overlapping pair's x distance.
    reach = 2.0 * apothems.max() + 4.0 * np.spacing(np.abs(xs).max())
    counts = np.searchsorted(xs, xs + reach, side="right") - np.arange(1, len(xs) + 1)
    first = np.repeat(np.arange(len(xs)), counts)
    offset = np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts)
    a, b = order[first], order[first + 1 + offset]
    a, b = np.minimum(a, b), np.maximum(a, b)
    dist = np.hypot(centers[a, 0] - centers[b, 0], centers[a, 1] - centers[b, 1])
    bad = np.nonzero(dist < (apothems[a] + apothems[b]) * (1.0 - 1e-9))[0]
    if bad.size:
        k = bad[np.lexsort((b[bad], a[bad]))[0]]
        raise OverlapError(f"cells of stations {a[k]} and {b[k]} have overlapping interiors")


def build_coverage(streets: Sequence[Street], base_stations: Sequence[BaseStation]) -> CoverageMap:
    """Clip every street against the cell hexagons near it.

    Pairs of directed streets sharing the same geometry are clipped once.
    A stretch lying exactly on a shared cell edge is assigned to the lower
    station id, so the cells always partition each street.  A street lying
    outside the tiling keeps a row summing to less than one; stations whose
    cell interiors overlap raise OverlapError.  Each covered stretch becomes
    one (street, station, km) entry of the map.
    """
    n = len(streets)
    B = len(base_stations)
    if n:
        _check_disjoint_cells(base_stations)
    centers = np.array([bs.center for bs in base_stations], dtype=float).reshape(B, 2)
    radii = np.array([bs.cell_radius for bs in base_stations], dtype=float)
    cache: dict[tuple[Point, Point], list[tuple[int, float]]] = {}
    rows: list[int] = []
    cols: list[int] = []
    km: list[float] = []
    for s in streets:
        key = tuple(sorted(s.geometry))
        cells = cache.get(key)
        if cells is None:
            cells = cache[key] = []
            p0 = np.asarray(s.geometry[0])
            p1 = np.asarray(s.geometry[1])
            seg_len = float(np.hypot(*(p1 - p0)))
            mid = (p0 + p1) / 2.0
            reach = seg_len / 2.0 + radii + 1e-9
            near = np.nonzero(np.hypot(*(centers - mid).T) <= reach)[0]
            claimed: list[tuple[float, float]] = []
            for b in near.tolist():  # ascending id: ties on shared edges go low
                interval = _clip_interval(s.geometry, base_stations[b].hexagon)
                if interval is None:
                    continue
                pieces = _subtract_claimed(interval, claimed)
                covered = sum(t1 - t0 for t0, t1 in pieces) * seg_len
                if covered > 0.0:
                    cells.append((b, covered))
                claimed = sorted(claimed + pieces)
        for b, covered in cells:
            rows.append(s.id)
            cols.append(b)
            km.append(covered)
    triples = scipy.sparse.coo_array(
        (np.array(km, dtype=float),
         (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
        shape=(n, B),
    )
    return coverage_from_lengths(streets, triples)


def coverage_fraction(bs: BaseStation, received_power: float) -> float:
    """Fraction of vehicles served at ``received_power`` watts, in [0, 1]."""
    if received_power < 0.0:
        raise ValueError("received power must be nonnegative")
    x = (received_power - bs.p_activation) / bs.headroom
    return float(min(max(x, 0.0), 1.0))
