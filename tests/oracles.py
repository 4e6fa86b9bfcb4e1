"""Independent reference implementations used only to check the package.

Each oracle deliberately takes a different route from the production code:
the LP oracle is a tableau simplex instead of a greedy fill, the
station-residual oracle solves the station-level defender problem against
the closed-form reply as one HiGHS linear program instead of capping a
greedy fill at the reply to a full-headroom backup, the source-residual
oracle minimises the clamped residual against a reply that reads no
backup as one HiGHS mixed-integer program instead of a greedy fill in
score order, the clipping
oracle moves segment endpoints half-plane by half-plane instead of tracking
a parameter interval, the coverage oracle measures each street against
every station centre, clips one (street, station) pair at a time and
subtracts what lower ids claimed pair by pair, instead of bucketing
centres, clipping all pairs in one batch and handing each elementary
stretch to its lowest-id cell in one array pass, the
turning-ratio oracle calls ``dirichlet`` once per inflow instead of making
one exponential draw, the cell-overlap oracle compares every pair of
stations instead of bucketing centres, the rank oracle counts singular values and the flow
oracles solve the anchored cut system (least squares, or an explicit QR)
and the null-vector oracle factors the dense matrix with column-pivoted QR
instead of rescaling the deflated sparse-LU null vector, the impact oracle sums
dense per-street patterns station by station instead of scaling one shared
vector, the attack oracle scans payoff lattices instead of using closed
forms, the structure oracle checks streets one at a time with sets and
dicts instead of in whole-array passes, the file oracle reads every
numeric block one line and one token at a time with Python's ``int`` and
``float`` instead of one ``np.loadtxt`` pass per block, the wiring
oracle grows one set of station ids per generator instead of ranking all
(station, generator) distances in one pass, the fill oracle spends one
budget station by station instead of filling many budgets in one running
difference, the station-reply oracle answers one allocation with
share totals added generator by generator instead of an array sum,
the source-reply oracle spreads each attacked generator's drain over
its lines one generator at a time instead of in one array expression,
the detection oracle sums one unit's drain and capacity line by line
from ``T``, ``p_full`` and the headroom instead of reducing whole arrays,
the power-response oracle branches on the two thresholds instead of
clipping one ratio, and the stack oracle builds each replica's whole game
instance and copies them together instead of building the seeded layers
along the replica axis.  ``Hexagon`` and ``anchored_flows`` restate, from
their definitions, a cell and the flows fixed by one anchor street.

The object builders are the street network as the package once held it,
one frozen record per street and per intersection:

- ``object_topology`` builds the grid street by street with
  ``make_street`` and derives each intersection's inbound and outbound
  lists with ``intersections_from_streets``, instead of index arithmetic
  on whole arrays;
- ``dict_ratios`` walks those lists intersection by intersection into a
  ``{(inflow, outflow): share}`` dict from one exponential draw, instead
  of ordering the pairs by two stable argsorts;
- ``object_graph`` turns the records into the package's ``StreetGraph``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

from icisim.coverage import CoverageMap, _HEX_AXES, coverage_from_lengths
from icisim.errors import OverlapError, SingularError
from icisim.game import GameInstance, StealthLevel, attacker_payoff
from icisim.impact import ImpactModel
from icisim.power import PowerAssignment
from icisim.traffic import StreetGraph

Point = tuple[float, float]

# Singular values, and column-pivoted QR diagonal entries, at or below this
# fraction of the largest count as zero.
RANK_TOLERANCE = 1e-10


# ---------------------------------------------------------------------------
# Linear programming


def simplex_maximize(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Maximise c@x subject to A@x <= b, x >= 0 (b nonnegative).

    Dense tableau simplex with Bland's entering rule, good enough for the
    dozen-variable programs it is used on.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    assert np.all(b >= 0.0), "oracle expects a feasible origin"

    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, :n] = -c
    basis = list(range(n, n + m))

    for _ in range(10000):
        reduced = tableau[m, :-1]
        entering = -1
        for j in range(n + m):
            if reduced[j] < -1e-12:
                entering = j
                break
        if entering < 0:
            break
        col = tableau[:m, entering]
        best_row, best_ratio = -1, np.inf
        for i in range(m):
            if col[i] > 1e-12:
                ratio = tableau[i, -1] / col[i]
                if ratio < best_ratio - 1e-15 or (
                    abs(ratio - best_ratio) <= 1e-15
                    and (best_row < 0 or basis[i] < basis[best_row])
                ):
                    best_row, best_ratio = i, ratio
        if best_row < 0:
            raise ArithmeticError("unbounded program")
        pivot = tableau[best_row, entering]
        tableau[best_row] /= pivot
        for i in range(m + 1):
            if i != best_row and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[best_row]
        basis[best_row] = entering
    else:  # pragma: no cover - safeguard
        raise ArithmeticError("simplex did not terminate")

    x = np.zeros(n + m)
    for i, var in enumerate(basis):
        x[var] = tableau[i, -1]
    return x[:n], float(tableau[m, -1])


def budgeted_allocation_lp(values: np.ndarray, caps: np.ndarray, budget: float) -> float:
    """Optimal objective of max values@x, x <= caps, sum(x) <= budget, x >= 0."""
    B = len(values)
    A = np.vstack([np.eye(B), np.ones((1, B))])
    b = np.concatenate([caps, [budget]])
    _, objective = simplex_maximize(values, A, b)
    return objective


def station_residual_lp(instance: GameInstance, budget: float) -> float:
    """Least impact-weighted net shortfall the defender can leave at the
    station level with ``budget`` watts, as one linear program.

    Against backup ``p`` the station-level reply drains ``(p + h) / 2``, so
    station b keeps a shortfall of ``(h_b - p_b) / 2`` until ``p_b = h_b``.
    The program minimises ``sum_b z_b t_b`` over ``(p, t)`` subject to
    ``t_b >= (h_b - p_b) / 2``, ``t >= 0``, ``p >= 0`` and ``sum p <=
    budget``; the headroom clamp of a residual never binds, since ``(h -
    p) / 2 < h``.  Multiplied by ``delta`` it is the equilibrium residual.
    """
    z, h = instance.impact.z_scores, instance.headroom
    B = z.size
    eye = np.eye(B)
    A_ub = np.block([[-0.5 * eye, -eye], [np.ones((1, B)), np.zeros((1, B))]])
    b_ub = np.concatenate([-0.5 * h, [budget]])
    result = scipy.optimize.linprog(
        np.concatenate([np.zeros(B), z]), A_ub=A_ub, b_ub=b_ub, bounds=(0.0, None),
        method="highs",
    )
    assert result.status == 0, result.message
    return float(result.fun)


def source_residual_milp(level: StealthLevel, instance: GameInstance, budget: float) -> float:
    """Least clamped residual the defender can leave with ``budget`` watts
    against a reply that reads no backup (``source``, ``line`` or
    ``overt``), as one mixed-integer program.

    Such a reply drains a fixed ``D_b`` from station b: at ``source`` half
    of each generator's safe output ``sum_b T[b, g] p_full[b]``, spread
    evenly over its lines; at ``line`` half of each line's capacity; at
    ``overt`` all of it.  The residual ``sum_b z_b clip(D_b - p_b, 0,
    h_b)`` buys nothing with the first ``e_b = max(D_b - h_b, 0)`` watts
    at station b, so with a binary ``y_b`` per station the program
    maximises ``sum_b z_b (p_b - e_b y_b)`` subject to ``e_b y_b <= p_b <=
    D_b y_b`` and ``sum p <= budget``.  The allocation it finds, scaled
    into the budget, is then evaluated exactly; times ``delta``, that is
    the residual returned.
    """
    T, p_full = instance.assignment.T, instance.assignment.p_full
    z, h = instance.impact.z_scores, instance.headroom
    lines = T > 0.0
    caps = T * p_full[:, None]
    if level is StealthLevel.POWER_SOURCE:
        drain = lines @ (caps.sum(axis=0) / 2.0 / lines.sum(axis=0))
    else:
        drain = caps.sum(axis=1) / (2.0 if level is StealthLevel.POWER_LINE else 1.0)
    dead = np.maximum(drain - h, 0.0)
    B = z.size
    eye, spend = scipy.sparse.identity(B), scipy.sparse.coo_matrix(np.ones((1, B)))
    A = scipy.sparse.bmat([
        [eye, -scipy.sparse.diags(drain)], [-eye, scipy.sparse.diags(dead)], [spend, None],
    ])
    upper = np.concatenate([np.zeros(2 * B), [budget]])
    result = scipy.optimize.milp(
        np.concatenate([-z, z * dead]),
        constraints=scipy.optimize.LinearConstraint(A, -np.inf, upper),
        integrality=np.repeat([0, 1], B),
        bounds=scipy.optimize.Bounds(0.0, np.concatenate([np.full(B, np.inf), np.ones(B)])),
        options={"presolve": False},  # HiGHS's presolve takes most of the time here
    )
    assert result.status == 0, result.message
    p = np.maximum(result.x[:B], 0.0)
    p *= min(1.0, budget / p.sum()) if p.sum() > 0.0 else 1.0
    return float(z @ np.clip(drain - p, 0.0, h)) * instance.impact.delta


# ---------------------------------------------------------------------------
# Geometry


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
        """Whether ``point`` is within ``tol`` of the closed hexagon: its
        distance from the centre along each edge normal is at most the
        apothem."""
        x, y = float(point[0]) - self.center[0], float(point[1]) - self.center[1]
        normals = [(math.cos(a), math.sin(a)) for a in (math.pi / 6, math.pi / 2, 5 * math.pi / 6)]
        return all(abs(a0 * x + a1 * y) <= self.apothem + tol for a0, a1 in normals)


def clip_length_sequential(segment, hexagon: Hexagon) -> float:
    """Clip a segment against the six hexagon half-planes, endpoint style."""
    a = np.asarray(segment[0], dtype=float)
    b = np.asarray(segment[1], dtype=float)
    center = np.asarray(hexagon.center, dtype=float)
    apothem = hexagon.apothem
    planes = [(sign * axis, apothem) for axis in _HEX_AXES for sign in (1.0, -1.0)]
    for normal, offset in planes:
        da = float(normal @ (a - center)) - offset
        db = float(normal @ (b - center)) - offset
        if da > 0.0 and db > 0.0:
            return 0.0
        if da > 0.0:
            a = a + (b - a) * (da / (da - db))
        elif db > 0.0:
            b = a + (b - a) * (da / (da - db))
    return float(np.hypot(*(b - a)))


def _loop_clip_interval(segment, hexagon: Hexagon) -> tuple[float, float] | None:
    """Parameter interval of ``segment`` inside the closed hexagon, or None,
    one half-plane at a time with an early exit."""
    (x0, y0), (x1, y1) = segment
    cx, cy = hexagon.center
    apothem = hexagon.apothem
    # Elementwise projections, the same arithmetic as the library's kernel.
    base = [a0 * (x0 - cx) + a1 * (y0 - cy) for a0, a1 in _HEX_AXES.tolist()]
    step = [a0 * (x1 - x0) + a1 * (y1 - y0) for a0, a1 in _HEX_AXES.tolist()]
    t_lo, t_hi = 0.0, 1.0
    for sign in (1.0, -1.0):
        for off, slope in zip(base, step):
            off, slope = sign * off, sign * slope
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


def _hexagon(stations, b: int) -> Hexagon:
    """The cell of station ``b`` of a ``Stations`` table."""
    x, y = stations.center[b].tolist()
    return Hexagon((x, y), float(stations.cell_radius[b]))


def loop_coverage(graph: StreetGraph, stations) -> CoverageMap:
    """Coverage of a street graph built one street and one station at a time.

    Each distinct geometry (the first street with it, in its own direction)
    is measured against every station centre, and each station within reach
    is clipped in ascending id order, the stretches already claimed by a
    lower id taken away.  Overlapping cells raise the library's
    OverlapError, found by :func:`dense_overlap_pair`.
    """
    pair = dense_overlap_pair(stations) if graph.n else None
    if pair is not None:
        raise OverlapError(f"cells of stations {pair[0]} and {pair[1]} have overlapping interiors")
    B = len(stations)
    centers, radii = stations.center, stations.cell_radius
    cache: dict = {}
    rows, cols, km = [], [], []
    for sid, (x0, y0, x1, y1) in enumerate(graph.geometry.tolist()):
        geometry = ((x0, y0), (x1, y1))
        key = tuple(sorted(geometry))
        cells = cache.get(key)
        if cells is None:
            cells = cache[key] = []
            p0 = np.asarray(geometry[0], dtype=float)
            p1 = np.asarray(geometry[1], dtype=float)
            seg_len = float(np.hypot(*(p1 - p0)))
            mid = (p0 + p1) / 2.0
            reach = seg_len / 2.0 + radii + 1e-9
            near = np.nonzero(np.hypot(*(centers - mid).T) <= reach)[0]
            claimed: list[tuple[float, float]] = []
            for b in near.tolist():
                interval = _loop_clip_interval(geometry, _hexagon(stations, b))
                if interval is None:
                    continue
                pieces = _subtract_claimed(interval, claimed)
                covered = sum(t1 - t0 for t0, t1 in pieces) * seg_len
                if covered > 0.0:
                    cells.append((b, covered))
                claimed = sorted(claimed + pieces)
        for b, covered in cells:
            rows.append(sid)
            cols.append(b)
            km.append(covered)
    triples = scipy.sparse.coo_array(
        (np.array(km, dtype=float), (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
        shape=(graph.n, B),
    )
    return coverage_from_lengths(graph, triples)


def dirichlet_ratios(streets, intersections, rng) -> dict[tuple[int, int], float]:
    """Turning shares of ``object_topology`` records drawn with one
    ``rng.dirichlet`` call per inflow."""
    ratios: dict[tuple[int, int], float] = {}
    for node in sorted(intersections, key=lambda x: x.id):
        outbound = sorted(node.outbound)
        for j in sorted(node.inbound):
            support = [k for k in outbound if k != j ^ 1]
            if len(support) < 2:
                support = outbound
            shares = rng.dirichlet(np.ones(len(support)))
            for k, share in zip(support, shares):
                ratios[(j, k)] = float(share)
    return ratios


@dataclass(frozen=True)
class Intersection:
    """Graph node; ``inbound``/``outbound`` hold ids of incident streets."""

    id: int
    position: Point
    inbound: tuple[int, ...]
    outbound: tuple[int, ...]


@dataclass(frozen=True)
class Street:
    """Directed street running from intersection ``tail`` to ``head``."""

    id: int
    tail: int
    head: int
    length: float
    geometry: tuple[Point, Point]


def make_street(street_id: int, tail: int, head: int, geometry: tuple[Point, Point]) -> Street:
    """A street whose length is the Euclidean length of its geometry."""
    if tail == head:
        raise ValueError(f"street {street_id} starts and ends at intersection {tail}")
    (x0, y0), (x1, y1) = geometry
    return Street(street_id, tail, head, float(np.hypot(x1 - x0, y1 - y0)), geometry)


def intersections_from_streets(streets, positions) -> tuple[Intersection, ...]:
    """Intersection records, with inbound/outbound lists, in id order."""
    inbound: dict[int, list[int]] = {i: [] for i in positions}
    outbound: dict[int, list[int]] = {i: [] for i in positions}
    for s in streets:
        if s.tail not in positions or s.head not in positions:
            raise ValueError(f"street {s.id} references an intersection with no position")
        outbound[s.tail].append(s.id)
        inbound[s.head].append(s.id)
    return tuple(
        Intersection(i, tuple(positions[i]), tuple(inbound[i]), tuple(outbound[i]))
        for i in sorted(positions)
    )


def object_topology(config) -> tuple[tuple[Street, ...], tuple[Intersection, ...]]:
    """The square street grid of ``config``, one record per street and node."""
    g = config.grid_n
    length = config.street_length
    positions = {
        iy * g + ix: (ix * length, iy * length) for iy in range(g) for ix in range(g)
    }
    edges: list[tuple[int, int]] = []
    for iy in range(g):
        for ix in range(g):
            node = iy * g + ix
            if ix + 1 < g:
                edges.append((node, node + 1))
            if iy + 1 < g:
                edges.append((node, node + g))
    streets: list[Street] = []
    for e, (a, b) in enumerate(edges):
        geom = (positions[a], positions[b])
        streets.append(make_street(2 * e, a, b, geom))
        streets.append(make_street(2 * e + 1, b, a, (geom[1], geom[0])))
    return tuple(streets), intersections_from_streets(streets, positions)


def object_graph(streets, intersections) -> StreetGraph:
    """The ``StreetGraph`` of records, street ``i`` from the record of id
    ``i``; a graph derives each street's length and geometry, so the
    records' own are not read."""
    streets = sorted(streets, key=lambda s: s.id)
    intersections = sorted(intersections, key=lambda x: x.id)
    return StreetGraph(
        [s.tail for s in streets], [s.head for s in streets],
        [x.position for x in intersections],
    )


def dict_ratios(streets, intersections, rng) -> dict[tuple[int, int], float]:
    """Turning shares of ``object_topology`` records: the support walked
    intersection by intersection, then one exponential draw over all pairs
    scaled by each inflow's sum."""
    pairs: list[tuple[int, int]] = []
    sizes: list[int] = []
    for node in sorted(intersections, key=lambda x: x.id):
        outbound = sorted(node.outbound)
        for j in sorted(node.inbound):
            support = [k for k in outbound if k != j ^ 1]
            if len(support) < 2:
                support = outbound
            pairs.extend((j, k) for k in support)
            sizes.append(len(support))
    inflow = np.repeat(np.arange(len(sizes)), sizes)
    draws = rng.standard_exponential(len(pairs))
    shares = draws * (1.0 / np.bincount(inflow, draws, minlength=len(sizes)))[inflow]
    return dict(zip(pairs, shares.tolist()))


# ---------------------------------------------------------------------------
# Supply wiring


def set_wiring(config, positions, stations, rng) -> np.ndarray:
    """Raw (B, G) supply weights from per-generator sets of station ids.

    The wiring loop as the package once ran it: each generator claims its
    k nearest stations (one ``lexsort`` per generator), then each unclaimed
    station joins its nearest generator (one ``lexsort`` per station), and
    the weights are filled in pair by pair.
    """
    B, G = len(stations), config.num_generators
    centers = stations.center
    dists = np.hypot(
        centers[:, 0][:, None] - positions[:, 0][None, :],
        centers[:, 1][:, None] - positions[:, 1][None, :],
    )
    if config.bs_per_generator_range is None:
        lo, hi = 1, max(1, -(-2 * B // G))
    else:
        lo, hi = config.bs_per_generator_range
    connected: list[set[int]] = [set() for _ in range(G)]
    for g in range(G):
        k = min(int(rng.integers(lo, hi + 1)), B)
        order = np.lexsort((np.arange(B), dists[:, g]))
        connected[g].update(int(b) for b in order[:k])
    claimed = set().union(*connected)
    for b in range(B):
        if b not in claimed:
            connected[int(np.lexsort((np.arange(G), dists[b]))[0])].add(b)
    shares = np.zeros((B, G))
    for g in range(G):
        for b in connected[g]:
            shares[b, g] = 1.0 / max(dists[b, g], 1e-9)
    return shares


def dense_overlap_pair(stations) -> tuple[int, int] | None:
    """First (lower, higher) index pair of stations whose cell interiors
    overlap, over every pair of stations.

    Two flat-top cells overlap when the offset of their centres lies
    inside their Minkowski sum, the flat-top hexagon whose circumradius is
    the sum of theirs, here shrunk by ``1 - 1e-9``.  The offset is tested
    against that hexagon's vertices: it is inside when it lies strictly
    left of each of the six edges, walked counterclockwise.
    """
    if len(stations) < 2:
        return None
    centers = stations.center
    dx = centers[:, 0][None, :] - centers[:, 0][:, None]
    dy = centers[:, 1][None, :] - centers[:, 1][:, None]
    reach = (stations.cell_radius[:, None] + stations.cell_radius[None, :]) * (1.0 - 1e-9)
    inside = np.ones(dx.shape, dtype=bool)
    corners = Hexagon((0.0, 0.0), 1.0).vertices()
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        # Edge from reach * (x0, y0) to reach * (x1, y1); the cross product
        # of the edge with the offset from its start, divided by reach.
        inside &= (x1 - x0) * (dy - reach * y0) - (y1 - y0) * (dx - reach * x0) > 0.0
    bad = np.triu(inside, k=1)
    if not np.any(bad):
        return None
    a, b = np.argwhere(bad)[0]
    return int(a), int(b)


# ---------------------------------------------------------------------------
# Street structure and scenario files


def loop_check_structure(streets, intersections) -> None:
    """Consistency of ``Street`` and ``Intersection`` records checked record
    by record in list order, as the loader checks the rows of a file: the
    record in row k must have id k, intersections first.  Raises the texts
    of the loader's id checks and then of ``traffic._check_structure``."""
    for what, records in (("intersection", intersections), ("street", streets)):
        for k, record in enumerate(records):
            if record.id != k:
                raise ValueError(
                    f"{what} ids must be 0..{len(records) - 1} in row order: "
                    f"row {k} has id {record.id}"
                )
    for s in streets:
        if s.tail == s.head:
            raise ValueError(f"street {s.id} starts and ends at intersection {s.tail}")
    for s in streets:
        if not (0 <= s.tail < len(intersections) and 0 <= s.head < len(intersections)):
            raise ValueError(f"street {s.id} references an intersection with no position")


# Integer fields at the start of each line of a counted block.
_INT_FIELDS = {
    "intersections": 1, "streets": 3, "ratios": 2, "stations": 1, "coverage": 2,
    "generators": 1, "links": 2,
}


def line_entries(text: str) -> dict:
    """The blocks of a well-formed scenario file, read line by line.

    ``"config"`` maps each ``[config]`` key to its raw value.  Every counted
    block maps its keyword to its lines as lists of ints then floats; the
    ``ratios``, ``coverage`` and ``links`` blocks instead map each (row,
    column) pair to its value.  ValueError unless the row of id k of every
    other block comes k-th and the pairs of each pair block come once
    each, in row-major order.  Only a format-v1 file has a ``coverage``
    block.
    """
    lines = iter([line.split() for line in text.splitlines() if line.strip()][1:])
    blocks: dict = {"config": {}}
    for parts in lines:
        if len(parts) == 3 and parts[1] == "=":
            blocks["config"][parts[0]] = parts[2]
        elif len(parts) == 2 and parts[0] in _INT_FIELDS:
            k = _INT_FIELDS[parts[0]]
            rows = []
            for _ in range(int(parts[1])):
                tokens = next(lines)
                rows.append([int(t) for t in tokens[:k]] + [float(t) for t in tokens[k:]])
            if k == 2:
                pairs = [(r, c) for r, c, _ in rows]
                if any(b <= a for a, b in zip(pairs, pairs[1:])):
                    raise ValueError(f"{parts[0]} pairs are not unique and row-major")
                blocks[parts[0]] = {(r, c): value for r, c, value in rows}
            else:
                if [row[0] for row in rows] != list(range(len(rows))):
                    raise ValueError(f"{parts[0]} ids are not their rows")
                blocks[parts[0]] = rows
    return blocks


# ---------------------------------------------------------------------------
# Flow solving


def svd_rank(matrix: np.ndarray) -> int:
    """Numerical rank: singular values above RANK_TOLERANCE times the largest."""
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > RANK_TOLERANCE * sv[0]))


def qr_null_vector(A: np.ndarray) -> np.ndarray:
    """Unit null vector of a rank-(n-1) matrix from a column-pivoted QR.

    The dense route the library used before its sparse LU: ``A P = Q R``
    with ``|R[k, k]|`` nonincreasing (Businger & Golub 1965); the rank is
    the count of diagonal entries above RANK_TOLERANCE times the largest,
    and with the last row of ``R`` negligible ``y = (-R11^-1 r, 1)`` solves
    ``R y = 0``.  The largest-magnitude entry is made positive.  Raises
    ValueError unless the rank is n - 1.
    """
    n = A.shape[0]
    R, perm = scipy.linalg.qr(A, pivoting=True, mode="r")
    diag = np.abs(np.diag(R))
    rank = int(np.count_nonzero(diag > RANK_TOLERANCE * diag[0])) if n else 0
    if rank != n - 1:
        raise ValueError(f"matrix has rank {rank}, expected {n - 1}")
    y = np.append(scipy.linalg.solve_triangular(R[:-1, :-1], -R[:-1, -1]), 1.0)
    v = np.empty(n)
    v[perm] = y
    v /= np.linalg.norm(v)
    return v if v[np.argmax(np.abs(v))] > 0.0 else -v


def lstsq_pattern(A: np.ndarray, street: int) -> np.ndarray:
    """Unit deviation pattern of ``street`` from the anchored cut system.

    Solves ``A_i x = a_i`` (column ``street`` removed) by LAPACK least
    squares and splices ``-1`` in at row ``street``.  Raises SingularError
    when the cut system's normal matrix has condition number above 1e12.
    """
    A_i = np.delete(A, street, axis=1)
    a_i = A[:, street]
    x, _, _, sv = np.linalg.lstsq(A_i, a_i, rcond=None)
    if sv.size and sv[0] > 0.0 and (sv[-1] == 0.0 or (sv[0] / sv[-1]) ** 2 > 1e12):
        raise SingularError(f"reduced system for street {street} is numerically singular")
    return np.insert(x, street, -1.0)


def qr_flow_solution(A: np.ndarray, anchor: int, anchor_flow: float) -> np.ndarray:
    """Flows from an explicit reduced QR factorisation of the cut matrix."""
    A_i = np.delete(A, anchor, axis=1)
    a_i = A[:, anchor]
    Qm, R = np.linalg.qr(A_i)
    rest = scipy.linalg.solve_triangular(R, Qm.T @ (-a_i * anchor_flow))
    return np.insert(rest, anchor, anchor_flow)


def anchored_flows(net, anchor: int, anchor_flow: float) -> np.ndarray:
    """All street flows with ``anchor_flow`` on street ``anchor``.

    Every balanced flow is a multiple of the null vector ``v``, so the
    flows are ``anchor_flow * v / v[anchor]``; ``v / v[anchor]`` is taken
    first, so the anchor's own entry is exact.
    """
    v = net.null_vector
    return anchor_flow * (v / v[anchor])


def dense_impact(net, coverage, stations) -> tuple[np.ndarray, np.ndarray]:
    """Impact vectors and scores summed pattern by pattern for each station.

    Stacks the unit patterns ``-v / v[i]`` of a station's covered streets
    into a dense matrix, weights them by covered fraction over headroom and
    takes the L1 norm of the sum.  Raises SingularError when a covered
    street's null-vector entry is below 1e-9 of the largest.
    """
    v = net.null_vector
    vmax = float(np.max(np.abs(v)))
    vectors = np.zeros((len(stations), net.n))
    for b in range(len(stations)):
        fractions = coverage.C[:, b]
        covered = np.nonzero(fractions > 0.0)[0]
        if np.any(np.abs(v[covered]) < 1e-9 * vmax):
            raise SingularError(f"station {b} covers a street that carries no flow")
        patterns = -v[None, :] / v[covered, None]
        vectors[b] = (fractions[covered] / stations.headroom[b]) @ patterns
    return vectors, np.abs(vectors).sum(axis=1)


def finite_difference_total(scenario, station: int, cut_watts: float) -> float:
    """Two-solve flow deviation summed over a station's covered streets.

    For each covered street the direct flow cut is propagated by solving the
    whole network before and after with the least-squares oracle; the
    per-street deviation vectors are summed and measured in the L1 norm.
    """
    net = scenario.network
    lost_fraction = cut_watts / scenario.base_stations.headroom[station]
    A = net.A.toarray()
    C = scenario.coverage.C
    total = np.zeros(net.n)
    for i in np.nonzero(C[:, station] > 0.0)[0].tolist():
        street_cut = lost_fraction * C[i, station] * scenario.config.delta
        base = 1000.0 + street_cut
        before = -base * lstsq_pattern(A, i)
        after = -(base - street_cut) * lstsq_pattern(A, i)
        total += after - before
    return float(np.abs(total).sum())


# ---------------------------------------------------------------------------
# Power response and detection


def coverage_fraction(stations, received_power) -> np.ndarray:
    """Fraction of vehicles each station serves at its ``received_power``
    watts (one value per station, or one for all): 0 at or below
    ``p_activation``, 1 at or above ``p_full`` and linear in between."""
    power = np.broadcast_to(np.asarray(received_power, dtype=float), stations.p_full.shape)
    lo, hi = stations.p_activation, stations.p_full
    return np.where(power <= lo, 0.0, np.where(power >= hi, 1.0, (power - lo) / (hi - lo)))


def unit_detection(level: StealthLevel, instance: GameInstance, p_a: np.ndarray, unit) -> float:
    """Detection probability of the (stations, generators) attack ``p_a``
    at one monitored unit, summed line by line from its definition.

    ``unit`` is a generator ``g`` at the source level, whose drain is its
    lines' total and whose capacity is ``sum_b T[b, g] * p_full[b]``; a
    ``(g, b)`` pair at the line level, with capacity ``T[b, g] *
    p_full[b]``; and a station ``b`` at the station level, whose drain is
    its lines' total and whose capacity is its headroom (the overt level
    is not monitored).  The probability
    is drain over capacity, at most 1; a unit with no capacity is detected
    exactly when something is drained from it.
    """
    T, p_full = instance.assignment.T.tolist(), instance.assignment.p_full.tolist()
    p_a = np.asarray(p_a, dtype=float).tolist()
    B, G = instance.num_stations, instance.num_generators
    if level is StealthLevel.POWER_SOURCE:
        drained = sum(p_a[b][unit] for b in range(B))
        capacity = sum(T[b][unit] * p_full[b] for b in range(B))
    elif level is StealthLevel.POWER_LINE:
        g, b = unit
        drained, capacity = p_a[b][g], T[b][g] * p_full[b]
    else:
        drained = sum(p_a[unit][g] for g in range(G))
        capacity = float(instance.headroom[unit])
    if capacity <= 0.0:
        return 1.0 if drained > 0.0 else 0.0
    return min(drained / capacity, 1.0)


# ---------------------------------------------------------------------------
# Replica stack


def stack_instances(instances) -> GameInstance:
    """The game instances of R replicas, in order, copied along a leading
    axis, as the package once stacked them: one whole instance per replica.

    Replicas of one sweep point differ only in seed, so they share their
    stations, street count, ``delta`` and generator count.
    """
    first = instances[0]
    for other in instances[1:]:
        assert np.array_equal(other.headroom, first.headroom)
        assert np.array_equal(other.assignment.p_full, first.assignment.p_full)
        assert other.impact.null_vector.shape == first.impact.null_vector.shape
        assert other.impact.delta == first.impact.delta
        assert other.num_generators == first.num_generators
    impact = ImpactModel(
        np.stack([inst.impact.null_vector for inst in instances]),
        np.stack([inst.impact.scale for inst in instances]),
        first.headroom,
        first.impact.delta,
    )
    T = np.stack([inst.assignment.T for inst in instances])
    return GameInstance(impact, PowerAssignment(T, first.assignment.p_full))


# ---------------------------------------------------------------------------
# Defender fill and station-level reply


def loop_fill(order, caps: np.ndarray, budget: float) -> np.ndarray:
    """Fill stations up to their caps in ``order`` until the budget is spent."""
    caps = np.asarray(caps, dtype=float)
    allocation = np.zeros_like(caps)
    cap_list = caps.tolist()
    remaining = float(budget)
    for b in np.asarray(order).tolist():
        if remaining <= 0.0:
            break
        take = min(cap_list[b], remaining)
        allocation[b] = take
        remaining -= take
    return allocation


def loop_station_reply(instance: GameInstance, p_d: np.ndarray, sources=None) -> np.ndarray:
    """Station-level best reply to one allocation, built station by station.

    Each station's target shortfall, ``min((p_d + h) / 2, h)``, is split
    over its lines from the attacked generators in proportion to their
    supply shares; the share total is summed generator by generator in id
    order.
    """
    T = instance.assignment.T
    wired = instance.line_caps > 0.0
    B, G = T.shape
    gens = range(G) if sources is None else sorted(set(sources))
    h = instance.headroom
    target = np.minimum((p_d + h) / 2.0, h)
    totals = np.zeros(B)
    for g in gens:
        totals += np.where(wired[:, g], T[:, g], 0.0)
    p_a = np.zeros((B, G))
    for b in range(B):
        if totals[b] > 0.0:
            scale = target[b] / totals[b]
            for g in gens:
                p_a[b, g] = (T[b, g] if wired[b, g] else 0.0) * scale
    return p_a


def loop_source_reply(instance: GameInstance, sources=None) -> np.ndarray:
    """Source-level best reply, built generator by generator: half of each
    attacked generator's safe output, split evenly over its lines."""
    wired = instance.line_caps > 0.0
    p_a = np.zeros(wired.shape)
    gens = range(instance.num_generators) if sources is None else sorted(set(sources))
    for g in gens:
        stations = np.nonzero(wired[:, g])[0]
        if stations.size:
            p_a[stations, g] = instance.safe_outputs[g] / (2.0 * stations.size)
    return p_a


# ---------------------------------------------------------------------------
# Attack strategy search


def _assemble_source(instance: GameInstance, magnitudes: np.ndarray) -> np.ndarray:
    p_a = np.zeros_like(instance.line_caps)
    wired = instance.line_caps > 0.0
    for g in range(instance.num_generators):
        p_a[wired[:, g], g] = magnitudes[g]
    return p_a


def _assemble_station(instance: GameInstance, totals: np.ndarray) -> np.ndarray:
    T = instance.assignment.T
    return T * totals[:, None]


def lattice_best_attack(
    level: StealthLevel,
    instance: GameInstance,
    p_d: np.ndarray,
    points: int = 201,
) -> tuple[np.ndarray, float]:
    """Grid-search maximiser of the attacker payoff at ``level``.

    The payoffs are additive across sources (uniform per-line magnitude),
    lines, and station totals respectively, so the maximum over the product
    lattice is found by scanning each free dimension with the others at
    zero and composing the per-dimension winners.
    """
    B, G = instance.num_stations, instance.num_generators
    caps = instance.line_caps
    wired = caps > 0.0

    def payoff(p_a: np.ndarray) -> float:
        return attacker_payoff(level, instance, p_d, p_a)

    if level is StealthLevel.POWER_SOURCE:
        best = np.zeros(G)
        for g in range(G):
            count = int(wired[:, g].sum())
            if count == 0:
                continue
            top = float(instance.assignment.T[:, g] @ instance.assignment.p_full) / count
            grid = np.linspace(0.0, top, points)
            scores = [payoff(_assemble_source(instance, _one_hot(G, g, u))) for u in grid]
            best[g] = grid[int(np.argmax(scores))]
        strategy = _assemble_source(instance, best)
    elif level is StealthLevel.POWER_LINE:
        strategy = np.zeros((B, G))
        for b, g in np.argwhere(wired):
            grid = np.linspace(0.0, caps[b, g], points)
            scores = []
            probe = np.zeros((B, G))
            for u in grid:
                probe[b, g] = u
                scores.append(payoff(probe))
            strategy[b, g] = grid[int(np.argmax(scores))]
    elif level is StealthLevel.BASE_STATION:
        totals = np.zeros(B)
        headroom = instance.headroom
        for b in range(B):
            grid = np.linspace(0.0, headroom[b], points)
            scores = []
            for u in grid:
                probe = np.zeros(B)
                probe[b] = u
                scores.append(payoff(_assemble_station(instance, probe)))
            totals[b] = grid[int(np.argmax(scores))]
        strategy = _assemble_station(instance, totals)
    else:
        raise ValueError("the overt level needs no search")
    return strategy, payoff(strategy)


def _one_hot(size: int, index: int, value: float) -> np.ndarray:
    out = np.zeros(size)
    out[index] = value
    return out
