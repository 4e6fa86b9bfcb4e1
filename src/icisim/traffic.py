"""Street-network flow model.

A network of directed streets is balanced by a turning-ratio matrix: the
flow entering an intersection along one street equals a weighted sum of
the flows leaving that intersection.  Stacking one balance row per street
gives ``q = Q q``, i.e. ``A q = 0`` with ``A = I - Q``.  For a connected
network ``A`` has rank ``n - 1``, so its null space is spanned by one
vector ``v`` and every balanced flow is a multiple of it.  One
column-pivoted QR factorisation of ``A`` both checks the rank and yields
``v``; fixing the flow on an anchor street ``i`` then gives ``q = q_i v / v[i]``.

Flows are veh/h/lane, positions and lengths are km.  All objects here are
immutable after construction and safe for concurrent reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg

from .errors import RankError, SingularError, TopologyError

# Pivoted-QR diagonal entries below this fraction of the largest count as zero.
RANK_TOLERANCE = 1e-10

Point = tuple[float, float]


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


def _segment_length(geometry: tuple[Point, Point]) -> float:
    (x0, y0), (x1, y1) = geometry
    return float(np.hypot(x1 - x0, y1 - y0))


def make_street(street_id: int, tail: int, head: int, geometry: tuple[Point, Point]) -> Street:
    """Build a street whose length is the Euclidean length of its geometry."""
    if tail == head:
        raise ValueError(f"street {street_id} starts and ends at intersection {tail}")
    return Street(street_id, tail, head, _segment_length(geometry), geometry)


def validate_street(street: Street) -> None:
    """Check the stored length against the geometry (1e-9 absolute)."""
    if street.tail == street.head:
        raise ValueError(f"street {street.id} starts and ends at intersection {street.tail}")
    if abs(street.length - _segment_length(street.geometry)) > 1e-9:
        raise ValueError(f"street {street.id} length does not match its geometry")


def intersections_from_streets(
    streets: Sequence[Street], positions: Mapping[int, Point]
) -> tuple[Intersection, ...]:
    """Derive intersection records (with inbound/outbound lists) from streets."""
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


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """Street graph plus its turning-ratio matrix ``Q`` and ``A = I - Q``.

    ``Q[r, c]`` is the share linking inflow street ``r`` to outflow street
    ``c`` at the intersection ``head(r) == tail(c)``.
    """

    streets: tuple[Street, ...]
    intersections: tuple[Intersection, ...]
    Q: np.ndarray
    A: np.ndarray

    @property
    def n(self) -> int:
        return len(self.streets)

    @cached_property
    def null_vector(self) -> np.ndarray:
        """Unit-norm spanning vector of the one-dimensional null space of ``A``.

        Computed from one column-pivoted QR factorisation, which also checks
        that ``A`` has rank ``n - 1`` (RankError otherwise); every flow
        solution is a scalar multiple of this vector.  Its largest-magnitude
        entry is positive.
        """
        return _null_vector(self.A)


def _check_structure(
    streets: Sequence[Street], intersections: Sequence[Intersection]
) -> None:
    street_ids = {s.id for s in streets}
    if sorted(street_ids) != list(range(len(streets))):
        raise ValueError("street ids must be 0..n-1 with no gaps")
    for s in streets:
        validate_street(s)
    node_ids = {x.id for x in intersections}
    for x in intersections:
        if set(x.inbound) & set(x.outbound):
            raise ValueError(f"intersection {x.id} lists a street as both inbound and outbound")
        for sid in (*x.inbound, *x.outbound):
            if sid not in street_ids:
                raise ValueError(f"intersection {x.id} references unknown street {sid}")
    by_node = {x.id: x for x in intersections}
    for s in streets:
        if s.tail not in node_ids or s.head not in node_ids:
            raise ValueError(f"street {s.id} references unknown intersection")
        if s.id not in by_node[s.tail].outbound or s.id not in by_node[s.head].inbound:
            raise ValueError(f"street {s.id} missing from its intersections' incidence lists")


def _null_vector(A: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    # A P = Q R with |R[k, k]| nonincreasing (Businger & Golub 1965): the
    # count of non-negligible diagonal entries is the numerical rank.
    R, perm = scipy.linalg.qr(A, pivoting=True, mode="r")
    diag = np.abs(np.diag(R))
    rank = int(np.count_nonzero(diag > RANK_TOLERANCE * diag[0])) if n else 0
    if rank != n - 1:
        raise RankError(
            f"balance matrix has rank {rank}, expected {n - 1}; "
            "the street network is disconnected or over-constrained"
        )
    # With the last row of R negligible, y = (-R11^-1 r, 1) solves R y = 0,
    # where R11 is the leading (n-1)x(n-1) block and r the rest of the last
    # column; v = P y spans the null space of A.
    y = np.append(scipy.linalg.solve_triangular(R[:-1, :-1], -R[:-1, -1]), 1.0)
    v = np.empty(n)
    v[perm] = y
    v /= np.linalg.norm(v)
    return v if v[np.argmax(np.abs(v))] > 0.0 else -v


def build_flow_matrix(
    streets: Sequence[Street],
    intersections: Sequence[Intersection],
    turning_ratios: Mapping[tuple[int, int], float],
) -> FlowNetwork:
    """Assemble the balance system from per-inflow turning ratios.

    ``turning_ratios[(j, k)]`` is the share of inflow street ``j`` routed to
    outflow street ``k``; the two streets must meet head-to-tail at one
    intersection.  Shares of each inflow street must be nonnegative and sum
    to 1.

    Raises TopologyError for a ratio on a street pair that does not meet,
    and RankError when the resulting balance matrix does not have rank n-1.
    """
    streets = tuple(sorted(streets, key=lambda s: s.id))
    intersections = tuple(sorted(intersections, key=lambda x: x.id))
    _check_structure(streets, intersections)
    n = len(streets)
    by_id = {s.id: s for s in streets}

    Q = np.zeros((n, n))
    row_sums = np.zeros(n)
    for (j, k), share in turning_ratios.items():
        if j not in by_id or k not in by_id:
            raise TopologyError(f"turning ratio references unknown street pair ({j}, {k})")
        if by_id[j].head != by_id[k].tail:
            raise TopologyError(
                f"streets {j} and {k} do not meet head-to-tail at an intersection"
            )
        if share < 0.0:
            raise ValueError(f"turning ratio for ({j}, {k}) is negative")
        Q[j, k] = share
        row_sums[j] += share

    has_outflow = np.zeros(n, dtype=bool)
    for x in intersections:
        if x.outbound:
            for j in x.inbound:
                has_outflow[j] = True
    bad = [int(j) for j in range(n) if has_outflow[j] and abs(row_sums[j] - 1.0) > 1e-9]
    if bad:
        raise ValueError(f"outflow shares of inflow streets {bad} do not sum to 1")

    net = FlowNetwork(streets, intersections, Q, np.eye(n) - Q)
    net.null_vector  # factorise now so a rank failure surfaces at construction
    return net


def network_from_matrix(
    streets: Sequence[Street],
    intersections: Sequence[Intersection],
    Q: np.ndarray,
) -> FlowNetwork:
    """Build a network from an explicit ratio matrix (file-loading path).

    Only structural placement (entries restricted to street pairs meeting
    head-to-tail) and the rank invariant are enforced; row normalisation is
    not required here, so externally authored conventions remain loadable.
    """
    streets = tuple(sorted(streets, key=lambda s: s.id))
    intersections = tuple(sorted(intersections, key=lambda x: x.id))
    _check_structure(streets, intersections)
    n = len(streets)
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (n, n):
        raise ValueError(f"ratio matrix has shape {Q.shape}, expected {(n, n)}")
    by_id = {s.id: s for s in streets}
    rows, cols = np.nonzero(Q)
    for j, k in zip(rows.tolist(), cols.tolist()):
        if by_id[j].head != by_id[k].tail:
            raise TopologyError(
                f"ratio matrix entry ({j}, {k}) links streets that do not meet head-to-tail"
            )
    net = FlowNetwork(streets, intersections, Q, np.eye(n) - Q)
    net.null_vector  # factorise now so a rank failure surfaces at construction
    return net


@dataclass(frozen=True, eq=False)
class FlowSolution:
    """Network-wide flows consistent with one known street flow."""

    anchor_street: int
    anchor_flow: float
    flows: np.ndarray

    def residual(self, net: FlowNetwork) -> float:
        """Max-norm balance residual of the solution."""
        return float(np.linalg.norm(net.A @ self.flows, ord=np.inf))


def _anchor_entries(net: FlowNetwork, streets: Sequence[int]) -> np.ndarray:
    """Null-vector entries ``v[i]`` of the requested streets.

    Raises SingularError for a street whose entry vanishes, since no
    balanced state moves its flow.
    """
    idx = np.asarray(streets, dtype=int)
    if np.any((idx < 0) | (idx >= net.n)):
        raise ValueError(f"street ids {idx.tolist()} out of range")
    v = net.null_vector
    vmax = float(np.max(np.abs(v)))
    small = np.abs(v[idx]) < 1e-9 * vmax
    if np.any(small):
        bad = idx[small][0]
        raise SingularError(f"reduced system for street {bad} is numerically singular")
    return v[idx]


def _null_patterns(net: FlowNetwork, streets: Sequence[int]) -> np.ndarray:
    """Rows ``-v / v[i]``: balanced flow change per unit cut on each street."""
    return -net.null_vector[None, :] / _anchor_entries(net, streets)[:, None]


def solve_flows(net: FlowNetwork, anchor: int, anchor_flow: float) -> FlowSolution:
    """Solve all street flows given the flow on one anchor street."""
    if anchor_flow < 0.0:
        raise ValueError("anchor flow must be nonnegative")
    flows = -anchor_flow * _null_patterns(net, [anchor])[0]
    return FlowSolution(anchor, float(anchor_flow), flows)


def propagate_deviation(net: FlowNetwork, street: int, delta: float) -> np.ndarray:
    """Network-wide flow change caused by a deviation ``delta`` at one street.

    Returns the full change vector (new flows minus old): entry ``street``
    is ``-delta`` and a negative entry means a flow reduction.
    """
    return delta * _null_patterns(net, [street])[0]
