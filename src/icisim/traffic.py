"""Street-network flow model.

A network of directed streets is balanced by a turning-ratio matrix: the
flow entering an intersection along one street equals a weighted sum of
the flows leaving that intersection.  Stacking one balance row per street
gives ``q = Q q``, i.e. ``A q = 0`` with ``A = I - Q``.  For a connected
network ``A`` has rank ``n - 1``, so its null space is spanned by one
vector ``v`` and every balanced flow is a multiple of it.  ``Q`` and ``A``
are sparse (CSR): each street meets only the few streets at its ends.

``v`` comes from one deflated sparse LU (Stewart, *Introduction to the
Numerical Solution of Markov Chains*, 1994).  Fix ``v[k] = 1`` for one
street ``k`` and solve the remaining (n-1)-block of ``A`` for the other
entries.  ``A`` is accepted as rank ``n - 1`` when that block is
nonsingular (every LU pivot above ``RANK_TOLERANCE`` times the largest)
and the one equation left out, row ``k`` of ``A v = 0``, holds to
``RANK_TOLERANCE`` of the sum of its terms' magnitudes.  ``k`` is taken
from the strongly connected class of ``Q``'s support (Tarjan 1972) whose
own diagonal block of ``A`` is singular; a generated network's support is
one class, so there ``k`` is its first street and the LU is the only
factorisation.  Fixing the flow on an anchor street ``i`` then gives
``q = q_i v / v[i]``.

Flows are veh/h/lane, positions and lengths are km.  All objects here are
immutable after construction and safe for concurrent reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Mapping, Sequence

import numpy as np
# In this order (scipy.sparse arriving as splu's parent package) a fresh
# interpreter imports the program with about a third fewer page faults and
# 70 ms faster than with ``import scipy.sparse`` first, on a 2-vCPU VM.
from scipy.sparse.linalg import splu
from scipy.sparse.csgraph import connected_components
import scipy.sparse

from .errors import RankError, SingularError, TopologyError

# LU pivots at or below this fraction of the largest count as zero, and so
# does a left-out balance equation's residual below this fraction of its terms.
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
    """Street graph plus its sparse turning-ratio matrix ``Q``.

    ``Q[r, c]`` is the share linking inflow street ``r`` to outflow street
    ``c`` at the intersection ``head(r) == tail(c)``.  ``Q`` is a CSR array
    with sorted column indices and no stored zeros.
    """

    streets: tuple[Street, ...]
    intersections: tuple[Intersection, ...]
    Q: scipy.sparse.csr_array

    @property
    def n(self) -> int:
        return len(self.streets)

    @cached_property
    def A(self) -> scipy.sparse.csr_array:
        """Balance matrix ``I - Q`` as a CSR array."""
        return scipy.sparse.csr_array(scipy.sparse.identity(self.n, format="csr")) - self.Q

    @cached_property
    def null_vector(self) -> np.ndarray:
        """Unit-norm spanning vector of the one-dimensional null space of ``A``.

        Computed from one deflated sparse LU, which also checks that ``A``
        has rank ``n - 1`` (RankError otherwise); every flow solution is a
        scalar multiple of this vector.  Its largest-magnitude entry is
        positive.
        """
        return _null_vector(self.Q)


def csr_entries(M: scipy.sparse.csr_array) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, column, value) of every stored entry of a CSR array, row-major."""
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    return rows, M.indices, M.data


def csr_equal(a: scipy.sparse.csr_array, b: scipy.sparse.csr_array) -> bool:
    """Exact equality of two canonical CSR arrays (sorted indices, as
    ``FlowNetwork.Q`` stores them): same shape, same stored pattern, same
    values, no stored zeros."""
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
        and bool(np.all(a.data != 0.0))
    )


def _check_structure(
    streets: Sequence[Street], intersections: Sequence[Intersection]
) -> None:
    """Raise ValueError at the first inconsistency of a street graph.

    Both sequences are sorted by id.  Each check runs over every street or
    intersection before the next one starts, and reports the first
    offender in id order:

    1. the street ids are ``0..n-1``;
    2. no street starts where it ends, and each stored length matches its
       geometry to 1e-9;
    3. no intersection lists a street both inbound and outbound, or an
       unknown street;
    4. each street's ends are known intersections (the last one listed
       for a repeated id) that list it, and its geometry runs between their
       positions to 1e-9.
    """
    n, m = len(streets), len(intersections)
    ids = np.array([s.id for s in streets], dtype=np.int64)
    if not np.array_equal(np.sort(ids), np.arange(n)):
        raise ValueError("street ids must be 0..n-1 with no gaps")
    tails, heads = _ends(streets)
    # Per street: its length, then the x0 y0 x1 y1 of its geometry.
    table = np.fromiter(
        chain.from_iterable((s.length, *s.geometry[0], *s.geometry[1]) for s in streets),
        float, 5 * n,
    ).reshape(n, 5)
    lengths, geometry = table[:, 0], table[:, 1:]
    drawn = np.hypot(geometry[:, 2] - geometry[:, 0], geometry[:, 3] - geometry[:, 1])
    bad = (tails == heads) | (np.abs(lengths - drawn) > 1e-9)
    if bad.any():
        s = streets[int(np.argmax(bad))]
        if s.tail == s.head:
            raise ValueError(f"street {s.id} starts and ends at intersection {s.tail}")
        raise ValueError(f"street {s.id} length does not match its geometry")

    # Incidence lists flattened into (intersection index, street id) pairs.
    inbound, outbound = [x.inbound for x in intersections], [x.outbound for x in intersections]
    in_node = np.repeat(np.arange(m), np.fromiter(map(len, inbound), np.int64, m))
    out_node = np.repeat(np.arange(m), np.fromiter(map(len, outbound), np.int64, m))
    in_sid = np.fromiter(chain.from_iterable(inbound), np.int64, in_node.size)
    out_sid = np.fromiter(chain.from_iterable(outbound), np.int64, out_node.size)
    in_known, out_known = (in_sid >= 0) & (in_sid < n), (out_sid >= 0) & (out_sid < n)
    unknown = np.zeros(m, dtype=bool)
    unknown[in_node[~in_known]] = True
    unknown[out_node[~out_known]] = True
    # Keys give all unknown ids one code; an intersection listing any of
    # them is at fault either way, and its message is settled below.
    width = n + 1
    in_key = in_node * width + np.where(in_known, in_sid, n)
    out_key = out_node * width + np.where(out_known, out_sid, n)
    both = np.zeros(m, dtype=bool)
    both[in_node[np.isin(in_key, out_key)]] = True
    if (both | unknown).any():
        x = intersections[int(np.argmax(both | unknown))]
        if set(x.inbound) & set(x.outbound):
            raise ValueError(f"intersection {x.id} lists a street as both inbound and outbound")
        sid = next(i for i in (*x.inbound, *x.outbound) if not 0 <= i < n)
        raise ValueError(f"intersection {x.id} references unknown street {sid}")

    # From here every listed id is a street id, which is also its index.
    node_ids = np.array([x.id for x in intersections], dtype=np.int64)
    positions = np.array([x.position for x in intersections], dtype=float).reshape(m, 2)
    found, listed, off = np.ones(n, dtype=bool), np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    for end, node, sid, xy in (
        (tails, out_node, out_sid, geometry[:, :2]), (heads, in_node, in_sid, geometry[:, 2:])
    ):
        at = np.searchsorted(node_ids, end, side="right") - 1
        known = at >= 0
        known[known] = node_ids[at[known]] == end[known]
        found &= known
        lists = np.zeros(n, dtype=bool)
        lists[sid[at[sid] == node]] = True
        listed &= lists
        off[known] |= (np.abs(xy[known] - positions[at[known]]) > 1e-9).any(axis=1)
    bad = ~found | ~listed | off
    if bad.any():
        k = int(np.argmax(bad))
        s = streets[k]
        if not found[k]:
            raise ValueError(f"street {s.id} references unknown intersection")
        if not listed[k]:
            raise ValueError(f"street {s.id} missing from its intersections' incidence lists")
        raise ValueError(
            f"street {s.id} geometry does not run from intersection {s.tail} "
            f"to intersection {s.head} at their positions"
        )


def _ends(streets: Sequence[Street]) -> tuple[np.ndarray, np.ndarray]:
    """Tail and head intersection ids of the streets, in street order."""
    return (np.array([s.tail for s in streets], dtype=np.int64),
            np.array([s.head for s in streets], dtype=np.int64))


def _balancing_street(Q: scipy.sparse.csr_array) -> int:
    """A street ``k`` for which fixing ``v[k] = 1`` leaves a nonsingular block.

    Ordered by the strongly connected classes of ``Q``'s support, ``A`` is
    block triangular, so it has rank ``n - 1`` exactly when one class's
    diagonal block is singular, with nullity 1, and every other one is not.
    A one-street class has the block ``[1]``.  If at most one class has more
    streets, as in every generated network, its first street is returned
    unfactored; otherwise the first street of the first class that passes
    the deflated rank test on its own.  With nonnegative shares summing to
    at most 1 per street, no entry of a singular class's null vectors
    vanishes (Perron-Frobenius), so any of its streets serves.  If no class passes, street 0 is returned and the
    solve on the whole network raises the RankError.
    """
    _, labels = connected_components(Q, directed=True, connection="strong")
    sizes = np.bincount(labels)
    classes = np.flatnonzero(sizes > 1)
    if classes.size <= 1:
        return int(np.argmax(sizes[labels] > 1))
    for label in classes:
        members = np.flatnonzero(labels == label)
        try:
            _deflated_null_vector(Q[members][:, members], 0)
        except RankError:
            continue
        return int(members[0])
    return 0


def _deflated_null_vector(Q: scipy.sparse.csr_array, k: int) -> np.ndarray:
    """Null vector of ``I - Q`` scaled to ``v[k] = 1``; RankError unless rank n-1."""
    n = Q.shape[0]
    rows, cols, shares = csr_entries(Q)
    # Deflate: with v[k] = 1 the other rows of A v = 0 read
    # (I - Q)[~k, ~k] y = Q[~k, k]; indices past k shift down by one.
    keep = (rows != k) & (cols != k)
    diag = np.arange(n - 1)
    block = scipy.sparse.csc_array(
        (np.concatenate((np.ones(n - 1), -shares[keep])),
         (np.concatenate((diag, rows[keep] - (rows[keep] > k))),
          np.concatenate((diag, cols[keep] - (cols[keep] > k))))),
        shape=(n - 1, n - 1),
    )
    try:
        lu = splu(block)
        pivots = np.abs(lu.U.diagonal())
        singular = not pivots.min() > RANK_TOLERANCE * pivots.max()
    except RuntimeError:  # SuperLU found an exactly zero pivot
        singular = True
    if singular:
        raise RankError(
            f"balance matrix has rank below {n - 1}: without street {k} the balance "
            "equations are singular; the street network is disconnected"
        )
    into_rhs = (rows != k) & (cols == k)
    rhs = np.zeros(n - 1)
    rhs[rows[into_rhs] - (rows[into_rhs] > k)] = shares[into_rhs]
    y = lu.solve(rhs)
    v = np.concatenate((y[:k], [1.0], y[k:]))
    # Row k of A v = 0, left out above, is the Schur complement of the
    # block: unless it vanishes, A is nonsingular.
    terms = np.append(1.0, -shares[rows == k] * v[cols[rows == k]])
    if abs(terms.sum()) > RANK_TOLERANCE * np.abs(terms).sum():
        raise RankError(
            f"balance matrix has full rank {n}, expected {n - 1}; "
            "the street network is over-constrained"
        )
    return v


def _null_vector(Q: scipy.sparse.csr_array) -> np.ndarray:
    n = Q.shape[0]
    if n < 2:
        # Q links no street to itself, so A = I - Q is the identity here.
        raise RankError(f"balance matrix has rank {n}, expected {n - 1}; too few streets")
    v = _deflated_null_vector(Q, _balancing_street(Q))
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
    tails, heads = _ends(streets)

    pairs = np.array(list(turning_ratios), dtype=np.int64).reshape(-1, 2)
    shares = np.fromiter(turning_ratios.values(), dtype=float, count=len(turning_ratios))
    rows, cols = pairs[:, 0], pairs[:, 1]
    known = (rows >= 0) & (rows < n) & (cols >= 0) & (cols < n)
    meets = known & (heads[np.where(known, rows, 0)] == tails[np.where(known, cols, 0)])
    bad = ~meets | (shares < 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        j, k = int(rows[i]), int(cols[i])
        if not known[i]:
            raise TopologyError(f"turning ratio references unknown street pair ({j}, {k})")
        if not meets[i]:
            raise TopologyError(
                f"streets {j} and {k} do not meet head-to-tail at an intersection"
            )
        raise ValueError(f"turning ratio for ({j}, {k}) is negative")

    # A street whose head intersection has outflows must split all of it.
    has_outflow = np.isin(heads, tails)
    row_sums = np.bincount(rows, shares, minlength=n)
    bad_rows = np.nonzero(has_outflow & (np.abs(row_sums - 1.0) > 1e-9))[0]
    if bad_rows.size:
        raise ValueError(f"outflow shares of inflow streets {bad_rows.tolist()} do not sum to 1")

    Q = scipy.sparse.csr_array((shares, (rows, cols)), shape=(n, n))
    Q.eliminate_zeros()
    net = FlowNetwork(streets, intersections, Q)
    net.null_vector  # factorise now so a rank failure surfaces at construction
    return net


def network_from_matrix(
    streets: Sequence[Street],
    intersections: Sequence[Intersection],
    Q,
) -> FlowNetwork:
    """Build a network from an explicit ratio matrix (file-loading path).

    ``Q`` may be dense or any ``scipy.sparse`` matrix; it is stored as a
    canonical CSR array.  Only structural placement (entries restricted to
    street pairs meeting head-to-tail) and the rank invariant are enforced;
    row normalisation is not required here, so externally authored
    conventions remain loadable.
    """
    streets = tuple(sorted(streets, key=lambda s: s.id))
    intersections = tuple(sorted(intersections, key=lambda x: x.id))
    _check_structure(streets, intersections)
    n = len(streets)
    if not scipy.sparse.issparse(Q):
        Q = np.asarray(Q, dtype=float)
    if Q.shape != (n, n):
        raise ValueError(f"ratio matrix has shape {Q.shape}, expected {(n, n)}")
    # Canonical form: sorted indices, no stored zeros; duplicate entries of
    # a sparse input are summed.
    Q = scipy.sparse.csr_array(Q, dtype=float, copy=True)
    Q.sum_duplicates()
    Q.eliminate_zeros()
    rows, cols, _ = csr_entries(Q)
    tails, heads = _ends(streets)
    apart = np.nonzero(heads[rows] != tails[cols])[0]
    if apart.size:
        j, k = int(rows[apart[0]]), int(cols[apart[0]])
        raise TopologyError(
            f"ratio matrix entry ({j}, {k}) links streets that do not meet head-to-tail"
        )
    net = FlowNetwork(streets, intersections, Q)
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


def solve_flows(net: FlowNetwork, anchor: int, anchor_flow: float) -> FlowSolution:
    """Solve all street flows given the flow on one anchor street."""
    if anchor_flow < 0.0:
        raise ValueError("anchor flow must be nonnegative")
    v = net.null_vector
    flows = anchor_flow * (v / _anchor_entries(net, [anchor])[0])
    return FlowSolution(anchor, float(anchor_flow), flows)
