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

SuperLU orders the columns of that block ``B`` by minimum degree on
``B^T B`` (``MMD_ATA``; George and Liu, SIAM Rev. 31, 1989), which leaves
about a fifth less fill than its default ``COLAMD`` at grid 30 and a third
less at grid 200.  Relaxed supernodes and panels are turned off
(``relax=1``, ``panel_size=1``): a street meets only a few others, so the
supernodes (Demmel et al., SIAM J. Matrix Anal. Appl. 20, 1999) are a few
columns wide, and padding them to the default sizes costs more than it
saves.  The two settings take the grid-30 LU from about 12 to 7.6 ms.
Pivoting stays partial, since a hand-written network's block need not be
an M-matrix.

Flows are veh/h/lane, positions and lengths are km.  All objects here are
immutable after construction and safe for concurrent reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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


@dataclass(frozen=True, eq=False)
class StreetGraph:
    """Directed street graph held as arrays; street ``i`` is row ``i``.

    Street ``i`` runs from intersection ``tail[i]`` to ``head[i]``, is
    ``length[i]`` km long and is drawn from ``geometry[i] = (x0, y0, x1,
    y1)``.  Intersection ``node_ids[k]`` sits at ``positions[k]``; the ids
    are stored sorted and unique, and a repeated id keeps its last
    position.  Every array is a read-only copy of what was passed in.
    """

    tail: np.ndarray
    head: np.ndarray
    length: np.ndarray
    geometry: np.ndarray
    node_ids: np.ndarray
    positions: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.tail)
        node_ids = np.array(self.node_ids, dtype=np.int64).reshape(-1)
        positions = np.array(self.positions, dtype=float).reshape(len(node_ids), 2)
        if np.any(node_ids[1:] <= node_ids[:-1]):
            order = np.argsort(node_ids, kind="stable")
            node_ids, positions = node_ids[order], positions[order]
            last = np.append(node_ids[1:] != node_ids[:-1], True)
            node_ids, positions = node_ids[last], positions[last]
        for name, value in (
            ("tail", np.array(self.tail, dtype=np.int64).reshape(n)),
            ("head", np.array(self.head, dtype=np.int64).reshape(n)),
            ("length", np.array(self.length, dtype=float).reshape(n)),
            ("geometry", np.array(self.geometry, dtype=float).reshape(n, 4)),
            ("node_ids", node_ids),
            ("positions", positions),
        ):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.tail)


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """Street graph plus its sparse turning-ratio matrix ``Q``.

    ``Q[r, c]`` is the share linking inflow street ``r`` to outflow street
    ``c`` at the intersection ``head(r) == tail(c)``.  ``Q`` is a CSR array
    with sorted column indices and no stored zeros.
    """

    graph: StreetGraph
    Q: scipy.sparse.csr_array

    @property
    def n(self) -> int:
        return self.graph.n

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


def _check_structure(graph: StreetGraph) -> None:
    """Raise ValueError at the first inconsistency of a street graph.

    Each check runs over every street before the next one starts, and
    reports the first offender in street order:

    1. no street starts where it ends, and each stored length matches its
       geometry to 1e-9;
    2. each street's ends are known intersections, and its geometry runs
       between their positions to 1e-9.
    """
    tails, heads, geometry = graph.tail, graph.head, graph.geometry
    drawn = np.hypot(geometry[:, 2] - geometry[:, 0], geometry[:, 3] - geometry[:, 1])
    bad = (tails == heads) | (np.abs(graph.length - drawn) > 1e-9)
    if bad.any():
        k = int(np.argmax(bad))
        if tails[k] == heads[k]:
            raise ValueError(f"street {k} starts and ends at intersection {tails[k]}")
        raise ValueError(f"street {k} length does not match its geometry")

    # Each street's two ends, looked up among the sorted intersection ids.
    ends = np.stack((tails, heads), axis=1)
    at = np.searchsorted(graph.node_ids, ends)
    found = at < len(graph.node_ids)
    found[found] = graph.node_ids[at[found]] == ends[found]
    known = found.all(axis=1)
    off = np.zeros(len(known), dtype=bool)
    xy = geometry[known].reshape(-1, 2, 2)
    off[known] = (np.abs(xy - graph.positions[at[known]]) > 1e-9).any(axis=(1, 2))
    bad = ~known | off
    if bad.any():
        k = int(np.argmax(bad))
        if not known[k]:
            raise ValueError(f"street {k} references an intersection with no position")
        raise ValueError(
            f"street {k} geometry does not run from intersection {tails[k]} "
            f"to intersection {heads[k]} at their positions"
        )


def _balancing_street(Q: scipy.sparse.csr_array) -> int:
    """A street ``k`` for which fixing ``v[k] = 1`` leaves a nonsingular block.

    Ordered by the strongly connected classes of ``Q``'s support, ``A`` is
    block triangular, so it has rank ``n - 1`` exactly when one class's
    diagonal block is singular, with nullity 1, and every other one is not.
    A one-street class has the block ``[1]``.  If at most one class has more
    streets, as in every generated network, its first street is returned
    unfactored; otherwise the first street of the first class that passes
    the deflated rank test on its own.  With nonnegative shares (which
    :func:`network_from_matrix` ensures) summing to at most 1 per street, no
    entry of a singular class's null vectors vanishes (Perron-Frobenius), so
    any of its streets serves.  If no class passes, street 0 is returned and
    the solve on the whole network raises the RankError.
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


def _deflated_lu(Q: scipy.sparse.csr_array, k: int) -> scipy.sparse.linalg.SuperLU:
    """SuperLU factors of ``I - Q`` without row and column ``k``, with the
    ordering and supernode settings the module docstring gives.

    RankError unless every pivot exceeds ``RANK_TOLERANCE`` times the
    largest.
    """
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
        lu = splu(block, permc_spec="MMD_ATA", relax=1, panel_size=1)
        pivots = np.abs(lu.U.diagonal())
        singular = not pivots.min() > RANK_TOLERANCE * pivots.max()
    except RuntimeError:  # SuperLU found an exactly zero pivot
        singular = True
    if singular:
        raise RankError(
            f"balance matrix has rank below {n - 1}: without street {k} the balance "
            "equations are singular; the street network is disconnected"
        )
    return lu


def _deflated_null_vector(Q: scipy.sparse.csr_array, k: int) -> np.ndarray:
    """Null vector of ``I - Q`` scaled to ``v[k] = 1``; RankError unless rank n-1."""
    n = Q.shape[0]
    lu = _deflated_lu(Q, k)
    rows, cols, shares = csr_entries(Q)
    into_rhs = (rows != k) & (cols == k)
    rhs = np.zeros(n - 1)
    rhs[rows[into_rhs] - (rows[into_rhs] > k)] = shares[into_rhs]
    y = lu.solve(rhs)
    v = np.concatenate((y[:k], [1.0], y[k:]))
    # Row k of A v = 0, left out of the block, is the Schur complement of the
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


def build_flow_matrix(graph: StreetGraph, rows, cols, shares) -> FlowNetwork:
    """Assemble the balance system from per-inflow turning ratios.

    ``shares[e]`` is the share of inflow street ``rows[e]`` routed to
    outflow street ``cols[e]``, and the shares of a repeated pair add up.
    Shares must be nonnegative, and those of each inflow street whose head
    has outflows must sum to 1.  The matrix then goes through
    :func:`network_from_matrix`, which checks the graph, the placement of
    every pair and the rank.

    Raises TopologyError for a ratio on an unknown street or on a street
    pair that does not meet, and RankError when the resulting balance
    matrix does not have rank n-1.
    """
    n = graph.n
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    cols = np.asarray(cols, dtype=np.int64).reshape(rows.shape)
    shares = np.asarray(shares, dtype=float).reshape(rows.shape)
    known = (rows >= 0) & (rows < n) & (cols >= 0) & (cols < n)
    bad = ~known | (shares < 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        j, k = int(rows[i]), int(cols[i])
        if not known[i]:
            raise TopologyError(f"turning ratio references unknown street pair ({j}, {k})")
        raise ValueError(f"turning ratio for ({j}, {k}) is negative")

    # A street whose head intersection has outflows must split all of it.
    has_outflow = np.isin(graph.head, graph.tail)
    row_sums = np.bincount(rows, shares, minlength=n)
    bad_rows = np.nonzero(has_outflow & (np.abs(row_sums - 1.0) > 1e-9))[0]
    if bad_rows.size:
        raise ValueError(f"outflow shares of inflow streets {bad_rows.tolist()} do not sum to 1")
    return network_from_matrix(graph, scipy.sparse.coo_array((shares, (rows, cols)), shape=(n, n)))


def network_from_matrix(graph: StreetGraph, Q) -> FlowNetwork:
    """Build a network from an explicit ratio matrix.

    ``Q`` may be dense or any ``scipy.sparse`` matrix; it is stored as a
    canonical CSR array, with duplicate entries of a sparse input summed.
    This is the one way into the ITS layer: it checks the street graph,
    that every stored entry, zero or not, links streets meeting
    head-to-tail (TopologyError otherwise), that every entry, once
    duplicates are summed, is a finite nonnegative share (ValueError
    otherwise), and the rank invariant.  Row normalisation is not required
    here, so externally authored conventions remain loadable.
    """
    _check_structure(graph)
    n = graph.n
    if not scipy.sparse.issparse(Q):
        Q = np.asarray(Q, dtype=float)
    if Q.shape != (n, n):
        raise ValueError(f"ratio matrix has shape {Q.shape}, expected {(n, n)}")
    Q = scipy.sparse.csr_array(Q, dtype=float, copy=True)
    Q.sum_duplicates()
    rows, cols, shares = csr_entries(Q)
    apart = np.nonzero(graph.head[rows] != graph.tail[cols])[0]
    if apart.size:
        j, k = int(rows[apart[0]]), int(cols[apart[0]])
        raise TopologyError(
            f"ratio matrix entry ({j}, {k}) links streets that do not meet head-to-tail"
        )
    bad = np.flatnonzero(~(np.isfinite(shares) & (shares >= 0.0)))
    if bad.size:
        j, k, share = int(rows[bad[0]]), int(cols[bad[0]]), float(shares[bad[0]])
        raise ValueError(
            f"ratio matrix entry ({j}, {k}) is {share!r}, not a finite nonnegative share"
        )
    Q.eliminate_zeros()
    net = FlowNetwork(graph, Q)
    net.null_vector  # factorise now so a rank failure surfaces at construction
    return net


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


def solve_flows(net: FlowNetwork, anchor: int, anchor_flow: float) -> np.ndarray:
    """All street flows given the flow on one anchor street."""
    if anchor_flow < 0.0:
        raise ValueError("anchor flow must be nonnegative")
    v = net.null_vector
    return anchor_flow * (v / _anchor_entries(net, [anchor])[0])
