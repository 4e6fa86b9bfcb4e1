"""Street-network flow model.

A network of directed streets is balanced by a turning-ratio matrix: the
flow entering an intersection along one street equals a weighted sum of
the flows leaving that intersection.  Stacking one balance row per street
gives ``q = Q q``, i.e. ``A q = 0`` with ``A = I - Q``.  ``Q`` and ``A``
are sparse (CSR): each street meets only the few streets at its ends.

The shares of every street whose head has outflows sum to 1 (within
1e-9), and a street into a dead end has none, so every row of ``Q`` that
is not empty is stochastic.  For such a ``Q`` the eigenvalue 1 has as
many independent eigenvectors as the support has closed classes:
strongly connected classes (Tarjan 1972) of more than one street that no
pair of the support leaves (Kemeny and Snell, *Finite Markov Chains*,
1960; Meyer, *Matrix Analysis and Applied Linear Algebra*, 2000, §8.4).
So ``A`` has rank ``n - 1`` exactly when the support has one closed
class, a fact of the turning graph that needs no tolerance; otherwise
RankError names the count.  A generated network's support is one class.
The null space is then spanned by one vector ``v``, and every balanced
flow is a multiple of it.

``v`` comes from one deflated sparse LU (Stewart, *Introduction to the
Numerical Solution of Markov Chains*, 1994).  Fix ``v[k] = 1`` for the
first street ``k`` of the closed class and solve the remaining
(n-1)-block of ``A`` for the other entries.  Every class of that block
leaks, so it is a nonsingular M-matrix.  Fixing the flow on an anchor
street ``i`` then gives ``q = q_i v / v[i]``.

SuperLU orders the columns of that block ``B`` by minimum degree on
``B^T B`` (``MMD_ATA``; George and Liu, SIAM Rev. 31, 1989), which leaves
about a fifth less fill than its default ``COLAMD`` at grid 30 and a third
less at grid 200.  Relaxed supernodes and panels are turned off
(``relax=1``, ``panel_size=1``): a street meets only a few others, so the
supernodes (Demmel et al., SIAM J. Matrix Anal. Appl. 20, 1999) are a few
columns wide, and padding them to the default sizes costs more than it
saves.  The two settings take the grid-30 LU from about 12 to 7.6 ms.
Pivoting stays partial: diagonal pivoting under a symmetric ordering
leaves 2.1-2.6 times the fill at grids 100-200.

A network is built in two parts, the way sparse direct solvers analyse a
pattern once and refactor it for new values (KLU; Davis and Palamadai
Natarajan, ACM TOMS 37(3), 2010).  A :class:`FlowPattern` holds what the
street graph and the turning support fix: the graph and head-to-tail
checks, the CSR layout of ``Q``, the closed class and its street ``k``,
the layout of the deflated block and, once that has been factored,
SuperLU's column order.  The numeric part, which
:func:`build_flow_matrix` and :func:`network_from_matrix` both end in,
scatters the shares into that layout, checks them and factors the block.
A later network on the same pattern object factors the block with its
columns already in the stored order (``permc_spec="NATURAL"``), which
skips the ordering and leaves the same factors, pivots and null vector
bit for bit.  (The one exception is a diagonal entry that ties its
column's largest: SuperLU prefers the diagonal pivot then, and the
permuted block's nominal diagonal is another entry.  Generated shares
leave no such ties.)  A network that lost a pair to an exact zero share
is analysed for itself, since that can change the classes.

A street is a pair of intersections; its geometry and length derive from
their positions.  Flows are veh/h/lane, positions and lengths are km.  All
objects here are immutable after construction and safe for concurrent
reads, except that a graph keeps its derived arrays on first use and a
pattern its column order on its first factorisation; two threads that get
there at once both find, and store, the same values.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field
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


@dataclass(frozen=True, eq=False)
class StreetGraph:
    """Directed street graph held as arrays; street ``i`` is row ``i``.

    Street ``i`` runs straight from intersection ``tail[i]`` to ``head[i]``.
    Intersection ``node_ids[k]`` sits at ``positions[k]``; the ids are
    stored sorted and unique, and a repeated id keeps its last position.
    Every array is a read-only copy of what was passed in.
    """

    tail: np.ndarray
    head: np.ndarray
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
            ("node_ids", node_ids),
            ("positions", positions),
        ):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.tail)

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Each street's tail and head as rows of ``positions``, shape (n, 2),
        and whether both are known intersections; an unknown end is row 0."""
        ends = np.stack((self.tail, self.head), axis=1)
        at = np.searchsorted(self.node_ids, ends)
        found = at < len(self.node_ids)
        found[found] = self.node_ids[at[found]] == ends[found]
        return np.where(found, at, 0), found.all(axis=1)

    @cached_property
    def geometry(self) -> np.ndarray:
        """Read-only ``(x0, y0, x1, y1)`` of each street, tail to head."""
        rows, known = self.ends
        if not known.all():
            k = int(np.argmin(known))
            raise ValueError(f"street {k} references an intersection with no position")
        geometry = self.positions[rows].reshape(-1, 4)
        geometry.flags.writeable = False
        return geometry

    @cached_property
    def length(self) -> np.ndarray:
        """Read-only length of each street's ``geometry``."""
        length = np.hypot(*(self.geometry[:, 2:] - self.geometry[:, :2]).T)
        length.flags.writeable = False
        return length


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """Street graph plus its sparse turning-ratio matrix ``Q``.

    ``Q[r, c]`` is the share linking inflow street ``r`` to outflow street
    ``c`` at the intersection ``head(r) == tail(c)``.  ``Q`` is a CSR array
    with sorted column indices and no stored zeros, on the support of the
    ``pattern`` it was built on, less any pair whose share is exactly 0.
    Networks come from :func:`build_flow_matrix` and
    :func:`network_from_matrix`.
    """

    pattern: FlowPattern
    Q: scipy.sparse.csr_array

    @property
    def graph(self) -> StreetGraph:
        return self.pattern.graph

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

        Computed from one deflated sparse LU once the support is found to
        have one closed class, that is ``A`` to have rank ``n - 1``
        (RankError otherwise); every flow solution is a scalar multiple of
        this vector.  Its largest-magnitude entry is positive.
        """
        Q, pattern = self.Q, self.pattern
        # Q lies on the pattern's support, so with as many entries it has that support.
        block = pattern._analysis if Q.nnz == pattern.nnz else _analyse(Q.indptr, Q.indices)
        v = block.null_vector(Q.data)
        v /= np.linalg.norm(v)
        return v if v[np.argmax(np.abs(v))] > 0.0 else -v


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
    """Raise ValueError at the first street that starts where it ends, and
    then at the first with an end that is no known intersection."""
    loops = np.flatnonzero(graph.tail == graph.head)
    if loops.size:
        k = loops[0]
        raise ValueError(f"street {k} starts and ends at intersection {graph.tail[k]}")
    graph.geometry  # raises for an unknown end


@dataclass(frozen=True, eq=False)
class FlowPattern:
    """A street graph and the support of its turning ratios, checked and
    laid out once for every set of shares on them.

    Triple ``e`` routes inflow street ``rows[e]`` to outflow street
    ``cols[e]``; a pair may repeat.  Construction checks the graph
    (ValueError, as :func:`_check_structure` reports) and raises
    TopologyError for the first triple, in triple order, that names an
    unknown street, and then for the first pair, in row-major order, whose
    streets do not meet head to tail.  ``indptr`` and ``indices`` are the
    canonical CSR layout of the pairs, and ``slot[e]`` is the entry that
    triple ``e`` adds its share to, so ``cols[e]`` is
    ``indices[slot[e]]``.  ``rows`` and the layout are read-only int32
    arrays, kept small because every network holds its pattern.
    """

    graph: StreetGraph
    rows: np.ndarray
    cols: InitVar[np.ndarray]
    slot: np.ndarray = field(init=False, repr=False)
    indptr: np.ndarray = field(init=False, repr=False)
    indices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, cols) -> None:
        graph = self.graph
        _check_structure(graph)
        n = graph.n
        rows = np.asarray(self.rows, dtype=np.int64).reshape(-1)
        cols = np.asarray(cols, dtype=np.int64).reshape(rows.shape)
        if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
            e = np.flatnonzero((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n))[0]
            raise TopologyError(
                f"turning ratio references unknown street pair ({rows[e]}, {cols[e]})"
            )
        # np.unique(keys, return_inverse=True), with a stable sort, which is
        # linear on an already sorted input such as a loaded file's.
        keys = rows * n + cols
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        slot = np.empty(len(keys), dtype=np.int32)
        slot[order] = np.cumsum(first) - 1
        pair_rows, pair_cols = rows[order[first]], cols[order[first]]
        apart = np.flatnonzero(graph.head[pair_rows] != graph.tail[pair_cols])
        if apart.size:
            j, k = int(pair_rows[apart[0]]), int(pair_cols[apart[0]])
            raise TopologyError(
                f"ratio matrix entry ({j}, {k}) links streets that do not meet head-to-tail"
            )
        indptr = np.append(0, np.cumsum(np.bincount(pair_rows, minlength=n)))
        for name, value in (
            ("rows", rows.astype(np.int32)),
            ("slot", slot),
            ("indptr", indptr.astype(np.int32)),
            ("indices", pair_cols.astype(np.int32)),
        ):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @cached_property
    def has_outflow(self) -> np.ndarray:
        """Whether each street's head intersection has outflows, so that
        its shares must sum to 1."""
        return np.isin(self.graph.head, self.graph.tail)

    @cached_property
    def _analysis(self) -> _DeflatedBlock:
        return _analyse(self.indptr, self.indices)


def _analyse(indptr: np.ndarray, indices: np.ndarray) -> _DeflatedBlock:
    """The deflated block of a CSR support of ``Q`` at the first street of
    its closed class; RankError naming the count unless there is one.

    Ordered by the strongly connected classes of the support, ``A`` is
    block triangular.  A one-street class has the block ``[1]``, and a
    class that a pair leaves has a nonsingular block, since one of its
    rows inside the class sums to less than 1; each closed class adds one
    to the nullity (see the module docstring).
    """
    n = len(indptr) - 1
    support = scipy.sparse.csr_array((np.ones(len(indices)), indices, indptr), shape=(n, n))
    _, labels = connected_components(support, directed=True, connection="strong")
    inflow_class = labels[np.repeat(np.arange(n), np.diff(indptr))]
    closed = np.bincount(labels) > 1
    closed[inflow_class[inflow_class != labels[indices]]] = False
    count = int(closed.sum())
    if count != 1:
        raise RankError(
            f"the turning support has {count} closed classes, so the balance matrix "
            f"has rank {n - count}, expected {n - 1}"
        )
    return _DeflatedBlock(indptr, indices, int(np.argmax(labels == np.argmax(closed))))


class _DeflatedBlock:
    """``I - Q`` without row and column ``k``, laid out once for every
    ``Q`` on one CSR support, and factored with the ordering and supernode
    settings the module docstring gives.

    The first factorisation orders the columns by ``MMD_ATA`` and keeps
    SuperLU's column order; a later one factors the block with its columns
    already in that order, under ``NATURAL``.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, k: int) -> None:
        n = len(indptr) - 1
        rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
        # Deflate: with v[k] = 1 the other rows of A v = 0 read
        # (I - Q)[~k, ~k] y = Q[~k, k]; indices past k shift down by one.
        kept = np.flatnonzero((rows != k) & (indices != k))
        block_rows, block_cols = rows[kept], indices[kept]
        block_rows -= block_rows > k
        block_cols -= block_cols > k
        diag = np.arange(n - 1, dtype=np.int32)
        # The block in CSC, holding for each entry its position in
        # np.append(Q.data, -1.0): the diagonal takes the -1.0.
        layout = scipy.sparse.coo_array(
            (np.concatenate((np.full(n - 1, len(indices)), kept)).astype(np.int32),
             (np.concatenate((diag, block_rows)), np.concatenate((diag, block_cols)))),
            shape=(n - 1, n - 1),
        ).tocsc()
        into_rhs = np.flatnonzero((rows != k) & (indices == k))
        self.k = k
        self.indptr, self.indices, self.source = layout.indptr, layout.indices, layout.data
        self.rhs_rows = rows[into_rhs] - (rows[into_rhs] > k)
        self.rhs_source = into_rhs
        # SuperLU's column order, from the first factorisation.
        self.perm_c: np.ndarray | None = None
        self._ordered: tuple[np.ndarray, ...] | None = None

    def _ordered_layout(self) -> tuple[np.ndarray, ...]:
        """The block with its columns in the stored order: the order, the
        block's ``indptr`` and ``indices``, and each entry's place in the
        natural layout."""
        if self._ordered is None:
            order = np.argsort(self.perm_c)
            counts = np.diff(self.indptr)[order]
            take = np.repeat(self.indptr[order] - np.cumsum(counts) + counts, counts)
            take += np.arange(len(take))
            self._ordered = (order, np.append(0, np.cumsum(counts)), self.indices[take], take)
        return self._ordered

    def factor(self, data: np.ndarray) -> tuple[scipy.sparse.linalg.SuperLU, np.ndarray | None]:
        """SuperLU factors of the block of ``Q.data``, and the column order
        applied to the block before it was factored (None on the first
        factorisation, which finds and keeps SuperLU's order).
        """
        m = len(self.indptr) - 1
        values = -np.append(data, -1.0)[self.source]
        order = None
        try:
            if self.perm_c is None:
                block = scipy.sparse.csc_array((values, self.indices, self.indptr), shape=(m, m))
                lu = splu(block, permc_spec="MMD_ATA", relax=1, panel_size=1)
                # A copy: ``lu.perm_c`` is a view that keeps the factors alive.
                self.perm_c = lu.perm_c.copy()
            else:
                order, indptr, indices, take = self._ordered_layout()
                block = scipy.sparse.csc_array((values[take], indices, indptr), shape=(m, m))
                lu = splu(block, permc_spec="NATURAL", relax=1, panel_size=1)
        except RuntimeError:  # SuperLU found an exactly zero pivot
            raise RankError(
                f"balance matrix has rank below {m}: without street {self.k} the balance "
                "equations are singular"
            ) from None
        return lu, order

    def null_vector(self, data: np.ndarray) -> np.ndarray:
        """Null vector of ``I - Q`` scaled to ``v[k] = 1``."""
        k = self.k
        lu, order = self.factor(data)
        rhs = np.zeros(len(self.indptr) - 1)
        rhs[self.rhs_rows] = data[self.rhs_source]
        y = lu.solve(rhs)
        if order is not None:
            y[order] = y.copy()
        return np.concatenate((y[:k], [1.0], y[k:]))


def _network(pattern: FlowPattern, shares: np.ndarray) -> FlowNetwork:
    """The network of one share per triple of ``pattern``, factorised.

    The shares of a repeated pair add up, and every sum must be a finite
    nonnegative share (ValueError at the first that is not, in row-major
    order); a pair whose sum is exactly 0 is left out of ``Q``.  The
    shares of each inflow street whose head has outflows must sum to 1
    within 1e-9 (ValueError listing the streets whose shares do not).
    """
    n = pattern.graph.n
    data = np.bincount(pattern.slot, shares, minlength=pattern.nnz)
    bad = np.flatnonzero(~(np.isfinite(data) & (data >= 0.0)))
    if bad.size:
        e = bad[0]
        j = int(np.searchsorted(pattern.indptr, e, side="right")) - 1
        raise ValueError(
            f"ratio matrix entry ({j}, {int(pattern.indices[e])}) is {float(data[e])!r}, "
            "not a finite nonnegative share"
        )
    row_sums = np.bincount(pattern.rows, shares, minlength=n)
    bad_rows = np.flatnonzero(pattern.has_outflow & (np.abs(row_sums - 1.0) > 1e-9))
    if bad_rows.size:
        raise ValueError(f"outflow shares of inflow streets {bad_rows.tolist()} do not sum to 1")
    Q = scipy.sparse.csr_array((data, pattern.indices, pattern.indptr), shape=(n, n), copy=True)
    if not data.all():
        Q.eliminate_zeros()
    net = FlowNetwork(pattern, Q)
    net.null_vector  # factorise now so a rank failure surfaces at construction
    return net


def build_flow_matrix(pattern: FlowPattern, shares) -> FlowNetwork:
    """Assemble the balance system from per-inflow turning ratios.

    ``shares[e]`` is the share of inflow street ``pattern.rows[e]`` routed
    to outflow street ``pattern.cols[e]``, and the shares of a repeated
    pair add up.  Shares must be nonnegative, and those of each inflow
    street whose head has outflows must sum to 1 (ValueError otherwise).
    The pattern has checked the graph and the placement of every pair;
    RankError when the resulting balance matrix does not have rank n-1.
    """
    rows = pattern.rows
    shares = np.asarray(shares, dtype=float).reshape(-1)
    if shares.shape != rows.shape:
        raise ValueError(f"expected {rows.size} turning shares, one per pair, got {shares.size}")
    negative = np.flatnonzero(shares < 0.0)
    if negative.size:
        e = negative[0]
        j, k = int(rows[e]), int(pattern.indices[pattern.slot[e]])
        raise ValueError(f"turning ratio for ({j}, {k}) is negative")
    return _network(pattern, shares)


def network_from_matrix(graph: StreetGraph, Q) -> FlowNetwork:
    """Build a network from an explicit ratio matrix.

    ``Q`` may be dense or any ``scipy.sparse`` matrix; it is stored as a
    canonical CSR array, with duplicate entries of a sparse input summed.
    This is the way into the ITS layer for a loaded file: its stored
    entries, zero or not, form a :class:`FlowPattern`, which checks the
    street graph and that each entry links streets meeting head-to-tail
    (TopologyError otherwise); every entry, once duplicates are summed,
    must be a finite nonnegative share, and the shares of each inflow
    street whose head has outflows must sum to 1 (ValueError otherwise);
    RankError when the balance matrix does not have rank n-1.
    """
    n = graph.n
    if scipy.sparse.issparse(Q):
        Q = scipy.sparse.coo_array(Q)
    else:
        Q = np.asarray(Q, dtype=float)
    if Q.shape != (n, n):
        raise ValueError(f"ratio matrix has shape {Q.shape}, expected {(n, n)}")
    if isinstance(Q, np.ndarray):
        rows, cols = np.nonzero(Q)
        shares = Q[rows, cols]
    else:
        rows, cols, shares = Q.row, Q.col, np.asarray(Q.data, dtype=float)
    return _network(FlowPattern(graph, rows, cols), shares)


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
