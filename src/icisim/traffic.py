"""Street-network flow model.

A network of directed streets is balanced by a turning-ratio matrix:
``Q[r, c]`` is the share of the flow on street ``r`` that turns onto
street ``c`` where ``r`` ends, so the flow on a street is the sum of the
shares routed onto it.  Stacking one balance row per street gives
``q = Q^T q``, i.e. ``A q = 0`` with ``A = I - Q^T``: a balanced flow is
a stationary vector of the routing chain ``Q``.  ``Q`` and ``A`` are
sparse (CSR): each street meets only the few streets at its ends.

The shares of every street whose head has outflows sum to 1 (within
1e-9), and a street into a dead end has none, so every row of ``Q`` that
is not empty is stochastic.  For such a ``Q``, and so for ``Q^T``, the
eigenvalue 1 has as many independent eigenvectors as the support has
closed classes: strongly connected classes (Tarjan 1972) of more than one
street that no pair of the support leaves (Kemeny and Snell, *Finite
Markov Chains*, 1960; Meyer, *Matrix Analysis and Applied Linear Algebra*,
2000, §8.4).
So ``A`` has rank ``n - 1`` exactly when the support has one closed
class, a fact of the turning graph that needs no tolerance; otherwise
RankError names the count.  A generated network's support is one class.
The null space is then spanned by one vector ``v``, and every balanced
flow is a multiple of it.  ``v`` is positive on the closed class and
zero off it, since flow off the class drains away at dead ends and none
returns.

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
and the layout of the deflated block, in SuperLU's column order once
that has been found.  The numeric part, :func:`build_flow_matrix`, which
:func:`network_from_matrix` ends in, scatters the shares into that
layout, checks them and factors the block.  A later network on the
same pattern object factors the block with its columns already in the
stored order (``permc_spec="NATURAL"``), which skips the ordering and
leaves the same factors, pivots and null vector bit for bit.  (The one
exception is a diagonal entry that ties its column's largest: SuperLU
prefers the diagonal pivot then, and the permuted block's nominal
diagonal is another entry.  Generated shares leave no such ties.)  A
network's pattern is exactly the support of its ``Q``: every share must be
positive, since a zero would drop a pair and could change the classes.

A street is a pair of intersections, each numbered by its row in the
positions array; its geometry and length derive from their positions.
Flows are veh/h/lane, positions and lengths are km.  All objects here are
immutable after construction and safe for concurrent reads, except that a
graph keeps its derived arrays on first use, and a pattern its analysis
on first use and, by one assignment on its first factorisation, the block
layout in SuperLU's column order; two threads that get there at once both
find, and store, the same values.
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

    Street ``i`` runs straight from intersection ``tail[i]`` to ``head[i]``,
    and intersection ``k`` sits at ``positions[k]``.  Every array is a
    read-only copy of what was passed in.
    """

    tail: np.ndarray
    head: np.ndarray
    positions: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.tail)
        for name, value in (
            ("tail", np.array(self.tail, dtype=np.int64).reshape(n)),
            ("head", np.array(self.head, dtype=np.int64).reshape(n)),
            ("positions", np.array(self.positions, dtype=float).reshape(-1, 2)),
        ):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.tail)

    @cached_property
    def geometry(self) -> np.ndarray:
        """Read-only ``(x0, y0, x1, y1)`` of each street, tail to head;
        ValueError at the first street with an end that is no known
        intersection."""
        ends = np.stack((self.tail, self.head), axis=1)
        known = (ends >= 0) & (ends < len(self.positions))
        unknown = np.flatnonzero(~known.all(axis=1))
        if unknown.size:
            raise ValueError(f"street {unknown[0]} references an intersection with no position")
        geometry = self.positions[ends].reshape(-1, 4)
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
    with sorted column indices and no stored zeros, laid out as its
    ``pattern``, whose pairs are exactly the entries of ``Q``.
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
        """Balance matrix ``I - Q^T`` as a CSR array."""
        identity = scipy.sparse.csr_array(scipy.sparse.identity(self.n, format="csr"))
        return identity - self.Q.T.tocsr()

    @cached_property
    def null_vector(self) -> np.ndarray:
        """Unit-norm spanning vector of the one-dimensional null space of ``A``.

        Computed from one deflated sparse LU once the support is found to
        have one closed class, that is ``A`` to have rank ``n - 1``
        (RankError otherwise); every flow solution is a scalar multiple of
        this vector.  Its largest-magnitude entry is positive.
        """
        return _unit(self.pattern._analysis.null_vector(self.Q.data))


def _unit(v: np.ndarray) -> np.ndarray:
    """``v`` scaled to unit norm, with its largest-magnitude entry positive."""
    v /= np.linalg.norm(v)
    return v if v[np.argmax(np.abs(v))] > 0.0 else -v


def _row_bincount(index: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    """``np.bincount(index, row, minlength=length)`` of every row of
    ``weights`` over its batch axes, in one call.  ``index`` lies in
    ``0..length - 1``; each row's bins are offset past the last row's, and
    ``np.bincount`` adds each bin's weights in input order, so every row
    is bit for bit its own call."""
    batch = weights.shape[:-1]
    count = int(np.prod(batch))
    bins = (index + length * np.arange(count)[:, None]).reshape(-1)
    sums = np.bincount(bins, weights.reshape(-1), minlength=count * length)
    return sums.reshape(*batch, length)


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
    ``cols[e]``.  Construction checks the graph (ValueError, as
    :func:`_check_structure` reports) and raises TopologyError for the
    first triple, in triple order, that names an unknown street, and then,
    in row-major order, for the first pair that repeats and for the first
    whose streets do not meet head to tail.  ``indptr`` and ``indices`` are
    the canonical CSR layout of the pairs, and ``slot[e]`` is the entry
    that holds triple ``e``'s share, so ``cols[e]`` is
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
        # A stable sort, which is linear on an already sorted input such as
        # a loaded file's.
        keys = rows * n + cols
        order = np.argsort(keys, kind="stable")
        ordered, pair_rows, pair_cols = keys[order], rows[order], cols[order]
        repeated = np.flatnonzero(ordered[1:] == ordered[:-1])
        if repeated.size:
            j, k = int(pair_rows[repeated[0]]), int(pair_cols[repeated[0]])
            raise TopologyError(f"turning ratio pair ({j}, {k}) is repeated")
        slot = np.empty(len(keys), dtype=np.int32)
        slot[order] = np.arange(len(keys))
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
        """The deflated block at the first street of the support's closed
        class; RankError naming the count unless there is one.

        Ordered by the strongly connected classes of the support, ``A`` is
        block triangular.  A one-street class has the block ``[1]``, and a
        class that a pair leaves has a nonsingular block, since one of its
        rows inside the class sums to less than 1; each closed class adds
        one to the nullity (see the module docstring).
        """
        indptr, indices = self.indptr, self.indices
        n = self.graph.n
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
    """``I - Q^T`` without row and column ``k``, laid out once for every
    ``Q`` on one CSR support, and factored with the ordering and supernode
    settings the module docstring gives.

    ``layout`` is the block in CSC, ``(indptr, indices, source, order)``:
    entry ``e`` is ``-np.append(Q.data, -1.0)[source[e]]`` and column ``j``
    is the block's column ``order[j]``, or ``j`` while ``order`` is None.
    The first factorisation (``MMD_ATA``) swaps in the layout in SuperLU's
    column order, which every later one factors under ``NATURAL``.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, k: int) -> None:
        n = len(indptr) - 1
        rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
        # Deflate: with v[k] = 1 the other rows of A v = 0 read
        # (I - Q^T)[~k, ~k] y = Q[k, ~k]; indices past k shift down by one.
        kept = np.flatnonzero((rows != k) & (indices != k))
        block_rows, block_cols = indices[kept], rows[kept]
        block_rows -= block_rows > k
        block_cols -= block_cols > k
        diag = np.arange(n - 1, dtype=np.int32)
        # The diagonal takes the -1.0 past the end of Q.data.
        block = scipy.sparse.coo_array(
            (np.concatenate((np.full(n - 1, len(indices)), kept)).astype(np.int32),
             (np.concatenate((diag, block_rows)), np.concatenate((diag, block_cols)))),
            shape=(n - 1, n - 1),
        ).tocsc()
        into_rhs = np.flatnonzero((rows == k) & (indices != k))
        self.k = k
        self.layout = (block.indptr, block.indices, block.data, None)
        self.rhs_rows = indices[into_rhs] - (indices[into_rhs] > k)
        self.rhs_source = into_rhs

    def null_vector(self, data: np.ndarray) -> np.ndarray:
        """Null vector of ``I - Q^T`` scaled to ``v[k] = 1``."""
        k = self.k
        indptr, indices, source, order = self.layout
        m = len(indptr) - 1
        block = scipy.sparse.csc_array((-np.append(data, -1.0)[source], indices, indptr), (m, m))
        try:
            lu = splu(block, permc_spec="MMD_ATA" if order is None else "NATURAL",
                      relax=1, panel_size=1)
        except RuntimeError:  # SuperLU found an exactly zero pivot
            raise RankError(
                f"balance matrix has rank below {m}: without street {k} the balance "
                "equations are singular"
            ) from None
        rhs = np.zeros(m)
        rhs[self.rhs_rows] = data[self.rhs_source]
        y = lu.solve(rhs)
        if order is None:
            # Lay the columns out in SuperLU's order for every later factorisation.
            order = np.argsort(lu.perm_c)
            counts = np.diff(indptr)[order]
            take = np.repeat(indptr[order] - np.cumsum(counts) + counts, counts)
            take += np.arange(len(take))
            self.layout = (np.append(0, np.cumsum(counts)), indices[take], source[take], order)
        else:
            y[order] = y.copy()
        return np.concatenate((y[:k], [1.0], y[k:]))


def _checked_data(pattern: FlowPattern, shares: np.ndarray) -> np.ndarray:
    """The ``Q.data`` rows of R rows of shares, (R, nnz), checked as
    :func:`build_flow_matrix` says in one pass over all rows; the first
    row that fails raises the error its own build would."""
    n, R = pattern.graph.n, len(shares)
    if shares.shape[1:] != pattern.rows.shape:
        raise ValueError(f"expected {pattern.nnz} turning shares, one per pair, got {shares.size}")
    data = np.empty((R, pattern.nnz))
    data[:, pattern.slot] = shares
    bad = ~(np.isfinite(data) & (data > 0.0))
    row_sums = _row_bincount(pattern.rows, shares, n)
    leaky = pattern.has_outflow & (np.abs(row_sums - 1.0) > 1e-9)
    failed = np.flatnonzero(bad.any(axis=1) | leaky.any(axis=1))
    if failed.size:
        r = failed[0]
        if bad[r].any():
            e = np.flatnonzero(bad[r])[0]
            j = int(np.searchsorted(pattern.indptr, e, side="right")) - 1
            raise ValueError(
                f"ratio matrix entry ({j}, {int(pattern.indices[e])}) is {float(data[r, e])!r}, "
                "not a finite positive share"
            )
        raise ValueError(
            f"outflow shares of inflow streets {np.flatnonzero(leaky[r]).tolist()} do not sum to 1"
        )
    return data


def build_flow_matrix(pattern: FlowPattern, shares) -> FlowNetwork:
    """Assemble the balance system from per-inflow turning ratios, factorised.

    ``shares[e]`` is the share of inflow street ``pattern.rows[e]`` routed
    to outflow street ``pattern.cols[e]``.  Every share must be finite and
    positive (ValueError at the first that is not, in row-major order), and
    the shares of each inflow street whose head has outflows must sum to 1
    within 1e-9 (ValueError listing the streets whose shares do not).
    The pattern has checked the graph and the placement of every pair;
    RankError when the resulting balance matrix does not have rank n-1.
    The shares are checked as the one row of :func:`null_vectors`.
    """
    n = pattern.graph.n
    shares = np.asarray(shares, dtype=float).reshape(1, -1)
    data = _checked_data(pattern, shares)[0]
    Q = scipy.sparse.csr_array((data, pattern.indices, pattern.indptr), shape=(n, n))
    net = FlowNetwork(pattern, Q)
    net.null_vector  # factorise now so a rank failure surfaces at construction
    return net


def null_vectors(pattern: FlowPattern, shares) -> np.ndarray:
    """The unit null vectors, (R, n), of the networks of R rows of shares
    (R, nnz) on ``pattern``, each bit for bit its network's ``null_vector``.

    All rows are checked in one pass, as :func:`build_flow_matrix` checks
    one; the first row at fault raises its own build's error.  Each row's
    block is then factored in turn, one ``splu`` per row, and no network
    object is built.
    """
    data = _checked_data(pattern, np.asarray(shares, dtype=float))
    v = np.empty((len(data), pattern.graph.n))
    for r, row in enumerate(data):
        v[r] = _unit(pattern._analysis.null_vector(row))
    return v


def network_from_matrix(graph: StreetGraph, Q) -> FlowNetwork:
    """Build a network from an explicit ratio matrix.

    ``Q`` may be dense or any ``scipy.sparse`` matrix; it is stored as a
    canonical CSR array.  This is the way into the ITS layer for a loaded
    file: the entries of ``Q`` as a COO array, the nonzeros of a dense
    matrix and every stored entry of a sparse one, form a
    :class:`FlowPattern`, which checks the street graph, that no entry
    repeats and that each links streets meeting head-to-tail (TopologyError
    otherwise); their values go to :func:`build_flow_matrix`.
    """
    if np.shape(Q) != (graph.n, graph.n):
        raise ValueError(f"ratio matrix has shape {np.shape(Q)}, expected {(graph.n, graph.n)}")
    Q = scipy.sparse.coo_array(Q)
    return build_flow_matrix(FlowPattern(graph, Q.row, Q.col), Q.data)


def _anchor_entries(v: np.ndarray, streets: Sequence[int]) -> np.ndarray:
    """Entries ``v[..., i]`` of the requested streets, for a null vector
    ``v`` or a stack of them along leading axes.

    Raises SingularError for a street whose entry vanishes, against its
    own vector's largest, since no balanced state moves its flow; the
    first vector at fault names its first such street.
    """
    idx = np.asarray(streets, dtype=int)
    entries = v[..., idx]
    vmax = np.max(np.abs(v), axis=-1, keepdims=True)
    small = np.abs(entries) < 1e-9 * vmax
    if small.any():
        rows = small.reshape(-1, len(idx))
        bad = idx[rows[np.flatnonzero(rows.any(axis=1))[0]]][0]
        raise SingularError(f"reduced system for street {bad} is numerically singular")
    return entries
