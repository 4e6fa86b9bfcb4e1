"""Seeded scenario generation and the scenario file format.

A scenario bundles one of each ingredient: a square street grid with
sampled turning ratios, a hexagonal cell tiling with its coverage map,
uniformly placed generator sites wired to nearby stations by their supply
shares, and the resulting impact model.  Generation is deterministic per
seed: each random component (turning ratios, generator placement,
connection counts) draws from its own numbered PCG64 stream, so changing
how many draws one component makes never perturbs the others.  Streams
are numbered from 1; the topology is deterministic and draws none.
:func:`generate` builds the layers in turn -- :func:`build_streets` (the
street grid and its turning support, as a
:class:`~icisim.traffic.FlowPattern`), :func:`build_its` (seeded turning
shares on those streets, flows), :func:`build_ci` (tiling, the
:class:`~icisim.coverage.Stations` table, coverage) and :func:`build_pg`
(generator sites, supply shares) -- and :func:`assemble` adds the impact
model.  Each builder reads only the config fields named in its
``*_FIELDS`` tuple, so a caller building many configs can reuse a layer
across configs that agree on those fields.  The street layer is the one
no seed changes: :func:`generate` builds it afresh, and a caller that
keeps it, as the experiment runners do for their replicas, has each
further ITS layer on it only draw shares and refactor the balance block
with the street layer's stored analysis.  Generation and loading check
and lay out the ITS layer the same way, through a
:class:`~icisim.traffic.FlowPattern`, and build the other two with
:func:`~icisim.coverage.build_coverage` and
:func:`~icisim.power.build_assignment`.

Scenario files are plain text with a versioned header and ``[config]``,
``[its]``, ``[ci]`` and ``[pg]`` sections, and format v3 holds inputs only;
floats are written with ``repr`` so they round-trip exactly.  Every section
after ``[config]`` is made of counted blocks, each written from whole
arrays, one line per row.  Turning ratios and supply links are blocks of
``row column value`` lines holding the nonzero entries in row-major order.
The loader reads each counted numeric block in one ``np.loadtxt`` pass,
and a repeated (row, column) pair keeps its last value.  Every number,
``[config]`` values included, must be a token ``np.loadtxt`` reads: ASCII,
no ``_`` digit separators, and finite if a float.  Coverage and the impact
model are derived, so they are not written: loading rebuilds them.  So is
a street's geometry, from its intersections' positions: a ``streets`` row
is ``id tail head``, and a v2 or v1 row's length and geometry are checked
against the positions to 1e-9 and dropped.  A v1
file also holds a ``coverage`` block of (street, station, km) lines, which
must match the rebuild to 1e-9 km.  Older files may end with an
``[impact]`` section of stored scores and vectors; its counts, station ids
and values are checked, and it is otherwise ignored.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NoReturn, Sequence

import numpy as np
import scipy.sparse

from .coverage import (
    CoverageMap, Stations, _ranges, build_coverage, coverage_from_lengths, hex_tiling,
)
from .errors import FormatError, IcisimError
from .game import GameInstance
from .impact import ImpactModel, build_impact_model
from .power import PowerAssignment, build_assignment
from .traffic import (
    FlowNetwork,
    FlowPattern,
    StreetGraph,
    build_flow_matrix,
    csr_entries,
    csr_equal,
    network_from_matrix,
)

FILE_HEADER = "icisim scenario v3"
_V2_HEADER = "icisim scenario v2"
_V1_HEADER = "icisim scenario v1"

# Stream indices for per-component PCG64 seeding.
_STREAM_RATIOS = 1
_STREAM_GENERATORS = 2
_STREAM_CONNECTIONS = 3


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of a generated scenario; all dimensions in km and watts.

    ``bs_per_generator_range`` bounds each generator's drawn connection
    count; the default ``None`` scales it with the station-to-generator
    ratio (1 to ``ceil(2B / G)``) so that adding generators shrinks each
    one's footprint.
    """

    grid_n: int = 5
    street_length: float = 1.0
    cell_radius: float = 1.0
    num_generators: int = 3
    p_activation: float = 100.0
    power_ratio: float = 2.0
    budget: float = 100.0
    seed: int = 0
    bs_per_generator_range: tuple[int, int] | None = None
    delta: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and type(value) is not int:  # so a bool fails too
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float":
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ValueError(f"{f.name} must be a number, got {value!r}")
                if not math.isfinite(value):
                    raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.grid_n < 2:
            raise ValueError("grid_n must be at least 2")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.street_length <= 0.0 or self.cell_radius <= 0.0:
            raise ValueError("street length and cell radius must be positive")
        if self.num_generators < 1:
            raise ValueError("need at least one generator")
        if self.power_ratio <= 1.0:
            raise ValueError("power ratio must exceed 1")
        if self.p_activation <= 0.0:
            raise ValueError("activation power must be positive")
        bounds = self.bs_per_generator_range
        if bounds is not None:
            if not (
                type(bounds) is tuple and len(bounds) == 2
                and all(type(end) is int for end in bounds)
            ):
                raise ValueError("bs_per_generator_range must be a pair of integers")
            lo, hi = bounds
            if not 1 <= lo <= hi:
                raise ValueError("bs_per_generator_range must satisfy 1 <= min <= max")
        if self.budget < 0.0:
            raise ValueError("budget must be nonnegative")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")

    @property
    def p_full(self) -> float:
        return self.power_ratio * self.p_activation

    @property
    def extent(self) -> float:
        """Side length of the square covered by the street grid."""
        return (self.grid_n - 1) * self.street_length


@dataclass(frozen=True, eq=False)
class Scenario:
    """One fully wired instance of the three coupled infrastructures.

    ``generators`` holds the (G, 2) generator sites, read-only because
    layers are shared across scenarios; their supply lines are the positive
    entries of ``assignment.T``.
    """

    config: ScenarioConfig
    network: FlowNetwork
    base_stations: Stations
    coverage: CoverageMap
    generators: np.ndarray
    assignment: PowerAssignment
    impact: ImpactModel

    def game_instance(self) -> GameInstance:
        """The scenario's one game instance, built on first use."""
        return self._game_instance

    @cached_property
    def _game_instance(self) -> GameInstance:
        return GameInstance(self.impact, self.assignment)


def _rng(seed: int, stream: int) -> np.random.Generator:
    # The spawn key's leading 0 is fixed: another value would change every
    # seed's draws, and so every generated file.
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(0, stream)))
    )


def _grid_topology(config: ScenarioConfig) -> StreetGraph:
    """Square grid with every undirected edge doubled into two streets.

    Node ``iy * g + ix`` sits at ``(ix, iy)`` times the street length.  Each
    node opens its edge to the right and then the one upwards, and edge
    ``e`` gives street ``2e`` running low-to-high node id and ``2e + 1``,
    its reverse, so the reverse of street ``s`` is always ``s ^ 1``.
    """
    g = config.grid_n
    node = np.arange(g * g)
    ix, iy = node % g, node // g
    positions = np.stack((ix * config.street_length, iy * config.street_length), axis=1)
    opens = np.stack((ix + 1 < g, iy + 1 < g), axis=1)
    low = np.broadcast_to(node[:, None], opens.shape)[opens]
    high = (node[:, None] + np.array([1, g]))[opens]
    tail = np.stack((low, high), axis=1).reshape(-1)
    head = np.stack((high, low), axis=1).reshape(-1)
    return StreetGraph(tail, head, node, positions)


def _turning_support(graph: StreetGraph) -> tuple[np.ndarray, np.ndarray]:
    """The (inflow, outflow) pairs that get a turning share: each inflow's
    non-reversing outflows.

    At two-street (corner) intersections the only forward option is the
    reverse street, so there the reverse is kept in the support; this routes
    the flow back along the perimeter and keeps the whole network mixing.

    The pairs are ordered by intersection id, then inflow id, then outflow
    id: a stable sort of the streets by head lists the inflows in that
    order, and one by tail lists each intersection's outflows.
    """
    inflows = np.argsort(graph.head, kind="stable")
    by_tail = np.argsort(graph.tail, kind="stable")
    tails = graph.tail[by_tail]
    first = np.searchsorted(tails, graph.head[inflows], side="left")
    counts = np.searchsorted(tails, graph.head[inflows], side="right") - first
    # Every candidate (inflow, outflow) pair, inflow by inflow.
    group = np.repeat(np.arange(len(inflows)), counts)
    rows, cols = inflows[group], by_tail[_ranges(first, counts)]
    forward = cols != rows ^ 1
    keep = forward | (np.bincount(group, forward, minlength=len(inflows)) < 2)[group]
    return rows[keep], cols[keep]


def _sample_shares(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One turning share per pair of inflows ``rows``, as
    :func:`_turning_support` orders them.

    Each inflow's shares are a flat Dirichlet draw, made for all inflows
    at once: one ``standard_exponential`` draw over every pair in order,
    each pair's draw times the reciprocal of its inflow's sum.  An
    inflow's pairs are adjacent, and ``np.bincount`` adds each inflow's
    draws in order, which is the arithmetic of ``Generator.dirichlet`` with
    unit weights, so the shares are the same bits as one ``dirichlet`` call
    per inflow.
    """
    draws = rng.standard_exponential(len(rows))
    return draws * (1.0 / np.bincount(rows, draws))[rows]


def _place_generators(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    side = config.extent
    return rng.uniform(0.0, side, size=(config.num_generators, 2))


def _wire_generators(
    config: ScenarioConfig,
    positions: np.ndarray,
    stations: Stations,
    rng: np.random.Generator,
) -> np.ndarray:
    """Raw (B, G) supply weights: each generator wired to its k nearest
    stations, k drawn uniformly, ties to the lower station id.

    Stations left out by every draw are attached to their nearest generator,
    ties to the lower generator id, so that no station is dark by
    construction.  Weights fall off with distance, zero where no line
    exists, and are row-normalised later.
    """
    B = len(stations)
    G = config.num_generators
    centers = stations.center
    dists = np.hypot(
        centers[:, 0][:, None] - positions[:, 0][None, :],
        centers[:, 1][:, None] - positions[:, 1][None, :],
    )  # (B, G)
    if config.bs_per_generator_range is None:
        lo, hi = 1, max(1, -(-2 * B // G))
    else:
        lo, hi = config.bs_per_generator_range
    k = rng.integers(lo, hi + 1, size=G)
    # Each station's rank by distance from each generator.
    rank = np.argsort(np.argsort(dists, axis=0, kind="stable"), axis=0, kind="stable")
    wired = rank < k
    dark = np.flatnonzero(~wired.any(axis=1))
    wired[dark, np.argmin(dists[dark], axis=1)] = True
    return np.where(wired, 1.0 / np.maximum(dists, 1e-9), 0.0)


# The ScenarioConfig fields each layer builder reads.  The street layer
# depends only on STREET_FIELDS, which build_its and build_ci read too, so
# one CI layer serves every config that agrees on CI_FIELDS, whichever
# seed's network it was built with; the PG layer reads the stations as
# well, so it is determined by PG_FIELDS and CI_FIELDS together.
STREET_FIELDS = ("grid_n", "street_length")
ITS_FIELDS = ("grid_n", "street_length", "seed")
CI_FIELDS = ("grid_n", "street_length", "cell_radius", "p_activation", "power_ratio")
PG_FIELDS = ("grid_n", "street_length", "num_generators", "seed", "bs_per_generator_range")


def build_streets(config: ScenarioConfig) -> FlowPattern:
    """The street layer: the street grid and its turning support, checked
    once, and analysed on its first network, for the networks of every seed.

    The support of a grid forms one strongly connected component, so the
    balance matrix of every seed's shares has rank n-1.
    """
    graph = _grid_topology(config)
    return FlowPattern(graph, *_turning_support(graph))


def build_its(config: ScenarioConfig, streets: FlowPattern) -> FlowNetwork:
    """The ITS layer: seeded turning shares on ``streets`` and the flow network."""
    shares = _sample_shares(streets.rows, _rng(config.seed, _STREAM_RATIOS))
    return build_flow_matrix(streets, shares)


def build_ci(config: ScenarioConfig, graph: StreetGraph) -> tuple[Stations, CoverageMap]:
    """The CI layer: hex tiling of the grid's square, stations and coverage."""
    side = config.extent
    centers = hex_tiling(((0.0, 0.0), (side, side)), config.cell_radius)
    stations = Stations(centers, config.cell_radius, config.p_activation, config.p_full)
    return stations, build_coverage(graph, stations)


def build_pg(
    config: ScenarioConfig, stations: Stations
) -> tuple[np.ndarray, PowerAssignment]:
    """The PG layer: seeded generator sites, read-only, and their supply
    shares to ``stations``."""
    positions = _place_generators(config, _rng(config.seed, _STREAM_GENERATORS))
    positions.flags.writeable = False
    shares = _wire_generators(config, positions, stations, _rng(config.seed, _STREAM_CONNECTIONS))
    return positions, build_assignment(stations, shares)


def assemble(
    config: ScenarioConfig,
    network: FlowNetwork,
    ci: tuple[Stations, CoverageMap],
    pg: tuple[np.ndarray, PowerAssignment],
) -> Scenario:
    """The scenario of three built layers, with its impact model."""
    stations, coverage = ci
    generators, assignment = pg
    impact = build_impact_model(network, coverage, stations, config.delta)
    return Scenario(config, network, stations, coverage, generators, assignment, impact)


def generate(config: ScenarioConfig) -> Scenario:
    """Deterministically build a scenario from its config and seed."""
    network = build_its(config, build_streets(config))
    ci = build_ci(config, network.graph)
    return assemble(config, network, ci, build_pg(config, ci[0]))


# ---------------------------------------------------------------------------
# Serialisation


def _write_block(
    out: list[str],
    keyword: str,
    int_columns: Sequence[np.ndarray],
    float_columns: Sequence[np.ndarray],
) -> None:
    """Append one counted block, as :func:`_block` reads it back.

    The block is the line ``keyword count`` and then one line per row: its
    entries of ``int_columns`` and then those of ``float_columns``, floats
    written with ``repr`` so they read back exactly.
    """
    columns = [map(str, np.asarray(column).tolist()) for column in int_columns]
    columns += [map(repr, np.asarray(column, dtype=float).tolist()) for column in float_columns]
    out.append(f"{keyword} {len(int_columns[0])}")
    out.extend(map(" ".join, zip(*columns)))


def dumps(scenario: Scenario) -> str:
    """Render a scenario in the versioned text format."""
    cfg = scenario.config
    out: list[str] = [FILE_HEADER, "[config]"]
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "bs_per_generator_range":
            for end, bound in zip(("min", "max"), value or ("auto", "auto")):
                out.append(f"bs_per_generator_{end} = {bound}")
        else:
            out.append(f"{f.name} = {value if f.type == 'int' else repr(float(value))}")

    net, graph = scenario.network, scenario.network.graph
    out.append("[its]")
    _write_block(out, "intersections", (graph.node_ids,), graph.positions.T)
    _write_block(out, "streets", (np.arange(net.n), graph.tail, graph.head), ())
    rows, cols, shares = csr_entries(net.Q)
    _write_block(out, "ratios", (rows, cols), (shares,))

    stations = scenario.base_stations
    out.append("[ci]")
    _write_block(
        out, "stations", (np.arange(len(stations)),),
        (*stations.center.T, stations.cell_radius, stations.p_activation, stations.p_full),
    )

    T = scenario.assignment.T
    rows, cols = np.nonzero(T)
    out.append("[pg]")
    _write_block(out, "generators", (np.arange(len(scenario.generators)),), scenario.generators.T)
    _write_block(out, "links", (rows, cols), (T[rows, cols],))
    return "\n".join(out) + "\n"


def save(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(scenario))


class _Reader:
    """Cursor over the non-blank lines of a file; reports the current section."""

    def __init__(self, text: str) -> None:
        self.lines = list(filter(None, map(str.strip, text.splitlines())))
        self.pos = 0
        self.section = "header"

    def next_line(self) -> str:
        if self.pos == len(self.lines):
            raise FormatError(f"file truncated inside section [{self.section}]")
        self.pos += 1
        return self.lines[self.pos - 1]

    def take(self, count: int) -> list[str]:
        """The next ``count`` lines, or all that are left if fewer."""
        block = self.lines[self.pos:self.pos + count]
        self.pos += len(block)
        return block

    def expect_section(self, name: str) -> None:
        try:
            line = self.next_line()
        except FormatError:
            raise FormatError(f"missing section [{name}]") from None
        if line != f"[{name}]":
            raise FormatError(f"missing section [{name}], found {line!r}")
        self.section = name

    def counted(self, keyword: str) -> int:
        line = self.next_line()
        parts = line.split()
        if len(parts) != 2 or parts[0] != keyword:
            raise FormatError(f"[{self.section}] expected '{keyword} <count>', found {line!r}")
        try:
            count = int(parts[1])
        except ValueError:
            raise FormatError(f"[{self.section}] bad count in {line!r}") from None
        if count < 0:
            raise FormatError(f"[{self.section}] negative count in {line!r}")
        return count

    def fields(self, count: int, what: str) -> list[str]:
        line = self.next_line()
        parts = line.split()
        if len(parts) != count:
            raise FormatError(
                f"[{self.section}] {what}: expected {count} fields, found {len(parts)}"
            )
        return parts

    def peek_is(self, line: str) -> bool:
        return self.pos < len(self.lines) and self.lines[self.pos] == line

    def at_end(self) -> bool:
        return self.pos == len(self.lines)


def _block(
    reader: _Reader,
    count: int,
    line: str,
    ints: Sequence[str],
    floats: Sequence[str],
    bounds: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The next ``count`` lines as an int64 and a float table, one row each.

    Each line holds ``len(ints)`` integer fields and then ``len(floats)``
    finite float fields; errors name the line ``line`` and each field by
    its entry in ``ints`` or ``floats``.  With ``bounds``, integer field k
    must lie in ``0..bounds[k] - 1``.  The block is read in one
    ``np.loadtxt`` pass; if that fails, :func:`_bad_line` names the first
    line at fault.
    """
    lines = reader.take(count)
    dtype = np.dtype([("i", np.int64, (len(ints),)), ("f", float, (len(floats),))])
    table = np.zeros(0, dtype)
    if count and len(lines) == count:
        try:
            with warnings.catch_warnings():
                # numpy 1.x reads "1.5" into an integer field as 1 and only warns.
                warnings.simplefilter("error", DeprecationWarning)
                table = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            pass
    index, values = table["i"], table["f"]
    if (
        len(table) == count
        and np.isfinite(values).all()
        and (bounds is None or ((index >= 0) & (index < bounds)).all())
    ):
        return index, values
    _bad_line(reader.section, lines, count, line, ints, floats, bounds)


def _token(section: str, name: str, kind: type, token: str) -> int | float:
    """``kind(token)``, for ``kind`` int or float, if ``np.loadtxt`` reads
    the token (ASCII, no ``_``) and a float is finite; otherwise a
    FormatError naming the field ``name`` of ``section``."""
    try:
        if not token.isascii() or "_" in token:
            raise ValueError
        value = kind(token)
    except ValueError:
        what = "integer" if kind is int else "float"
        raise FormatError(f"[{section}] {name}: bad {what} {token!r}") from None
    if kind is float and not math.isfinite(value):
        raise FormatError(f"[{section}] {name}: non-finite value {token!r}")
    return value


def _bad_line(
    section: str,
    lines: Sequence[str],
    count: int,
    line: str,
    ints: Sequence[str],
    floats: Sequence[str],
    bounds: Sequence[int] | None,
) -> NoReturn:
    """Raise the error for the first line of a block that :func:`_block` rejects.

    Lines are checked in file order, and each line's fields from left to
    right, with the index range check between the integer and the float
    fields.
    """
    width = len(ints) + len(floats)
    for text in lines:
        parts = text.split()
        if len(parts) != width:
            raise FormatError(f"[{section}] {line}: expected {width} fields, found {len(parts)}")
        index = []
        for token, name in zip(parts, ints):
            value = _token(section, name, int, token)
            if not -2**63 <= value < 2**63:
                raise FormatError(f"[{section}] {name}: bad integer {token!r}")
            index.append(value)
        if bounds is not None and not all(0 <= i < b for i, b in zip(index, bounds)):
            raise FormatError(
                f"[{section}] {line.split()[0]} indices ({', '.join(map(str, index))}) out of range"
            )
        for token, name in zip(parts[len(ints):], floats):
            _token(section, name, float, token)
    if len(lines) < count:
        raise FormatError(f"file truncated inside section [{section}]")
    raise FormatError(f"[{section}] unreadable {line} block")


def _by_id(reader: _Reader, ids: np.ndarray, rows: np.ndarray, what: str) -> np.ndarray:
    """``rows`` reordered so that the row of id k is row k; FormatError
    unless the ids are 0..n-1, one per row."""
    if not np.array_equal(np.sort(ids), np.arange(len(rows))):
        raise FormatError(
            f"[{reader.section}] {what} ids must be 0..{len(rows) - 1} with no gaps"
        )
    out = np.empty_like(rows)
    out[ids] = rows
    return out


# Counted keyword of each (row, column, value) block -> the names of its
# line, row, column and value in error messages; the first word of the
# line name also names its indices.
_ENTRY_BLOCKS = {
    "ratios": ("ratio", "ratio row", "ratio column", "ratio value"),
    "coverage": ("coverage entry", "coverage street", "coverage station", "covered length"),
    "links": ("link", "link station", "link generator", "link share"),
}


def _entries(reader: _Reader, keyword: str, shape: tuple[int, int]) -> scipy.sparse.coo_array:
    """One counted block of ``row column value`` lines as a COO array.

    Indices must lie within ``shape``; a repeated (row, column) pair keeps
    its last value.
    """
    line, row_name, col_name, value_name = _ENTRY_BLOCKS[keyword]
    index, values = _block(
        reader, reader.counted(keyword), line, (row_name, col_name), (value_name,), shape
    )
    # Stable, so the lines of a repeated pair stay in file order.
    order = np.lexsort((index[:, 1], index[:, 0]))
    rows, cols = index[order].T
    last = np.ones(order.size, dtype=bool)
    last[:-1] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    return scipy.sparse.coo_array((values[order[last], 0], (rows[last], cols[last])), shape=shape)


def _skip_impact_block(reader: _Reader, keyword: str, n_stations: int, width: int) -> None:
    """Check and pass over one ``[impact]`` block of a legacy file:
    ``width`` finite values for each station id."""
    count = reader.counted(keyword)
    if count != n_stations:
        raise FormatError(f"[impact] {keyword} count {count} != station count {n_stations}")
    ids, rows = _block(
        reader, count, keyword, (f"{keyword} station",), (f"{keyword} value",) * width
    )
    _by_id(reader, ids[:, 0], rows, f"{keyword} station")


def _street_graph(
    ints: np.ndarray, floats: np.ndarray, node_ids: np.ndarray, positions: np.ndarray
) -> StreetGraph:
    """The graph of parsed ``streets`` rows (``id tail head`` in ``ints``,
    and a v2 or v1 file's ``length x0 y0 x1 y1`` in ``floats``, checked to
    1e-9 and dropped) and ``intersections`` rows, with the street of id i
    on row i; ValueError unless the ids are 0..n-1, and then at the first
    fault in the order of the structure check that once read the floats."""
    order = np.argsort(ints[:, 0])
    if not np.array_equal(ints[order, 0], np.arange(len(ints))):
        raise ValueError("street ids must be 0..n-1 with no gaps")
    graph = StreetGraph(ints[order, 1], ints[order, 2], node_ids, positions)
    if floats.size:
        g, (rows, known) = floats[order, 1:], graph.ends
        loops = graph.tail == graph.head
        long = np.abs(floats[order, 0] - np.hypot(g[:, 2] - g[:, 0], g[:, 3] - g[:, 1])) > 1e-9
        k = int(np.argmax(loops | long))
        if long[k] and not loops[k]:
            raise ValueError(f"street {k} length does not match its geometry")
        near = graph.positions[rows].reshape(-1, 4) if known.any() else g
        astray = known & (np.abs(g - near) > 1e-9).any(axis=1)
        k = int(np.argmax(astray | ~known))
        if astray[k] and not loops.any():
            raise ValueError(
                f"street {k} geometry does not run from intersection {graph.tail[k]} "
                f"to intersection {graph.head[k]} at their positions"
            )
    return graph


# Keys of older v1 files that no longer set anything: each must still
# parse, as an int and a finite float, and is otherwise ignored.
_LEGACY_CONFIG_KEYS = {"anchor_street": int, "anchor_flow": float}
# bs_per_generator_range takes two lines, its min and its max.
_CONFIG_KEYS = frozenset(
    {f.name for f in fields(ScenarioConfig)} - {"bs_per_generator_range"}
    | {"bs_per_generator_min", "bs_per_generator_max", *_LEGACY_CONFIG_KEYS}
)


def loads(text: str) -> Scenario:
    """Parse the text format back into a fully validated scenario.

    ``[config]`` ``grid_n``, ``cell_radius``, ``p_activation`` and
    ``power_ratio`` are provenance only: the stored layers win.
    """
    reader = _Reader(text)
    header = reader.next_line()
    if header not in (FILE_HEADER, _V2_HEADER, _V1_HEADER):
        raise FormatError(f"unrecognised header {header!r}, expected {FILE_HEADER!r}")

    reader.expect_section("config")
    raw: dict[str, str] = {}
    while not reader.peek_is("[its]"):
        parts = reader.fields(3, "config entry")
        if parts[1] != "=":
            raise FormatError(f"[config] malformed entry {' '.join(parts)!r}")
        if parts[0] not in _CONFIG_KEYS:
            raise FormatError(f"[config] unknown key {parts[0]!r}")
        if parts[0] in raw:
            raise FormatError(f"[config] repeated key {parts[0]!r}")
        raw[parts[0]] = parts[2]
    for key, kind in _LEGACY_CONFIG_KEYS.items():
        if key in raw:
            _token("config", key, kind, raw[key])
    try:
        # Every other config field is annotated "int" or "float".
        values = {
            f.name: _token("config", f.name, int if f.type == "int" else float, raw[f.name])
            for f in fields(ScenarioConfig) if f.name != "bs_per_generator_range"
        }
        if raw["bs_per_generator_min"] != "auto":
            values["bs_per_generator_range"] = tuple(
                _token("config", key, int, raw[key])
                for key in ("bs_per_generator_min", "bs_per_generator_max")
            )
        config = ScenarioConfig(**values)
    except KeyError as err:
        raise FormatError(f"[config] missing key {err.args[0]!r}") from None
    except ValueError as err:
        raise FormatError(f"[config] {err}") from None

    reader.expect_section("its")
    node_ids, node_xy = _block(
        reader, reader.counted("intersections"), "intersection",
        ("intersection id",), ("intersection x", "intersection y"),
    )
    n_streets = reader.counted("streets")
    stored = () if header == FILE_HEADER else ("street field",) * 5
    street_ints, street_floats = _block(reader, n_streets, "street", ("street id",) * 3, stored)
    Q = _entries(reader, "ratios", (n_streets, n_streets))

    reader.expect_section("ci")
    n_stations = reader.counted("stations")
    station_ids, station_fields = _block(
        reader, n_stations, "station", ("station id",), ("station field",) * 5
    )
    rows = _by_id(reader, station_ids[:, 0], station_fields, "station")
    if header == _V1_HEADER:
        covered = _entries(reader, "coverage", (n_streets, n_stations))

    reader.expect_section("pg")
    n_gens = reader.counted("generators")
    gen_ids, gen_xy = _block(
        reader, n_gens, "generator", ("generator id",), ("generator x", "generator y")
    )
    generators = _by_id(reader, gen_ids[:, 0], gen_xy, "generator")
    generators.flags.writeable = False
    shares = _entries(reader, "links", (n_stations, n_gens)).toarray()

    if reader.peek_is("[impact]"):
        reader.expect_section("impact")
        _skip_impact_block(reader, "scores", n_stations, 1)
        _skip_impact_block(reader, "vectors", n_stations, n_streets)
    if not reader.at_end():
        raise FormatError(f"unexpected trailing content: {reader.next_line()!r}")

    # Library errors about the parsed content all become FormatError here.
    try:
        graph = _street_graph(street_ints, street_floats, node_ids[:, 0], node_xy)
        network = network_from_matrix(graph, Q)
    except (ValueError, IcisimError) as err:
        raise FormatError(f"[its] {err}") from None
    try:
        stations = Stations(rows[:, :2], *rows[:, 2:].T)
        coverage = build_coverage(network.graph, stations)
        if header == _V1_HEADER:  # the stored block must be the rebuild to 1e-9 km
            stored = coverage_from_lengths(network.graph, covered).lengths
            street, station, km = csr_entries(stored - coverage.lengths)
            bad = np.flatnonzero(np.abs(km) > 1e-9)
            if bad.size:
                i, b = street[bad[0]], station[bad[0]]
                raise ValueError(
                    f"coverage of street {i} by station {b} is {float(stored[i, b])!r} km in "
                    f"the file, but {float(coverage.lengths[i, b])!r} km from the geometry"
                )
        impact = build_impact_model(network, coverage, stations, config.delta)
    except (ValueError, IcisimError) as err:
        raise FormatError(f"[ci] {err}") from None
    try:
        assignment = build_assignment(stations, shares)
    except (ValueError, IcisimError) as err:
        raise FormatError(f"[pg] {err}") from None
    if n_gens != config.num_generators:
        raise FormatError(
            f"[pg] generator count {n_gens} != [config] num_generators {config.num_generators}"
        )
    return Scenario(config, network, stations, coverage, generators, assignment, impact)


def load(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def _tables_equal(a: StreetGraph | Stations, b: StreetGraph | Stations) -> bool:
    """Whether two array tables of one type hold equal arrays, field by field."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def scenarios_equal(a: Scenario, b: Scenario) -> bool:
    """Structural equality, exact on every matrix entry."""
    return (
        a.config == b.config
        and _tables_equal(a.network.graph, b.network.graph)
        and csr_equal(a.network.Q, b.network.Q)
        and _tables_equal(a.base_stations, b.base_stations)
        and csr_equal(a.coverage.lengths, b.coverage.lengths)
        and csr_equal(a.coverage.fractions, b.coverage.fractions)
        and np.array_equal(a.generators, b.generators)
        and np.array_equal(a.assignment.T, b.assignment.T)
        and np.array_equal(a.impact.null_vector, b.impact.null_vector)
        and np.array_equal(a.impact.scale, b.impact.scale)
    )
