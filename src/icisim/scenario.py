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
with the street layer's stored analysis.  The seeded layers of many
seeds also come as stacks along a leading replica axis:
:func:`build_its_stack` gives their (R, n) null vectors, with no network
object per seed, and :func:`build_pg_stack` their (R, B, G) supply
shares, wired and checked in one pass.  :func:`build_its` and
:func:`build_pg` share their checks and their wiring, and each stacked
row is bit for bit what they give its seed.  Generation and loading check
and lay out the ITS layer the same way, through a
:class:`~icisim.traffic.FlowPattern`, and build the other two with
:func:`~icisim.coverage.build_coverage` and
:func:`~icisim.power.build_assignment`.

Scenario files are plain text with a versioned header and ``[config]``,
``[its]``, ``[ci]`` and ``[pg]`` sections, and hold inputs only; floats are
written with ``repr`` so they round-trip exactly.  The loader reads exactly
the format :func:`dumps` writes, ``icisim scenario v3``: any other header is
a FormatError.  Every section after ``[config]`` is made of counted blocks,
each written from whole arrays, one line per row.  In the intersections,
streets, stations and generators tables the row of id k comes k-th.
Turning ratios and supply links are blocks of ``row column value`` lines
holding the nonzero entries, each (row, column) pair once, in row-major
order; each station's shares, and each street's if its head has
outflows, sum to 1.  One table, ``_BLOCKS``, lays the blocks out for
:func:`dumps` and :func:`loads` alike.  The loader takes each block only in
this form, stores the shares as read, and reads each block in one
``np.loadtxt`` pass.  Every number, ``[config]`` values included, must
be a token ``np.loadtxt`` reads: ASCII, no ``_`` digit separators, and
finite if a float.  Coverage and the impact model are derived, so they are
not written: loading rebuilds them.  So is a street's geometry, from its
intersections' positions: a ``streets`` row is ``id tail head``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NoReturn, Sequence

import numpy as np
import scipy.sparse

from .coverage import CoverageMap, Stations, _ranges, build_coverage, hex_tiling
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
    null_vectors,
)

FILE_HEADER = "icisim scenario v3"

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
    return StreetGraph(tail, head, positions)


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
    per inflow, but for an exact zero draw: raised to the smallest normal
    float, it keeps every share positive, as the flow core requires.
    """
    draws = np.maximum(rng.standard_exponential(len(rows)), np.finfo(float).tiny)
    return draws * (1.0 / np.bincount(rows, draws))[rows]


def _place_generators(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    side = config.extent
    return rng.uniform(0.0, side, size=(config.num_generators, 2))


def _wire_generators(
    config: ScenarioConfig,
    positions: np.ndarray,
    stations: Stations,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Raw (R, B, G) supply weights of R replicas' (R, G, 2) generator
    sites: each generator wired to its k nearest stations, k drawn
    uniformly from its replica's ``rngs`` entry, ties to the lower station id.

    Stations left out by every draw are attached to their nearest generator,
    ties to the lower generator id, so that no station is dark by
    construction.  Weights fall off with distance, zero where no line
    exists, and :func:`build_pg` divides each row by its sum.  All
    replicas are wired in one pass, each bit for bit its own.
    """
    B = len(stations)
    G = config.num_generators
    centers = stations.center
    dists = np.hypot(
        centers[:, 0][:, None] - positions[..., None, :, 0],
        centers[:, 1][:, None] - positions[..., None, :, 1],
    )  # (R, B, G)
    if config.bs_per_generator_range is None:
        lo, hi = 1, max(1, -(-2 * B // G))
    else:
        lo, hi = config.bs_per_generator_range
    k = np.array([rng.integers(lo, hi + 1, size=G) for rng in rngs]).reshape(-1, 1, G)
    # Each station's rank by distance from each generator.
    rank = np.argsort(np.argsort(dists, axis=1, kind="stable"), axis=1, kind="stable")
    wired = rank < k
    replica, dark = np.nonzero(~wired.any(axis=2))
    wired[replica, dark, np.argmin(dists[replica, dark], axis=1)] = True
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


def build_its_stack(streets: FlowPattern, seeds: Sequence[int]) -> np.ndarray:
    """The ITS layers of R seeds on ``streets``, as their (R, n) unit null
    vectors: each seed's shares are those :func:`build_its` draws, all are
    checked in one pass, and each row is its network's ``null_vector`` bit
    for bit (:func:`~icisim.traffic.null_vectors`)."""
    draws = [_sample_shares(streets.rows, _rng(seed, _STREAM_RATIOS)) for seed in seeds]
    return null_vectors(streets, np.reshape(draws, (len(seeds), streets.nnz)))


def build_ci(config: ScenarioConfig, graph: StreetGraph) -> tuple[Stations, CoverageMap]:
    """The CI layer: hex tiling of the grid's square, stations and coverage."""
    side = config.extent
    centers = hex_tiling(((0.0, 0.0), (side, side)), config.cell_radius)
    stations = Stations(centers, config.cell_radius, config.p_activation, config.p_full)
    return stations, build_coverage(graph, stations)


def _pg_shares(
    config: ScenarioConfig, stations: Stations, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The (R, G, 2) generator sites and (R, B, G) supply shares of R seeds,
    each station's wiring weights over their sum."""
    sites = [_place_generators(config, _rng(seed, _STREAM_GENERATORS)) for seed in seeds]
    positions = np.reshape(sites, (len(seeds), config.num_generators, 2))
    rngs = [_rng(seed, _STREAM_CONNECTIONS) for seed in seeds]
    weights = _wire_generators(config, positions, stations, rngs)
    return positions, weights / weights.sum(axis=2, keepdims=True)


def build_pg(
    config: ScenarioConfig, stations: Stations
) -> tuple[np.ndarray, PowerAssignment]:
    """The PG layer: seeded generator sites, read-only, and their supply
    shares to ``stations``, each station's wiring weights over their sum."""
    (positions,), (shares,) = _pg_shares(config, stations, (config.seed,))
    positions.flags.writeable = False
    return positions, build_assignment(stations, shares)


def build_pg_stack(
    config: ScenarioConfig, stations: Stations, seeds: Sequence[int]
) -> PowerAssignment:
    """The PG layers of R seeds, read from ``config`` but for its seed, as
    one PowerAssignment whose (R, B, G) ``T`` holds each seed's
    :func:`build_pg` shares bit for bit; all are wired and checked in one
    pass."""
    return build_assignment(stations, _pg_shares(config, stations, seeds)[1])


def assemble(
    config: ScenarioConfig,
    network: FlowNetwork,
    ci: tuple[Stations, CoverageMap],
    pg: tuple[np.ndarray, PowerAssignment],
) -> Scenario:
    """The scenario of three built layers, with its impact model."""
    stations, coverage = ci
    generators, assignment = pg
    impact = build_impact_model(network.null_vector, coverage, stations, config.delta)
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


# The counted blocks after [config], in file order: (section, keyword,
# line name, integer fields, float fields, matrix shape).  Errors name a
# field "{line} {field}".  A table's first integer field is its row's id; an
# entry block's are its (row, column) pair, within the shape given by the
# row counts of the named blocks.
_BLOCKS = (
    ("its", "intersections", "intersection", ("id",), ("x", "y"), ()),
    ("its", "streets", "street", ("id", "tail", "head"), (), ()),
    ("its", "ratios", "ratio", ("row", "column"), ("value",), ("streets", "streets")),
    ("ci", "stations", "station", ("id",),
     ("x", "y", "cell radius", "activation power", "full power"), ()),
    ("pg", "generators", "generator", ("id",), ("x", "y"), ()),
    ("pg", "links", "link", ("station", "generator"), ("share",), ("stations", "generators")),
)


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
    stations, T = scenario.base_stations, scenario.assignment.T
    columns = {  # each block's integer columns, then its float columns
        "intersections": (np.arange(len(graph.positions)), *graph.positions.T),
        "streets": (np.arange(net.n), graph.tail, graph.head),
        "ratios": csr_entries(net.Q),
        "stations": (np.arange(len(stations)), *stations.center.T, stations.cell_radius,
                     stations.p_activation, stations.p_full),
        "generators": (np.arange(len(scenario.generators)), *scenario.generators.T),
        "links": (*np.nonzero(T), T[T != 0.0]),
    }
    section = "config"
    for block_section, keyword, _, ints, *_ in _BLOCKS:
        if block_section != section:
            section = block_section
            out.append(f"[{section}]")
        block = columns[keyword]
        _write_block(out, keyword, block[:len(ints)], block[len(ints):])
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
    bounds: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """The next ``count`` lines as an int64 and a float table, one row each.

    Each line holds ``len(ints)`` integer fields and then ``len(floats)``
    finite float fields; errors name the line ``line`` and each field as
    ``"{line} {name}"``, its name from ``ints`` or ``floats``.  With a
    nonempty ``bounds``, integer field k must lie in ``0..bounds[k] - 1``.
    The block is read in one ``np.loadtxt`` pass; if that fails,
    :func:`_bad_line` names the first line at fault.
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
        and (not bounds or ((index >= 0) & (index < bounds)).all())
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
    bounds: Sequence[int],
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
            value = _token(section, f"{line} {name}", int, token)
            if not -2**63 <= value < 2**63:
                raise FormatError(f"[{section}] {line} {name}: bad integer {token!r}")
            index.append(value)
        if bounds and not all(0 <= i < b for i, b in zip(index, bounds)):
            raise FormatError(
                f"[{section}] {line} indices ({', '.join(map(str, index))}) out of range"
            )
        for token, name in zip(parts[len(ints):], floats):
            _token(section, f"{line} {name}", float, token)
    if len(lines) < count:
        raise FormatError(f"file truncated inside section [{section}]")
    raise FormatError(f"[{section}] unreadable {line} block")


def _check_ids(section: str, line: str, ids: np.ndarray) -> None:
    """FormatError at the first row of a table whose id is not its row."""
    wrong = np.flatnonzero(ids != np.arange(len(ids)))
    if wrong.size:
        k = wrong[0]
        raise FormatError(
            f"[{section}] {line} ids must be 0..{len(ids) - 1} in row order: "
            f"row {k} has id {ids[k]}"
        )


def _check_row_major(section: str, line: str, index: np.ndarray, width: int) -> None:
    """FormatError at the first (row, column) pair of an entry block, in a
    matrix ``width`` columns wide, that is not after the pair before it."""
    rows, cols = index.T
    keys = rows * width + cols
    wrong = np.flatnonzero(keys[1:] <= keys[:-1])
    if wrong.size:
        k = wrong[0] + 1
        raise FormatError(
            f"[{section}] {line} entries must be unique and in row-major order: "
            f"row {k} is ({rows[k]}, {cols[k]}) after ({rows[k - 1]}, {cols[k - 1]})"
        )


# bs_per_generator_range takes two lines, its min and its max.
_CONFIG_KEYS = frozenset(
    {f.name for f in fields(ScenarioConfig)} - {"bs_per_generator_range"}
    | {"bs_per_generator_min", "bs_per_generator_max"}
)


def loads(text: str) -> Scenario:
    """Parse the text format back into a fully validated scenario.

    ``[config]`` ``grid_n``, ``cell_radius``, ``p_activation`` and
    ``power_ratio`` are provenance only: the stored layers win.
    """
    reader = _Reader(text)
    header = reader.next_line()
    if header != FILE_HEADER:
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
    try:
        # Every other config field is annotated "int" or "float".
        values = {
            f.name: _token("config", f.name, int if f.type == "int" else float, raw[f.name])
            for f in fields(ScenarioConfig) if f.name != "bs_per_generator_range"
        }
        # Both bounds are "auto", or both are integers.
        if raw["bs_per_generator_min"] != "auto":
            values["bs_per_generator_range"] = tuple(
                _token("config", key, int, raw[key])
                for key in ("bs_per_generator_min", "bs_per_generator_max")
            )
        elif raw["bs_per_generator_max"] != "auto":
            raise FormatError(
                f"[config] bs_per_generator_max: expected 'auto' with an 'auto' minimum, "
                f"got {raw['bs_per_generator_max']!r}"
            )
        config = ScenarioConfig(**values)
    except KeyError as err:
        raise FormatError(f"[config] missing key {err.args[0]!r}") from None
    except ValueError as err:
        raise FormatError(f"[config] {err}") from None

    # Each table as its (ids, values) arrays, each entry block as a COO array.
    blocks: dict = {}
    for section, keyword, line, ints, floats, shape_of in _BLOCKS:
        if section != reader.section:
            reader.expect_section(section)
        shape = tuple(len(blocks[k][0]) for k in shape_of)
        index, values = _block(reader, reader.counted(keyword), line, ints, floats, shape)
        if shape:
            _check_row_major(section, line, index, shape[1])
            blocks[keyword] = scipy.sparse.coo_array((values[:, 0], tuple(index.T)), shape=shape)
        else:
            _check_ids(section, line, index[:, 0])
            blocks[keyword] = index, values
    (_, node_xy), (streets, _), Q, (_, rows), (_, generators), links = blocks.values()
    generators.flags.writeable = False
    # A zero would be no line at all, so it cannot round-trip.
    zero = np.flatnonzero(links.data == 0.0)
    if zero.size:
        k = zero[0]
        raise FormatError(
            f"[pg] link entry ({links.row[k]}, {links.col[k]}) is {float(links.data[k])!r}, "
            "not a positive share"
        )
    shares = links.toarray()

    if not reader.at_end():
        raise FormatError(f"unexpected trailing content: {reader.next_line()!r}")

    # Library errors about the parsed content all become FormatError here.
    try:
        network = network_from_matrix(StreetGraph(streets[:, 1], streets[:, 2], node_xy), Q)
    except (ValueError, IcisimError) as err:
        raise FormatError(f"[its] {err}") from None
    try:
        stations = Stations(rows[:, :2], *rows[:, 2:].T)
        coverage = build_coverage(network.graph, stations)
        impact = build_impact_model(network.null_vector, coverage, stations, config.delta)
    except (ValueError, IcisimError) as err:
        raise FormatError(f"[ci] {err}") from None
    try:
        assignment = build_assignment(stations, shares)
    except (ValueError, IcisimError) as err:
        raise FormatError(f"[pg] {err}") from None
    if len(generators) != config.num_generators:
        raise FormatError(
            f"[pg] generator count {len(generators)} != [config] num_generators "
            f"{config.num_generators}"
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
