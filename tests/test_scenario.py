"""Scenario generation and file-format tests."""
from __future__ import annotations

import itertools
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from icisim.coverage import Stations, build_coverage
from icisim.errors import FormatError
from icisim.impact import build_impact_model
from icisim.power import build_assignment
from icisim.scenario import (
    _STREAM_CONNECTIONS,
    _STREAM_GENERATORS,
    _STREAM_RATIOS,
    CI_FIELDS,
    ITS_FIELDS,
    PG_FIELDS,
    STREET_FIELDS,
    Scenario,
    ScenarioConfig,
    _grid_topology,
    _place_generators,
    _rng,
    _sample_shares,
    _tables_equal,
    _wire_generators,
    build_ci,
    build_its,
    build_pg,
    build_streets,
    dumps,
    generate,
    load,
    loads,
    save,
    scenarios_equal,
)
from icisim.traffic import (
    StreetGraph, build_flow_matrix, csr_entries, csr_equal, network_from_matrix,
)

from conftest import sampled_ratios
from oracles import (
    anchored_flows,
    dict_ratios,
    dirichlet_ratios,
    line_entries,
    object_graph,
    object_topology,
    set_wiring,
)


def _validate_scenario(sc: Scenario) -> None:
    """Cross-module invariant suite run against a generated scenario."""
    net = sc.network
    # Derived lengths are those of the derived geometry.
    g = net.graph
    drawn = np.hypot(g.geometry[:, 2] - g.geometry[:, 0], g.geometry[:, 3] - g.geometry[:, 1])
    assert np.all(np.abs(g.length - drawn) <= 1e-9)
    assert np.all(g.tail != g.head)
    # Generated ratio rows are shares summing to one.
    assert np.allclose(net.Q.sum(axis=1), 1.0, atol=1e-9)
    # Flows solve and conserve.
    flows = anchored_flows(net, 0, 1000.0)
    assert np.linalg.norm(net.A @ flows, np.inf) <= 1e-6 * np.abs(flows).max()
    # Coverage partitions each street inside the tiling.
    assert np.allclose(sc.coverage.lengths.toarray().sum(axis=1), g.length, rtol=1e-6)
    assert np.all(sc.coverage.C.sum(axis=1) <= 1.0 + 1e-9)
    # Supply shares are row-stochastic with matching support.
    assert np.allclose(sc.assignment.T.sum(axis=1), 1.0, atol=1e-9)
    # Generator sites are a read-only (G, 2) array, and each supplies a station.
    assert sc.generators.shape == (sc.assignment.num_generators, 2)
    assert not sc.generators.flags.writeable
    assert np.all((sc.assignment.T > 0.0).any(axis=0))
    # Impact scores are nonnegative and vanish exactly off coverage.
    assert np.all(sc.impact.z_scores >= 0.0)
    covered = (sc.coverage.lengths.toarray() > 0.0).any(axis=0)
    assert np.array_equal(sc.impact.z_scores > 0.0, covered)


_CONFIGS = st.builds(
    ScenarioConfig,
    grid_n=st.integers(2, 4),
    street_length=st.sampled_from((0.7, 1.0)),
    cell_radius=st.sampled_from((0.6, 0.9, 1.3)),
    num_generators=st.integers(1, 4),
    p_activation=st.sampled_from((50.0, 100.0)),
    power_ratio=st.sampled_from((1.5, 2.0)),
    budget=st.sampled_from((0.0, 100.0)),
    seed=st.integers(0, 3),
    bs_per_generator_range=st.sampled_from((None, (1, 1), (1, 3))),
    delta=st.sampled_from((0.5, 1.0)),
)


def _its_equal(a, b) -> bool:
    return _tables_equal(a.graph, b.graph) and csr_equal(a.Q, b.Q)


def _ci_equal(a, b) -> bool:
    return (
        _tables_equal(a[0], b[0])
        and csr_equal(a[1].lengths, b[1].lengths)
        and csr_equal(a[1].fractions, b[1].fractions)
    )


def _pg_equal(a, b) -> bool:
    return (
        np.array_equal(a[0], b[0])
        and np.array_equal(a[1].T, b[1].T)
        and np.array_equal(a[1].p_full, b[1].p_full)
    )


def _vary(data, base: ScenarioConfig, other: ScenarioConfig, keep: tuple[str, ...]):
    """``base`` with a drawn subset of the fields outside ``keep`` taken from ``other``."""
    outside = [f.name for f in fields(ScenarioConfig) if f.name not in keep]
    changed = data.draw(st.sets(st.sampled_from(outside)), label=f"changed outside {keep}")
    return replace(base, **{name: getattr(other, name) for name in changed})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(base=_CONFIGS, other=_CONFIGS, data=st.data())
def test_layer_builders_read_only_their_fields(base, other, data):
    # Each builder, on the same inputs, ignores every field outside its tuple.
    streets = build_streets(base)
    its = build_its(base, streets)
    ci = build_ci(base, its.graph)
    changed = _vary(data, base, other, STREET_FIELDS)
    assert _its_equal(build_its(base, build_streets(changed)), its)
    assert _its_equal(build_its(_vary(data, base, other, ITS_FIELDS), streets), its)
    assert _ci_equal(build_ci(_vary(data, base, other, CI_FIELDS), its.graph), ci)
    assert _pg_equal(build_pg(_vary(data, base, other, PG_FIELDS), ci[0]), build_pg(base, ci[0]))
    # Along generate's chain, an ITS layer is fixed by ITS_FIELDS, a CI
    # layer by CI_FIELDS whichever seed built the network, and a PG layer
    # by CI_FIELDS and PG_FIELDS.
    changed = _vary(data, base, other, ITS_FIELDS)
    assert _its_equal(build_its(changed, build_streets(changed)), its)
    changed = _vary(data, base, other, CI_FIELDS)
    assert _ci_equal(build_ci(changed, build_its(changed, build_streets(changed)).graph), ci)
    changed = _vary(data, base, other, CI_FIELDS + PG_FIELDS)
    stations = build_ci(changed, build_its(changed, build_streets(changed)).graph)[0]
    assert _pg_equal(build_pg(changed, stations), build_pg(base, ci[0]))


def test_grid2_street_enumeration():
    sc = generate(ScenarioConfig(grid_n=2, seed=0))
    assert sc.network.n == 8
    g = sc.network.graph
    assert set(zip(g.tail.tolist(), g.head.tolist())) == {
        (0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (3, 1), (2, 3), (3, 2)
    }
    # Directed pairs share geometry.
    for e in range(4):
        assert np.array_equal(g.geometry[2 * e], g.geometry[2 * e + 1][[2, 3, 0, 1]])


def test_same_seed_is_bit_identical():
    config = ScenarioConfig(grid_n=3, seed=42)
    assert dumps(generate(config)) == dumps(generate(config))


def test_different_seeds_differ():
    a = dumps(generate(ScenarioConfig(grid_n=3, seed=1)))
    b = dumps(generate(ScenarioConfig(grid_n=3, seed=2)))
    assert a != b


def test_generated_invariants_hold():
    for config in (
        ScenarioConfig(grid_n=2, seed=0),
        ScenarioConfig(grid_n=3, seed=5, cell_radius=0.7),
        ScenarioConfig(grid_n=9, seed=0, num_generators=5),
    ):
        _validate_scenario(generate(config))


def test_round_trip_identity(tmp_path):
    for config in (
        ScenarioConfig(grid_n=3, seed=9),
        ScenarioConfig(grid_n=5, seed=0),
        ScenarioConfig(grid_n=20, cell_radius=0.9, num_generators=10, seed=0),
    ):
        sc = generate(config)
        path = str(tmp_path / "scenario.txt")
        save(sc, path)
        assert scenarios_equal(sc, load(path)), config
    # A file holds no coverage; loads rebuilds exactly what generate built.
    for grid_n, seed, cell_radius in itertools.product(range(2, 13), range(4), (0.3, 0.9, 1.0)):
        sc = generate(ScenarioConfig(grid_n=grid_n, seed=seed, cell_radius=cell_radius))
        assert scenarios_equal(loads(dumps(sc)), sc), (grid_n, seed, cell_radius)


def _triples(ratios: dict) -> tuple[list, list, list]:
    return [j for j, _ in ratios], [k for _, k in ratios], list(ratios.values())


def test_one_draw_ratios_equal_per_inflow_dirichlet():
    # The batched draw is bit-identical to one dirichlet call per inflow:
    # same pairs, in the same order, with the same values.
    for grid_n in range(2, 13):
        graph = _grid_topology(ScenarioConfig(grid_n=grid_n))
        streets, nodes = object_topology(ScenarioConfig(grid_n=grid_n))
        for seed in range(4):
            rows, cols, shares = sampled_ratios(graph, seed)
            oracle = dirichlet_ratios(streets, nodes, _rng(seed, _STREAM_RATIOS))
            assert (rows.tolist(), cols.tolist(), shares.tolist()) == _triples(oracle)


def test_a_zero_draw_keeps_its_pair():
    # An exact zero exponential draw would give a share of 0, which the
    # flow core rejects, since it would drop a pair of the street layer
    # that an experiment's later replicas are built on.  It is raised to
    # the smallest normal float; the other shares keep their bits.
    class ZeroFirst:
        def standard_exponential(self, size):
            draws = _rng(0, _STREAM_RATIOS).standard_exponential(size)
            draws[0] = 0.0
            return draws

    streets = build_streets(ScenarioConfig(grid_n=4))
    rows = streets.rows
    shares = _sample_shares(rows, ZeroFirst())
    draws = ZeroFirst().standard_exponential(len(rows))
    plain = draws * (1.0 / np.bincount(rows, draws))[rows]
    assert plain[0] == 0.0 < shares[0] < 1e-300 and np.all(shares > 0.0)
    assert np.array_equal(shares[1:], plain[1:])
    assert build_flow_matrix(streets, shares).pattern is streets


_ORACLE_GRIDS = [*range(2, 13), 30]


def test_array_topology_equals_object_oracle():
    # Index arithmetic gives the streets, in order, that make_street gave
    # one by one: the same ends, and the same bits of geometry and length.
    for grid_n in _ORACLE_GRIDS:
        streets, nodes = object_topology(ScenarioConfig(grid_n=grid_n))
        oracle = object_graph(streets, nodes)
        made = {
            "geometry": np.array([(*s.geometry[0], *s.geometry[1]) for s in streets]),
            "length": np.array([s.length for s in streets]),
        }
        for seed in range(4):
            graph = generate(ScenarioConfig(grid_n=grid_n, seed=seed)).network.graph
            for name in ("tail", "head", "geometry", "length", "positions"):
                ours, theirs = getattr(graph, name), made.get(name, getattr(oracle, name))
                assert ours.dtype == theirs.dtype, (grid_n, name)
                assert np.array_equal(ours, theirs), (grid_n, seed, name)


def test_argsort_ratios_equal_dict_oracle():
    # Two stable argsorts order the pairs as the walk over the incidence
    # lists did, so the draw lands on the same pairs with the same bits.
    for grid_n in _ORACLE_GRIDS:
        graph = _grid_topology(ScenarioConfig(grid_n=grid_n))
        streets, nodes = object_topology(ScenarioConfig(grid_n=grid_n))
        for seed in range(4):
            rows, cols, shares = sampled_ratios(graph, seed)
            oracle = dict_ratios(streets, nodes, _rng(seed, _STREAM_RATIOS))
            assert (rows.tolist(), cols.tolist()) == _triples(oracle)[:2], (grid_n, seed)
            assert np.array_equal(shares, np.array(list(oracle.values()))), (grid_n, seed)


def test_generated_Q_equals_Q_of_dict_oracle():
    for grid_n in _ORACLE_GRIDS:
        streets, nodes = object_topology(ScenarioConfig(grid_n=grid_n))
        n = len(streets)
        for seed in range(4):
            rows, cols, shares = _triples(
                dict_ratios(streets, nodes, _rng(seed, _STREAM_RATIOS))
            )
            Q = scipy.sparse.csr_array((shares, (rows, cols)), shape=(n, n))
            Q.eliminate_zeros()
            ours = generate(ScenarioConfig(grid_n=grid_n, seed=seed)).network.Q
            assert csr_equal(ours, Q), (grid_n, seed)


def test_wiring_equals_set_oracle():
    # One pass over the (R, B, G) distances of four seeds wires each as the
    # oracle wires it alone.
    seeds = range(4)
    for grid_n in range(2, 13):
        for num_generators, bounds in itertools.product((1, 3, 10), ((2, 5), None)):
            config = ScenarioConfig(
                grid_n=grid_n, num_generators=num_generators, bs_per_generator_range=bounds,
            )
            stations = build_ci(config, _grid_topology(config))[0]
            positions = np.array(
                [_place_generators(config, _rng(seed, _STREAM_GENERATORS)) for seed in seeds]
            )
            rngs = [_rng(seed, _STREAM_CONNECTIONS) for seed in seeds]
            wiring = _wire_generators(config, positions, stations, rngs)
            for seed in seeds:
                oracle = set_wiring(config, positions[seed], stations,
                                    _rng(seed, _STREAM_CONNECTIONS))
                assert np.array_equal(wiring[seed], oracle), (config, seed)


def test_ratio_support_is_one_strong_component():
    # generate draws ratios once and relies on this: a stochastic Q whose
    # support is strongly connected gives a balance matrix of rank n - 1.
    # The support does not depend on the seed.
    for grid_n in range(2, 13):
        graph = _grid_topology(ScenarioConfig(grid_n=grid_n))
        rows, cols, _ = sampled_ratios(graph, 0)
        n = graph.n
        support = scipy.sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        count, _ = connected_components(support, directed=True, connection="strong")
        assert count == 1, grid_n


def test_round_trip_without_impact_recomputes(tmp_path):
    sc = generate(ScenarioConfig(grid_n=3, seed=9))
    path = str(tmp_path / "scenario.txt")
    save(sc, path)
    with open(path, encoding="utf-8") as fh:
        assert "[impact]" not in fh.read()
    again = load(path)
    assert np.array_equal(again.impact.z_scores, sc.impact.z_scores)
    assert np.array_equal(again.impact.z_vectors, sc.impact.z_vectors)


def _grid3_text() -> str:
    """The grid-3, seed-0 scenario as ``dumps`` writes it."""
    return dumps(generate(ScenarioConfig(grid_n=3, seed=0)))


def _edit(text: str, block: str, field: int, value: str, row: int = 0) -> str:
    """Replace one field of row ``row`` under the line starting with ``block``."""
    lines = text.splitlines()
    idx = next(k for k, line in enumerate(lines) if line.startswith(block)) + 1 + row
    parts = lines[idx].split()
    parts[field] = value
    lines[idx] = " ".join(parts)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "block, field, value, row",
    [
        ("links", 2, "nan", 0),
        ("generators", 1, "nan", 0),
        ("generators", 0, "999", 0),
        ("stations", 0, "999", 0),
        ("stations", 0, "0", 1),
        ("delta", 2, "nan", -1),
        ("budget", 2, "inf", -1),
        ("grid_n", 2, "nan", -1),
        ("delta", 2, "-1.0", -1),
    ],
    ids=[
        "nan link share", "nan generator x", "generator id 999", "station id 999",
        "repeated station id", "nan delta", "infinite budget", "nan grid_n", "negative delta",
    ],
)
def test_loader_rejects_bad_values_and_ids(block, field, value, row):
    with pytest.raises(FormatError):
        loads(_edit(_grid3_text(), block, field, value, row))


def _bump_count(lines: list[str], head: int, by: int) -> None:
    """Change the count on the block line ``lines[head]`` by ``by``."""
    keyword, count = lines[head].split()
    lines[head] = f"{keyword} {int(count) + by}"


def _pair(line: str) -> str:
    """The ``(row, column)`` of an entry line, as loader errors write it."""
    return "({}, {})".format(*line.split()[:2])


# Each entry block, the section it sits in and the name of its lines.
_ENTRY_CASES = pytest.mark.parametrize(
    "block, section, line", [("ratios", "its", "ratio"), ("links", "pg", "link")],
    ids=["ratios", "links"],
)


@_ENTRY_CASES
def test_loader_rejects_a_repeated_entry(block, section, line):
    # The first entry written twice, the count bumped: no last value wins.
    lines, first = _its_rows(_grid3_text(), block)
    _bump_count(lines, first - 1, 1)
    lines.insert(first, lines[first])
    with pytest.raises(FormatError) as err:
        loads("\n".join(lines) + "\n")
    assert str(err.value) == (
        f"[{section}] {line} entries must be unique and in row-major order: "
        f"row 1 is {_pair(lines[first])} after {_pair(lines[first])}"
    )


@_ENTRY_CASES
def test_loader_rejects_entries_out_of_row_major_order(block, section, line):
    # The first two entries swapped: each pair once, but not in row-major order.
    lines, first = _its_rows(_grid3_text(), block)
    lines[first], lines[first + 1] = lines[first + 1], lines[first]
    with pytest.raises(FormatError) as err:
        loads("\n".join(lines) + "\n")
    assert str(err.value) == (
        f"[{section}] {line} entries must be unique and in row-major order: "
        f"row 1 is {_pair(lines[first + 1])} after {_pair(lines[first])}"
    )


@pytest.mark.parametrize(
    "block, row, col, message",
    [
        ("ratios", "0", "999", r"\[its\] ratio indices \(0, 999\) out of range"),
        ("links", "0", "7", r"\[pg\] link indices \(0, 7\) out of range"),
    ],
)
def test_entry_indices_are_range_checked(block, row, col, message):
    text = _edit(_edit(_grid3_text(), block, 0, row), block, 1, col)
    with pytest.raises(FormatError, match=message):
        loads(text)


def test_truncated_file_names_missing_section():
    sc = generate(ScenarioConfig(grid_n=2, seed=3))
    text = dumps(sc)
    cut = text[: text.index("[pg]")]
    with pytest.raises(FormatError, match=r"\[pg\]"):
        loads(cut)
    half_section = "\n".join(text.splitlines()[:20])
    with pytest.raises(FormatError, match=r"\[its\]"):
        loads(half_section)


def test_malformed_lines_report_context():
    sc = generate(ScenarioConfig(grid_n=2, seed=3))
    lines = dumps(sc).splitlines()
    idx = lines.index("[its]") + 2  # first intersection row
    lines[idx] = "0 not-a-number 0.0"
    with pytest.raises(FormatError, match="intersection"):
        loads("\n".join(lines))
    with pytest.raises(FormatError, match="header"):
        loads("something else\n")


HAND_WRITTEN = """\
icisim scenario v3
[config]
grid_n = 2
street_length = 1.0
cell_radius = 2.0
num_generators = 1
p_activation = 100.0
power_ratio = 2.0
budget = 50.0
seed = 7
bs_per_generator_min = 1
bs_per_generator_max = 1
delta = 1.0
[its]
intersections 2
0 0.0 0.0
1 1.0 0.0
streets 2
0 0 1
1 1 0
ratios 2
0 1 1.0
1 0 1.0
[ci]
stations 1
0 0.5 0.0 2.0 100.0 200.0
[pg]
generators 1
0 0.5 0.5
links 1
0 0 1.0
"""


@pytest.mark.parametrize(
    "block, edited, message",
    [
        ("ratios 2\n", "ratios 3\n0 0 0.0\n",
         r"\[its\] ratio matrix entry \(0, 0\) links streets that do not meet"),
        ("generators 1\n0 0.5 0.5\n", "generators 2\n0 0.5 0.5\n1 1.5 0.5\n",
         r"\[pg\] generator 1 is connected to no station"),
    ],
    ids=["zero ratio on streets that do not meet", "generator without a link"],
)
def test_loader_rejects_entries_without_a_line(block, edited, message):
    with pytest.raises(FormatError, match=message):
        loads(HAND_WRITTEN.replace(block, edited))


def test_loader_checks_the_generator_count():
    text = HAND_WRITTEN.replace("num_generators = 1\n", "num_generators = 2\n")
    with pytest.raises(
        FormatError, match=r"^\[pg\] generator count 1 != \[config\] num_generators 2$"
    ):
        loads(text)


OVERLAP_FILE = Path(__file__).parent / "data" / "scenario-overlap-v3.txt"
VERTEX_OVERLAP_FILE = Path(__file__).parent / "data" / "scenario-vertex-overlap-v3.txt"


def test_loader_rejects_overlapping_cells():
    # HAND_WRITTEN plus a second station on the first one's centre: the
    # two split each street and both draw from generator 0.
    text = OVERLAP_FILE.read_text(encoding="utf-8")
    with pytest.raises(
        FormatError, match=r"^\[ci\] cells of stations 0 and 1 have overlapping interiors$"
    ):
        loads(text)
    # Two apothems (2 * sqrt(3) km) apart, station 1's cell reaches neither
    # street, so station 0 covers all of each.
    moved = text.replace("1 0.5 0.0 2.0", "1 0.5 3.5 2.0")
    assert moved != text
    assert np.array_equal(loads(moved).coverage.C, [[1.0, 0.0], [1.0, 0.0]])
    # 3.8 km apart along a vertex direction, more than two apothems, the
    # radius-2 cells still share interior points.
    with pytest.raises(
        FormatError, match=r"^\[ci\] cells of stations 0 and 1 have overlapping interiors$"
    ):
        loads(VERTEX_OVERLAP_FILE.read_text(encoding="utf-8"))


LEAKY_FILE = Path(__file__).parent / "data" / "scenario-leaky-row-v3.txt"


def test_loader_rejects_ratios_that_do_not_sum_to_1():
    # The grid-4 file with the first turning share of street 0 halved.
    with pytest.raises(
        FormatError, match=r"^\[its\] outflow shares of inflow streets \[0\] do not sum to 1$"
    ):
        loads(LEAKY_FILE.read_text(encoding="utf-8"))


def test_loader_rejects_links_that_do_not_sum_to_1():
    # The grid-4 file with station 0's one supply share halved: the share
    # is stored as read, so the station would draw half its power.
    text = _golden("grid4-seed0", "v3")
    assert "\nlinks 9\n0 0 1.0\n" in text
    with pytest.raises(
        FormatError, match=r"^\[pg\] supply shares of stations \[0\] do not sum to 1$"
    ):
        loads(text.replace("\nlinks 9\n0 0 1.0\n", "\nlinks 9\n0 0 0.5\n"))


def test_links_within_the_share_tolerance_load_as_read():
    # Station 0 split over two generators, its shares 1e-10 above 1 in sum.
    text = _golden("grid4-seed0", "v3")
    split = "\nlinks 10\n0 0 0.4\n0 1 0.6000000001\n"
    edited = text.replace("\nlinks 9\n0 0 1.0\n", split)
    assert split in edited
    assert 0.4 + 0.6000000001 != 1.0
    sc = loads(edited)
    assert sc.assignment.T[0].tolist() == [0.4, 0.6000000001, 0.0]
    assert dumps(sc) == edited


def test_negative_count_is_rejected():
    text = HAND_WRITTEN.replace("links 1\n0 0 1.0\n", "links -1\n")
    with pytest.raises(FormatError, match="negative count"):
        loads(text)


def test_hand_written_minimal_scenario_loads():
    sc = loads(HAND_WRITTEN)
    assert sc.network.n == 2
    assert np.array_equal(sc.network.A.toarray(), [[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(sc.coverage.C, [[1.0], [1.0]])
    assert np.array_equal(sc.assignment.T, [[1.0]])
    # Each street's deviation reaches the whole 2-street loop and the
    # station covers both, so its score is 4 / headroom.
    assert sc.impact.z_scores[0] == pytest.approx(4.0 / 100.0)
    flows = anchored_flows(sc.network, 0, 500.0)
    assert np.allclose(flows, 500.0)


def test_bigger_grids_cover_at_least_as_many_stations():
    small = generate(ScenarioConfig(grid_n=3, seed=4))
    large = generate(ScenarioConfig(grid_n=6, seed=4))
    assert np.count_nonzero(large.impact.z_scores > 0.0) >= np.count_nonzero(
        small.impact.z_scores > 0.0
    )


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(grid_n=1)
    with pytest.raises(ValueError):
        ScenarioConfig(power_ratio=1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(bs_per_generator_range=(0, 3))
    with pytest.raises(ValueError):
        ScenarioConfig(num_generators=0)
    for name, value in (("grid_n", 4.5), ("num_generators", 2.5), ("seed", True), ("grid_n", "4")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            ScenarioConfig(**{name: value})
    for bounds in ((1.5, 3), 3, (1, 2, 3), [1, 3]):
        with pytest.raises(ValueError, match="^bs_per_generator_range must be a pair of integers$"):
            ScenarioConfig(bs_per_generator_range=bounds)
    for value in ("x", True, None, [1.0]):
        message = f"^budget must be a number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(budget=value)
    # An int is a number, so JSON's 100 is as good as 100.0.
    assert ScenarioConfig(budget=100).budget == 100
    for delta in (0.0, -1.0):
        with pytest.raises(ValueError, match="^delta must be positive$"):
            ScenarioConfig(delta=delta)
    # A seed is a SeedSequence entropy, which must be nonnegative.
    for seed in (-1, -2**40):
        with pytest.raises(ValueError, match="^seed must be nonnegative$"):
            ScenarioConfig(seed=seed)
    assert ScenarioConfig(seed=0).seed == 0


@pytest.mark.parametrize(
    "name", [f.name for f in fields(ScenarioConfig) if f.type == "float"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_floats(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ScenarioConfig(**{name: value})


def test_every_station_is_supplied():
    sc = generate(ScenarioConfig(grid_n=5, seed=11, num_generators=2))
    assert np.all(sc.assignment.T.sum(axis=1) > 0.999999999)


def test_game_instance_wiring(grid3_scenario):
    inst = grid3_scenario.game_instance()
    assert inst.num_stations == len(grid3_scenario.base_stations)
    assert np.allclose(inst.headroom, grid3_scenario.impact.headroom)


def test_loader_rejects_a_negative_turning_ratio():
    # One share set to -0.5 and a sibling raised to keep the row sum 1.
    lines, first = _its_rows(GOLDEN_GRID4.read_text(encoding="utf-8"), "ratios")
    row, col, share = lines[first].split()
    sibling = lines[first + 1].split()
    assert sibling[0] == row
    lines[first] = f"{row} {col} -0.5"
    lines[first + 1] = f"{row} {sibling[1]} {float(sibling[2]) + float(share) + 0.5!r}"
    with pytest.raises(FormatError, match=rf"\[its\] ratio matrix entry \({row}, {col}\) is -0.5"):
        loads("\n".join(lines) + "\n")


def test_loader_checks_intersection_positions():
    # A file stores no street geometry, so its streets follow a moved
    # intersection.
    moved = _edit(_edit(_grid3_text(), "intersections", 1, "7.5"), "intersections", 2, "-3.25")
    assert loads(moved).network.graph.geometry[0].tolist() == [7.5, -3.25, 1.0, 0.0]


DATA = Path(__file__).parent / "data"
GOLDEN_GRID4 = DATA / "scenario-grid4-seed0-v3.txt"
# The config of each golden scenario, committed as a v1, a v2 and a v3 file.
GOLDENS = {
    "grid4-seed0": ScenarioConfig(grid_n=4, seed=0),
    "grid6-r0.3-seed1": ScenarioConfig(grid_n=6, cell_radius=0.3, seed=1),
}


def _golden(name: str, version: str) -> str:
    return (DATA / f"scenario-{name}-{version}.txt").read_text(encoding="utf-8")


def _coverage_entries(sc: Scenario) -> dict:
    """The (street, station) -> km entries of a scenario's coverage map."""
    rows, cols, km = csr_entries(sc.coverage.lengths)
    return dict(zip(zip(rows.tolist(), cols.tolist()), km.tolist()))


def _config_from_lines(raw: dict) -> ScenarioConfig:
    """The config of a file's raw ``[config]`` values, as the line-by-line
    oracle reads them; keys that set no field are ignored."""
    values = {
        f.name: (int if f.type == "int" else float)(raw[f.name])
        for f in fields(ScenarioConfig) if f.name != "bs_per_generator_range"
    }
    if raw["bs_per_generator_min"] != "auto":
        values["bs_per_generator_range"] = (
            int(raw["bs_per_generator_min"]), int(raw["bs_per_generator_max"])
        )
    return ScenarioConfig(**values)


@pytest.mark.parametrize("name", list(GOLDENS))
def test_older_goldens_regenerate_from_their_config(name):
    # The loader reads only v3.  A v1 or v2 golden's [config] values give
    # the v3 golden, byte for byte, and the scenario the v3 golden loads to.
    sc = generate(GOLDENS[name])
    v3 = _golden(name, "v3")
    assert dumps(sc) == v3 and scenarios_equal(loads(v3), sc)
    for version in ("v1", "v2"):
        config = _config_from_lines(line_entries(_golden(name, version))["config"])
        assert dumps(generate(config)) == v3, version
    # The v1 golden's coverage block holds the very bits that generate builds.
    assert line_entries(_golden(name, "v1"))["coverage"] == _coverage_entries(sc)


def test_golden_file_pins_the_shared_street_claims():
    # Up to five cells of radius 0.3 share one street, so the lowest-id
    # claim rule decides many of the covered lengths the v1 file stores.
    sc = generate(GOLDENS["grid6-r0.3-seed1"])
    assert np.diff(sc.coverage.lengths.indptr).max() == 5
    assert line_entries(_golden("grid6-r0.3-seed1", "v1"))["coverage"] == _coverage_entries(sc)


@pytest.mark.parametrize(
    "text, message",
    [
        *(
            (_golden(name, version),
             f"unrecognised header 'icisim scenario {version}', expected 'icisim scenario v3'")
            for name in GOLDENS for version in ("v1", "v2")
        ),
        (_golden("grid4-seed0", "v3") + "[impact]\nscores 0\n",
         "unexpected trailing content: '[impact]'"),
        (_golden("grid4-seed0", "v3").replace("\ndelta = ", "\nanchor_street = 0\ndelta = "),
         "[config] unknown key 'anchor_street'"),
    ],
    ids=[*(f"{name}-{version}" for name in GOLDENS for version in ("v1", "v2")),
         "trailing impact section", "anchor key"],
)
def test_loader_rejects_what_dumps_does_not_write(text, message):
    with pytest.raises(FormatError) as err:
        loads(text)
    assert str(err.value) == message


def test_intersections_at_one_position_give_zero_length_streets():
    # Intersection 1 of the grid-4 golden moved onto intersection 0: the
    # two streets between them have length 0.  A zero-length street gets no
    # coverage entry, and every impact score stays finite.
    sc = loads(_edit(GOLDEN_GRID4.read_text(encoding="utf-8"), "intersections", 1, "0.0", row=1))
    graph = sc.network.graph
    assert graph.positions[1].tolist() == graph.positions[0].tolist() == [0.0, 0.0]
    assert np.flatnonzero(graph.length == 0.0).tolist() == [0, 1]
    assert scenarios_equal(loads(dumps(sc)), sc)
    assert np.diff(sc.coverage.lengths.indptr)[:2].tolist() == [0, 0]
    assert np.isfinite(sc.impact.z_scores).all() and np.isfinite(sc.impact.z_vectors).all()


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("delta = 1.0\n", "", r"\[config\] missing key 'delta'"),
        ("seed = 7\n", "seed = 7\ncolour = 3\n", r"\[config\] unknown key 'colour'"),
        ("seed = 7\n", "seed = 7\nseed = 8\n", r"\[config\] repeated key 'seed'"),
        ("delta = 1.0\n[its]\n", "delta = 1.0\n", r"\[config\] config entry: expected 3"),
        ("grid_n = 2\n", "grid_n = 1_0\n", r"\[config\] grid_n: bad integer '1_0'"),
        ("budget = 50.0\n", "budget = 5_0.0\n", r"\[config\] budget: bad float '5_0.0'"),
    ],
    ids=["missing", "unknown", "repeated", "no [its] after it", "1_0", "5_0.0"],
)
def test_config_block_keys_are_checked(old, new, message):
    assert old in HAND_WRITTEN
    with pytest.raises(FormatError, match=message):
        loads(HAND_WRITTEN.replace(old, new))


@pytest.mark.parametrize(
    "low, high, message",
    [
        ("auto", "7", r"^\[config\] bs_per_generator_max: expected 'auto' with an 'auto' "
                      r"minimum, got '7'$"),
        ("auto", "banana", r"^\[config\] bs_per_generator_max: expected 'auto' with an "
                           r"'auto' minimum, got 'banana'$"),
        ("2", "auto", r"^\[config\] bs_per_generator_max: bad integer 'auto'$"),
    ],
)
def test_loader_takes_both_connection_bounds_or_neither(low, high, message):
    # A range is two integers or two "auto"s; one "auto" does not make the
    # other bound unread.
    text = GOLDEN_GRID4.read_text(encoding="utf-8")
    both = "\nbs_per_generator_min = auto\nbs_per_generator_max = auto\n"
    assert both in text
    edited = text.replace(
        both, f"\nbs_per_generator_min = {low}\nbs_per_generator_max = {high}\n"
    )
    with pytest.raises(FormatError, match=message):
        loads(edited)


def test_loader_rejects_a_zero_ratio():
    # Street 0's share to street 4 in the grid-4 golden set to 0.0, and its
    # value moved onto the other outflow of street 0, so the shares still
    # sum to 1.  A zero would drop the pair out of the network's support.
    text = GOLDEN_GRID4.read_text(encoding="utf-8")
    zero, sibling = "0 4 0.16209052334897356\n", "0 6 0.8379094766510264\n"
    assert "\nratios 112\n" + zero + sibling in text
    moved = 0.16209052334897356 + 0.8379094766510264
    edited = text.replace(zero + sibling, f"0 4 0.0\n0 6 {moved!r}\n")
    with pytest.raises(FormatError) as err:
        loads(edited)
    assert str(err.value) == "[its] ratio matrix entry (0, 4) is 0.0, not a finite positive share"


def test_loader_rejects_a_zero_link():
    # A zero share between station 0 and generator 1, inserted in row-major
    # order with the count bumped.  It would be no line, so the file would
    # load and dump with one entry fewer.
    text = GOLDEN_GRID4.read_text(encoding="utf-8")
    assert "\nlinks 9\n0 0 1.0\n1 0 1.0\n" in text
    for value in ("0.0", "-0.0"):
        edited = text.replace("\nlinks 9\n0 0 1.0\n", f"\nlinks 10\n0 0 1.0\n0 1 {value}\n")
        with pytest.raises(FormatError) as err:
            loads(edited)
        assert str(err.value) == f"[pg] link entry (0, 1) is {value}, not a positive share"


def test_loader_rejects_a_negative_seed():
    text = GOLDEN_GRID4.read_text(encoding="utf-8")
    assert "\nseed = 0\n" in text
    with pytest.raises(FormatError, match=r"^\[config\] seed must be nonnegative$"):
        loads(text.replace("\nseed = 0\n", "\nseed = -1\n"))


def _sparse(entries: dict, shape: tuple[int, int]) -> scipy.sparse.coo_array:
    pairs = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
    values = np.array(list(entries.values()), dtype=float)
    return scipy.sparse.coo_array((values, (pairs[:, 0], pairs[:, 1])), shape=shape)


def _scenario_from_lines(text: str) -> Scenario:
    """The scenario of a file read by the line-by-line oracle."""
    blocks = line_entries(text)
    config = _config_from_lines(blocks["config"])
    streets = blocks["streets"]  # id tail head
    n = len(streets)
    graph = StreetGraph(
        [s[1] for s in streets], [s[2] for s in streets],
        [(x, y) for _, x, y in blocks["intersections"]],
    )
    network = network_from_matrix(graph, _sparse(blocks["ratios"], (n, n)))
    rows = np.array(blocks["stations"], dtype=float).reshape(-1, 6)
    stations = Stations(rows[:, 1:3], rows[:, 3], rows[:, 4], rows[:, 5])
    B, G = len(stations), len(blocks["generators"])
    coverage = build_coverage(network.graph, stations)
    shares = _sparse(blocks["links"], (B, G)).toarray()
    generators = np.array([(x, y) for _, x, y in blocks["generators"]]).reshape(G, 2)
    return Scenario(
        config, network, stations, coverage, generators,
        build_assignment(stations, shares),
        build_impact_model(network.null_vector, coverage, stations, config.delta),
    )


def test_loads_equals_line_by_line_oracle():
    texts = [HAND_WRITTEN, *(_golden(name, "v3") for name in GOLDENS)]
    texts += [
        dumps(generate(ScenarioConfig(grid_n=grid_n, seed=seed)))
        for grid_n in range(2, 21) for seed in range(4)
    ]
    for text in texts:
        assert scenarios_equal(loads(text), _scenario_from_lines(text)), text[:300]


@pytest.mark.parametrize(
    "block, field, value, message",
    [
        ("streets", 1, "1.5", r"\[its\] street tail: bad integer '1.5'"),
        ("streets", 2, "-", r"\[its\] street head: bad integer '-'"),
        ("links", 1, "1e3", r"\[pg\] link generator: bad integer '1e3'"),
        ("generators", 0, str(2**63), r"\[pg\] generator id: bad integer"),
        ("intersections", 2, "\u0661\u0662", r"\[its\] intersection y: bad float"),
        ("stations", 3, "inf", r"\[ci\] station cell radius: non-finite value 'inf'"),
    ],
)
def test_numeric_blocks_take_ascii_decimal_tokens(block, field, value, message):
    with pytest.raises(FormatError, match=message):
        loads(_edit(_grid3_text(), block, field, value, row=2))


@pytest.mark.parametrize(
    "field, value, message",
    [
        (3, "-1.0", "cell radius must be positive"),
        (4, "500.0", "need 0 < activation power < full-coverage power"),
    ],
    ids=["radius", "powers"],
)
def test_bad_station_is_named_once(field, value, message):
    # Station 2 is bad too; the error names the lowest id, and names it once.
    text = dumps(generate(ScenarioConfig(grid_n=3, seed=0)))
    text = _edit(_edit(text, "stations", field, value, row=2), "stations", field, value, row=1)
    with pytest.raises(FormatError, match=rf"^\[ci\] station 1: {message}$"):
        loads(text)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda ln: ln + " 7", r"\[its\] ratio: expected 3 fields, found 4"),
        (lambda ln: ln.rsplit(" ", 1)[0], r"\[its\] ratio: expected 3 fields, found 2"),
        (lambda ln: ln, r"\[its\] ratio indices \(0, 999\) out of range"),
    ],
    ids=["extra field", "missing field", "later line"],
)
def test_bad_block_line_is_named_by_section(edit, message):
    # The first bad line decides the message, wherever it sits in the block.
    lines = GOLDEN_GRID4.read_text(encoding="utf-8").splitlines()
    head = next(k for k, line in enumerate(lines) if line.startswith("ratios "))
    lines[head + 3] = edit(lines[head + 3])
    lines[head + 5] = "0 999 0.5"
    with pytest.raises(FormatError, match=message):
        loads("\n".join(lines) + "\n")


def _its_rows(text: str, block: str) -> tuple[list[str], int]:
    """The lines of ``text`` and the index of the first row of ``block``."""
    lines = text.splitlines()
    return lines, next(k for k, line in enumerate(lines) if line.startswith(block + " ")) + 1


@pytest.mark.parametrize(
    "block, row, field, value, message",
    [
        ("streets", 23, 0, "24", "[its] street ids must be 0..23 in row order: row 23 has id 24"),
        ("streets", 6, 2, "1", "[its] street 6 starts and ends at intersection 1"),
        ("streets", 4, 1, "42", "[its] street 4 references an intersection with no position"),
    ],
    ids=["street id gap", "self-loop", "tail with no intersection"],
)
def test_loader_structure_errors_keep_their_texts(block, row, field, value, message):
    # Street 6 runs from intersection 1 to 4, the centre of the grid-3 scenario.
    lines, first = _its_rows(_grid3_text(), block)
    parts = lines[first + row].split()
    parts[field] = value
    lines[first + row] = " ".join(parts)
    with pytest.raises(FormatError) as err:
        loads("\n".join(lines) + "\n")
    assert str(err.value) == message


def _drop_row(lines: list[str], first: int) -> None:
    _bump_count(lines, first - 1, -1)
    del lines[first + 1]


def _repeat_row(lines: list[str], first: int) -> None:
    _bump_count(lines, first - 1, 1)
    lines.insert(first + 1, lines[first + 1])


def _swap_rows(lines: list[str], first: int) -> None:
    lines[first + 1], lines[first + 2] = lines[first + 2], lines[first + 1]


@pytest.mark.parametrize(
    "block, what, section",
    [("intersections", "intersection", "its"), ("streets", "street", "its"),
     ("stations", "station", "ci"), ("generators", "generator", "pg")],
    ids=["intersections", "streets", "stations", "generators"],
)
@pytest.mark.parametrize(
    "edit, row, row_id",
    [(_drop_row, 1, 2), (_repeat_row, 2, 1), (_swap_rows, 1, 2)],
    ids=["gap", "repeat", "out of order"],
)
def test_loader_takes_table_rows_only_in_id_order(block, what, section, edit, row, row_id):
    # Row 1 dropped, written twice or swapped with row 2: the row of id k
    # must come k-th, and the first row that does not is named.
    lines, first = _its_rows(_grid3_text(), block)
    edit(lines, first)
    count = int(lines[first - 1].split()[1])
    with pytest.raises(FormatError) as err:
        loads("\n".join(lines) + "\n")
    assert str(err.value) == (
        f"[{section}] {what} ids must be 0..{count - 1} in row order: row {row} has id {row_id}"
    )


def test_readme_python_blocks_run(capsys):
    # Each python block of README runs as written, in a namespace of its
    # own, so the library sketch cannot drift from the package's API.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 3
    namespaces = []
    for block in blocks:
        namespaces.append({"__name__": "readme"})
        exec(compile(block, str(readme), "exec"), namespaces[-1])
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and float(out[0]) > 0.0
    assert out[1] == "[500. 500.]"
    # The layer sketch's replica is the scenario generate builds, and the
    # first row of its stack is that replica.
    layers = namespaces[1]
    assert scenarios_equal(layers["replica"], generate(layers["other"]))
    stack, replica = layers["stack"], layers["replica"]
    assert np.array_equal(stack.impact.scale[0], replica.impact.scale)
    assert np.array_equal(stack.assignment.T[0], replica.assignment.T)
