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

from icisim.coverage import Stations, build_coverage, coverage_from_lengths
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
from icisim.traffic import StreetGraph, csr_entries, csr_equal, network_from_matrix, solve_flows

from conftest import sampled_ratios
from oracles import (
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
    flows = solve_flows(net, 0, 1000.0)
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
            for name in ("tail", "head", "geometry", "length", "node_ids", "positions"):
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
    for grid_n in range(2, 13):
        for seed in range(4):
            for num_generators, bounds in itertools.product((1, 3, 10), ((2, 5), None)):
                config = ScenarioConfig(
                    grid_n=grid_n, seed=seed, num_generators=num_generators,
                    bs_per_generator_range=bounds,
                )
                stations = build_ci(config, _grid_topology(config))[0]
                positions = _place_generators(config, _rng(seed, _STREAM_GENERATORS))
                wiring = [
                    wire(config, positions, stations, _rng(seed, _STREAM_CONNECTIONS))
                    for wire in (_wire_generators, set_wiring)
                ]
                assert np.array_equal(*wiring), config


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


def legacy_text(sc: Scenario) -> str:
    """The scenario in the older layout that also stored the impact model."""
    imp = sc.impact
    lines = [f"scores {imp.num_stations}"]
    lines += [f"{b} {float(z)!r}" for b, z in enumerate(imp.z_scores)]
    lines.append(f"vectors {imp.num_stations}")
    for b, row in enumerate(imp.z_vectors):
        lines.append(f"{b} " + " ".join(repr(float(x)) for x in row))
    return dumps(sc) + "[impact]\n" + "\n".join(lines) + "\n"


def v2_text(sc: Scenario) -> str:
    """``dumps(sc)`` as format v2 wrote it: the v2 header, and each street
    row followed by the street's length and geometry."""
    graph = sc.network.graph
    lines = dumps(sc).splitlines()
    lines[0] = "icisim scenario v2"
    first = lines.index(f"streets {graph.n}") + 1
    stored = np.column_stack((graph.length, graph.geometry)).tolist()
    for i, row in enumerate(stored):
        lines[first + i] += " " + " ".join(map(repr, row))
    return "\n".join(lines) + "\n"


def _text_holding(block: str) -> str:
    """A grid-3 file as ``dumps`` writes it; for the street rows, as v2
    wrote them with lengths and geometry; for the coverage block, which
    only format v1 stores, the committed v1 file of grid 4."""
    if block == "coverage":
        return GOLDEN_V1.read_text(encoding="utf-8")
    sc = generate(ScenarioConfig(grid_n=3, seed=0))
    return v2_text(sc) if block == "streets" else dumps(sc)


def _edit(text: str, block: str, field: int, value: str, row: int = 0) -> str:
    """Replace one field of row ``row`` under the line starting with ``block``."""
    lines = text.splitlines()
    idx = next(k for k, line in enumerate(lines) if line.startswith(block)) + 1 + row
    parts = lines[idx].split()
    parts[field] = value
    lines[idx] = " ".join(parts)
    return "\n".join(lines) + "\n"


def test_legacy_impact_section_loads_equal():
    sc = generate(ScenarioConfig(grid_n=3, seed=0))
    assert scenarios_equal(sc, loads(legacy_text(sc)))


@pytest.mark.parametrize(
    "block, field, value, rejected",
    [
        ("scores", 1, repr(123456.0), False),
        ("vectors", -1, "7.5", False),
        ("vectors", 2, "nan", True),
        ("scores", 0, "999", True),
        ("vectors", 0, "999", True),
    ],
    ids=["score", "vector entry", "nan entry", "score station index", "vector station index"],
)
def test_legacy_impact_section_is_verified(block, field, value, rejected):
    # The section's counts, station ids and finite values are checked; the
    # stored numbers are otherwise ignored, as loading recomputes the model.
    sc = generate(ScenarioConfig(grid_n=3, seed=0))
    text = _edit(legacy_text(sc), block, field, value)
    if rejected:
        with pytest.raises(FormatError, match=r"\[impact\]"):
            loads(text)
    else:
        assert scenarios_equal(loads(text), loads(dumps(sc)))


@pytest.mark.parametrize(
    "block, field, value, row",
    [
        ("coverage", 2, "nan", 0),
        ("links", 2, "nan", 0),
        ("streets", 3, "nan", 0),
        ("generators", 1, "nan", 0),
        ("generators", 0, "999", 0),
        ("stations", 0, "999", 0),
        ("stations", 0, "0", 1),
        ("coverage", 2, "-0.5", 0),
        ("delta", 2, "nan", -1),
        ("budget", 2, "inf", -1),
        ("grid_n", 2, "nan", -1),
        ("delta", 2, "-1.0", -1),
    ],
    ids=[
        "nan covered length", "nan link share", "nan street length", "nan generator x",
        "generator id 999", "station id 999", "repeated station id",
        "negative covered length", "nan delta", "infinite budget", "nan grid_n",
        "negative delta",
    ],
)
def test_loader_rejects_bad_values_and_ids(block, field, value, row):
    with pytest.raises(FormatError):
        loads(_edit(_text_holding(block), block, field, value, row))


def _repeat_entry(text: str, block: str, value: str, stray_last: bool) -> str:
    """Repeat one entry of ``block`` with ``value``, before or after the original.

    The entry is the first of a row with several entries, so that a changed
    value also survives the row normalisation of supply shares.
    """
    lines = text.splitlines()
    head = next(k for k, line in enumerate(lines) if line.startswith(block + " "))
    keyword, count = lines[head].split()
    rows = [line.split()[0] for line in lines[head + 1:head + 1 + int(count)]]
    idx = head + 1 + next(k for k, r in enumerate(rows) if rows.count(r) > 1)
    row, col, _ = lines[idx].split()
    lines[head] = f"{keyword} {int(count) + 1}"
    lines.insert(idx + stray_last, f"{row} {col} {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("block", ["ratios", "coverage", "links"])
def test_repeated_entry_keeps_its_last_value(block):
    text = _text_holding(block)
    sc = generate(ScenarioConfig(grid_n=4 if block == "coverage" else 3, seed=0))
    assert scenarios_equal(sc, loads(_repeat_entry(text, block, "0.125", stray_last=False)))
    if block == "coverage":
        # A v1 coverage block must match the geometry: the error shows the kept value.
        with pytest.raises(FormatError, match=r"^\[ci\] coverage of street \d+ by station \d+ "
                                              r"is 0\.125 km in the file, but "):
            loads(_repeat_entry(text, block, "0.125", stray_last=True))
        return
    if block == "ratios":
        # The kept 0.125 replaces a share, so that street's shares no longer sum to 1.
        with pytest.raises(FormatError, match=r"^\[its\] outflow shares of inflow streets "
                                              r"\[\d+\] do not sum to 1$"):
            loads(_repeat_entry(text, block, "0.125", stray_last=True))
        return
    assert not scenarios_equal(sc, loads(_repeat_entry(text, block, "0.125", stray_last=True)))


@pytest.mark.parametrize(
    "block, row, col, message",
    [
        ("ratios", "0", "999", r"\[its\] ratio indices \(0, 999\) out of range"),
        ("coverage", "-1", "0", r"\[ci\] coverage indices \(-1, 0\) out of range"),
        ("links", "0", "7", r"\[pg\] link indices \(0, 7\) out of range"),
    ],
)
def test_entry_indices_are_range_checked(block, row, col, message):
    text = _edit(_edit(_text_holding(block), block, 0, row), block, 1, col)
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
icisim scenario v1
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
anchor_street = 0
anchor_flow = 500.0
delta = 1.0
[its]
intersections 2
0 0.0 0.0
1 1.0 0.0
streets 2
0 0 1 1.0 0.0 0.0 1.0 0.0
1 1 0 1.0 1.0 0.0 0.0 0.0
ratios 2
0 1 1.0
1 0 1.0
[ci]
stations 1
0 0.5 0.0 2.0 100.0 200.0
coverage 2
0 0 1.0
1 0 1.0
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


OVERLAP_FILE = Path(__file__).parent / "data" / "scenario-overlap-v1.txt"


def test_loader_rejects_overlapping_cells():
    # HAND_WRITTEN plus a second station on the first one's centre: the
    # two split each street and both draw from generator 0.
    text = OVERLAP_FILE.read_text(encoding="utf-8")
    with pytest.raises(
        FormatError, match=r"^\[ci\] cells of stations 0 and 1 have overlapping interiors$"
    ):
        loads(text)
    # Two apothems (2 * sqrt(3) km) apart, station 1's cell reaches neither
    # street, so station 0 covers all of each: the stored half-and-half
    # split no longer matches the geometry, first at street 0, station 0.
    moved = text.replace("1 0.5 0.0 2.0", "1 0.5 3.5 2.0")
    assert moved != text
    with pytest.raises(FormatError, match=(
        r"^\[ci\] coverage of street 0 by station 0 is 0\.5 km in the file, "
        r"but 1\.0 km from the geometry$"
    )):
        loads(moved)
    # With the block the geometry gives, the file loads.
    fixed = moved.replace("coverage 4\n0 0 0.5\n0 1 0.5\n1 0 0.5\n1 1 0.5\n",
                          "coverage 2\n0 0 1.0\n1 0 1.0\n")
    assert fixed != moved
    assert np.array_equal(loads(fixed).coverage.C, [[1.0, 0.0], [1.0, 0.0]])
    # A stored entry the rebuild lacks is compared too.
    stray = fixed.replace("coverage 2\n", "coverage 3\n0 1 5e-07\n")
    with pytest.raises(FormatError, match=(
        r"^\[ci\] coverage of street 0 by station 1 is 5e-07 km in the file, "
        r"but 0\.0 km from the geometry$"
    )):
        loads(stray)


LEAKY_FILE = Path(__file__).parent / "data" / "scenario-leaky-row-v3.txt"


def test_loader_rejects_ratios_that_do_not_sum_to_1():
    # The grid-4 file with the first turning share of street 0 halved.
    with pytest.raises(
        FormatError, match=r"^\[its\] outflow shares of inflow streets \[0\] do not sum to 1$"
    ):
        loads(LEAKY_FILE.read_text(encoding="utf-8"))


def test_negative_count_is_rejected():
    text = HAND_WRITTEN.replace("coverage 2\n0 0 1.0\n1 0 1.0\n", "coverage -1\n")
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
    flows = solve_flows(sc.network, 0, 500.0)
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
    lines, first = _its_rows(GOLDEN_V1.read_text(encoding="utf-8"), "ratios")
    row, col, share = lines[first].split()
    sibling = lines[first + 1].split()
    assert sibling[0] == row
    lines[first] = f"{row} {col} -0.5"
    lines[first + 1] = f"{row} {sibling[1]} {float(sibling[2]) + float(share) + 0.5!r}"
    with pytest.raises(FormatError, match=rf"\[its\] ratio matrix entry \({row}, {col}\) is -0.5"):
        loads("\n".join(lines) + "\n")


def test_loader_checks_intersection_positions():
    # A v2 file's stored geometry must meet the positions; a v3 file
    # stores none, so its streets follow a moved intersection.
    sc = generate(ScenarioConfig(grid_n=3, seed=0))
    for text in (v2_text(sc), dumps(sc)):
        moved = _edit(_edit(text, "intersections", 1, "7.5"), "intersections", 2, "-3.25")
        if text.startswith("icisim scenario v2"):
            with pytest.raises(FormatError, match=r"\[its\].*geometry"):
                loads(moved)
        else:
            assert loads(moved).network.graph.geometry[0].tolist() == [7.5, -3.25, 1.0, 0.0]
    # Within 1e-9 of its stored geometry a v2 file loads, and takes the
    # geometry its positions give.
    nudged = loads(_edit(v2_text(sc), "intersections", 2, "5e-10"))
    assert nudged.network.graph.geometry[0].tolist() == [0.0, 5e-10, 1.0, 0.0]


DATA = Path(__file__).parent / "data"
GOLDEN_V1 = DATA / "scenario-grid4-seed0-v1.txt"


def _without_anchor_lines(text: str) -> str:
    return "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("anchor_"))


def _as_v2(text: str) -> str:
    """A generated v1 file as v2 writes it: the v2 header, and no anchor
    lines or coverage block; every other line is the same."""
    lines = _without_anchor_lines(text).splitlines(keepends=True)
    head = next(k for k, line in enumerate(lines) if line.startswith("coverage "))
    del lines[head:head + 1 + int(lines[head].split()[1])]
    return "".join(["icisim scenario v2\n", *lines[1:]])


def _coverage_entries(sc: Scenario) -> dict:
    """The (street, station) -> km entries of a scenario's coverage map."""
    rows, cols, km = csr_entries(sc.coverage.lengths)
    return dict(zip(zip(rows.tolist(), cols.tolist()), km.tolist()))


def test_golden_v1_file_loads_and_dumps_without_anchor_lines():
    # Written before the anchor settings were dropped; it still carries them.
    text = GOLDEN_V1.read_text(encoding="utf-8")
    assert text.startswith("icisim scenario v1\n")
    assert "anchor_street = 0\nanchor_flow = 1000.0\n" in text
    sc = generate(ScenarioConfig(grid_n=4, seed=0))
    assert scenarios_equal(loads(text), sc)
    # Its coverage block holds the very bits that generate builds.
    assert line_entries(text)["coverage"] == _coverage_entries(sc)
    # Format v2 drops the anchor lines and the coverage block; dumps
    # writes v3, which drops each street's length and geometry too.
    v2 = (DATA / "scenario-grid4-seed0-v2.txt").read_text(encoding="utf-8")
    v3 = (DATA / "scenario-grid4-seed0-v3.txt").read_text(encoding="utf-8")
    assert v2 == _as_v2(text) == v2_text(sc)
    assert dumps(sc) == v3
    assert scenarios_equal(loads(v2), sc) and scenarios_equal(loads(v3), sc)


GOLDEN_GRID6 = DATA / "scenario-grid6-r0.3-seed1-v1.txt"


def test_golden_file_pins_the_shared_street_claims():
    # Up to five cells of radius 0.3 share one street, so the lowest-id
    # claim rule decides many of the covered lengths the v1 file stores.
    config = ScenarioConfig(grid_n=6, cell_radius=0.3, seed=1)
    sc = generate(config)
    assert np.diff(sc.coverage.lengths.indptr).max() == 5
    text = GOLDEN_GRID6.read_text(encoding="utf-8")
    assert line_entries(text)["coverage"] == _coverage_entries(sc)
    assert scenarios_equal(loads(text), sc)
    v2 = (DATA / "scenario-grid6-r0.3-seed1-v2.txt").read_text(encoding="utf-8")
    v3 = (DATA / "scenario-grid6-r0.3-seed1-v3.txt").read_text(encoding="utf-8")
    assert v2 == _as_v2(text) == v2_text(sc)
    assert dumps(sc) == v3
    assert scenarios_equal(loads(v2), sc) and scenarios_equal(loads(v3), sc)


def test_intersections_at_one_position_give_zero_length_streets():
    # Intersection 1 of the grid-4 golden moved onto intersection 0: the
    # two streets between them have length 0.  The file loads alike from
    # v3 and v2 rows; a zero-length street gets no coverage entry, and
    # every impact score stays finite.
    golden = (DATA / "scenario-grid4-seed0-v3.txt").read_text(encoding="utf-8")
    sc = loads(_edit(golden, "intersections", 1, "0.0", row=1))
    graph = sc.network.graph
    assert graph.positions[1].tolist() == graph.positions[0].tolist() == [0.0, 0.0]
    assert np.flatnonzero(graph.length == 0.0).tolist() == [0, 1]
    assert scenarios_equal(loads(v2_text(sc)), sc)
    assert np.diff(sc.coverage.lengths.indptr)[:2].tolist() == [0, 0]
    assert np.isfinite(sc.impact.z_scores).all() and np.isfinite(sc.impact.z_vectors).all()


@pytest.mark.parametrize(
    "block, message",
    [
        ("0 0 0.999999\n1 0 1.0\n", "street 0 by station 0 is 0.999999 km in the file, "
                                      "but 1.0 km from the geometry"),
        ("0 0 1.0\n1 0 1.000001\n", "street 1 by station 0 is 1.000001 km in the file, "
                                      "but 1.0 km from the geometry"),
        ("1 0 1.0\n", "street 0 by station 0 is 0.0 km in the file, "
                       "but 1.0 km from the geometry"),
        ("0 0 0.999999999999\n1 0 1.0\n", None),
        ("0 0 1.0\n1 0 1.000000000001\n", None),
        ("0 0 1.0\n1 0 1.0\n0 0 0.999999999999\n", None),
    ],
    ids=["1e-6 short", "1e-6 long", "entry missing", "1e-12 short", "1e-12 long",
         "1e-12 off when repeated"],
)
def test_v1_coverage_block_must_match_the_geometry(block, message):
    # The stored block is compared with the rebuild to 1e-9 km, over the
    # entries of either; what loads is always the rebuild.
    old = "coverage 2\n0 0 1.0\n1 0 1.0\n"
    assert old in HAND_WRITTEN
    edited = HAND_WRITTEN.replace(old, f"coverage {len(block.splitlines())}\n{block}")
    if message is None:
        assert scenarios_equal(loads(edited), loads(HAND_WRITTEN))
        assert loads(edited).coverage.lengths.data.tolist() == [1.0, 1.0]
    else:
        with pytest.raises(FormatError, match=rf"^\[ci\] coverage of {re.escape(message)}$"):
            loads(edited)


def test_legacy_anchor_keys_parse_and_are_ignored():
    plain = _without_anchor_lines(HAND_WRITTEN)
    assert "anchor" not in plain
    assert scenarios_equal(loads(HAND_WRITTEN), loads(plain))
    # No range check is left: the keys set nothing.
    edited = HAND_WRITTEN.replace("anchor_street = 0", "anchor_street = 99")
    assert scenarios_equal(loads(edited.replace("anchor_flow = 500.0", "anchor_flow = -3.0")),
                           loads(plain))
    for old, new, message in (
        ("anchor_street = 0", "anchor_street = 1.5", r"\[config\] anchor_street: bad integer"),
        ("anchor_flow = 500.0", "anchor_flow = nan", r"\[config\] anchor_flow: non-finite"),
        ("anchor_flow = 500.0", "anchor_flow = x", r"\[config\] anchor_flow: bad float"),
    ):
        with pytest.raises(FormatError, match=message):
            loads(HAND_WRITTEN.replace(old, new))


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


def test_loader_rejects_a_negative_seed():
    text = (DATA / "scenario-grid4-seed0-v2.txt").read_text(encoding="utf-8")
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
    raw = blocks["config"]
    values = {
        f.name: (int if f.type == "int" else float)(raw[f.name])
        for f in fields(ScenarioConfig) if f.name != "bs_per_generator_range"
    }
    if raw["bs_per_generator_min"] != "auto":
        values["bs_per_generator_range"] = (
            int(raw["bs_per_generator_min"]), int(raw["bs_per_generator_max"])
        )
    config = ScenarioConfig(**values)
    positions = {node: (x, y) for node, x, y in blocks["intersections"]}
    # id tail head, and in a v2 or v1 file the length and geometry it drops
    streets = sorted(blocks["streets"])
    n = len(streets)
    graph = StreetGraph(
        [s[1] for s in streets], [s[2] for s in streets], list(positions), list(positions.values())
    )
    network = network_from_matrix(graph, _sparse(blocks["ratios"], (n, n)))
    rows = np.array(sorted(blocks["stations"]), dtype=float).reshape(-1, 6)
    stations = Stations(rows[:, 1:3], rows[:, 3], rows[:, 4], rows[:, 5])
    B, G = len(stations), len(blocks["generators"])
    if "coverage" in blocks:  # a v1 file
        coverage = coverage_from_lengths(network.graph, _sparse(blocks["coverage"], (n, B)))
    else:
        coverage = build_coverage(network.graph, stations)
    shares = _sparse(blocks["links"], (B, G)).toarray()
    generators = np.array([(x, y) for _, x, y in sorted(blocks["generators"])]).reshape(G, 2)
    return Scenario(
        config, network, stations, coverage, generators,
        build_assignment(stations, shares),
        build_impact_model(network, coverage, stations, config.delta),
    )


def test_loads_equals_line_by_line_oracle():
    texts = [HAND_WRITTEN, legacy_text(generate(ScenarioConfig(grid_n=3, seed=0)))]
    texts += [
        path.read_text(encoding="utf-8")
        for path in (GOLDEN_V1, GOLDEN_GRID6, *DATA.glob("scenario-grid*-v[23].txt"))
    ]
    texts += [
        dumps(generate(ScenarioConfig(grid_n=grid_n, seed=seed)))
        for grid_n in range(2, 21) for seed in range(4)
    ]
    for text in texts:
        assert scenarios_equal(loads(text), _scenario_from_lines(text)), text[:300]


@pytest.mark.parametrize(
    "block, field, value, message",
    [
        ("coverage", 2, "1_0", r"\[ci\] covered length: bad float '1_0'"),
        ("coverage", 0, "1_0", r"\[ci\] coverage street: bad integer '1_0'"),
        ("streets", 1, "1.5", r"\[its\] street id: bad integer '1.5'"),
        ("links", 1, "1e3", r"\[pg\] link generator: bad integer '1e3'"),
        ("generators", 0, str(2**63), r"\[pg\] generator id: bad integer"),
        ("intersections", 2, "\u0661\u0662", r"\[its\] intersection y: bad float"),
        ("stations", 3, "inf", r"\[ci\] station field: non-finite value 'inf'"),
    ],
)
def test_numeric_blocks_take_ascii_decimal_tokens(block, field, value, message):
    with pytest.raises(FormatError, match=message):
        loads(_edit(_text_holding(block), block, field, value, row=2))


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
        (lambda ln: ln + " 7", r"\[ci\] coverage entry: expected 3 fields, found 4"),
        (lambda ln: ln.rsplit(" ", 1)[0], r"\[ci\] coverage entry: expected 3 fields, found 2"),
        (lambda ln: ln, r"\[ci\] coverage indices \(0, 999\) out of range"),
    ],
    ids=["extra field", "missing field", "later line"],
)
def test_bad_block_line_is_named_by_section(edit, message):
    # The first bad line decides the message, wherever it sits in the block.
    lines = _text_holding("coverage").splitlines()
    head = next(k for k, line in enumerate(lines) if line.startswith("coverage "))
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
        ("streets", 23, 0, "24", "[its] street ids must be 0..n-1 with no gaps"),
        ("streets", 6, 2, "1", "[its] street 6 starts and ends at intersection 1"),
        ("streets", 3, 3, "1.5", "[its] street 3 length does not match its geometry"),
        ("streets", 4, 1, "42", "[its] street 4 references an intersection with no position"),
        ("intersections", 4, 2, "1.5", "[its] street 6 geometry does not run from "
                                       "intersection 1 to intersection 4 at their positions"),
    ],
    ids=["street id gap", "self-loop", "wrong length", "tail with no intersection",
         "geometry off positions"],
)
def test_loader_structure_errors_keep_their_texts(block, row, field, value, message):
    # Street 6 runs from intersection 1 to 4, the centre of the grid-3
    # scenario.  Its rows as v2 wrote them, with lengths and geometry.
    lines, first = _its_rows(v2_text(generate(ScenarioConfig(grid_n=3, seed=0))), block)
    parts = lines[first + row].split()
    parts[field] = value
    lines[first + row] = " ".join(parts)
    with pytest.raises(FormatError) as err:
        loads("\n".join(lines) + "\n")
    assert str(err.value) == message


def test_repeated_intersection_id_keeps_its_last_position():
    sc = generate(ScenarioConfig(grid_n=3, seed=0))
    text = dumps(sc)
    lines, first = _its_rows(text, "intersections")
    lines[first - 1] = "intersections 10"
    lines.insert(first + 2, "2 9.0 9.0")  # before the true line for id 2
    again = loads("\n".join(lines) + "\n")
    assert again.network.graph.node_ids.tolist() == list(range(9))
    assert np.array_equal(again.network.graph.positions, sc.network.graph.positions)
    assert dumps(again) == text
