"""Experiment runner and output-format tests (small, fast configurations)."""
from __future__ import annotations

import csv
import io
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
import xml.sax.saxutils
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from icisim import experiments, scenario, traffic
from icisim.cli import main as cli_main
from icisim.errors import IcisimError
from icisim.experiments import (
    ExperimentSpec,
    SweepTable,
    default_sweep,
    emit,
    pick_attack_source,
    resolve_budget_sweep,
    run_experiment,
    table_to_csv,
    table_to_svg,
)
from icisim.game import StealthLevel, defender_caps
from icisim.scenario import ScenarioConfig, build_its_stack, build_streets, generate

from oracles import stack_instances

BASE = ScenarioConfig(grid_n=3, seed=100)
LEVELS = (StealthLevel.POWER_SOURCE, StealthLevel.POWER_LINE, StealthLevel.BASE_STATION)


def _spec(experiment: str, **kwargs) -> ExperimentSpec:
    defaults = dict(
        experiment=experiment,
        base=BASE,
        sweep=default_sweep(experiment),
        reps=2,
        levels=LEVELS,
        budgets=(0.0, 50.0),
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec("power-sweep", reps=0)
    with pytest.raises(ValueError):
        _spec("power-sweep", sweep=())
    with pytest.raises(ValueError):
        _spec("nonsense")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("reps", True, "reps must be a positive integer, got True"),
        ("reps", 2.0, "reps must be a positive integer, got 2.0"),
        ("reps", 0, "reps must be a positive integer, got 0"),
        ("levels", ("line",), "levels must be one or more stealth levels, got ('line',)"),
        ("levels", (), "levels must be one or more stealth levels, got ()"),
    ],
    ids=["bool reps", "float reps", "zero reps", "level name", "no level"],
)
def test_spec_rejects_reps_and_levels_of_the_wrong_kind(field, value, message):
    # True ran one replica and wrote "reps = True" into the CSV, 2.0 failed
    # inside the run with a TypeError, and a level name with a KeyError.
    with pytest.raises(ValueError, match=re.escape(message)):
        _spec("power-sweep", **{field: value})


@pytest.mark.parametrize(
    "experiment, field, value, message",
    [
        ("power-sweep", "budgets", ("x",), "budgets must hold only numbers, got ('x',)"),
        ("power-sweep", "budgets", (True,), "budgets must hold only numbers, got (True,)"),
        ("power-sweep", "sweep", ("a",), "sweep must hold only numbers, got ('a',)"),
        ("allocation-compare", "sweep", ("0.5",), "sweep must hold only numbers, got ('0.5',)"),
        ("scale-sweep", "sweep", (3, False), "sweep must hold only numbers, got (3, False)"),
        ("power-sweep", "base", {"grid_n": 3},
         "base must be a ScenarioConfig, got {'grid_n': 3}"),
    ],
    ids=["string budget", "bool budget", "string cut", "string fraction", "bool grid",
         "dict base"],
)
def test_spec_rejects_sweeps_budgets_and_bases_of_the_wrong_kind(
    experiment, field, value, message
):
    # These failed late: numpy's isfinite on "x", a comparison with "a",
    # "0.5" inside the allocation-compare run, an attribute of the dict.
    with pytest.raises(ValueError, match=re.escape(message)):
        _spec(experiment, **{field: value})


def test_power_sweep_shape():
    table = run_experiment(_spec("power-sweep", sweep=tuple(range(0, 101, 10))))
    means = {row[0]: row[3] for row in table.rows}
    assert means[0.0] == 0.0
    # Monotone, linear to half power, then exactly flat.
    xs = sorted(means)
    values = [means[x] for x in xs]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert means[50.0] == pytest.approx(means[100.0], abs=1e-9)
    low = [x for x in xs if x <= 50.0]
    coeffs = np.polyfit(low, [means[x] for x in low], 1)
    residual = np.max(np.abs(np.polyval(coeffs, low) - [means[x] for x in low]))
    assert residual <= 1e-6 * (max(values) - min(values))


def test_scale_sweep_orderings():
    table = run_experiment(_spec("scale-sweep", sweep=(2.0, 3.0), reps=2))
    rows = {(r[0], r[1], r[2]): r[3] for r in table.rows}
    for grid_n in (2.0, 3.0):
        for level in LEVELS:
            assert rows[(grid_n, level.value, 0.0)] >= rows[(grid_n, level.value, 50.0)] - 1e-9
    # Zero-budget severity ordering: line dominates at each scale point.
    for grid_n in (2.0, 3.0):
        line = rows[(grid_n, "line", 0.0)]
        assert line >= rows[(grid_n, "source", 0.0)] - 1e-9
        assert line >= rows[(grid_n, "bs", 0.0)] - 1e-9


def test_radius_sweep_reports_both_budgets():
    spec = _spec("radius-sweep", sweep=(0.9, 1.2), reps=1, budgets=(0.0, 50.0))
    table = run_experiment(spec)
    assert table.sweep_name == "cell_radius"
    rows = {(r[0], r[1], r[2]): r[3] for r in table.rows}
    for radius in (0.9, 1.2):
        for level in LEVELS:
            undefended = rows[(radius, level.value, 0.0)]
            defended = rows[(radius, level.value, 50.0)]
            assert undefended >= defended - 1e-9


def test_allocation_compare_dominance():
    spec = _spec("allocation-compare", sweep=(0.0, 0.25, 0.5, 1.0), reps=2)
    table = run_experiment(spec)
    rows = {(r[0], r[1]): r[3] for r in table.rows}
    budgets = sorted({r[0] for r in table.rows})
    assert len(budgets) == 4
    for budget in budgets:
        for level in LEVELS:
            se = rows[(budget, f"{level.value}:se")]
            eq = rows[(budget, f"{level.value}:equal")]
            assert se <= eq + 1e-9


def test_budget_sweep_resolution():
    instance = generate(BASE).game_instance()
    budgets = resolve_budget_sweep((0.0, 0.5, 1.0), instance)
    assert budgets[0] == 0.0
    assert budgets[1] == pytest.approx(budgets[2] / 2.0)
    # Value 1.0 is the total headroom, exactly.  The station caps are the
    # headroom up to rounding; the source and line replies drain half the
    # full power, which power ratio 2 makes the headroom too; the overt
    # reply drains the full power.
    totals = {level: float(defender_caps(level, instance).sum()) for level in StealthLevel}
    headroom = float(instance.headroom.sum())
    assert budgets[2] == headroom
    for level in LEVELS:
        assert totals[level] == pytest.approx(headroom, rel=1e-14)
    assert totals[StealthLevel.OVERT] > headroom
    assert resolve_budget_sweep((40.0, 90.0), instance) == (40.0, 90.0)
    # Above power ratio 2 the source and line caps total half the full
    # power, less than the headroom; 1.0 is still the headroom.
    steep = generate(replace(BASE, power_ratio=3.0)).game_instance()
    headroom = float(steep.headroom.sum())
    assert resolve_budget_sweep((1.0,), steep) == (headroom,)
    for level in (StealthLevel.POWER_SOURCE, StealthLevel.POWER_LINE):
        total = float(defender_caps(level, steep).sum())
        assert total == pytest.approx(0.75 * headroom, rel=1e-14)


def test_allocation_compare_resolves_budgets_from_the_shared_headroom(monkeypatch):
    spec = _spec("allocation-compare", sweep=(0.25, 1.0, 40.0), reps=2, levels=LEVELS[:1])
    first = generate(BASE).game_instance()
    second = generate(replace(BASE, seed=BASE.seed + 1)).game_instance()
    resolved = resolve_budget_sweep(spec.sweep, first)
    seeds = []
    received = []

    def generated(config):
        seeds.append(config.seed)
        return generate(config)

    def stacked(streets, replica_seeds):
        seeds.extend(replica_seeds)
        return build_its_stack(streets, replica_seeds)

    def recording(sweep, instance):
        received.append(instance)
        return resolve_budget_sweep(sweep, instance)

    # The ITS layer reads the seed, so each replica builds its own: replica
    # 0 from scratch by generate, the next one by the stacked ITS builder.
    monkeypatch.setattr(experiments, "generate", generated)
    monkeypatch.setattr(experiments, "build_its_stack", stacked)
    monkeypatch.setattr(experiments, "resolve_budget_sweep", recording)
    table = run_experiment(spec)
    assert seeds == [BASE.seed, BASE.seed + 1]
    assert sorted({row[0] for row in table.rows}) == sorted(resolved)
    # The budgets are resolved once, against the stack of both replicas,
    # whose one headroom the replicas share: so they are replica 0's.
    (instance,) = received
    T = np.stack([first.assignment.T, second.assignment.T])
    assert np.array_equal(instance.assignment.T, T)
    assert np.array_equal(instance.headroom, first.headroom)
    assert np.array_equal(instance.headroom, second.headroom)
    assert resolve_budget_sweep(spec.sweep, second) == resolved


# Per experiment id: the layer builds of a run with V sweep values and R
# replicas, as (generate calls, the seed count of each build_its_stack
# call, build_ci calls, the seed count of each build_pg_stack call).  The
# first sweep point on a street layer generates its first replica and
# stacks the other R - 1; a later one stacks only its missing layers, for
# all R replicas.
_LAYER_BUILDS = {
    "power-sweep": lambda v, r: (1, [r - 1], 0, [r - 1]),
    "allocation-compare": lambda v, r: (1, [r - 1], 0, [r - 1]),
    "scale-sweep": lambda v, r: (v, [r - 1] * v, 0, [r - 1] * v),
    "radius-sweep": lambda v, r: (1, [r - 1], v - 1, [r - 1] + [r] * (v - 1)),
    "generators-all": lambda v, r: (1, [r - 1], 0, [r - 1] + [r] * (v - 1)),
    "generators-single": lambda v, r: (1, [r - 1], 0, [r - 1] + [r] * (v - 1)),
}
_SWEEPS = {
    "power-sweep": (0.0, 50.0),
    "allocation-compare": (0.25, 1.0),
    "scale-sweep": tuple(float(g) for g in range(3, 10)),
    "radius-sweep": (0.6, 1.0),
    "generators-all": (1.0, 3.0, 10.0),
    "generators-single": (1.0, 3.0, 10.0),
}
_STACKED_FIELDS = (
    ("impact", "null_vector"), ("impact", "scale"), ("impact", "z_scores"),
    ("assignment", "T"), ("line_caps",),
)


_LAYER_BASES = (
    BASE,
    ScenarioConfig(grid_n=9, seed=5, cell_radius=0.6, num_generators=10,
                   bs_per_generator_range=(2, 5)),
)


@pytest.mark.parametrize("experiment", experiments.EXPERIMENT_IDS)
def test_shared_layers_give_the_generated_scenarios(monkeypatch, experiment):
    for base in _LAYER_BASES:
        _check_shared_layers(monkeypatch, experiment, base)


def _check_shared_layers(monkeypatch, experiment: str, base: ScenarioConfig) -> None:
    calls = {"generate": 0, "build_its_stack": [], "build_ci": 0, "build_pg_stack": []}
    keys, stacks = [], []

    def counted(name, build):
        def count(*args):
            if name in ("generate", "build_ci"):
                calls[name] += 1
                keys.append((name, args[0]))
            else:
                seeds = tuple(args[-1])
                calls[name].append(len(seeds))
                layer = args[0].graph.n if name == "build_its_stack" else args[0]
                keys.append((name, layer, seeds))
            return build(*args)
        return count

    def recorded(layers, config, stack=experiments._Layers.stack):
        stacks.append((config, stack(layers, config)))
        return stacks[-1][1]

    with monkeypatch.context() as patch:
        for name in calls:
            patch.setattr(experiments, name, counted(name, getattr(experiments, name)))
        patch.setattr(experiments._Layers, "stack", recorded)
        reps = 3
        spec = _spec(experiment, base=base, sweep=_SWEEPS[experiment], reps=reps,
                     budgets=(0.0, 50.0))
        run_experiment(spec)
    values = 1 if experiment in ("power-sweep", "allocation-compare") else len(spec.sweep)
    assert tuple(calls.values()) == _LAYER_BUILDS[experiment](values, reps)
    assert len(set(keys)) == len(keys)  # each layer once per key
    assert len(stacks) == values
    for config, stack in stacks:
        alone = [generate(replace(config, seed=config.seed + r)).game_instance()
                 for r in range(reps)]
        expected = stack_instances(alone)
        for path in _STACKED_FIELDS:
            got, want = stack, expected
            for attr in path:
                got, want = getattr(got, attr), getattr(want, attr)
            assert got.shape[0] == reps and np.array_equal(got, want), (config, path)
        assert np.array_equal(stack.headroom, alone[0].headroom)
        assert np.array_equal(stack.assignment.p_full, alone[0].assignment.p_full)
        assert stack.impact.delta == alone[0].impact.delta


def _corrupt_replica(monkeypatch, bad: ScenarioConfig, fault: str) -> None:
    """Corrupt the layer of seed ``bad.seed`` alone, wherever it is built."""
    if fault == "zero share":
        sample = scenario._sample_shares
        rows = build_streets(bad).rows
        wrong = sample(rows, scenario._rng(bad.seed, scenario._STREAM_RATIOS))

        def patched(rows, rng):
            shares = sample(rows, rng)
            if np.array_equal(shares, wrong):
                shares = shares.copy()
                shares[5] = 0.0
            return shares

        monkeypatch.setattr(scenario, "_sample_shares", patched)
        return
    T = generate(bad).assignment.T
    # A station whose every generator supplies another station too, so
    # that emptying its row leaves no generator idle.
    b = next(b for b in range(len(T)) if ((T > 0).sum(axis=0)[T[b] > 0] > 1).all())
    assign = scenario.build_assignment

    def corrupted(stations, shares):
        shares = np.array(shares)
        for replica in shares.reshape(-1, *T.shape):
            if np.array_equal(replica, T):
                replica[b] *= 0.0 if fault == "dark station" else 0.5
        return assign(stations, shares)

    monkeypatch.setattr(scenario, "build_assignment", corrupted)


@pytest.mark.parametrize(
    "fault, message",
    [
        ("zero share", r"^ratio matrix entry \(\d+, \d+\) is 0\.0, not a finite positive share$"),
        ("dark station", r"^stations \[\d+\] have no supplying generator$"),
        ("leaky station", r"^supply shares of stations \[\d+\] do not sum to 1$"),
    ],
)
def test_a_bad_replica_fails_the_stack_as_it_fails_alone(monkeypatch, fault, message):
    # Replica 2 of the stack is built by the stacked ITS and PG builders,
    # whose one pass over all replicas keeps every check of a single build.
    base = ScenarioConfig(grid_n=4, seed=7, num_generators=3)
    bad = replace(base, seed=base.seed + 2)
    _corrupt_replica(monkeypatch, bad, fault)
    with pytest.raises((IcisimError, ValueError), match=message) as alone:
        generate(bad)
    for r in (0, 1, 3):
        generate(replace(base, seed=base.seed + r))  # the other replicas build cleanly
    with pytest.raises(type(alone.value)) as stacked:
        experiments._Layers(4).stack(base)
    assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize(
    "experiment, sweep, reps, patterns",
    [
        ("allocation-compare", (0.25, 1.0), 10, 1),
        ("scale-sweep", (4.0, 6.0, 8.0), 2, 3),
        ("radius-sweep", (0.9, 1.2), 3, 1),
    ],
)
def test_each_run_analyses_each_street_pattern_once(
    monkeypatch, experiment, sweep, reps, patterns
):
    # One street layer per grid size and run: the first replica orders the
    # block's columns, and every later one refactors in that order.  A
    # second run builds its own layers; nothing is kept between runs.
    built, specs = [], []
    post_init = traffic.FlowPattern.__post_init__

    def counted(pattern, cols):
        built.append(pattern.graph.n)
        post_init(pattern, cols)

    def recorded(*args, permc_spec, **kwargs):
        specs.append(permc_spec)
        return splu(*args, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(traffic.FlowPattern, "__post_init__", counted)
    monkeypatch.setattr(traffic, "splu", recorded)
    spec = _spec(experiment, sweep=sweep, reps=reps, levels=LEVELS[:1], budgets=(0.0,))
    first = run_experiment(spec)
    assert len(built) == patterns
    assert specs == (["MMD_ATA"] + ["NATURAL"] * (reps - 1)) * patterns
    assert run_experiment(spec) == first
    assert len(built) == 2 * patterns and len(specs) == 2 * patterns * reps


def test_generator_experiments_run_both_modes():
    spec = _spec("generators-all", sweep=(1.0, 2.0), reps=2, budgets=(0.0,))
    table_all = run_experiment(spec)
    table_single = run_experiment(replace(spec, experiment="generators-single"))
    assert table_all.sweep_name == table_single.sweep_name == "num_generators"
    assert len(table_all.rows) == len(table_single.rows) == 2 * len(LEVELS)
    rows_all = {(r[0], r[1]): r[3] for r in table_all.rows}
    rows_single = {(r[0], r[1]): r[3] for r in table_single.rows}
    # Attacking one source never exceeds attacking all of them.
    for key, value in rows_single.items():
        assert value <= rows_all[key] + 1e-9


@pytest.mark.parametrize(
    "experiment, field",
    [("scale-sweep", "grid_n"), ("generators-all", "num_generators"),
     ("generators-single", "num_generators")],
)
def test_int_sweeps_reject_non_integral_values(tmp_path, capsys, experiment, field):
    # An integral float is the int it names, and the row keeps its label.
    table = run_experiment(_spec(experiment, sweep=(2.0,), reps=1, budgets=(0.0,)))
    assert table.sweep_name == field
    assert {row[0] for row in table.rows} == {2.0}
    cfg = tmp_path / "grid3.json"
    cfg.write_text('{"grid_n": 3}', encoding="utf-8")
    for value in (1.9, 3.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            run_experiment(_spec(experiment, sweep=(2.0, value), reps=1, budgets=(0.0,)))
        code = cli_main(["experiment", experiment, "--config", str(cfg), "--reps", "1",
                         "--sweep", str(value), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"{field} must be an integer, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "experiment, sweep, budgets, message",
    [
        ("power-sweep", (-10.0,), (0.0,), "power-sweep reductions must lie in"),
        ("power-sweep", (100.0, 150.0), (0.0,), "power-sweep reductions must lie in"),
        ("power-sweep", (float("nan"),), (0.0,), "power-sweep reductions must lie in"),
        *[(experiment, (), (0.0, -5.0), "budgets must be finite and nonnegative")
          for experiment in experiments.EXPERIMENT_IDS],
        ("allocation-compare", (), (float("inf"),), "budgets must be finite and nonnegative"),
        ("power-sweep", (), (float("nan"),), "budgets must be finite and nonnegative"),
    ],
    ids=["cut -10", "cut 150", "cut nan",
         *[f"{experiment} budget -5" for experiment in experiments.EXPERIMENT_IDS],
         "allocation-compare budget inf", "power-sweep budget nan"],
)
def test_spec_rejects_out_of_range_inputs(tmp_path, capsys, experiment, sweep, budgets, message):
    # Every experiment checks its budgets, though power-sweep and
    # allocation-compare do not use them, and power-sweep cuts 0-100 %.
    sweep = sweep or default_sweep(experiment)
    with pytest.raises(ValueError, match=message):
        _spec(experiment, sweep=sweep, budgets=budgets)
    cfg = tmp_path / "grid3.json"
    cfg.write_text('{"grid_n": 3}', encoding="utf-8")
    code = cli_main(["experiment", experiment, "--config", str(cfg), "--reps", "1",
                     "--sweep", *map(str, sweep), "--budgets", *map(str, budgets),
                     "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pick_attack_source_is_deterministic(grid3_scenario):
    g1 = pick_attack_source(grid3_scenario, StealthLevel.POWER_SOURCE)
    g2 = pick_attack_source(grid3_scenario, StealthLevel.POWER_SOURCE)
    assert g1 == g2
    assert 0 <= g1 < len(grid3_scenario.generators)


def test_run_experiment_dispatch():
    table = run_experiment(_spec("power-sweep", sweep=(0.0, 50.0)))
    assert table.sweep_name == "reduction_pct"


def test_csv_structure_and_round_trip(tmp_path):
    table = run_experiment(_spec("power-sweep", sweep=(0.0, 30.0, 60.0)))
    text = table_to_csv(table)
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    assert any("seed = 100" in ln for ln in comments)
    assert any("experiment = power-sweep" in ln for ln in comments)
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    parsed = list(csv.DictReader(io.StringIO("\n".join(body))))
    assert len(parsed) == 3
    assert set(parsed[0]) == {"reduction_pct", "level", "P_d", "mean", "std", "n"}
    for row, parsed_row in zip(table.rows, parsed):
        assert float(parsed_row["mean"]) == row[3]
        assert int(parsed_row["n"]) == row[5]
    # emit() writes the same bytes.
    path = tmp_path / "out.csv"
    emit(table, "csv", str(path))
    assert path.read_text(encoding="utf-8") == text


def test_single_row_table_is_valid_csv():
    table = SweepTable("x", ((1.0, "line", 0.0, 2.5, 0.0, 1),), ("k = v",))
    text = table_to_csv(table)
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert len(body) == 2
    parsed = list(csv.DictReader(io.StringIO("\n".join(body))))
    assert parsed[0]["mean"] == "2.5"


def test_svg_is_well_formed_xml(tmp_path):
    table = run_experiment(_spec("scale-sweep", sweep=(2.0, 3.0), reps=1, budgets=(0.0,)))
    text = table_to_svg(table, title="scale")
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert any(child.tag.endswith("polyline") for child in root.iter())
    path = tmp_path / "chart.svg"
    emit(table, "svg", str(path), title="scale")
    ET.fromstring(path.read_text(encoding="utf-8"))


def test_svg_escapes_text_like_xml_sax():
    # The chart escapes &, < and > only, as xml.sax.saxutils.escape does;
    # quotes stay literal inside element text.
    raw = """A&B <x> "q" 'a'"""
    table = SweepTable(raw, ((1.0, raw, 0.0, 2.5, 0.0, 1),), ())
    text = table_to_svg(table, title=raw)
    escaped = xml.sax.saxutils.escape(raw)
    assert escaped == """A&amp;B &lt;x&gt; "q" 'a'"""
    assert text.count(escaped) == 3  # title, axis label and legend entry
    assert raw not in text
    ET.fromstring(text)


def test_package_import_skips_xml_and_urllib():
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("icisim").__file__)))
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    probe = "import sys, icisim; print(sorted(m for m in sys.modules if m in ('xml.sax', 'urllib.request')))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_emit_rejects_empty_and_unknown(tmp_path):
    table = SweepTable("x", (), ())
    with pytest.raises(ValueError):
        emit(table, "csv", str(tmp_path / "x.csv"))
    full = SweepTable("x", ((1.0, "line", 0.0, 2.5, 0.0, 1),), ())
    with pytest.raises(ValueError):
        emit(full, "pdf", str(tmp_path / "x.pdf"))


def test_runs_are_reproducible():
    spec = _spec("allocation-compare", sweep=(0.0, 0.5), reps=2)
    assert table_to_csv(run_experiment(spec)) == table_to_csv(run_experiment(spec))
