"""Command-line interface tests."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from icisim.cli import main
from icisim.experiments import EXPERIMENT_IDS
from icisim.scenario import ScenarioConfig, generate, save


@pytest.fixture()
def scenario_file(tmp_path):
    path = str(tmp_path / "scenario.txt")
    save(generate(ScenarioConfig(grid_n=3, seed=2)), path)
    return path


def test_generate_writes_scenario(tmp_path, capsys):
    out = str(tmp_path / "sc.txt")
    assert main(["generate", "--seed", "5", "--grid-n", "3", "--out", out]) == 0
    assert "wrote" in capsys.readouterr().out
    assert open(out, encoding="utf-8").readline().startswith("icisim scenario")


def test_generate_uses_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_n": 3, "cell_radius": 0.8}), encoding="utf-8")
    out = str(tmp_path / "sc.txt")
    assert main(["generate", "--config", str(cfg), "--seed", "3", "--out", out]) == 0
    text = open(out, encoding="utf-8").read()
    assert "cell_radius = 0.8" in text
    assert "seed = 3" in text


def test_inspect_prints_ranking(scenario_file, capsys):
    assert main(["inspect", scenario_file]) == 0
    out = capsys.readouterr().out
    assert "bs_id" in out and "z_score" in out
    assert "stations=" in out


def test_solve_outputs_json(scenario_file, capsys):
    assert main(["solve", scenario_file, "--level", "line", "--budget", "80"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["level"] == "line"
    assert len(doc["p_d"]) > 0


def test_solve_writes_file(scenario_file, tmp_path, capsys):
    out = str(tmp_path / "solution.json")
    assert main(["solve", scenario_file, "--level", "bs", "--out", out]) == 0
    doc = json.loads(open(out, encoding="utf-8").read())
    assert doc["level"] == "bs"


@pytest.mark.parametrize("level", ["source", "line", "bs", "overt"])
def test_solve_matches_reference_results(tmp_path, level):
    """``icisim solve`` on the committed grid-4 file at its 100 W budget,
    which fills some stations and not others at every level, against the
    committed result.  Rewrite the references from the repository root with

        for level in source line bs overt; do
          icisim solve tests/data/scenario-grid4-seed0-v3.txt --level $level \\
            --out tests/data/solve-grid4-seed0-$level.json
        done

    Each float matches within rtol 1e-12 plus 1e-12 of the largest
    magnitude in its field, so a change in the last bits passes and a
    change in any result does not.
    """
    data = Path(__file__).parent / "data"
    out = tmp_path / "solution.json"
    assert main(["solve", str(data / "scenario-grid4-seed0-v3.txt"), "--level", level,
                 "--out", str(out)]) == 0
    got = json.loads(out.read_text(encoding="utf-8"))
    want = json.loads((data / f"solve-grid4-seed0-{level}.json").read_text(encoding="utf-8"))
    assert got.keys() == want.keys()
    assert (got["level"], got["budget"]) == (level, want["budget"]) == (level, 100.0)
    allocation = np.array(want["p_d"], dtype=float)
    assert 0 < np.count_nonzero(allocation) < allocation.size
    for field in sorted(want.keys() - {"level", "budget"}):
        expected = np.array(want[field], dtype=float)
        actual = np.array(got[field], dtype=float)
        assert actual.shape == expected.shape, field
        scale = float(np.abs(expected).max(initial=0.0))
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale,
                                   err_msg=field)


def _csv_table(text: str) -> tuple[list[str], list[list[str]]]:
    """The ``#`` and header lines of an experiment CSV, and its rows split
    into fields."""
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return lines[:header + 1], [line.split(",") for line in lines[header + 1:]]


@pytest.mark.parametrize("experiment", EXPERIMENT_IDS)
def test_experiment_matches_reference_csv(tmp_path, capsys, experiment):
    """``icisim experiment`` at grid 6, seed 0, 3 reps against the committed
    CSV.  Rewrite the references from the repository root with

        for id in power-sweep scale-sweep radius-sweep generators-all \\
            generators-single allocation-compare; do
          icisim experiment $id --config tests/data/experiments-grid6/config.json \\
            --seed 0 --reps 3 --out-dir tests/data/experiments-grid6
        done

    The ``#`` lines, the header, the sweep, level and ``P_d`` columns and
    ``n`` match exactly.  ``mean`` matches within rtol 1e-12 and ``std``
    within 1e-9 of the table's largest ``|mean|``: a reordered sum moves
    either by a few ulps of the means (about 1e-16 relative), while a changed
    result moves it by far more.
    """
    data = Path(__file__).parent / "data" / "experiments-grid6"
    assert main(["experiment", experiment, "--config", str(data / "config.json"),
                 "--seed", "0", "--reps", "3", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    got_head, got = _csv_table((tmp_path / f"{experiment}.csv").read_text(encoding="utf-8"))
    want_head, want = _csv_table((data / f"{experiment}.csv").read_text(encoding="utf-8"))
    assert got_head == want_head
    assert [row[:3] + row[5:] for row in got] == [row[:3] + row[5:] for row in want]
    mean, std = (np.array([row[col] for row in want], dtype=float) for col in (3, 4))
    np.testing.assert_allclose(np.array([row[3] for row in got], dtype=float), mean,
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(np.array([row[4] for row in got], dtype=float), std,
                               rtol=0.0, atol=1e-9 * np.abs(mean).max())


def test_committed_allocation_compare_shows_the_equilibrium_never_worse():
    """The committed allocation-compare table supports the paper's claim:
    at every budget and level the equilibrium's mean residual is at most
    the equal split's, and the sweep reaches a budget at which every
    equilibrium residual is zero."""
    path = Path(__file__).parent / "data" / "experiments-grid6" / "allocation-compare.csv"
    _, rows = _csv_table(path.read_text(encoding="utf-8"))
    means = {(float(row[2]), row[1]): float(row[3]) for row in rows}
    levels = {level.split(":")[0] for _, level in means}
    budgets = sorted({budget for budget, _ in means})
    assert levels == {"source", "line", "bs"} and len(budgets) == 9
    for budget in budgets:
        for level in levels:
            se, equal = means[budget, f"{level}:se"], means[budget, f"{level}:equal"]
            assert se <= equal + 1e-9, (budget, level)
    largest = max(means.values())
    assert all(means[budgets[-1], f"{level}:se"] <= 1e-9 * largest for level in levels)


def test_committed_sweeps_show_the_acceptance_criteria():
    """The committed power-sweep, scale-sweep and generator tables pass the
    acceptance criteria's own predicates, where a table holds the quantity
    a criterion tests: power-sweep is linear to half power and flat beyond
    it (criterion 4); at each grid the line level's no-backup mean is the
    largest, backup never raises a mean, and each level's no-backup mean
    grows with the grid (criterion 6); single-source means do not grow with
    the generator count (criterion 7).  A single-source reply drains a
    subset of the all-sources reply's lines against the same allocation,
    so no generators-single mean exceeds its generators-all row.

    Criterion 7's all-sources flatness is not audited: on these 3 replicas
    the ``source`` means spread 13.5% at P_d 0 and 11.2% at P_d 100,
    against the 5% it checks over 30 replicas at grid 5.
    """
    data = Path(__file__).parent / "data" / "experiments-grid6"

    def means(experiment):
        _, rows = _csv_table((data / f"{experiment}.csv").read_text(encoding="utf-8"))
        return {(float(row[0]), row[1], float(row[2])): float(row[3]) for row in rows}

    power = {cut: mean for (cut, _, _), mean in means("power-sweep").items()}
    cuts = sorted(power)
    low = [cut for cut in cuts if cut <= 50.0]
    high = np.array([power[cut] for cut in cuts if cut >= 50.0])
    fit = np.polyval(np.polyfit(low, [power[cut] for cut in low], 1), low)
    spread = max(power.values()) - min(power.values())
    assert np.max(np.abs(fit - [power[cut] for cut in low])) <= 1e-6 * spread
    assert power[0.0] == 0.0 and np.ptp(high) <= 1e-9 * high.max()

    scale = means("scale-sweep")
    tol = 1e-9 * max(scale.values())
    grids = (4.0, 6.0, 8.0)
    assert sorted({key[0] for key in scale}) == list(grids)
    for grid in grids:
        for level in ("source", "bs"):
            assert scale[grid, "line", 0.0] >= scale[grid, level, 0.0] - tol, (grid, level)
        for level in ("source", "line", "bs"):
            assert scale[grid, level, 0.0] >= scale[grid, level, 100.0] - tol, (grid, level)
    for level in ("source", "line", "bs"):
        series = [scale[grid, level, 0.0] for grid in grids]
        assert all(b >= a - tol for a, b in zip(series, series[1:])), level

    single, every = means("generators-single"), means("generators-all")
    assert single.keys() == every.keys() and len(single) == 48
    tol = 1e-9 * max(every.values())
    for key, mean in single.items():
        assert mean <= every[key] + tol, key
        count, level, budget = key
        if count > 1.0:
            assert mean <= single[count - 1.0, level, budget] + tol, key


@pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
def test_solve_rejects_non_finite_budget(scenario_file, tmp_path, capsys, budget):
    out = tmp_path / "solution.json"
    assert main(["solve", scenario_file, "--level", "line", f"--budget={budget}",
                 "--out", str(out)]) == 2
    assert "budget must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_solve_rejects_theorem3_cap_flag(scenario_file, capsys):
    # The station-level cap has one definition; there is no switch for it.
    assert main(["solve", scenario_file, "--level", "bs",
                 "--theorem3-cap", "literal"]) == 2
    assert "--theorem3-cap" in capsys.readouterr().err


def test_experiment_writes_csv(tmp_path, capsys):
    out_dir = str(tmp_path / "results")
    code = main([
        "experiment", "power-sweep", "--seed", "9", "--reps", "1",
        "--sweep", "0", "50", "100", "--out-dir", out_dir, "--format", "csv",
    ])
    assert code == 0
    text = open(f"{out_dir}/power-sweep.csv", encoding="utf-8").read()
    assert text.splitlines()[0].startswith("#")
    assert "reduction_pct,level,P_d,mean,std,n" in text


def test_experiment_svg(tmp_path):
    out_dir = str(tmp_path / "results")
    code = main([
        "experiment", "scale-sweep", "--seed", "9", "--reps", "1",
        "--sweep", "2", "3", "--level", "line", "--budgets", "0",
        "--out-dir", out_dir, "--format", "svg",
    ])
    assert code == 0
    assert open(f"{out_dir}/scale-sweep.svg", encoding="utf-8").read().startswith("<?xml")


def test_identical_runs_are_byte_identical(tmp_path):
    args = [
        "experiment", "allocation-compare", "--seed", "4", "--reps", "2",
        "--sweep", "0", "0.5", "--level", "line", "--format", "csv",
    ]
    dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out-dir", dir_a]) == 0
    assert main(args + ["--out-dir", dir_b]) == 0
    bytes_a = open(f"{dir_a}/allocation-compare.csv", "rb").read()
    bytes_b = open(f"{dir_b}/allocation-compare.csv", "rb").read()
    assert bytes_a == bytes_b


def test_validation_errors_exit_2(capsys):
    assert main(["experiment", "does-not-exist"]) == 2
    assert main(["generate", "--grid-n", "1"]) == 2
    assert main(["solve"]) == 2  # missing positional


@pytest.mark.parametrize(
    "command, settings",
    [
        ("generate", {"grid_n": 4, "street_length": float("inf")}),
        ("generate", {"delta": float("nan")}),
        ("experiment", {"grid_n": 3, "budget": float("-inf")}),
    ],
    ids=["infinite street length", "nan delta", "experiment with infinite budget"],
)
def test_non_finite_config_exits_2(tmp_path, capsys, command, settings):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings), encoding="utf-8")
    args = ["power-sweep", "--reps", "1"] if command == "experiment" else []
    code = main([command, *args, "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"grid_n": 4.5}, "grid_n must be an integer"),
        ({"grid_n": 3, "num_generators": 2.5}, "num_generators must be an integer"),
        ({"grid_n": 3, "seed": True}, "seed must be an integer"),
        ({"grid_n": 3, "bs_per_generator_range": [1.5, 3]}, "must be a pair of integers"),
        ({"grid_n": 4, "delta": -1}, "delta must be positive"),
        ({"grid_n": 4, "delta": 0}, "delta must be positive"),
        ({"grid_n": 3, "budget": "x"}, "budget must be a number, got 'x'"),
        ({"grid_n": 3, "budget": True}, "budget must be a number, got True"),
        ({"grid_n": 3, "bs_per_generator_range": 3}, "bs_per_generator_range must be a pair"),
        ({"grid_n": 3, "bs_per_generator_range": [1, 2, 3]}, "bs_per_generator_range must be"),
        ({"grid_n": 3, "seed": -1}, "seed must be nonnegative"),
        (None, "cfg.json: expected a JSON object"),
        (5, "cfg.json: expected a JSON object"),
        ([1, 2], "cfg.json: expected a JSON object"),
    ],
    ids=["float grid_n", "float num_generators", "bool seed", "float range", "negative delta",
         "zero delta", "string budget", "bool budget", "int range", "three-int range",
         "negative seed", "null", "number", "list"],
)
def test_invalid_config_exits_2(tmp_path, capsys, settings, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings), encoding="utf-8")
    assert main(["generate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_io_errors_exit_3(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "missing.txt")]) == 3
    blocker = tmp_path / "blocker"
    blocker.write_text("x", encoding="utf-8")
    code = main([
        "experiment", "power-sweep", "--reps", "1", "--sweep", "0",
        "--out-dir", str(blocker),
    ])
    assert code == 3


def test_inspect_rejects_a_negative_seed(tmp_path, capsys):
    text = (Path(__file__).parent / "data" / "scenario-grid4-seed0-v3.txt").read_text(
        encoding="utf-8"
    )
    path = tmp_path / "negative-seed.txt"
    path.write_text(text.replace("\nseed = 0\n", "\nseed = -1\n"), encoding="utf-8")
    assert main(["inspect", str(path)]) == 2
    assert "[config] seed must be nonnegative" in capsys.readouterr().err
    assert main(["generate", "--seed", "-1", "--out", str(tmp_path / "s.txt")]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_inspect_rejects_overlapping_cells(capsys):
    path = Path(__file__).parent / "data" / "scenario-overlap-v3.txt"
    assert main(["inspect", str(path)]) == 2
    assert "[ci] cells of stations 0 and 1 have overlapping interiors" in capsys.readouterr().err


def test_help_exits_cleanly():
    assert main(["--help"]) == 0


def test_inspect_csv_export(scenario_file, tmp_path, capsys):
    out = str(tmp_path / "scores.csv")
    assert main(["inspect", scenario_file, "--csv", out]) == 0
    lines = open(out, encoding="utf-8").read().strip().splitlines()
    assert lines[0].rstrip("\r") == "bs_id,z_score,covered_streets"
    assert len(lines) > 1
