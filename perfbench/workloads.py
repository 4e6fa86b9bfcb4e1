"""The four benchmark workloads: inputs from a seed, the ops, and their checks.

Every workload is a single-client closed loop: the next op starts when the
previous one has returned.  Ops are grouped into cycles (one CLI command
sequence, one budget-by-level sweep); a run stops only at a cycle boundary
so that every run times the same mix of ops.  The program is reached only
through module attributes looked up at call time, so the traced run sees
every call.

Output checks avoid anything that depends on the flow convention of the
balance matrix (which way ``Q`` is transposed), so a later fix of that
convention does not trip them.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Iterator

import numpy as np

from icisim import cli, experiments, game, scenario
from icisim.errors import InfeasibleError
from icisim.game import StealthLevel

LEVELS = tuple(StealthLevel)
RESIDUAL_TOL = 1e-9
FEAS_TOL = 1e-9
T_ROUNDTRIP_ULPS = 4


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    ends_cycle: bool = True


def _seed_stream(seed: int, salt: int) -> Iterator[int]:
    rng = np.random.default_rng([seed, salt])
    while True:
        yield int(rng.integers(0, 2**31 - 1))


class Workload:
    """Base class; ``small`` selects the tiny smoke-test sizes."""

    name = ""
    full: dict = {}
    smoke: dict = {}
    traced_cycles = 1

    def __init__(self, seed: int, workdir: str, small: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.p = dict(self.smoke if small else self.full)
        self.resolved: dict = {}
        self.known: dict[str, int] = {}

    def build_inputs(self) -> None:
        """Build the inputs that are not the timed work (part of set-up)."""

    def known_defect(self, description: str) -> None:
        """Count a program defect that the benchmark reports but does not fail
        on, so that the workload stays usable as a gate until it is fixed."""
        self.known[description] = self.known.get(description, 0) + 1

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Untimed checks made once after the loop."""
        return []


class BuildGrid30(Workload):
    """One op is one ``scenario.generate`` of a fresh seed."""

    name = "build-grid30"
    full = {"grid_n": 30, "cell_radius": 0.9, "num_generators": 10}
    smoke = {"grid_n": 4, "cell_radius": 0.9, "num_generators": 3}
    traced_cycles = 2

    def build_inputs(self) -> None:
        self.resolved = {"scenario": self.p, "scenario_seeds": "per op, from the bench seed"}

    def ops(self) -> Iterator[Op]:
        for s in _seed_stream(self.seed, 1):
            config = scenario.ScenarioConfig(seed=s, **self.p)
            yield Op(f"generate seed={s}", lambda c=config: scenario.generate(c),
                     lambda sc, c=config: check_scenario(sc, c))


def check_scenario(sc, config) -> list[str]:
    problems = []
    g = config.grid_n
    net = sc.network
    if net.n != 4 * g * (g - 1):
        problems.append(f"street count {net.n} != {4 * g * (g - 1)}")
    B = len(sc.base_stations)
    if B == 0 or not (sc.coverage.num_stations == sc.assignment.num_stations
                      == sc.impact.num_stations == B):
        problems.append("station counts disagree between layers")
    v = net.null_vector
    residual = float(np.linalg.norm(net.A @ v, ord=np.inf))
    if not residual <= RESIDUAL_TOL:
        problems.append(f"null-vector residual {residual:.3g} above {RESIDUAL_TOL}")
    if not np.allclose(sc.assignment.T.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
        problems.append("supply shares T do not sum to 1 per station")
    if np.any(sc.coverage.C.sum(axis=1) > 1.0 + 1e-9) or np.any(sc.coverage.C < 0.0):
        problems.append("coverage fractions outside [0, 1] per street")
    z = sc.impact.z_scores
    if not (np.all(np.isfinite(z)) and np.all(z >= 0.0)):
        problems.append("impact scores not finite and nonnegative")
    return problems


class CliGrid20(Workload):
    """One op is one in-process ``icisim.cli.main`` command.

    A cycle is ``generate`` (via ``--config``), ``inspect``, ``inspect --csv``
    and ``solve`` at each of the four levels, all on the same file.
    """

    name = "cli-grid20"
    full = {"grid_n": 20, "cell_radius": 0.9, "num_generators": 10}
    smoke = {"grid_n": 4, "cell_radius": 0.9, "num_generators": 3}

    def build_inputs(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.config_path = os.path.join(self.workdir, "config.json")
        self.scenario_path = os.path.join(self.workdir, "scenario.txt")
        self.csv_path = os.path.join(self.workdir, "scores.csv")
        self.solution_path = os.path.join(self.workdir, "solution.json")
        self.last_config: dict | None = None
        self.resolved = {"scenario": self.p, "budgets_w": "uniform(50, 5000), one per solve",
                         "scenario_seeds": "per cycle, from the bench seed"}

    def _command(self, label: str, argv: list[str], check, ends_cycle=False) -> Op:
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        def checked(result):
            code, text = result
            if code != 0:
                return [f"{label}: exit code {code}"]
            return check(text)

        return Op(label, run, checked, ends_cycle)

    def ops(self) -> Iterator[Op]:
        budgets = np.random.default_rng([self.seed, 3])
        for s in _seed_stream(self.seed, 2):
            config = dict(self.p, seed=s)
            with open(self.config_path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            self.last_config = config
            yield self._command(
                "generate",
                ["generate", "--config", self.config_path, "--out", self.scenario_path],
                lambda text: [],
            )
            yield self._command("inspect", ["inspect", self.scenario_path], self._check_inspect)
            yield self._command("inspect --csv",
                                ["inspect", self.scenario_path, "--csv", self.csv_path],
                                lambda text: self._check_csv())
            for i, level in enumerate(LEVELS):
                budget = float(budgets.uniform(50.0, 5000.0))
                yield self._command(
                    f"solve {level.value}",
                    ["solve", self.scenario_path, "--level", level.value,
                     "--budget", repr(budget), "--out", self.solution_path],
                    lambda text, b=budget: self._check_solution(b),
                    ends_cycle=i == len(LEVELS) - 1,
                )

    @staticmethod
    def _check_inspect(text: str) -> list[str]:
        lines = text.splitlines()
        header = lines[0].split() if lines else []
        stations = [t for t in header if t.startswith("stations=")]
        if not stations:
            return ["inspect: no station count in the header"]
        count = int(stations[0].split("=")[1])
        if len(lines) != count + 2:
            return [f"inspect: {len(lines) - 2} rows for {count} stations"]
        return []

    def _check_csv(self) -> list[str]:
        with open(self.csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ["bs_id", "z_score", "covered_streets"] or len(rows) < 2:
            return ["inspect --csv: bad table"]
        if any(not float(r[1]) >= 0.0 for r in rows[1:]):
            return ["inspect --csv: negative or NaN score"]
        return []

    def _check_solution(self, budget: float) -> list[str]:
        with open(self.solution_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        spend = sum(float(x) for x in doc["p_d"])
        if not spend <= budget * (1.0 + FEAS_TOL) + FEAS_TOL or float(doc["budget"]) != budget:
            return [f"solve: spends {spend} W of a {budget} W budget (file says {doc['budget']})"]
        return []

    def final_checks(self) -> list[str]:
        if self.last_config is None:
            return ["no scenario was generated"]
        loaded = scenario.load(self.scenario_path)
        fresh = scenario.generate(scenario.ScenarioConfig(**self.last_config))
        if scenario.scenarios_equal(loaded, fresh):
            return []
        # Known defect of the loader when this benchmark was written: loads
        # passes the stored supply shares T through build_assignment, which
        # re-normalises every row, so T comes back a few ulp off on every
        # grid-20 seed tried.  It is reported on each run; everything else
        # must still match exactly.
        T_file, T_mem = loaded.assignment.T, fresh.assignment.T
        if T_file.shape == T_mem.shape and scenario.scenarios_equal(
                loaded, replace(fresh, assignment=loaded.assignment)):
            drift = float(np.max(np.abs(T_file - T_mem)))
            if drift <= T_ROUNDTRIP_ULPS * np.finfo(float).eps:
                self.known_defect(
                    "load(file) is not scenarios_equal to the in-memory scenario; only "
                    f"assignment.T differs, by at most {drift:.3g} (loads re-normalises "
                    "the stored supply shares)")
                return []
        return ["load(file) differs from the in-memory scenario"]


class SweepGrid9(Workload):
    """One op is ``experiments.run_experiment`` plus ``emit`` to CSV for
    ``allocation-compare``; every op of a run repeats the same spec."""

    name = "sweep-grid9"
    full = {"grid_n": 9, "reps": 10}
    smoke = {"grid_n": 3, "reps": 2}
    traced_cycles = 3

    def build_inputs(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.path = os.path.join(self.workdir, "allocation-compare.csv")
        base = scenario.ScenarioConfig(grid_n=self.p["grid_n"],
                                       seed=next(_seed_stream(self.seed, 4)))
        self.spec = experiments.ExperimentSpec(
            experiment="allocation-compare",
            base=base,
            sweep=experiments.default_sweep("allocation-compare"),
            reps=self.p["reps"],
            levels=LEVELS,
        )
        self.reference: bytes | None = None
        self.resolved = {"experiment": list(experiments._config_lines(self.spec))}

    def ops(self) -> Iterator[Op]:
        while True:
            yield Op("allocation-compare", self._run, self._check)

    def _run(self) -> str:
        table = experiments.run_experiment(self.spec)
        experiments.emit(table, "csv", self.path)
        return self.path

    def _check(self, path: str) -> list[str]:
        with open(path, "rb") as fh:
            data = fh.read()
        problems = []
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            problems.append("CSV bytes differ between repetitions of one spec")
        means: dict[tuple[str, str], float] = {}
        for line in data.decode().splitlines():
            if line.startswith("#") or line.startswith("P_d,"):
                continue
            value, level, _budget, mean, _std, _n = line.split(",")
            means[(value, level)] = float(mean)
        for (value, level), mean in means.items():
            if level.endswith(":se"):
                equal = means.get((value, level[:-3] + ":equal"))
                if equal is None or not mean <= equal + 1e-9:
                    problems.append(f"{level} at P_d={value}: {mean} above equal {equal}")
        if not means:
            problems.append("empty CSV table")
        return problems


class GameGrid20(Workload):
    """One op is one profile at one (budget, level) pair: the equilibrium,
    the equal-allocation profile, and the single attack source pick."""

    name = "game-grid20"
    full = {"grid_n": 20, "cell_radius": 0.6, "num_generators": 10, "budgets": 25}
    smoke = {"grid_n": 5, "cell_radius": 0.6, "num_generators": 3, "budgets": 3}

    def build_inputs(self) -> None:
        p = dict(self.p)
        count = p.pop("budgets")
        config = scenario.ScenarioConfig(seed=next(_seed_stream(self.seed, 5)), **p)
        self.sc = scenario.generate(config)
        self.instance = self.sc.game_instance()
        saturation = float(self.instance.headroom.sum()) / 2.0
        # One budget drawn in each of ``count`` equal slices of [0, 1] of the
        # saturating budget: the LP's work grows with the budget, so this
        # keeps the op mix alike across seeds.
        jitter = np.random.default_rng([self.seed, 6]).uniform(0.0, 1.0, size=count)
        fractions = (np.arange(count) + jitter) / count
        self.budgets = [float(f) * saturation for f in fractions]
        self.resolved = {"scenario": asdict(config), "stations": self.instance.num_stations,
                         "budget_fractions_of_saturation": [float(f) for f in fractions]}

    def ops(self) -> Iterator[Op]:
        while True:
            pairs = [(b, lv) for b in self.budgets for lv in LEVELS]
            for i, (budget, level) in enumerate(pairs):
                yield Op(f"profile {level.value}",
                         lambda b=budget, lv=level: self._profile(b, lv),
                         lambda r, b=budget, lv=level: self._check(r, b, lv),
                         ends_cycle=i == len(pairs) - 1)

    def _profile(self, budget: float, level: StealthLevel):
        inst = self.instance
        se = game.stackelberg_equilibrium(level, inst, budget)
        equal = game.equal_allocation(inst.num_stations, budget)
        reply = game.attacker_best_response(level, inst, equal.allocation)
        other = game.evaluate_profile(level, inst, equal, reply)
        source = experiments.pick_attack_source(self.sc, level)
        return se, other, source

    def _check(self, result, budget: float, level: StealthLevel) -> list[str]:
        (defense, attack, outcome), other, source = result
        problems = []
        spend = float(defense.allocation.sum())
        if not spend <= budget * (1.0 + FEAS_TOL) + FEAS_TOL:
            problems.append(f"{level.value}: spends {spend} W of {budget} W")
        try:
            game.validate_attack(level, self.instance, attack.deviations)
        except InfeasibleError as err:
            problems.append(f"{level.value}: {err}")
        scale = max(1.0, abs(other.defender_payoff))
        if not outcome.defender_payoff >= other.defender_payoff - FEAS_TOL * scale:
            problems.append(f"{level.value}: equilibrium defender payoff below equal allocation")
        if not outcome.residual_deviation <= other.residual_deviation + 1e-9:
            # Known defect when this benchmark was written: the defender LP
            # caps each station at the attack, not at the attack that can
            # still hurt (attack beyond the headroom is clamped away), so at
            # small budgets budget goes to saturated stations.
            self.known_defect(
                "equilibrium residual above equal allocation (acceptance criterion 5) at "
                "some (budget, level) pairs; the defender LP ignores headroom saturation")
        if not 0 <= source < self.instance.num_generators:
            problems.append(f"{level.value}: attack source {source} out of range")
        return problems


WORKLOADS = {w.name: w for w in (BuildGrid30, CliGrid20, SweepGrid9, GameGrid20)}
