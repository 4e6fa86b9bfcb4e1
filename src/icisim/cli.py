"""Command-line interface.

Subcommands: ``generate`` (write a scenario file), ``inspect`` (rank
stations by impact score), ``solve`` (one equilibrium), and ``experiment``
(batch sweeps written as CSV or SVG).  Exit codes: 0 on success, 2 on a
validation problem, 3 on an I/O problem.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Sequence

import numpy as np

from . import experiments, scenario as scenario_io
from .errors import FormatError, IcisimError
from .game import StealthLevel, solution_to_json, stackelberg_equilibrium
from .impact import export_impact_csv
from .scenario import ScenarioConfig

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)}


def _load_config(path: str | None, seed: int | None, overrides: dict) -> ScenarioConfig:
    values: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as err:
                raise FormatError(f"config file {path}: {err}") from None
        if not isinstance(raw, dict):
            raise FormatError(f"config file {path}: expected a JSON object")
        unknown = set(raw) - _CONFIG_FIELDS
        if unknown:
            raise FormatError(f"config file {path}: unknown keys {sorted(unknown)}")
        values.update(raw)
    values.update({k: v for k, v in overrides.items() if v is not None})
    if seed is not None:
        values["seed"] = seed
    if isinstance(values.get("bs_per_generator_range"), list):
        values["bs_per_generator_range"] = tuple(values["bs_per_generator_range"])
    return ScenarioConfig(**values)


def _cmd_generate(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args.seed, {"grid_n": args.grid_n})
    sc = scenario_io.generate(config)
    out = args.out or os.path.join(args.out_dir, f"scenario-seed{config.seed}.txt")
    scenario_io.save(sc, out)
    print(f"wrote {out} ({sc.network.n} streets, {len(sc.base_stations)} stations)")
    return EXIT_OK


def _cmd_inspect(args: argparse.Namespace) -> int:
    sc = scenario_io.load(args.scenario)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            export_impact_csv(sc.impact, sc.coverage, fh)
        print(f"wrote {args.csv}")
        return EXIT_OK
    order = np.lexsort((np.arange(sc.impact.num_stations), -sc.impact.z_scores))
    print(f"scenario seed={sc.config.seed} grid_n={sc.config.grid_n} "
          f"streets={sc.network.n} stations={len(sc.base_stations)} "
          f"generators={len(sc.generators)}")
    print("bs_id  z_score        covered_streets")
    counts = sc.coverage.covered_street_counts
    for b in order:
        print(f"{int(b):<6d} {sc.impact.z_scores[b]:<14.6g} {int(counts[b])}")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    sc = scenario_io.load(args.scenario)
    level = StealthLevel.from_name(args.level)
    budget = args.budget if args.budget is not None else sc.config.budget
    defense, attack, outcome = stackelberg_equilibrium(level, sc.game_instance(), budget)
    text = solution_to_json(level, defense, attack, outcome)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args.seed, {})
    levels = tuple(StealthLevel.from_name(name) for name in args.level) or None
    sweep = tuple(args.sweep) if args.sweep else experiments.default_sweep(args.id)
    kwargs = dict(experiment=args.id, base=config, sweep=sweep, reps=args.reps)
    if levels:
        kwargs["levels"] = levels
    if args.budgets:
        kwargs["budgets"] = tuple(args.budgets)
    spec = experiments.ExperimentSpec(**kwargs)
    table = experiments.run_experiment(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, f"{args.id}.{args.format}")
    experiments.emit(table, args.format, out, title=args.id)
    print(f"wrote {out} ({len(table.rows)} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icisim",
        description="Interdependent grid/cellular/street simulator and allocation game solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a scenario file")
    gen.add_argument("--config", help="JSON file with scenario settings")
    gen.add_argument("--seed", type=int, help="override the scenario seed")
    gen.add_argument("--grid-n", dest="grid_n", type=int, help="override grid size")
    gen.add_argument("--out", help="output scenario path")
    gen.add_argument("--out-dir", default=".", help="directory for the default filename")
    gen.set_defaults(func=_cmd_generate)

    ins = sub.add_parser("inspect", help="print stations ranked by impact score")
    ins.add_argument("scenario", help="scenario file to inspect")
    ins.add_argument("--csv", help="write the score table as CSV instead of printing")
    ins.set_defaults(func=_cmd_inspect)

    sol = sub.add_parser("solve", help="solve one equilibrium for a scenario file")
    sol.add_argument("scenario", help="scenario file to solve")
    sol.add_argument("--level", default="line",
                     choices=[lv.value for lv in StealthLevel])
    sol.add_argument("--budget", type=float, help="defender budget in watts")
    sol.add_argument("--out", help="write the solution JSON here instead of stdout")
    sol.set_defaults(func=_cmd_solve)

    exp = sub.add_parser("experiment", help="run a batch experiment")
    exp.add_argument("id", choices=experiments.EXPERIMENT_IDS)
    exp.add_argument("--config", help="JSON file with base scenario settings")
    exp.add_argument("--seed", type=int, help="override the base seed")
    exp.add_argument("--reps", type=int, default=5, help="scenario replicas per point")
    exp.add_argument("--sweep", type=float, nargs="+", help="override the sweep values")
    exp.add_argument("--budgets", type=float, nargs="+", help="defender budgets to include")
    exp.add_argument("--level", action="append", default=[],
                     choices=[lv.value for lv in StealthLevel],
                     help="stealth level to include (repeatable)")
    exp.add_argument("--out-dir", default=".", help="output directory")
    exp.add_argument("--format", default="csv", choices=["csv", "svg"])
    exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on bad usage, matching the validation exit code.
        return int(err.code or 0)
    try:
        return args.func(args)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except (IcisimError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
