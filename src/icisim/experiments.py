"""Batch experiment runners with CSV and SVG output.

Each experiment sweeps one knob, evaluates a batch of seeded scenarios per
sweep point, and aggregates the physical flow deviation into a table with a
fixed column layout (sweep variable, level, P_d, mean, std, n).  One
table, ``_EXPERIMENTS``, gives each experiment id its runner and default
sweep; four of them sweep one ``ScenarioConfig`` field and share one
runner.  :func:`run_experiment` is the entry point for all.
Scenario replicas differ only in seed, so a run is reproducible byte for
byte from its spec.  A run builds each scenario from its layers
(:func:`~icisim.scenario.build_streets`, ``build_its``, ``build_ci`` and
``build_pg``) through a per-run memo keyed on the config fields each layer
reads: the seed touches only the ITS and PG layers, so all replicas of a
sweep point share one street layer and one CI layer.  The street layer
holds the flow core's analysis of the grid, so after the first replica
each one only draws its shares and refactors the balance block with the
stored column order.  radius-sweep reuses each seed's ITS layer across
radii, and the generator sweeps reuse the ITS and CI layers across
generator counts.  Scenarios are built in seed order, and the memo is
dropped when the run ends, so nothing is shared between runs.
Every runner works on one game instance per sweep point, its replicas
stacked on their shared stations (:meth:`~icisim.game.GameInstance.stack`):
power-sweep makes one :func:`~icisim.impact.its_deviations` call over all
cuts, and the other runners one :func:`~icisim.game.equilibrium_allocations`
fill over all budgets and one :func:`~icisim.game.reply_residuals` call per
level, with generators-single's attack sources picked in one pass.  Each
gives one row per budget or cut and one column per replica.
"""
from __future__ import annotations

import html
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Any, Sequence

import numpy as np

from .game import (
    GameInstance,
    StealthLevel,
    attacker_best_response,
    attacker_payoff,
    equilibrium_allocations,
    reply_residuals,
)
from .impact import its_deviations
from .scenario import (
    CI_FIELDS,
    ITS_FIELDS,
    PG_FIELDS,
    STREET_FIELDS,
    Scenario,
    ScenarioConfig,
    assemble,
    build_ci,
    build_its,
    build_pg,
    generate,
)

_DEFAULT_LEVELS = (
    StealthLevel.POWER_SOURCE,
    StealthLevel.POWER_LINE,
    StealthLevel.BASE_STATION,
)


@dataclass(frozen=True)
class ExperimentSpec:
    """What to sweep, how often, and under which stealth levels."""

    experiment: str
    base: ScenarioConfig = field(default_factory=ScenarioConfig)
    sweep: tuple[float, ...] = ()
    reps: int = 5
    levels: tuple[StealthLevel, ...] = _DEFAULT_LEVELS
    budgets: tuple[float, ...] = (0.0, 100.0)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if type(self.reps) is not int or self.reps < 1:  # so a bool fails too
            raise ValueError(f"reps must be a positive integer, got {self.reps!r}")
        if not self.sweep:
            raise ValueError("sweep range must be nonempty")
        if not self.levels or not all(isinstance(lv, StealthLevel) for lv in self.levels):
            raise ValueError(f"levels must be one or more stealth levels, got {self.levels!r}")
        if not all(np.isfinite(b) and b >= 0.0 for b in self.budgets):
            raise ValueError("budgets must be finite and nonnegative")
        if self.experiment == "power-sweep" and not all(0.0 <= p <= 100.0 for p in self.sweep):
            raise ValueError("power-sweep reductions must lie in [0, 100] percent")


@dataclass(frozen=True)
class SweepTable:
    """Aggregated results plus the resolved configuration for provenance."""

    sweep_name: str
    rows: tuple[tuple[float, str, float, float, float, int], ...]
    config_lines: tuple[str, ...]

    def column_names(self) -> tuple[str, ...]:
        return (self.sweep_name, "level", "P_d", "mean", "std", "n")


def _config_lines(spec: ExperimentSpec) -> tuple[str, ...]:
    cfg = spec.base
    lines = [
        f"experiment = {spec.experiment}",
        f"reps = {spec.reps}",
        f"levels = {','.join(lv.value for lv in spec.levels)}",
        f"budgets = {','.join(repr(b) for b in spec.budgets)}",
        f"sweep = {','.join(repr(float(v)) for v in spec.sweep)}",
    ]
    lines += [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(ScenarioConfig)]
    return tuple(lines)


# Each scenario layer and the config fields that fix it; the PG layer also
# reads the stations, so its key holds the CI fields too.  Every key holds
# STREET_FIELDS, so a config shares a layer with an earlier one only if it
# shares the street layer.
_LAYER_KEYS = (
    ("streets", STREET_FIELDS),
    ("its", ITS_FIELDS),
    ("ci", CI_FIELDS),
    ("pg", CI_FIELDS + PG_FIELDS),
)


class _Layers:
    """Per-run memo of scenario layers, keyed on the config fields each reads.

    A config that shares no layer with an earlier one is built by
    :func:`~icisim.scenario.generate`; otherwise only its missing layers
    are built, and the scenario is assembled from those and the shared
    ones.  Either way it equals ``generate(config)``.
    """

    def __init__(self) -> None:
        self._built: dict[tuple, Any] = {}

    def scenario(self, config: ScenarioConfig) -> Scenario:
        built = self._built
        streets, its, ci, pg = (
            (name, *(getattr(config, f) for f in keys)) for name, keys in _LAYER_KEYS
        )
        if streets not in built:
            sc = generate(config)
            built[streets] = sc.network.pattern
            built[its] = sc.network
            built[ci] = (sc.base_stations, sc.coverage)
            built[pg] = (sc.generators, sc.assignment)
            return sc
        if its not in built:
            built[its] = build_its(config, built[streets])
        if ci not in built:
            built[ci] = build_ci(config, built[its].graph)
        if pg not in built:
            built[pg] = build_pg(config, built[ci][0])
        return assemble(config, built[its], built[ci], built[pg])


def _replica_stack(base: ScenarioConfig, reps: int, layers: _Layers) -> GameInstance:
    """The game instances of ``reps`` seeds from ``base.seed`` on, stacked in order."""
    configs = [replace(base, seed=base.seed + rep) for rep in range(reps)]
    return GameInstance.stack([layers.scenario(c).game_instance() for c in configs])


def _stat_rows(
    keys: Sequence[tuple[float, str, float]], samples: Sequence[Sequence[float]]
) -> tuple[tuple[float, str, float, float, float, int], ...]:
    """Table rows ``(sweep value, level, P_d, mean, std, n)`` from each row's
    key ``(sweep value, level, P_d)`` and its replicas' samples.

    One ``mean`` and one ``std`` over the C-contiguous (rows x reps) array
    serve the whole table; numpy reduces each contiguous row with the loop
    it runs on a 1-D array, so every value is the one a per-row call gives.
    """
    arr = np.array(samples, dtype=float)
    stats = zip(keys, arr.mean(axis=1).tolist(), arr.std(axis=1).tolist())
    return tuple(
        (float(value), level, float(budget), mean, std, arr.shape[1])
        for (value, level, budget), mean, std in stats
    )


def _run_power_sweep(spec: ExperimentSpec) -> SweepTable:
    """Uniform percentage cut of all generation versus total flow deviation."""
    instance = _replica_stack(spec.base, spec.reps, _Layers())
    # One (1, B) cut per reduction, shared by the replicas: (K, R) samples.
    cuts = np.array(spec.sweep, dtype=float)[:, None, None] / 100.0 * instance.assignment.p_full
    samples = its_deviations(instance.impact, cuts)
    rows = _stat_rows([(pct, "none", 0.0) for pct in spec.sweep], samples)
    return SweepTable("reduction_pct", rows, _config_lines(spec))


def _attack_sources(level: StealthLevel, instance: GameInstance) -> np.ndarray:
    """:func:`pick_attack_source` of every replica in one pass, (R,) for a
    stack or 0-d; a later generator wins only by more than ``1e-12``."""
    zeros = np.zeros(instance.num_stations)
    best = np.full(instance.line_caps.shape[:-2], -np.inf)
    picks = np.zeros(best.shape, dtype=int)
    for g in range(instance.num_generators):
        attack = attacker_best_response(level, instance, zeros, sources=[g])
        value = attacker_payoff(level, instance, zeros, attack.deviations)
        better = value > best + 1e-12
        picks, best = np.where(better, g, picks), np.where(better, value, best)
    return picks


def pick_attack_source(scenario: Scenario, level: StealthLevel) -> int:
    """Generator whose unconstrained single-source attack pays the most."""
    return int(_attack_sources(level, scenario.game_instance()))


def _run_config_sweep(name: str, kind: type, single: bool, spec: ExperimentSpec) -> SweepTable:
    """Config field ``name`` (of type ``kind``) versus equilibrium
    deviation, per level and budget.

    The ``single`` source variant attacks only the generator that
    :func:`pick_attack_source` chooses for each replica and level.  An int
    field takes only integral sweep values; any other value reaches
    :class:`ScenarioConfig` as it is, which rejects it.
    """
    layers = _Layers()
    keys, samples = [], []
    for value in spec.sweep:
        if kind is float or float(value).is_integer():
            value = kind(value)
        instance = _replica_stack(replace(spec.base, **{name: value}), spec.reps, layers)
        for level in spec.levels:
            picked = _attack_sources(level, instance)[:, None].tolist() if single else None
            allocations = equilibrium_allocations(level, instance, spec.budgets)
            # One row per budget, one column per replica.
            residuals = reply_residuals(level, instance, allocations, spec.budgets, picked)
            keys += [(value, level.value, budget) for budget in spec.budgets]
            samples += list(residuals)
    extra = ("single_source_rule = highest unconstrained best-response payoff",) if single else ()
    return SweepTable(name, _stat_rows(keys, samples), _config_lines(spec) + extra)


def resolve_budget_sweep(sweep: Sequence[float], instance: GameInstance) -> tuple[float, ...]:
    """Turn allocation-compare sweep fractions into absolute budgets.

    Values at most 1 are read as fractions of the total station headroom
    Σh of ``instance``; larger values are taken as watts directly.  Σh is
    the budget at which every stealthy level's equilibrium leaves no
    residual: the station caps (:func:`~icisim.game.defender_caps`) total
    Σh, and the source and line caps total half the full power Σp_full/2,
    which is Σh at power ratio 2.  Above power ratio 2, Σp_full/2 is less
    than Σh, so 1.0 lies past the source and line cap totals.
    """
    saturation = float(instance.headroom.sum())
    return tuple(float(v) * saturation if v <= 1.0 else float(v) for v in sweep)


def _run_allocation_compare(spec: ExperimentSpec) -> SweepTable:
    """Equilibrium allocation versus uniform split, over the budget sweep.

    The level column carries the strategy suffix, e.g. ``line:se`` and
    ``line:equal``.  Fractional budgets are resolved against the replicas'
    shared headroom, so they are those of the base config's own seed.
    """
    instance = _replica_stack(spec.base, spec.reps, _Layers())
    budgets = resolve_budget_sweep(spec.sweep, instance)
    K = len(budgets)
    count = instance.num_stations
    equal = np.repeat(np.array(budgets)[:, None, None] / count, count, axis=2)
    # Per level, the residuals of the equilibrium at every budget followed
    # by those of the equal split: one row per budget, one column per replica.
    residuals = {}
    for level in spec.levels:
        se = equilibrium_allocations(level, instance, budgets)
        allocations = np.concatenate((se, np.broadcast_to(equal, se.shape)))
        residuals[level] = reply_residuals(level, instance, allocations, budgets * 2)
    keys, samples = [], []
    for k, budget in enumerate(budgets):
        for level in spec.levels:
            for strategy, row in (("se", k), ("equal", K + k)):
                keys.append((budget, f"{level.value}:{strategy}", budget))
                samples.append(residuals[level][row])
    return SweepTable("P_d", _stat_rows(keys, samples), _config_lines(spec))


_GENERATOR_COUNTS = tuple(float(g) for g in range(1, 9))

# Experiment id -> (runner, default sweep), in the order the CLI lists them.
_EXPERIMENTS = {
    "power-sweep": (_run_power_sweep, tuple(float(p) for p in range(0, 101, 5))),
    "scale-sweep": (partial(_run_config_sweep, "grid_n", int, False), (4.0, 6.0, 8.0)),
    "radius-sweep": (
        partial(_run_config_sweep, "cell_radius", float, False),
        tuple(round(0.8 + 0.1 * k, 1) for k in range(8)),
    ),
    "generators-all": (
        partial(_run_config_sweep, "num_generators", int, False), _GENERATOR_COUNTS,
    ),
    "generators-single": (
        partial(_run_config_sweep, "num_generators", int, True), _GENERATOR_COUNTS,
    ),
    # Fractions of the total station headroom Σh, up to the budget at which
    # every stealthy level's equilibrium leaves no residual (above power
    # ratio 2 the source and line levels get there earlier, at Σp_full/2);
    # resolved against the replicas' shared headroom when the experiment runs.
    "allocation-compare": (_run_allocation_compare, tuple(k / 8.0 for k in range(9))),
}

EXPERIMENT_IDS = tuple(_EXPERIMENTS)


def default_sweep(experiment: str) -> tuple[float, ...]:
    """Sweep ranges used when a spec does not pin its own."""
    if experiment not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    return _EXPERIMENTS[experiment][1]


def run_experiment(spec: ExperimentSpec) -> SweepTable:
    """Run the experiment named by ``spec.experiment``."""
    return _EXPERIMENTS[spec.experiment][0](spec)


# ---------------------------------------------------------------------------
# Output


def table_to_csv(table: SweepTable) -> str:
    """CSV text with the resolved configuration as leading comment lines."""
    out = [f"# {line}" for line in table.config_lines]
    out.append(",".join(table.column_names()))
    for value, level, budget, mean, std, n in table.rows:
        out.append(
            f"{repr(value)},{level},{repr(budget)},{repr(mean)},{repr(std)},{n}"
        )
    return "\n".join(out) + "\n"


def _svg_polyline(points: list[tuple[float, float]], color: str) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'


_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def table_to_svg(table: SweepTable, title: str = "") -> str:
    """Minimal line chart: one series per (level, P_d) pair."""
    width, height = 860.0, 520.0
    left, right, top, bottom = 70.0, 230.0, 40.0, 60.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    series: dict[str, list[tuple[float, float]]] = {}
    for value, level, budget, mean, _, _ in table.rows:
        key = level if table.sweep_name == "P_d" else f"{level} P_d={budget:g}"
        series.setdefault(key, []).append((value, mean))

    xs = [v for pts in series.values() for v, _ in pts]
    ys = [m for pts in series.values() for _, m in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys)), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    def esc(text: str) -> str:
        return html.escape(text, quote=False)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{left + plot_w / 2:.2f}" y="{top - 14}" text-anchor="middle" '
            f'font-size="15">{esc(title)}</text>'
        )
    for k in range(5):
        xv = x_lo + k * (x_hi - x_lo) / 4.0
        yv = y_lo + k * (y_hi - y_lo) / 4.0
        parts.append(
            f'<text x="{sx(xv):.2f}" y="{top + plot_h + 18:.2f}" text-anchor="middle" '
            f'font-size="11">{xv:g}</text>'
        )
        parts.append(
            f'<text x="{left - 8:.2f}" y="{sy(yv) + 4:.2f}" text-anchor="end" '
            f'font-size="11">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 14:.2f}" text-anchor="middle" '
        f'font-size="13">{esc(table.sweep_name)}</text>'
    )
    parts.append(
        f'<text x="18" y="{top + plot_h / 2:.2f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.2f})">mean flow deviation</text>'
    )
    for idx, (name, pts) in enumerate(sorted(series.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(_svg_polyline([(sx(x), sy(y)) for x, y in sorted(pts)], color))
        ly = top + 16.0 * idx
        parts.append(
            f'<line x1="{left + plot_w + 12:.2f}" y1="{ly:.2f}" '
            f'x2="{left + plot_w + 34:.2f}" y2="{ly:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{left + plot_w + 40:.2f}" y="{ly + 4:.2f}" font-size="11">'
            f'{esc(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit(table: SweepTable, fmt: str, path: str, title: str = "") -> None:
    """Write a table as ``csv`` or ``svg`` to ``path``."""
    if not table.rows:
        raise ValueError("refusing to emit an empty table")
    if fmt == "csv":
        text = table_to_csv(table)
    elif fmt == "svg":
        text = table_to_svg(table, title)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
