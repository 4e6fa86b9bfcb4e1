"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test prints a ``criterion NN PASS`` line with the measured figures
(visible with ``pytest -s`` or ``-rP``).  Figure-magnitude criteria are
shape- and ordering-based: absolute deviations depend on scenario constants
that are configuration choices here.
"""
from __future__ import annotations

import gc
import time
from dataclasses import replace

import numpy as np

from icisim.coverage import Stations, build_coverage, hex_tiling
from icisim.experiments import ExperimentSpec, run_experiment, table_to_csv
from icisim.game import (
    GameInstance,
    StealthLevel,
    attacker_best_response,
    attacker_payoff,
    defender_caps,
    defender_payoff,
    equal_allocation,
    evaluate_profile,
    solve_defender_lp,
    stackelberg_equilibrium,
)
from icisim.impact import build_impact_model
from icisim.power import build_assignment
from icisim.scenario import ScenarioConfig, _rng, _wire_generators, generate

from conftest import random_feasible_defense, random_instance, synthetic_impact
from oracles import budgeted_allocation_lp, finite_difference_total, lattice_best_attack

STEALTHY = (StealthLevel.POWER_SOURCE, StealthLevel.POWER_LINE, StealthLevel.BASE_STATION)
ALL_LEVELS = (*STEALTHY, StealthLevel.OVERT)


def test_criterion_01_closed_forms_match_lattice_search():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        inst = random_instance(rng, int(rng.integers(2, 4)), int(rng.integers(1, 3)))
        p_d = random_feasible_defense(rng, inst, scale=0.4)
        for level in STEALTHY:
            closed = attacker_best_response(level, inst, p_d)
            value = attacker_payoff(level, inst, p_d, closed.deviations)
            _, lattice = lattice_best_attack(level, inst, p_d, points=201)
            gap = abs(value - lattice) / max(abs(lattice), 1e-6)
            worst = max(worst, gap)
            assert value >= lattice - 1e-9
            assert gap <= 1e-3
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 01 PASS - closed forms within {worst:.2e} of 201-point "
          f"lattice on 50 instances in {elapsed:.1f}s")


def test_criterion_02_greedy_lp_matches_simplex():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        B = int(rng.integers(2, 13))
        impact = synthetic_impact(rng.uniform(0.0, 5.0, B), np.full(B, 100.0))
        caps = rng.uniform(0.0, 60.0, B)
        budget = float(rng.uniform(0.0, caps.sum() * 1.3))
        greedy = solve_defender_lp(impact, caps, budget)
        objective = float(impact.z_scores @ greedy.allocation)
        oracle = budgeted_allocation_lp(impact.z_scores, caps, budget)
        worst = max(worst, abs(objective - oracle))
        assert abs(objective - oracle) <= 1e-9
        assert greedy.allocation.sum() <= budget + 1e-9
        assert np.all(greedy.allocation <= caps + 1e-12)
    print(f"criterion 02 PASS - greedy vs simplex objective gap <= {worst:.2e} "
          "on 100 instances")


def test_criterion_03_impact_scores_match_finite_differences():
    rng = np.random.default_rng(33)
    worst = 0.0
    checked = 0
    for grid_n in (2, 3):
        for radius in (0.9, 1.1):
            for seed in range(5):
                sc = generate(ScenarioConfig(grid_n=grid_n, cell_radius=radius, seed=seed))
                assert sc.network.n <= 40
                assert len(sc.base_stations) <= 8
                impact = sc.impact
                covered = np.nonzero(impact.z_scores > 0.0)[0]
                for station in covered[:2]:
                    cut = float(rng.uniform(0.2, 1.0) * impact.headroom[station])
                    ours = impact.z_scores[station] * impact.delta * cut
                    oracle = finite_difference_total(sc, int(station), cut)
                    rel = abs(ours - oracle) / oracle
                    worst = max(worst, rel)
                    checked += 1
                    assert rel <= 1e-6
    assert checked >= 20
    print(f"criterion 03 PASS - {checked} station cuts within {worst:.2e} of the "
          "two-solve oracle across 20 scenarios")


def test_criterion_04_power_sweep_is_linear_then_flat():
    spec = ExperimentSpec(
        experiment="power-sweep",
        base=ScenarioConfig(grid_n=5, seed=0, num_generators=4),
        sweep=tuple(float(p) for p in range(0, 101, 5)),
        reps=3,
    )
    table = run_experiment(spec)
    means = {row[0]: row[3] for row in table.rows}
    xs = sorted(means)
    values = np.array([means[x] for x in xs])
    value_range = values.max() - values.min()
    low = [x for x in xs if x <= 50.0]
    coeffs = np.polyfit(low, [means[x] for x in low], 1)
    residual = float(np.max(np.abs(np.polyval(coeffs, low) - [means[x] for x in low])))
    assert residual <= 1e-6 * value_range
    high = np.array([means[x] for x in xs if x >= 50.0])
    assert means[0.0] == 0.0
    assert float(high.max() - high.min()) <= 1e-9 * high.max()
    assert abs(means[50.0] - means[100.0]) <= 1e-9 * high.max()
    print(f"criterion 04 PASS - linear fit residual {residual:.2e} of range "
          f"{value_range:.1f}; flat beyond half power")


def test_criterion_05_equilibrium_dominates_equal_allocation():
    seeds = range(10)
    fractions = (0.0, 0.25, 0.5, 0.75, 1.0)
    improvements: dict[StealthLevel, list[float]] = {lv: [] for lv in ALL_LEVELS}
    for seed in seeds:
        sc = generate(ScenarioConfig(grid_n=5, seed=seed, num_generators=3))
        inst = sc.game_instance()
        saturation = float(inst.headroom.sum()) / 2.0
        for fraction in fractions:
            budget = fraction * saturation
            for level in ALL_LEVELS:
                _, _, outcome = stackelberg_equilibrium(level, inst, budget)
                equal = equal_allocation(inst.num_stations, budget)
                reply = attacker_best_response(level, inst, equal.allocation)
                other = evaluate_profile(level, inst, equal, reply)
                assert outcome.residual_deviation <= other.residual_deviation + 1e-9
                if fraction == fractions[-1] and other.residual_deviation > 0.0:
                    improvements[level].append(
                        (other.residual_deviation - outcome.residual_deviation)
                        / other.residual_deviation
                    )
    best = {lv.value: float(np.mean(vals)) for lv, vals in improvements.items() if vals}
    assert max(best.values()) >= 0.10
    summary = ", ".join(f"{name} {100 * val:.0f}%" for name, val in sorted(best.items()))
    print("criterion 05 PASS - equilibrium never worse on 10 seeds x 5 budgets x 4 "
          f"levels; improvement at saturating budget: {summary}")


def test_criterion_06_line_stealth_is_most_damaging_at_scale():
    spec = ExperimentSpec(
        experiment="scale-sweep",
        base=ScenarioConfig(grid_n=4, seed=0, num_generators=4),
        sweep=(4.0, 6.0, 8.0),
        reps=30,
        budgets=(0.0, 100.0),
    )
    table = run_experiment(spec)
    rows = {(r[0], r[1], r[2]): r[3] for r in table.rows}
    for grid_n in (4.0, 6.0, 8.0):
        # No-backup rows: the severity comparison the orderings refer to.
        line = rows[(grid_n, "line", 0.0)]
        assert line >= rows[(grid_n, "source", 0.0)] - 1e-9
        assert line >= rows[(grid_n, "bs", 0.0)] - 1e-9
        for level in ("source", "line", "bs"):
            assert rows[(grid_n, level, 0.0)] >= rows[(grid_n, level, 100.0)] - 1e-9
    # Interdependence grows with scale.
    for level in ("source", "line", "bs"):
        series = [rows[(g, level, 0.0)] for g in (4.0, 6.0, 8.0)]
        assert series == sorted(series)
    print("criterion 06 PASS - mean no-backup deviation: line >= source and "
          ">= station at scales 4/6/8 over 30 seeds")


def test_criterion_07_generator_count_effects():
    spec = ExperimentSpec(
        experiment="generators-all",
        base=ScenarioConfig(grid_n=5, seed=0),
        sweep=(2.0, 4.0, 6.0, 8.0),
        reps=30,
        budgets=(0.0,),
    )
    table_all = run_experiment(spec)
    table_single = run_experiment(replace(spec, experiment="generators-single"))
    spreads = {}
    for level in ("source", "line", "bs"):
        means = np.array([r[3] for r in table_all.rows if r[1] == level])
        spread = float((means.max() - means.min()) / means.mean())
        spreads[level] = spread
        assert spread <= 0.05
        singles = [r[3] for r in table_single.rows if r[1] == level]
        assert all(b <= a + 1e-9 for a, b in zip(singles, singles[1:]))
    summary = ", ".join(f"{k} {100 * v:.1f}%" for k, v in spreads.items())
    print(f"criterion 07 PASS - all-sources means flat ({summary}); single-source "
          "means nonincreasing over 30 seeds")


def test_criterion_08_no_profitable_defender_perturbation():
    rng = np.random.default_rng(88)
    for seed in range(20):
        sc = generate(ScenarioConfig(grid_n=3, seed=seed, num_generators=3))
        inst = sc.game_instance()
        level = ALL_LEVELS[seed % len(ALL_LEVELS)]
        caps = defender_caps(level, inst)
        budget = 0.5 * float(caps.sum())
        defense, _, outcome = stackelberg_equilibrium(level, inst, budget)
        tried = 0
        while tried < 100:
            b_from, b_to = rng.integers(0, inst.num_stations, 2)
            if b_from == b_to:
                continue
            move = min(float(rng.uniform(0.5, 2.0)), float(defense.allocation[b_from]))
            if move <= 0.0:
                continue
            perturbed = defense.allocation.copy()
            perturbed[b_from] -= move
            perturbed[b_to] = min(perturbed[b_to] + move, float(caps[b_to]))
            reply = attacker_best_response(level, inst, perturbed)
            u_d = defender_payoff(inst.impact, perturbed, reply.deviations)
            assert u_d <= outcome.defender_payoff + 1e-9
            tried += 1
    print("criterion 08 PASS - 20 scenarios x 100 perturbations never improve "
          "the defender against recomputed replies")


def test_criterion_09_experiments_are_deterministic():
    power = ExperimentSpec(
        experiment="power-sweep",
        base=ScenarioConfig(grid_n=4, seed=12),
        sweep=(0.0, 25.0, 50.0, 75.0, 100.0),
        reps=3,
    )
    scale = ExperimentSpec(
        experiment="scale-sweep",
        base=ScenarioConfig(grid_n=3, seed=12),
        sweep=(3.0, 4.0),
        reps=3,
        budgets=(0.0, 60.0),
    )
    for spec in (power, scale):
        first = table_to_csv(run_experiment(spec))
        second = table_to_csv(run_experiment(spec))
        assert first.encode() == second.encode()
    print("criterion 09 PASS - repeated runs emit byte-identical CSV")


def _retile(sc, radius: float) -> tuple[GameInstance, int]:
    """Re-tile a scenario's street grid at a new cell radius."""
    side = sc.config.extent
    centers = hex_tiling(((0.0, 0.0), (side, side)), radius)
    stations = Stations(centers, radius, sc.config.p_activation, sc.config.p_full)
    coverage = build_coverage(sc.network.graph, stations)
    shares = _wire_generators(sc.config, sc.generators, stations, _rng(sc.config.seed, 3))
    assignment = build_assignment(stations, shares)
    impact = build_impact_model(sc.network, coverage, stations, sc.config.delta)
    return GameInstance(impact, assignment), len(stations)


def _time_equilibria(cases: list[tuple[GameInstance, float]]) -> list[float]:
    """Median process CPU seconds per line-level equilibrium of each case.

    Sizes are timed in interleaved rounds so that a slow spell of the host
    hits every size alike instead of bending the curve; CPU time leaves out
    time the process spends descheduled.
    """
    for inst, budget in cases:
        for _ in range(10):
            stackelberg_equilibrium(StealthLevel.POWER_LINE, inst, budget)
    samples: list[list[float]] = [[] for _ in cases]
    gc.collect()
    gc.disable()
    try:
        for _ in range(9):
            for per_case, (inst, budget) in zip(samples, cases):
                start = time.process_time()
                for _ in range(50):
                    stackelberg_equilibrium(StealthLevel.POWER_LINE, inst, budget)
                per_case.append((time.process_time() - start) / 50)
    finally:
        gc.enable()
    return [float(np.median(s)) for s in samples]


def test_criterion_10_scales_to_large_grids_with_linear_game_layer():
    config = ScenarioConfig(grid_n=30, cell_radius=0.9, num_generators=10, seed=0)
    started = time.perf_counter()
    sc = generate(config)
    build_time = time.perf_counter() - started
    assert sc.network.n == 3480
    assert len(sc.base_stations) >= 300
    inst = sc.game_instance()
    for level in ALL_LEVELS:
        _, _, outcome = stackelberg_equilibrium(level, inst, 2000.0)
        assert np.isfinite(outcome.residual_deviation)

    side = config.extent
    counts, cases = [], []
    for target in (50, 100, 200, 400):
        radius = min(
            np.linspace(0.8, 3.4, 53),
            key=lambda r: abs(len(hex_tiling(((0.0, 0.0), (side, side)), float(r))) - target),
        )
        inst_b, B = _retile(sc, float(radius))
        counts.append(B)
        cases.append((inst_b, 0.2 * float(inst_b.headroom.sum())))
    times = _time_equilibria(cases)
    coeffs = np.polyfit(counts, times, 1)
    fit = np.polyval(coeffs, counts)
    rel = np.abs(np.array(times) - fit) / fit
    assert np.all(rel <= 0.20)
    detail = ", ".join(f"B={b}: {1e3 * t:.2f}ms" for b, t in zip(counts, times))
    print(f"criterion 10 PASS - grid 30 ({sc.network.n} streets, "
          f"{len(sc.base_stations)} stations) built in {build_time:.0f}s; game layer "
          f"{detail}; max deviation from linear fit {100 * rel.max():.0f}%")
