"""Allocation game tests: payoffs, best responses, LP, equilibria."""
from __future__ import annotations

import functools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icisim.errors import InfeasibleError
from icisim.game import (
    AttackStrategy,
    DefenseStrategy,
    StealthLevel,
    _detection_array,
    _fill_order,
    _greedy_fill,
    attacker_best_response,
    attacker_payoff,
    defender_caps,
    defender_payoff,
    equal_allocation,
    equilibrium_allocations,
    evaluate_profile,
    reply_residuals,
    solution_to_json,
    solve_defender_lp,
    stackelberg_equilibrium,
    validate_attack,
)

from icisim import game
from icisim.experiments import _Layers, _attack_sources, pick_attack_source
from icisim.impact import its_deviations
from icisim.scenario import ScenarioConfig, generate

from conftest import make_instance, random_feasible_defense, random_instance, synthetic_impact
from oracles import (
    budgeted_allocation_lp, lattice_best_attack, loop_fill, loop_source_reply, loop_station_reply,
    source_residual_milp, station_residual_lp, unit_detection,
)

STEALTHY = (StealthLevel.POWER_SOURCE, StealthLevel.POWER_LINE, StealthLevel.BASE_STATION)


def _two_line_instance():
    # One generator feeding two stations through 0.5 shares of 200 W.
    return make_instance(
        z_scores=[1.0, 2.0],
        T=[[1.0], [1.0]],
        p_activation=[100.0, 100.0],
        p_full=[200.0, 200.0],
    )


def _split_instance():
    # Station 0 fed by both generators; station 1 only by generator 1.
    return make_instance(
        z_scores=[1.5, 0.5],
        T=[[0.5, 0.5], [0.0, 1.0]],
        p_activation=[100.0, 100.0],
        p_full=[200.0, 200.0],
    )


# ---------------------------------------------------------------------------
# Detection probabilities


def test_zero_attack_is_undetectable():
    inst = _split_instance()
    p_a = np.zeros((2, 2))
    for level in STEALTHY:
        assert not _detection_array(level, inst, p_a).any()


def test_line_detection_boundary():
    inst = _split_instance()
    p_a = np.zeros((2, 2))
    p_a[0, 0] = inst.line_caps[0, 0]
    assert _detection_array(StealthLevel.POWER_LINE, inst, p_a)[0, 0] == 1.0


def test_station_detection_linear_ratio():
    inst = _split_instance()
    p_a = np.zeros((2, 2))
    p_a[0] = [30.0, 20.0]
    assert _detection_array(StealthLevel.BASE_STATION, inst, p_a)[0] == pytest.approx(0.5)


def test_detection_array_matches_per_unit_probabilities():
    rng = np.random.default_rng(61)
    inst = random_instance(rng, 4, 3)
    caps = inst.line_caps
    p_a = rng.uniform(0.0, 1.0, caps.shape) * caps
    line = _detection_array(StealthLevel.POWER_LINE, inst, p_a)
    for b, g in np.argwhere(caps > 0.0):
        assert line[b, g] == pytest.approx(
            unit_detection(StealthLevel.POWER_LINE, inst, p_a, (int(g), int(b)))
        )
    assert np.all(line[caps <= 0.0] == 0.0)
    source = _detection_array(StealthLevel.POWER_SOURCE, inst, p_a)
    for g in range(inst.num_generators):
        assert source[g] == pytest.approx(
            unit_detection(StealthLevel.POWER_SOURCE, inst, p_a, g)
        )
    # Station-level drains can exceed the headroom for this random draw, so
    # rescale before comparing.
    p_b = p_a * 0.3
    station = _detection_array(StealthLevel.BASE_STATION, inst, p_b)
    for b in range(inst.num_stations):
        assert station[b] == pytest.approx(
            unit_detection(StealthLevel.BASE_STATION, inst, p_b, b)
        )
    assert _detection_array(StealthLevel.OVERT, inst, p_a).size == 0


def test_detection_rejects_overdrain_and_missing_lines():
    inst = _split_instance()
    p_a = np.zeros((2, 2))
    p_a[0, 0] = 2.0 * inst.line_caps[0, 0]
    # Capacity is checked in one place, and the payoffs go through it.
    overdrain = r"^attack exceeds capacity of line generator 0 -> station 0$"
    with pytest.raises(InfeasibleError, match=overdrain):
        validate_attack(StealthLevel.POWER_LINE, inst, p_a)
    with pytest.raises(InfeasibleError, match=overdrain):
        attacker_payoff(StealthLevel.POWER_LINE, inst, np.zeros(2), p_a)
    # Station 1 is fed by generator 1 only: a drain on generator 0 ->
    # station 1 is on no line, certain to be detected and infeasible.
    off_line = np.zeros((2, 2))
    off_line[1, 0] = 1.0
    assert _detection_array(StealthLevel.POWER_LINE, inst, off_line)[1, 0] == 1.0
    with pytest.raises(InfeasibleError, match="nonexistent line generator 0 -> station 1"):
        validate_attack(StealthLevel.POWER_LINE, inst, off_line)


def test_attacks_admitted_within_the_absolute_tolerance_are_scored():
    # validate_attack admits a unit drained to capacity * (1 + _FEAS_RTOL)
    # plus up to _FEAS_ATOL.  Such a drain's detection ratio lies above
    # 1 + _FEAS_RTOL; it clips to 1, and the payoffs score the attack.
    inst = generate(ScenarioConfig(grid_n=4, seed=0)).game_instance()
    b, g = np.argwhere(inst.line_caps > 0.0)[0]
    defense = DefenseStrategy(np.zeros(inst.num_stations), 0.0)
    for level, unit, capacity in (
        (StealthLevel.POWER_SOURCE, g, inst.safe_outputs[g]),
        (StealthLevel.POWER_LINE, (b, g), inst.line_caps[b, g]),
        (StealthLevel.BASE_STATION, b, inst.headroom[b]),
    ):
        p_a = np.zeros_like(inst.line_caps)
        p_a[b, g] = capacity * (1.0 + game._FEAS_RTOL) + 0.5 * game._FEAS_ATOL
        assert p_a[b, g] / capacity > 1.0 + game._FEAS_RTOL
        validate_attack(level, inst, p_a)
        outcome = evaluate_profile(level, inst, defense, AttackStrategy(p_a))
        assert outcome.attacker_payoff == attacker_payoff(level, inst, defense.allocation, p_a)
        assert outcome.detection[unit] == 1.0


# ---------------------------------------------------------------------------
# Payoffs


def test_defender_payoff_zero_profile():
    inst = _split_instance()
    assert defender_payoff(inst.impact, np.zeros(2), np.zeros((2, 2))) == 0.0


def test_defender_payoff_cancellation():
    inst = _split_instance()
    p_a = np.array([[10.0, 5.0], [0.0, 20.0]])
    p_d = p_a.sum(axis=1)
    assert defender_payoff(inst.impact, p_d, p_a) == 0.0


def test_defender_payoff_single_station_arithmetic():
    impact = synthetic_impact(np.array([2.0]), np.array([100.0]))
    assert defender_payoff(impact, np.array([4.0]), np.array([[10.0]])) == -12.0


def test_overt_payoff_is_negated_defender_payoff():
    rng = np.random.default_rng(17)
    inst = random_instance(rng, 3, 2)
    caps = inst.line_caps
    for _ in range(100):
        p_a = rng.uniform(0.0, 1.0, caps.shape) * caps
        p_d = random_feasible_defense(rng, inst)
        assert attacker_payoff(StealthLevel.OVERT, inst, p_d, p_a) == -defender_payoff(
            inst.impact, p_d, p_a
        )


def test_line_at_capacity_contributes_nothing():
    inst = _two_line_instance()
    p_a = np.zeros((2, 1))
    p_a[0, 0] = inst.line_caps[0, 0]
    assert attacker_payoff(StealthLevel.POWER_LINE, inst, np.zeros(2), p_a) == pytest.approx(0.0)


def test_source_payoff_at_half_safe_output():
    # Uniform drain totalling half the safe output leaves a 1/2 stealth
    # factor on the impact-weighted gain.
    inst = _split_instance()
    g = 1
    stations = np.nonzero(inst.line_caps[:, g] > 0.0)[0]
    safe = inst.safe_outputs[g]
    p_a = np.zeros((2, 2))
    p_a[stations, g] = safe / (2.0 * stations.size)
    z = inst.impact.z_scores
    expected = 0.5 * float(z[stations] @ p_a[stations, g])
    assert attacker_payoff(StealthLevel.POWER_SOURCE, inst, np.zeros(2), p_a) == pytest.approx(
        expected, rel=1e-12
    )


def test_source_payoff_defender_term_variants():
    # Against no attack every level's payoff is the impact-weighted backup,
    # the source level's included.
    inst = _split_instance()
    p_d = np.array([10.0, 20.0])
    p_a = np.zeros((2, 2))
    for level in (*STEALTHY, StealthLevel.OVERT):
        payoff = attacker_payoff(level, inst, p_d, p_a)
        assert payoff == pytest.approx(-float(inst.impact.z_scores @ p_d), rel=1e-15)


def test_infeasible_attacks_raise():
    inst = _split_instance()
    with pytest.raises(InfeasibleError):
        validate_attack(StealthLevel.POWER_LINE, inst, -np.ones((2, 2)))
    off = np.zeros((2, 2))
    off[1, 0] = 5.0  # no line from generator 0 to station 1
    with pytest.raises(InfeasibleError):
        validate_attack(StealthLevel.POWER_LINE, inst, off)
    too_much = inst.line_caps * 1.5
    expected = {
        StealthLevel.POWER_SOURCE: "safe output of generator 0$",
        StealthLevel.POWER_LINE: "capacity of line generator 0 -> station 0$",
        StealthLevel.BASE_STATION: "power headroom of station 0$",
        StealthLevel.OVERT: "capacity of line generator 0 -> station 0$",
    }
    for level, message in expected.items():
        with pytest.raises(InfeasibleError, match=message):
            attacker_payoff(level, inst, np.zeros(2), too_much)
    one_line = np.zeros((2, 2))
    one_line[0, 1] = inst.line_caps[0, 1] * 1.5
    with pytest.raises(InfeasibleError, match="line generator 1 -> station 0$"):
        validate_attack(StealthLevel.POWER_LINE, inst, one_line)


@pytest.mark.parametrize("level", tuple(StealthLevel))
def test_payoffs_of_a_stack_of_attacks_are_the_single_calls(grid4_instance, level):
    # A stack of K attacks gets one payoff per attack, each the single call.
    inst = grid4_instance
    p = attacker_best_response(level, inst).deviations
    backup = np.linspace(0.0, 30.0, inst.num_stations)
    for p_d in (np.zeros(7), backup):
        for stack in (np.stack([p, p]), np.stack([p, 0.5 * p, np.zeros_like(p)])):
            u_a = attacker_payoff(level, inst, p_d, stack)
            u_d = defender_payoff(inst.impact, p_d, stack)
            assert u_a.shape == u_d.shape == (len(stack),)
            for k, attack in enumerate(stack):
                assert u_a[k] == attacker_payoff(level, inst, p_d, attack), k
                assert u_d[k] == defender_payoff(inst.impact, p_d, attack), k


# ---------------------------------------------------------------------------
# Best responses


def test_line_best_response_is_half_capacity():
    inst = _two_line_instance()
    attack = attacker_best_response(StealthLevel.POWER_LINE, inst)
    assert np.allclose(attack.deviations, inst.line_caps / 2.0)
    assert attack.deviations[0, 0] == pytest.approx(100.0)


def test_source_best_response_spreads_uniformly():
    # Safe outputs 100 + 300 over two lines: 100 on each.
    inst = make_instance(
        z_scores=[1.0, 1.0],
        T=[[1.0], [1.0]],
        p_activation=[50.0, 150.0],
        p_full=[100.0, 300.0],
    )
    attack = attacker_best_response(StealthLevel.POWER_SOURCE, inst)
    assert np.allclose(attack.deviations, [[100.0], [100.0]])


@pytest.mark.parametrize("grid_n", (4, 9, 20))
def test_source_reply_matches_loop_oracle(grid_n):
    rng = np.random.default_rng(grid_n)
    instances = [generate(ScenarioConfig(grid_n=grid_n, seed=grid_n)).game_instance()]
    instances += [random_instance(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
                  for _ in range(4)]
    for inst in instances:
        G = inst.num_generators
        for sources in (None, *([g] for g in range(G)), [0, G - 1]):
            reply = attacker_best_response(StealthLevel.POWER_SOURCE, inst, sources=sources)
            assert np.array_equal(reply.deviations, loop_source_reply(inst, sources)), sources


def test_station_best_response_tracks_defense():
    inst = _split_instance()
    p_d = np.array([40.0, 0.0])
    attack = attacker_best_response(StealthLevel.BASE_STATION, inst, p_d)
    assert attack.per_station[0] == pytest.approx((40.0 + 100.0) / 2.0)
    assert attack.per_station[1] == pytest.approx(50.0)
    # Split of a station's total follows the supply shares.
    assert attack.deviations[0, 0] == pytest.approx(attack.deviations[0, 1])
    # Over-defended stations saturate at the headroom.
    big = attacker_best_response(StealthLevel.BASE_STATION, inst, np.array([500.0, 0.0]))
    assert big.per_station[0] == pytest.approx(inst.headroom[0])


def test_closed_forms_match_lattice_search():
    rng = np.random.default_rng(23)
    for _ in range(8):
        inst = random_instance(rng, int(rng.integers(2, 4)), int(rng.integers(1, 3)))
        p_d = random_feasible_defense(rng, inst)
        for level in STEALTHY:
            closed = attacker_best_response(level, inst, p_d)
            value = attacker_payoff(level, inst, p_d, closed.deviations)
            _, lattice_value = lattice_best_attack(level, inst, p_d, points=201)
            assert value >= lattice_value - 1e-3 * max(abs(lattice_value), 1e-9)


def test_closed_forms_beat_random_strategies():
    rng = np.random.default_rng(29)
    inst = random_instance(rng, 3, 2)
    p_d = random_feasible_defense(rng, inst)
    caps = inst.line_caps
    wired = caps > 0.0
    for level in STEALTHY:
        closed = attacker_best_response(level, inst, p_d)
        best = attacker_payoff(level, inst, p_d, closed.deviations)
        for _ in range(1000):
            if level is StealthLevel.POWER_SOURCE:
                # Random drains uniform over each source's lines.
                p_a = np.zeros_like(caps)
                for g in range(inst.num_generators):
                    stations = np.nonzero(wired[:, g])[0]
                    p_a[stations, g] = rng.uniform(
                        0.0, inst.safe_outputs[g] / stations.size
                    )
            elif level is StealthLevel.POWER_LINE:
                p_a = rng.uniform(0.0, 1.0, caps.shape) * caps
            else:
                totals = rng.uniform(0.0, 1.0, inst.num_stations) * inst.headroom
                p_a = inst.assignment.T * totals[:, None]
            assert attacker_payoff(level, inst, p_d, p_a) <= best + 1e-9


def test_payoff_concavity_in_each_aggregate():
    rng = np.random.default_rng(31)
    inst = random_instance(rng, 3, 2)
    p_d = random_feasible_defense(rng, inst)
    caps = inst.line_caps
    wired = np.argwhere(caps > 0.0)
    b, g = wired[0]
    for level in STEALTHY:
        if level is StealthLevel.POWER_SOURCE:
            stations = np.nonzero(caps[:, g] > 0.0)[0]
            top = inst.safe_outputs[g] / stations.size
            grid = np.linspace(0.0, top, 41)
            values = []
            for u in grid:
                p_a = np.zeros_like(caps)
                p_a[stations, g] = u
                values.append(attacker_payoff(level, inst, p_d, p_a))
        elif level is StealthLevel.POWER_LINE:
            grid = np.linspace(0.0, caps[b, g], 41)
            values = []
            for u in grid:
                p_a = np.zeros_like(caps)
                p_a[b, g] = u
                values.append(attacker_payoff(level, inst, p_d, p_a))
        else:
            grid = np.linspace(0.0, inst.headroom[0], 41)
            values = []
            for u in grid:
                totals = np.zeros(inst.num_stations)
                totals[0] = u
                p_a = inst.assignment.T * totals[:, None]
                values.append(attacker_payoff(level, inst, p_d, p_a))
        second = np.diff(values, 2)
        assert np.all(second <= 1e-9)


# ---------------------------------------------------------------------------
# Defender LP


def test_lp_unconstrained_budget_fills_caps():
    impact = synthetic_impact(np.array([1.0, 3.0, 2.0]), np.full(3, 100.0))
    caps = np.array([10.0, 20.0, 30.0])
    defense = solve_defender_lp(impact, caps, 1000.0)
    assert np.array_equal(defense.allocation, caps)


def test_lp_zero_budget():
    impact = synthetic_impact(np.array([1.0, 3.0]), np.full(2, 100.0))
    defense = solve_defender_lp(impact, np.array([10.0, 10.0]), 0.0)
    assert np.array_equal(defense.allocation, np.zeros(2))


def test_lp_fills_by_score_with_lower_id_ties():
    impact = synthetic_impact(np.array([2.0, 5.0, 5.0, 1.0]), np.full(4, 100.0))
    caps = np.full(4, 10.0)
    defense = solve_defender_lp(impact, caps, 15.0)
    assert np.allclose(defense.allocation, [0.0, 10.0, 5.0, 0.0])


def test_lp_ties_survive_rounding_noise():
    # Grid-5 seed-0 scores fall into a few values that differ only by
    # rounding; perturbing them by a few ulps must not reorder the fill.
    scores = generate(ScenarioConfig(grid_n=5, seed=0)).impact.z_scores
    headroom = np.full(scores.size, 100.0)
    rng = np.random.default_rng(3)
    caps = rng.uniform(5.0, 30.0, scores.size)
    budgets = np.linspace(0.0, caps.sum(), 17)
    reference = [solve_defender_lp(synthetic_impact(scores, headroom), caps, b) for b in budgets]
    for _ in range(10):
        ulps = rng.integers(-4, 5, scores.size) * np.finfo(float).eps
        noisy = synthetic_impact(scores * (1.0 + ulps), headroom)
        for budget, expected in zip(budgets, reference):
            assert np.array_equal(
                solve_defender_lp(noisy, caps, budget).allocation, expected.allocation
            )


def test_lp_matches_simplex_oracle():
    rng = np.random.default_rng(37)
    for _ in range(20):
        B = int(rng.integers(2, 13))
        impact = synthetic_impact(rng.uniform(0.0, 5.0, B), np.full(B, 100.0))
        caps = rng.uniform(0.0, 50.0, B)
        budget = float(rng.uniform(0.0, caps.sum() * 1.2))
        defense = solve_defender_lp(impact, caps, budget)
        objective = float(impact.z_scores @ defense.allocation)
        oracle = budgeted_allocation_lp(impact.z_scores, caps, budget)
        assert objective == pytest.approx(oracle, abs=1e-9)
        assert defense.allocation.sum() <= budget + 1e-9
        assert np.all(defense.allocation <= caps + 1e-12)


def test_lp_objective_monotone_in_budget():
    rng = np.random.default_rng(41)
    impact = synthetic_impact(rng.uniform(0.0, 5.0, 6), np.full(6, 100.0))
    caps = rng.uniform(5.0, 30.0, 6)
    previous = -1.0
    for budget in np.linspace(0.0, caps.sum() + 20.0, 12):
        value = float(impact.z_scores @ solve_defender_lp(impact, caps, float(budget)).allocation)
        assert value >= previous - 1e-12
        previous = value


def _fill_cases():
    """(order, caps, budgets) triples: ties, zero caps, zero budgets, exact
    prefix sums of the caps, the cap total and a budget far beyond it."""
    rng = np.random.default_rng(67)
    cases = []
    for B in (1, 2, 5, 13, 40):
        caps = rng.uniform(0.0, 50.0, B)
        caps[rng.random(B) < 0.25] = 0.0
        if B > 2:
            caps[1] = caps[2]  # a tied pair of caps
        order = rng.permutation(B)
        ordered = caps[order]
        prefix = []
        remaining_sum = 0.0
        for c in ordered.tolist():
            remaining_sum += c
            prefix.append(remaining_sum)
        budgets = [0.0, *prefix, float(caps.sum()), 1e6,
                   *rng.uniform(0.0, caps.sum() * 1.2, 5).tolist()]
        cases.append((order, caps, budgets))
    # Scores with exact ties fill by station id.
    scores = np.array([2.0, 5.0, 5.0, 1.0, 5.0, 0.0])
    caps = np.array([10.0, 0.0, 7.5, 2.5, 7.5, 3.0])
    cases.append((_fill_order(scores), caps, [0.0, 7.5, 15.0, 15.000000000000002, 30.5, 1e6]))
    return cases


def test_greedy_fill_equals_loop_oracle_bit_for_bit():
    for order, caps, budgets in _fill_cases():
        filled = _greedy_fill(order, caps, budgets)
        assert filled.shape == (len(budgets), caps.size)
        for row, budget in zip(filled, budgets):
            expected = loop_fill(order, caps, budget)
            assert row.tobytes() == expected.tobytes(), (caps, budget)
        # The one-budget entry points fill the same way.
        impact = synthetic_impact(np.linspace(1.0, 2.0, caps.size), np.full(caps.size, 100.0))
        lp_order = _fill_order(impact.z_scores)
        for budget in budgets:
            lp = solve_defender_lp(impact, caps, budget)
            assert lp.allocation.tobytes() == loop_fill(lp_order, caps, budget).tobytes()


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_fill_rejects_non_finite_and_negative_budgets(budget):
    inst = _split_instance()
    caps = np.array([10.0, 20.0])
    with pytest.raises(ValueError, match="budget must be"):
        _greedy_fill(np.array([0, 1]), caps, [10.0, budget])
    with pytest.raises(ValueError, match="budget must be"):
        solve_defender_lp(inst.impact, caps, budget)
    for level in StealthLevel:
        with pytest.raises(ValueError, match="budget must be"):
            stackelberg_equilibrium(level, inst, budget)
    with pytest.raises(ValueError, match="caps must be nonnegative"):
        _greedy_fill(np.array([0, 1]), np.array([1.0, -1.0]), [10.0])


@pytest.fixture(scope="module")
def sweep_instances():
    # Grid 6, seed 1: with 8 or 10 generators, some station's share total
    # rounds differently when summed as C-ordered rows.
    return {
        gens: generate(ScenarioConfig(grid_n=6, seed=1, num_generators=gens)).game_instance()
        for gens in (3, 8, 10)
    }


@pytest.mark.parametrize("gens", (3, 8, 10))
@pytest.mark.parametrize("level", tuple(StealthLevel))
def test_reply_residuals_equal_the_one_profile_api(sweep_instances, level, gens):
    inst = sweep_instances[gens]
    B = inst.num_stations
    caps = defender_caps(level, inst)
    budgets = [0.0, 37.5, *(float(caps.sum()) * f for f in (0.125, 0.5, 1.0)), 1e6]
    for sources in (None, [gens - 1]):
        se = equilibrium_allocations(level, inst, budgets)
        equal = np.repeat(np.array(budgets)[:, None] / B, B, axis=1)
        residuals = reply_residuals(level, inst, np.vstack((se, equal)), budgets + budgets, sources)
        assert residuals.shape == (2 * len(budgets),)
        for k, budget in enumerate(budgets):
            defense, attack, outcome = stackelberg_equilibrium(level, inst, budget, sources)
            assert residuals[k] == outcome.residual_deviation, (sources, budget)
            split = equal_allocation(B, budget)
            reply = attacker_best_response(level, inst, split.allocation, sources)
            other = evaluate_profile(level, inst, split, reply)
            assert residuals[len(budgets) + k] == other.residual_deviation, (sources, budget)
            if level is StealthLevel.BASE_STATION:
                # Against the station-by-station reply, not only the shared code.
                for p_d, value in ((defense.allocation, residuals[k]),
                                   (split.allocation, residuals[len(budgets) + k])):
                    p_a = loop_station_reply(inst, p_d, sources)
                    shared = attacker_best_response(level, inst, p_d, sources)
                    assert np.array_equal(shared.deviations, p_a)
                    net = np.maximum(p_a.sum(axis=1) - p_d, 0.0)
                    assert value == its_deviations(inst.impact, net)


def test_station_replies_stack_bit_for_bit(sweep_instances):
    inst = sweep_instances[10]
    rng = np.random.default_rng(71)
    p_d = rng.uniform(0.0, 1.0, (6, inst.num_stations)) * inst.headroom
    for sources in (None, [0, 4, 9]):
        stacked = attacker_best_response(StealthLevel.BASE_STATION, inst, p_d, sources)
        assert stacked.deviations.shape == (6, inst.num_stations, inst.num_generators)
        for k, row in enumerate(p_d):
            single = attacker_best_response(StealthLevel.BASE_STATION, inst, row, sources)
            assert np.array_equal(stacked.deviations[k], single.deviations)
            assert np.array_equal(stacked.per_station[k], single.per_station)
            assert np.array_equal(single.deviations, loop_station_reply(inst, row, sources))


def test_reply_residuals_check_allocations_and_every_reply(sweep_instances, monkeypatch):
    inst = sweep_instances[3]
    B = inst.num_stations
    allocations = np.zeros((3, B))
    allocations[2, 0] = 10.0
    with pytest.raises(ValueError, match="spends 10.0 W of a 5.0 W budget"):
        reply_residuals(StealthLevel.POWER_LINE, inst, allocations, [5.0, 5.0, 5.0])
    allocations[1, 1] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        reply_residuals(StealthLevel.POWER_LINE, inst, allocations, [20.0, 20.0, 20.0])

    # Every stacked station-level reply is validated, not only the first.
    real = game.attacker_best_response

    def overdrawn(level, instance, p_d=None, sources=None):
        attack = real(level, instance, p_d, sources)
        if attack.deviations.ndim == 3:
            attack.deviations[-1] *= 3.0
        return attack

    monkeypatch.setattr(game, "attacker_best_response", overdrawn)
    with pytest.raises(InfeasibleError, match="power headroom of station"):
        reply_residuals(StealthLevel.BASE_STATION, inst, np.zeros((3, B)), [0.0, 0.0, 0.0])
    # One reply answers every allocation at the other levels; it is checked too.
    p_a = real(StealthLevel.POWER_SOURCE, inst, sources=[0]).deviations
    monkeypatch.setattr(game, "attacker_best_response", lambda *args: AttackStrategy(3.0 * p_a))
    with pytest.raises(InfeasibleError, match="safe output of generator"):
        reply_residuals(StealthLevel.POWER_SOURCE, inst, np.zeros((2, B)), [0.0, 0.0], [0])

    # On a replica stack, an overspend and an overdrawn reply in the last
    # replica are caught, and the error names the unit without its replica.
    monkeypatch.setattr(game, "attacker_best_response", real)
    stack = _Layers(2).stack(ScenarioConfig(grid_n=6, seed=1, num_generators=3))
    allocations = np.zeros((3, 2, B))
    allocations[2, 1, 0] = 10.0
    with pytest.raises(ValueError, match="spends 10.0 W of a 5.0 W budget"):
        reply_residuals(StealthLevel.POWER_LINE, stack, allocations, [5.0, 5.0, 5.0])

    def overdrawn_last(level, instance, p_d=None, sources=None):
        attack = real(level, instance, p_d, sources)
        attack.deviations[..., -1, :, :] *= 3.0
        return attack

    monkeypatch.setattr(game, "attacker_best_response", overdrawn_last)
    with pytest.raises(InfeasibleError, match=r"power headroom of station \d+$"):
        reply_residuals(StealthLevel.BASE_STATION, stack, np.zeros((3, 2, B)), [0.0, 0.0, 0.0])
    with pytest.raises(InfeasibleError, match=r"safe output of generator 0$"):
        reply_residuals(StealthLevel.POWER_SOURCE, stack, np.zeros((2, 2, B)), [0.0, 0.0], [0])


def _replicas(config, seeds):
    # Each of the consecutive seeds' own scenario, and the experiments' stack
    # of them, built layer by layer along the replica axis.
    scenarios = [generate(replace(config, seed=seed)) for seed in seeds]
    return scenarios, _Layers(len(seeds)).stack(replace(config, seed=seeds[0]))


@pytest.fixture(scope="module")
def replica_stack():
    # Grid 6 with 10 generators: seed 1 needs the F-ordered share totals.
    return _replicas(ScenarioConfig(grid_n=6, num_generators=10), range(1, 5))


@pytest.mark.parametrize("level", tuple(StealthLevel))
def test_replica_slices_equal_the_single_instance_calls(replica_stack, level):
    scenarios, stack = replica_stack
    instances = [sc.game_instance() for sc in scenarios]
    R, B, G = len(instances), stack.num_stations, stack.num_generators
    for r, inst in enumerate(instances):
        for name in ("line_caps", "safe_outputs", "fill_order"):
            assert np.array_equal(getattr(stack, name)[r], getattr(inst, name)), name
        assert np.array_equal(stack.impact.z_scores[r], inst.impact.z_scores)
    caps = defender_caps(level, stack)
    assert caps.shape == (R, B)
    total = float(caps.sum()) / R
    budgets = [0.0, 37.5, *(total * f for f in (0.125, 0.5, 1.0)), 1e6]
    K = len(budgets)
    se = equilibrium_allocations(level, stack, budgets)
    assert se.shape == (K, R, B)
    equal = np.repeat(np.array(budgets)[:, None] / B, B, axis=1)
    allocations = np.concatenate((se, np.broadcast_to(equal[:, None, :], se.shape)))
    picks = [[r, G - 1 - r] for r in range(R)]
    for sources in (None, [0, 4, 9], picks):
        residuals = reply_residuals(level, stack, allocations, budgets * 2, sources)
        assert residuals.shape == (2 * K, R)
        reply = attacker_best_response(level, stack, allocations, sources).deviations
        u_a = attacker_payoff(level, stack, allocations, reply)
        u_d = defender_payoff(stack.impact, allocations, reply)
        assert u_a.shape == u_d.shape == (2 * K, R)
        for r, inst in enumerate(instances):
            own = picks[r] if sources is picks else sources
            single = equilibrium_allocations(level, inst, budgets)
            assert np.array_equal(caps[r], defender_caps(level, inst))
            assert np.array_equal(se[:, r], single)
            both = np.vstack((single, equal))
            expected = reply_residuals(level, inst, both, budgets * 2, own)
            assert np.array_equal(residuals[:, r], expected), (sources, r)
            alone = attacker_best_response(level, inst, both, own).deviations
            got = reply[:, r] if level is StealthLevel.BASE_STATION else reply[r]
            assert np.array_equal(got, alone), (sources, r)
            for k, p_d in enumerate(both):
                p_a = alone[k] if level is StealthLevel.BASE_STATION else alone
                assert u_a[k, r] == attacker_payoff(level, inst, p_d, p_a), (sources, r, k)
                assert u_d[k, r] == defender_payoff(inst.impact, p_d, p_a), (sources, r, k)
    # Every replica's attack source is picked in one pass over the generators.
    for config, seeds in ((None, None), (ScenarioConfig(grid_n=4, num_generators=1), range(3))):
        chosen, picked = (scenarios, stack) if config is None else _replicas(config, seeds)
        expected = [pick_attack_source(sc, level) for sc in chosen]
        assert _attack_sources(level, picked).tolist() == expected


def test_stack_needs_one_source_list_per_replica(sweep_instances):
    inst = sweep_instances[3]
    config = ScenarioConfig(grid_n=6, seed=1, num_generators=3)
    assert _Layers(1).stack(config).fill_order.shape == (1, inst.num_stations)
    stack = _Layers(2).stack(config)
    for target, sources in ((stack, [[0], [1], [2]]), (inst, [[0], [1]])):
        with pytest.raises(ValueError, match="source lists for replica axes"):
            attacker_best_response(StealthLevel.POWER_LINE, target, sources=sources)
    with pytest.raises(ValueError, match=r"^generator id 3 is outside 0\.\.2$"):
        attacker_best_response(StealthLevel.POWER_LINE, stack, sources=[[0], [3]])


def test_shared_reply_is_validated_when_built(monkeypatch):
    inst = _split_instance()
    # The one line-level reply that answers every allocation is checked
    # before any residual or payoff is read from it.
    monkeypatch.setattr(
        game, "attacker_best_response", lambda *args: AttackStrategy(inst.line_caps * 1.5)
    )
    with pytest.raises(InfeasibleError, match="capacity of line"):
        reply_residuals(StealthLevel.POWER_LINE, inst, np.zeros((1, 2)), [0.0])
    with pytest.raises(InfeasibleError, match="capacity of line"):
        stackelberg_equilibrium(StealthLevel.POWER_LINE, inst, 0.0)


# ---------------------------------------------------------------------------
# Equilibria


def test_zero_budget_equilibrium():
    inst = _split_instance()
    for level in STEALTHY:
        defense, attack, _ = stackelberg_equilibrium(level, inst, 0.0)
        assert np.array_equal(defense.allocation, np.zeros(2))
        free = attacker_best_response(level, inst)
        assert np.allclose(attack.deviations, free.deviations)


def test_equilibrium_caps_per_level(sweep_instances):
    inst = _split_instance()
    assert np.allclose(
        defender_caps(StealthLevel.POWER_LINE, inst), inst.assignment.p_full / 2.0
    )
    # Every cap is the reply to a full-headroom backup.  Only the station
    # level reads the backup, and its reply to the headroom is the headroom.
    for level in StealthLevel:
        response = attacker_best_response(level, inst, inst.headroom)
        assert np.array_equal(defender_caps(level, inst), response.per_station)
    for level in (StealthLevel.POWER_SOURCE, StealthLevel.POWER_LINE, StealthLevel.OVERT):
        response = attacker_best_response(level, inst)
        assert np.array_equal(defender_caps(level, inst), response.per_station)
    assert np.array_equal(defender_caps(StealthLevel.BASE_STATION, inst), inst.headroom)
    assert np.allclose(defender_caps(StealthLevel.OVERT, inst), inst.assignment.p_full)
    # Split over the lines and summed again, a station's cap can leave the
    # headroom by an ulp or two, never by more than rounding.
    for other in sweep_instances.values():
        np.testing.assert_allclose(
            defender_caps(StealthLevel.BASE_STATION, other), other.headroom, rtol=1e-14, atol=0.0
        )


def test_cached_replies_are_read_only_and_fresh():
    sc = generate(ScenarioConfig(grid_n=5, seed=3, num_generators=3, cell_radius=0.8))
    inst = sc.game_instance()
    assert sc.game_instance() is inst
    backup = random_feasible_defense(np.random.default_rng(5), inst)
    for level in (StealthLevel.POWER_SOURCE, StealthLevel.POWER_LINE, StealthLevel.OVERT):
        # Away from the station level the reply reads no backup.
        for sources in (None, [1]):
            reply = attacker_best_response(level, inst, backup, sources)
            assert reply.deviations.flags.writeable
            free = attacker_best_response(level, inst, sources=sources)
            assert np.array_equal(reply.deviations, free.deviations)
    assert np.array_equal(inst.fill_order, _fill_order(inst.impact.z_scores))
    assert inst.fill_order.dtype.kind == "i"
    assert not inst.fill_order.flags.writeable
    # The equilibrium's cached fill order gives solve_defender_lp's allocation.
    for level in StealthLevel:
        for budget in (0.0, 40.0, 400.0, 1e6):
            defense, attack, _ = stackelberg_equilibrium(level, inst, budget)
            lp = solve_defender_lp(inst.impact, defender_caps(level, inst), budget)
            assert np.array_equal(defense.allocation, lp.allocation)
            reply = attacker_best_response(level, inst, lp.allocation)
            assert np.array_equal(attack.deviations, reply.deviations)


def test_no_profitable_defender_perturbation():
    rng = np.random.default_rng(43)
    inst = random_instance(rng, 4, 2)
    for level in (*STEALTHY, StealthLevel.OVERT):
        caps = defender_caps(level, inst)
        budget = 0.6 * float(caps.sum())
        defense, _, outcome = stackelberg_equilibrium(level, inst, budget)
        for _ in range(100):
            b_from, b_to = rng.integers(0, inst.num_stations, 2)
            move = min(1.0, float(defense.allocation[b_from]))
            if b_from == b_to or move <= 0.0:
                continue
            perturbed = defense.allocation.copy()
            perturbed[b_from] -= move
            perturbed[b_to] = min(perturbed[b_to] + move, caps[b_to])
            reply = attacker_best_response(level, inst, perturbed)
            u_d = defender_payoff(inst.impact, perturbed, reply.deviations)
            assert u_d <= outcome.defender_payoff + 1e-9


def test_station_level_split_invariance():
    # Any split with the same per-station totals yields identical payoffs.
    rng = np.random.default_rng(47)
    inst = random_instance(rng, 3, 3)
    defense, attack, outcome = stackelberg_equilibrium(StealthLevel.BASE_STATION, inst, 120.0)
    totals = attack.per_station
    wired = inst.line_caps > 0.0
    for _ in range(20):
        weights = np.where(wired, rng.uniform(0.1, 1.0, wired.shape), 0.0)
        weights /= weights.sum(axis=1, keepdims=True)
        alt = AttackStrategy(weights * totals[:, None])
        assert np.allclose(alt.per_station, totals)
        other = evaluate_profile(StealthLevel.BASE_STATION, inst, defense, alt)
        assert other.attacker_payoff == pytest.approx(outcome.attacker_payoff, rel=1e-12)
        assert other.defender_payoff == pytest.approx(outcome.defender_payoff, rel=1e-12)


def test_restricted_sources_zero_other_columns():
    inst = _split_instance()
    for level in (*STEALTHY, StealthLevel.OVERT):
        attack = attacker_best_response(level, inst, sources=[1])
        assert np.array_equal(attack.deviations[:, 0], np.zeros(2))
        assert attack.deviations[:, 1].sum() > 0.0


@pytest.fixture(scope="module")
def grid4_instance():
    inst = generate(ScenarioConfig(grid_n=4, seed=0)).game_instance()
    assert (inst.num_stations, inst.num_generators) == (7, 3)
    return inst


@pytest.mark.parametrize("level", tuple(StealthLevel))
def test_attack_sources_outside_the_generators_raise(grid4_instance, level):
    # Generator -1 used to wrap around to generator 2, and 3 raised a bare
    # IndexError; the first id outside 0..2 is named.
    for sources, bad in (([-1], -1), ([3], 3), ([0, 3, -1], 3)):
        with pytest.raises(ValueError, match=rf"^generator id {bad} is outside 0\.\.2$"):
            attacker_best_response(level, grid4_instance, sources=sources)
    last = attacker_best_response(level, grid4_instance, sources=[2]).deviations
    assert np.array_equal(last[:, :2], np.zeros((7, 2)))


@pytest.mark.parametrize("entries", (1, 8))
@pytest.mark.parametrize("level", tuple(StealthLevel))
def test_allocations_need_one_entry_per_station(grid4_instance, level, entries):
    # A one-entry allocation used to be credited at all 7 stations.
    inst = grid4_instance
    p_d = np.full(entries, 5.0 / entries)
    attack = attacker_best_response(level, inst).deviations
    calls = (
        lambda: attacker_best_response(level, inst, p_d),
        lambda: attacker_payoff(level, inst, p_d, attack),
        lambda: defender_payoff(inst.impact, p_d, attack),
        lambda: evaluate_profile(level, inst, DefenseStrategy(p_d, 5.0), AttackStrategy(attack)),
        lambda: reply_residuals(level, inst, p_d[None, :], [5.0]),
    )
    for call in calls:
        with pytest.raises(ValueError, match=rf"^allocation has {entries} entries, expected 7, "
                                             "one per station$"):
            call()


@pytest.mark.parametrize("level", tuple(StealthLevel))
def test_attacks_need_finite_nonnegative_drains(grid4_instance, level):
    # One NaN on a wired line used to pass, and the attacker's payoff was NaN.
    inst = grid4_instance
    b, g = np.argwhere(inst.line_caps > 0.0)[0]
    for bad, message in ((np.nan, "finite"), (np.inf, "finite"), (-1.0, "nonnegative")):
        attack = attacker_best_response(level, inst).deviations.copy()
        attack[b, g] = bad
        for call in (
            lambda: validate_attack(level, inst, attack),
            lambda: attacker_payoff(level, inst, np.zeros(7), attack),
        ):
            with pytest.raises(InfeasibleError, match=f"^attack deviations must be {message}$"):
                call()


@pytest.mark.parametrize(
    "bad, message",
    [(-300.0, "must be nonnegative"), (np.nan, "and budgets must be finite"),
     (np.inf, "and budgets must be finite")],
)
@pytest.mark.parametrize("level", tuple(StealthLevel))
def test_backups_need_finite_nonnegative_entries(grid4_instance, level, bad, message):
    # At bs a backup of -300 W per station used to get a -100 W attack in
    # reply, and a NaN backup a NaN attack and a NaN defender payoff.
    inst = grid4_instance
    attack = attacker_best_response(level, inst).deviations
    for p_d in (np.full(7, bad), np.where(np.arange(7) == 3, bad, 1.0)):
        for call in (
            lambda: attacker_best_response(level, inst, p_d),
            lambda: attacker_best_response(level, inst, np.stack((np.zeros(7), p_d))),
            lambda: attacker_payoff(level, inst, p_d, attack),
            lambda: defender_payoff(inst.impact, p_d, attack),
        ):
            with pytest.raises(ValueError, match=f"^backup allocations {message}$"):
                call()


def test_equilibrium_beats_equal_allocation_payoff(grid3_scenario):
    # Compared within each level's cap total: beyond it the equilibrium
    # allocation is saturated by construction while a uniform split may
    # keep spending, so the comparison is only meaningful below saturation.
    inst = grid3_scenario.game_instance()
    for level in (*STEALTHY, StealthLevel.OVERT):
        saturation = float(defender_caps(level, inst).sum())
        for fraction in (0.2, 0.6, 1.0):
            budget = fraction * saturation
            defense, _, outcome = stackelberg_equilibrium(level, inst, budget)
            equal = equal_allocation(inst.num_stations, budget)
            reply = attacker_best_response(level, inst, equal.allocation)
            u_equal = defender_payoff(inst.impact, equal.allocation, reply.deviations)
            assert outcome.defender_payoff >= u_equal - 1e-9


@pytest.fixture(scope="module")
def grid9_instances():
    return {
        seed: generate(ScenarioConfig(grid_n=9, seed=seed, num_generators=5)).game_instance()
        for seed in range(3)
    }


@pytest.mark.parametrize("fraction", (0.6, 0.75, 1.0))
@pytest.mark.parametrize("seed", range(3))
def test_station_equilibrium_beats_equal_allocation_above_half_headroom(
    grid9_instances, seed, fraction
):
    inst = grid9_instances[seed]
    level = StealthLevel.BASE_STATION
    budget = fraction * float(inst.headroom.sum())
    _, _, outcome = stackelberg_equilibrium(level, inst, budget)
    equal = equal_allocation(inst.num_stations, budget)
    reply = attacker_best_response(level, inst, equal.allocation)
    other = evaluate_profile(level, inst, equal, reply)
    assert outcome.residual_deviation <= other.residual_deviation + 1e-9


@pytest.mark.parametrize("grid_n", range(3, 10))
def test_station_equilibrium_matches_the_lp_oracle(grid_n):
    # No allocation leaves a smaller station-level residual than the
    # equilibrium, at any budget up to the total headroom.
    for seed in range(4):
        inst = generate(ScenarioConfig(grid_n=grid_n, seed=seed)).game_instance()
        level, delta = StealthLevel.BASE_STATION, inst.impact.delta
        _, _, undefended = stackelberg_equilibrium(level, inst, 0.0)
        scale = undefended.residual_deviation / delta
        for fraction in np.linspace(0.0, 1.0, 9):
            budget = float(fraction * inst.headroom.sum())
            _, _, outcome = stackelberg_equilibrium(level, inst, budget)
            optimum = station_residual_lp(inst, budget)
            assert abs(outcome.residual_deviation / delta - optimum) <= 1e-9 * scale, (
                seed, budget
            )


@functools.lru_cache(maxsize=None)
def _property_instance(grid_n: int, seed: int):
    return generate(ScenarioConfig(grid_n=grid_n, seed=seed)).game_instance()


def _random_allocations(rng: np.random.Generator, inst, budgets: np.ndarray) -> np.ndarray:
    """One feasible allocation per budget: exponential weights on a random
    subset of stations, spending the whole budget, and for half the rows
    then clipped at each station's headroom."""
    K, B = len(budgets), inst.num_stations
    weights = rng.standard_exponential((K, B))
    weights *= rng.random((K, B)) < rng.uniform(0.1, 1.0, (K, 1))
    weights[weights.sum(axis=1) == 0.0, 0] = 1.0
    allocations = budgets[:, None] * weights / weights.sum(axis=1, keepdims=True)
    clip = rng.random(K) < 0.5
    allocations[clip] = np.minimum(allocations[clip], inst.headroom)
    return allocations


def _check_random_allocations(level: StealthLevel, grid_n: int, seed: int, draws: int) -> None:
    """16 budgets up to 1.2 times the total headroom, one random feasible
    allocation each: none leaves less residual than the equilibrium at the
    same budget."""
    inst = _property_instance(grid_n, seed)
    rng = np.random.default_rng(draws)
    budgets = rng.uniform(0.0, 1.2 * float(inst.headroom.sum()), 16)
    se = reply_residuals(level, inst, equilibrium_allocations(level, inst, budgets), budgets)
    other = reply_residuals(level, inst, _random_allocations(rng, inst, budgets), budgets)
    undefended = reply_residuals(level, inst, np.zeros((1, inst.num_stations)), [0.0])[0]
    tolerance = 1e-9 * max(1.0, float(undefended))
    assert np.all(se <= other + tolerance), (grid_n, seed, budgets[se > other + tolerance])


@pytest.mark.parametrize(
    "level", [StealthLevel.POWER_LINE, StealthLevel.BASE_STATION, StealthLevel.OVERT],
    ids=lambda level: level.value,
)
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(grid_n=st.integers(3, 9), seed=st.integers(0, 3), draws=st.integers(0, 2**32 - 1))
def test_no_random_allocation_leaves_less_residual_than_the_equilibrium(level, grid_n, seed, draws):
    _check_random_allocations(level, grid_n, seed, draws)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: at source the greedy fill caps a station at the attack, "
    "and the headroom clamp wastes the backup that covers the part of the attack "
    "above the headroom",
)
def test_no_random_allocation_leaves_less_residual_than_the_source_equilibrium():
    # The same property on a fixed set of draws, one per grid and seed.  It
    # is not run under @given: for a failing example hypothesis's pytest
    # plugin writes a patch file, and with libcst installed the import that
    # does so aborts a run under -W error::DeprecationWarning.
    for grid_n in range(3, 10):
        for seed in range(4):
            _check_random_allocations(StealthLevel.POWER_SOURCE, grid_n, seed, 10 * grid_n + seed)


def _check_milp_oracle(level: StealthLevel) -> None:
    """On grids 3-9 and seeds 0-1, at budgets of 0, 0.1, 0.3 and 0.5 times
    the total headroom, no allocation the MILP oracle finds leaves less
    residual than the equilibrium.  At a zero budget the oracle's residual
    is the undefended one, which checks the drains it assumes."""
    for grid_n in range(3, 10):
        for seed in range(2):
            inst = _property_instance(grid_n, seed)
            budgets = np.array([0.0, 0.1, 0.3, 0.5]) * float(inst.headroom.sum())
            allocations = equilibrium_allocations(level, inst, budgets)
            se = reply_residuals(level, inst, allocations, budgets)
            best = np.array([source_residual_milp(level, inst, float(b)) for b in budgets])
            tolerance = 1e-9 * max(1.0, float(se[0]))
            assert abs(best[0] - se[0]) <= tolerance
            assert np.all(se <= best + tolerance), (grid_n, seed, budgets[se > best + tolerance])


@pytest.mark.parametrize(
    "level", [StealthLevel.POWER_LINE, StealthLevel.OVERT], ids=lambda level: level.value
)
def test_no_milp_allocation_leaves_less_residual_than_the_equilibrium(level):
    # Stronger than criterion 5, which compares with the equal split only.
    _check_milp_oracle(level)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the source residual is not convex in the backup, since the "
    "first max(D_b - h_b, 0) watts at station b buy nothing; its exact minimum is a "
    "knapsack with setup costs, which the greedy fill does not solve",
)
def test_no_milp_allocation_leaves_less_residual_than_the_source_equilibrium():
    _check_milp_oracle(StealthLevel.POWER_SOURCE)


def test_equal_allocation_examples():
    assert np.array_equal(equal_allocation(4, 100.0).allocation, np.full(4, 25.0))
    assert np.array_equal(equal_allocation(1, 100.0).allocation, np.array([100.0]))
    with pytest.raises(ValueError):
        equal_allocation(0, 10.0)


def test_defense_strategy_validation():
    with pytest.raises(ValueError):
        DefenseStrategy(np.array([-1.0, 0.0]), 10.0)
    with pytest.raises(ValueError):
        DefenseStrategy(np.array([6.0, 6.0]), 10.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_budgets_and_allocations_are_rejected(sweep_instances, bad):
    with pytest.raises(ValueError, match="must be finite"):
        DefenseStrategy(np.array([bad, 1.0]), 10.0)
    with pytest.raises(ValueError, match="must be finite"):
        DefenseStrategy(np.array([1.0, 1.0]), bad)
    with pytest.raises(ValueError, match="must be finite"):
        equal_allocation(3, bad)
    inst = sweep_instances[3]
    allocations = np.zeros((2, inst.num_stations))
    with pytest.raises(ValueError, match="must be finite"):
        reply_residuals(StealthLevel.BASE_STATION, inst, allocations, [5.0, bad])
    allocations[1, 0] = bad
    for level in (StealthLevel.BASE_STATION, StealthLevel.POWER_LINE):
        with pytest.raises(ValueError, match="must be finite"):
            reply_residuals(level, inst, allocations, [5.0, 5.0])


def test_outcome_zero_sum_at_overt():
    rng = np.random.default_rng(53)
    inst = random_instance(rng, 3, 2)
    defense, attack, outcome = stackelberg_equilibrium(StealthLevel.OVERT, inst, 100.0)
    assert outcome.attacker_payoff == -outcome.defender_payoff
    assert outcome.detection.size == 0


def test_residual_deviation_nets_defense(grid3_scenario):
    inst = grid3_scenario.game_instance()
    defense, attack, outcome = stackelberg_equilibrium(StealthLevel.POWER_LINE, inst, 150.0)
    net = np.maximum(attack.per_station - defense.allocation, 0.0)
    assert outcome.residual_deviation == pytest.approx(its_deviations(inst.impact, net))


def test_solution_serialisation_round_trip():
    rng = np.random.default_rng(59)
    inst = random_instance(rng, 3, 2)
    defense, attack, outcome = stackelberg_equilibrium(StealthLevel.POWER_LINE, inst, 80.0)
    doc = json.loads(solution_to_json(StealthLevel.POWER_LINE, defense, attack, outcome))
    assert doc["level"] == "line" and doc["budget"] == 80.0
    # Every float is written as its repr, so it reads back bit for bit.
    assert np.array_equal(np.array(doc["p_d"], dtype=float), defense.allocation)
    assert np.array_equal(np.array(doc["p_a"], dtype=float), attack.deviations)
    assert float(doc["defender_payoff"]) == outcome.defender_payoff
    assert float(doc["attacker_payoff"]) == outcome.attacker_payoff
    assert np.array_equal(doc["detection"], outcome.detection)
    assert float(doc["residual_deviation"]) == outcome.residual_deviation
