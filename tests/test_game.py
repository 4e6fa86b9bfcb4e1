"""Allocation game tests: payoffs, best responses, LP, equilibria."""
from __future__ import annotations

import numpy as np
import pytest

from icisim.errors import InfeasibleError, NoLineError
from icisim.game import (
    AttackStrategy,
    DefenseStrategy,
    StealthLevel,
    _fill_order,
    _greedy_fill,
    attacker_best_response,
    attacker_payoff,
    defender_caps,
    defender_payoff,
    detection_prob,
    equal_allocation,
    equilibrium_allocations,
    evaluate_profile,
    reply_residuals,
    solution_from_json,
    solution_to_json,
    solve_defender_lp,
    stackelberg_equilibrium,
    validate_attack,
)

from icisim import game
from icisim.impact import its_deviation
from icisim.scenario import ScenarioConfig, generate

from conftest import make_instance, random_feasible_defense, random_instance, synthetic_impact
from oracles import (
    budgeted_allocation_lp, lattice_best_attack, loop_fill, loop_source_reply, loop_station_reply,
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
    assert detection_prob(StealthLevel.POWER_SOURCE, inst, p_a, 0) == 0.0
    assert detection_prob(StealthLevel.POWER_LINE, inst, p_a, (1, 1)) == 0.0
    assert detection_prob(StealthLevel.BASE_STATION, inst, p_a, 0) == 0.0


def test_line_detection_boundary():
    inst = _split_instance()
    p_a = np.zeros((2, 2))
    p_a[0, 0] = inst.line_caps[0, 0]
    assert detection_prob(StealthLevel.POWER_LINE, inst, p_a, (0, 0)) == 1.0


def test_station_detection_linear_ratio():
    inst = _split_instance()
    p_a = np.zeros((2, 2))
    p_a[0] = [30.0, 20.0]
    assert detection_prob(StealthLevel.BASE_STATION, inst, p_a, 0) == pytest.approx(0.5)


def test_detection_array_matches_per_unit_probabilities():
    from icisim.game import _detection_array

    rng = np.random.default_rng(61)
    inst = random_instance(rng, 4, 3)
    caps = inst.line_caps
    p_a = rng.uniform(0.0, 1.0, caps.shape) * caps
    line = _detection_array(StealthLevel.POWER_LINE, inst, p_a)
    for b, g in np.argwhere(caps > 0.0):
        assert line[b, g] == pytest.approx(
            detection_prob(StealthLevel.POWER_LINE, inst, p_a, (int(g), int(b)))
        )
    assert np.all(line[caps <= 0.0] == 0.0)
    source = _detection_array(StealthLevel.POWER_SOURCE, inst, p_a)
    for g in range(inst.num_generators):
        assert source[g] == pytest.approx(
            detection_prob(StealthLevel.POWER_SOURCE, inst, p_a, g)
        )
    # Station-level drains can exceed the headroom for this random draw, so
    # rescale before comparing.
    p_b = p_a * 0.3
    station = _detection_array(StealthLevel.BASE_STATION, inst, p_b)
    for b in range(inst.num_stations):
        assert station[b] == pytest.approx(
            detection_prob(StealthLevel.BASE_STATION, inst, p_b, b)
        )


def test_detection_rejects_overdrain_and_missing_lines():
    inst = _split_instance()
    p_a = np.zeros((2, 2))
    p_a[0, 0] = 2.0 * inst.line_caps[0, 0]
    with pytest.raises(InfeasibleError):
        detection_prob(StealthLevel.POWER_LINE, inst, p_a, (0, 0))
    with pytest.raises(NoLineError):
        detection_prob(StealthLevel.POWER_LINE, inst, np.zeros((2, 2)), (0, 1))
    with pytest.raises(ValueError):
        detection_prob(StealthLevel.OVERT, inst, np.zeros((2, 2)), 0)


@pytest.mark.parametrize(
    "level, unit",
    [
        (StealthLevel.POWER_LINE, (-1, 0)),
        (StealthLevel.POWER_LINE, (0, -1)),
        (StealthLevel.POWER_LINE, (5, 0)),
        (StealthLevel.POWER_LINE, (0, 2)),
        (StealthLevel.BASE_STATION, -2),
        (StealthLevel.BASE_STATION, 2),
        (StealthLevel.POWER_SOURCE, -1),
        (StealthLevel.POWER_SOURCE, 2),
    ],
)
def test_detection_rejects_unit_ids_out_of_range(level, unit):
    # A negative id must not wrap around to another unit's probability.
    inst = _split_instance()
    p_a = np.array([[30.0, 20.0], [0.0, 50.0]])
    with pytest.raises(ValueError, match="out of range"):
        detection_prob(level, inst, p_a, unit)
    # In range but unwired stays a missing line, not a range error.
    with pytest.raises(NoLineError):
        detection_prob(StealthLevel.POWER_LINE, inst, p_a, (0, 1))


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
                    assert value == its_deviation(inst.impact, net)


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


def test_equilibrium_caps_per_level():
    inst = _split_instance()
    assert np.allclose(
        defender_caps(StealthLevel.POWER_LINE, inst), inst.assignment.p_full / 2.0
    )
    assert np.array_equal(
        defender_caps(StealthLevel.BASE_STATION, inst), inst.headroom / 2.0
    )
    for level in (StealthLevel.POWER_SOURCE, StealthLevel.POWER_LINE, StealthLevel.OVERT):
        response = attacker_best_response(level, inst)
        assert np.array_equal(defender_caps(level, inst), response.per_station)
    assert np.allclose(defender_caps(StealthLevel.OVERT, inst), inst.assignment.p_full)


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


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the station-level cap stops at half the headroom, "
    "though the attacker's net drain keeps falling until the full headroom",
)
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
    from icisim.impact import its_deviation

    net = np.maximum(attack.per_station - defense.allocation, 0.0)
    assert outcome.residual_deviation == pytest.approx(its_deviation(inst.impact, net))


def test_solution_serialisation_round_trip():
    rng = np.random.default_rng(59)
    inst = random_instance(rng, 3, 2)
    defense, attack, outcome = stackelberg_equilibrium(StealthLevel.POWER_LINE, inst, 80.0)
    text = solution_to_json(StealthLevel.POWER_LINE, defense, attack, outcome)
    level, defense2, attack2, outcome2 = solution_from_json(text)
    assert level is StealthLevel.POWER_LINE
    assert np.array_equal(defense2.allocation, defense.allocation)
    assert np.array_equal(attack2.deviations, attack.deviations)
    assert outcome2.defender_payoff == outcome.defender_payoff
    assert outcome2.attacker_payoff == outcome.attacker_payoff
    assert np.array_equal(outcome2.detection, outcome.detection)
