"""Backup-power allocation game between a grid attacker and a defender.

The attacker drains power on generator-to-station lines to disturb street
traffic; the defender pre-positions backup power at stations under a total
budget.  The attacker cares about staying undetected, and the chance of
detection depends on where it is measured: per power source (total drain
over safe output), per line (drain over line capacity), or per station
(total drain over the station's power headroom).  An overt variant with no
detection discount is also supported.

Payoffs weight station shortfalls by the impact scores of
:mod:`icisim.impact`.  The attacker's stealth-discounted gain is concave
and separable in its decision variables, so its best response has a closed
form per level; the defender's problem is a budgeted linear program with
per-station caps, solved exactly by a greedy fill in score order.  Solving
the game is therefore linear-time in the number of stations (up to the
sort) and suits large instances.

Each game step has one implementation that takes many budgets at once:
one array fill gives the equilibrium backup at K budgets
(:func:`equilibrium_allocations`), the station-level reply of
:func:`attacker_best_response` accepts K allocations, and
:func:`reply_residuals` gives the physical residual of the reply to each
of K allocations.  The one-profile API
(:func:`stackelberg_equilibrium`, :func:`solve_defender_lp`) calls them
with K = 1; the experiments call them once per scenario and level.
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InfeasibleError, NoLineError
from .impact import ImpactModel, its_deviation, its_deviations
from .power import PowerAssignment

_FEAS_RTOL = 1e-9
_FEAS_ATOL = 1e-12
# Scores within this fraction of the first score of their run are tied, so
# rounding noise in the impact model never decides the fill order.
_TIE_RTOL = 1e-12


class StealthLevel(enum.Enum):
    """Where the attacker's footprint is measured against detection."""

    POWER_SOURCE = "source"
    POWER_LINE = "line"
    BASE_STATION = "bs"
    OVERT = "overt"

    @classmethod
    def from_name(cls, name: str) -> "StealthLevel":
        for level in cls:
            if level.value == name:
                return level
        raise ValueError(f"unknown stealth level {name!r}")


@dataclass(frozen=True, eq=False)
class GameInstance:
    """Everything the game needs: impacts and supply shares.

    Station power headroom comes from the impact model; line capacities and
    safe generator outputs from the supply shares and station ratings.  The
    instance caches those two and the defender's fill order.
    """

    impact: ImpactModel
    assignment: PowerAssignment

    def __post_init__(self) -> None:
        if self.impact.num_stations != self.assignment.num_stations:
            raise ValueError("impact model and assignment disagree on station count")

    @property
    def num_stations(self) -> int:
        return self.assignment.num_stations

    @property
    def num_generators(self) -> int:
        return self.assignment.num_generators

    @property
    def p_full(self) -> np.ndarray:
        return self.assignment.p_full

    @property
    def headroom(self) -> np.ndarray:
        """Per-station watts between full service and cut-off."""
        return self.impact.headroom

    @cached_property
    def line_caps(self) -> np.ndarray:
        """Per-line safe power, ``T[b, g] * p_full[b]``."""
        return self.assignment.T * self.assignment.p_full[:, None]

    @cached_property
    def safe_outputs(self) -> np.ndarray:
        """Undisturbed output of each generator."""
        return self.line_caps.sum(axis=0)

    @cached_property
    def fill_order(self) -> np.ndarray:
        """Station ids in the defender's fill order (:func:`_fill_order`), read-only."""
        order = _fill_order(self.impact.z_scores)
        order.setflags(write=False)
        return order


@dataclass(frozen=True, eq=False)
class AttackStrategy:
    """Per-line power drains in watts, shape (stations, generators).

    The station-level reply to K allocations stacks K of them, shape
    (K, stations, generators).
    """

    deviations: np.ndarray

    @property
    def per_station(self) -> np.ndarray:
        return self.deviations.sum(axis=-1)


@dataclass(frozen=True, eq=False)
class DefenseStrategy:
    """Backup power placed at each station, within ``budget`` watts total."""

    allocation: np.ndarray
    budget: float

    def __post_init__(self) -> None:
        _check_spend(self.allocation, self.budget)


def _check_spend(allocations: np.ndarray, budgets: np.ndarray | float) -> None:
    """Raise ValueError unless each allocation (row) is finite and
    nonnegative and spends at most its finite budget, up to the feasibility
    tolerances."""
    if not (np.isfinite(allocations).all() and np.isfinite(budgets).all()):
        raise ValueError("backup allocations and budgets must be finite")
    if (allocations < 0.0).any():
        raise ValueError("backup allocations must be nonnegative")
    totals = np.atleast_1d(allocations.sum(axis=-1))
    budgets = np.broadcast_to(budgets, totals.shape)
    over = np.flatnonzero(totals > budgets * (1.0 + _FEAS_RTOL) + _FEAS_ATOL)
    if over.size:
        k = over[0]
        raise ValueError(
            f"allocation spends {float(totals[k])} W of a {float(budgets[k])} W budget"
        )


@dataclass(frozen=True, eq=False)
class GameOutcome:
    """Payoffs, per-unit detection probabilities and the physical deviation."""

    defender_payoff: float
    attacker_payoff: float
    detection: np.ndarray
    residual_deviation: float


# Per level, the unit an over-capacity attack is reported at; the indices
# are those of the monitored arrays of :func:`_monitored`.
_UNIT_NAMES = {
    StealthLevel.POWER_SOURCE: "safe output of generator {0}",
    StealthLevel.POWER_LINE: "capacity of line generator {1} -> station {0}",
    StealthLevel.BASE_STATION: "power headroom of station {0}",
    StealthLevel.OVERT: "capacity of line generator {1} -> station {0}",
}


def _monitored(
    level: StealthLevel, instance: GameInstance, p_a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Power drained from, and capacity of, each unit ``level`` monitors.

    Units are generators (drain over safe output) at the source level and
    stations (drain over headroom) at the station level.  At the line level
    they are lines, indexed ``[b, g]``; the overt level is not monitored,
    but line capacity still bounds it, so it shares the line units.  A
    stack of K attacks gives K rows of drains.
    """
    if level is StealthLevel.POWER_SOURCE:
        return p_a.sum(axis=-2), instance.safe_outputs
    if level is StealthLevel.BASE_STATION:
        return p_a.sum(axis=-1), instance.headroom
    return p_a, instance.line_caps


def _unit(flags: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Index of the first flagged unit, without the index of its attack."""
    return np.argwhere(flags)[0][flags.ndim - capacity.ndim:]


def validate_attack(level: StealthLevel, instance: GameInstance, p_a: np.ndarray) -> None:
    """Raise InfeasibleError unless ``p_a`` is admissible at ``level``.

    ``p_a`` is one attack, shape (B, G), or a stack of K, shape (K, B, G).
    """
    B, G = instance.num_stations, instance.num_generators
    p_a = np.asarray(p_a, dtype=float)
    if p_a.ndim not in (2, 3) or p_a.shape[-2:] != (B, G):
        raise InfeasibleError(f"attack matrix has shape {p_a.shape}, expected {(B, G)}")
    if (p_a < 0.0).any():
        raise InfeasibleError("attack deviations must be nonnegative")
    off_line = (instance.line_caps <= 0.0) & (p_a > 0.0)
    if off_line.any():
        b, g = _unit(off_line, instance.line_caps)
        raise InfeasibleError(f"attack on nonexistent line generator {g} -> station {b}")
    drained, capacity = _monitored(level, instance, p_a)
    over = drained > capacity * (1.0 + _FEAS_RTOL) + _FEAS_ATOL
    if over.any():
        unit = _unit(over, capacity)
        raise InfeasibleError(f"attack exceeds {_UNIT_NAMES[level].format(*unit)}")


def detection_prob(
    level: StealthLevel,
    instance: GameInstance,
    p_a: np.ndarray,
    unit: int | tuple[int, int],
) -> float:
    """Detection probability of the attack at one monitored unit.

    ``unit`` is a generator id at the source level, a ``(g, b)`` pair at the
    line level, and a station id at the station level.  Raises ValueError
    for a generator or station id outside ``0..k-1``, and NoLineError for a
    pair of ids in range with no line between them.
    """
    if level is StealthLevel.OVERT:
        raise ValueError("the overt level has no detection model")
    drained, capacity = _monitored(level, instance, np.asarray(p_a, dtype=float))
    if level is StealthLevel.POWER_LINE:
        g, b = unit  # type: ignore[misc]
        index: tuple[int, ...] = (int(b), int(g))
    else:
        index = (int(unit),)  # type: ignore[arg-type]
    if not all(0 <= i < size for i, size in zip(index, capacity.shape)):
        raise ValueError(f"{level.value} unit {unit} out of range")
    if level is StealthLevel.POWER_LINE and not instance.assignment.has_line(g, b):
        raise NoLineError(f"no line from generator {g} to station {b}")
    return float(_ratio_array(np.array([drained[index]]), np.array([capacity[index]]), level)[0])


def _ratio_array(drained: np.ndarray, capacity: np.ndarray, level: StealthLevel) -> np.ndarray:
    """Detection ratios ``drained / capacity`` of many units, clipped to 1.

    A unit with no capacity is certain to be detected once anything is
    drained from it; a ratio above ``1 + _FEAS_RTOL`` raises InfeasibleError.
    """
    ratios = np.divide(
        drained, capacity, out=np.zeros_like(drained, dtype=float), where=capacity > 0.0
    )
    ratios[(capacity <= 0.0) & (drained > 0.0)] = 1.0
    if (ratios > 1.0 + _FEAS_RTOL).any():
        unit = _unit(ratios > 1.0 + _FEAS_RTOL, capacity)
        raise InfeasibleError(
            f"detection ratio exceeds 1 at {level.value} unit {unit.tolist()}"
        )
    return np.minimum(ratios, 1.0)


def _detection_array(level: StealthLevel, instance: GameInstance, p_a: np.ndarray) -> np.ndarray:
    if level is StealthLevel.OVERT:
        return np.zeros(0)
    return _ratio_array(*_monitored(level, instance, p_a), level)


def defender_payoff(impact: ImpactModel, p_d: np.ndarray, p_a: np.ndarray) -> float:
    """Negated impact-weighted net shortfall over all stations."""
    p_a = np.asarray(p_a, dtype=float)
    p_d = np.asarray(p_d, dtype=float)
    return float(-(impact.z_scores @ (p_a.sum(axis=1) - p_d)))


def attacker_payoff(
    level: StealthLevel,
    instance: GameInstance,
    p_d: np.ndarray,
    p_a: np.ndarray,
) -> float:
    """Stealth-discounted attacker gain minus the defender's compensation.

    Each monitored unit discounts the gain it carries by one minus its
    detection ratio; the overt level is the zero-sum game, undiscounted.
    """
    validate_attack(level, instance, p_a)
    p_a = np.asarray(p_a, dtype=float)
    p_d = np.asarray(p_d, dtype=float)
    if level is StealthLevel.OVERT:
        return -defender_payoff(instance.impact, p_d, p_a)

    z = instance.impact.z_scores
    drained, capacity = _monitored(level, instance, p_a)
    ratios = np.divide(drained, capacity, out=np.zeros_like(drained), where=capacity > 0.0)
    if level is StealthLevel.POWER_SOURCE:
        return float((z @ p_a) @ (1.0 - ratios) - z @ p_d)
    if level is StealthLevel.POWER_LINE:
        return float(z @ ((p_a * (1.0 - ratios)).sum(axis=1) - p_d))
    return float(z @ ((drained - p_d) * (1.0 - ratios)))


def _source_mask(instance: GameInstance, sources: Sequence[int] | None) -> np.ndarray:
    mask = np.zeros(instance.num_generators, dtype=bool)
    if sources is None:
        mask[:] = True
    else:
        mask[list(sources)] = True
    return mask


def attacker_best_response(
    level: StealthLevel,
    instance: GameInstance,
    p_d: np.ndarray | None = None,
    sources: Sequence[int] | None = None,
) -> AttackStrategy:
    """Closed-form attack maximising the level's payoff against ``p_d``.

    ``sources`` restricts the attacker to a subset of generators (used for
    single-source experiments); by default all generators are attacked.
    Only the station-level reply reads the backup ``p_d`` (none by
    default).  There ``p_d`` may stack K allocations, shape (K, B); the
    reply then stacks the K replies, shape (K, B, G).
    """
    caps = instance.line_caps
    wired = caps > 0.0
    mask = _source_mask(instance, sources)

    if level is StealthLevel.BASE_STATION:
        # Drive each station's total shortfall to the vertex of its concave
        # gain, capped at the physical headroom, and split it over the
        # usable lines in proportion to their supply shares.  The masked
        # weights are F-ordered; their row sums are kept as they are, as
        # those of C-ordered weights can differ in the last bit.
        h = instance.headroom
        p_d = np.zeros(instance.num_stations) if p_d is None else np.asarray(p_d, dtype=float)
        target = np.minimum((p_d + h) / 2.0, h)
        weights = np.where(wired[:, mask], instance.assignment.T[:, mask], 0.0)
        totals = weights.sum(axis=1)
        scale = np.divide(target, totals, out=np.zeros_like(target), where=totals > 0.0)
        p_a = np.zeros(target.shape + mask.shape)
        p_a[..., mask] = weights * scale[..., None]
        return AttackStrategy(p_a)

    if level is StealthLevel.POWER_SOURCE:
        # Half of each generator's output, spread evenly over its lines;
        # build_assignment gives every generator at least one.
        p_a = np.where(wired, instance.safe_outputs / (2.0 * wired.sum(axis=0)), 0.0)
    elif level is StealthLevel.POWER_LINE:
        p_a = caps / 2.0
    else:
        p_a = caps
    return AttackStrategy(np.where(mask, p_a, 0.0))


def defender_caps(level: StealthLevel, instance: GameInstance) -> np.ndarray:
    """Per-station upper bounds for the defender's allocation at ``level``.

    Backup power beyond the attacker's anticipated shortfall is wasted, so
    the cap is the per-station :func:`attacker_best_response` to no
    defence, which away from the station level is the reply to any backup.
    At the station level that is half the power headroom.  The station-level
    reply grows with the backup, though, so its net drain keeps falling
    until the backup reaches the full headroom: above half the total
    headroom, this cap can leave budget unspent and lose to an equal split.
    """
    if level is StealthLevel.BASE_STATION:
        return instance.headroom / 2.0
    return attacker_best_response(level, instance).per_station


def _fill_order(scores: np.ndarray) -> np.ndarray:
    """Station ids by decreasing score, each run of tied scores by id."""
    order = np.lexsort((np.arange(scores.size), -scores))
    ranked = scores[order].tolist()
    runs, lead = [], 0
    for k, z in enumerate(ranked):
        if ranked[lead] - z > _TIE_RTOL * abs(ranked[lead]):
            lead = k
        runs.append(lead)
    return order[np.lexsort((order, runs))]


def solve_defender_lp(impact: ImpactModel, caps: np.ndarray, budget: float) -> DefenseStrategy:
    """Maximise impact-weighted backup subject to budget and per-station caps.

    The LP is a continuous knapsack, solved exactly by filling stations in
    decreasing score order.  Scores within ``_TIE_RTOL`` relative of the
    first score of their run count as ties and are filled by lower station
    id.
    """
    allocation = _greedy_fill(_fill_order(impact.z_scores), caps, [budget])[0]
    return DefenseStrategy(allocation, float(budget))


def equilibrium_allocations(
    level: StealthLevel, instance: GameInstance, budgets: Sequence[float]
) -> np.ndarray:
    """The defender's equilibrium backup at each budget, one row per budget.

    It is :func:`solve_defender_lp` with the level's caps, filled in the
    instance's cached :attr:`GameInstance.fill_order`.
    """
    return _greedy_fill(instance.fill_order, defender_caps(level, instance), budgets)


def _greedy_fill(order: np.ndarray, caps: np.ndarray, budgets: Sequence[float]) -> np.ndarray:
    """Fill stations up to their caps in ``order`` until each budget is spent.

    Row k of the (K, stations) result spends ``budgets[k]``.  The budget
    left before each station is a left-to-right running difference, as a
    loop over the stations would compute it, so every row is bit for bit
    the allocation of that loop.  Raises ValueError for negative caps and
    for a negative or non-finite budget.
    """
    caps = np.asarray(caps, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    if (caps < 0.0).any():
        raise ValueError("caps must be nonnegative")
    if not np.isfinite(budgets).all():
        raise ValueError("budget must be finite")
    if (budgets < 0.0).any():
        raise ValueError("budget must be nonnegative")
    ordered = caps[order]
    steps = np.empty((budgets.size, ordered.size + 1))
    steps[:, 0] = budgets
    steps[:, 1:] = ordered
    remaining = np.subtract.accumulate(steps, axis=1)[:, :-1]
    allocations = np.zeros((budgets.size, caps.size))
    allocations[:, order] = np.where(remaining > 0.0, np.minimum(ordered, remaining), 0.0)
    return allocations


def reply_residuals(
    level: StealthLevel,
    instance: GameInstance,
    allocations: np.ndarray,
    budgets: Sequence[float],
    sources: Sequence[int] | None = None,
) -> np.ndarray:
    """Physical residual deviation of the attacker's best reply to each allocation.

    Row k of ``allocations`` (K, stations) is a backup within ``budgets[k]``;
    entry k of the result is the ``residual_deviation`` that
    :func:`evaluate_profile` reports for it against
    :func:`attacker_best_response`, bit for bit, after the same checks of
    the allocation and of the reply.  Only the station-level reply depends
    on the allocation; at the other levels one reply answers all K.
    """
    allocations = np.asarray(allocations, dtype=float)
    _check_spend(allocations, np.asarray(budgets, dtype=float))
    attack = attacker_best_response(level, instance, allocations, sources)
    validate_attack(level, instance, attack.deviations)
    _detection_array(level, instance, attack.deviations)
    net = np.maximum(attack.per_station - allocations, 0.0)
    return its_deviations(instance.impact, net)


def evaluate_profile(
    level: StealthLevel,
    instance: GameInstance,
    defense: DefenseStrategy,
    attack: AttackStrategy,
) -> GameOutcome:
    """Payoffs, detections, and the physical flow deviation of a profile.

    The physical deviation nets the backup power against the attack, floors
    at zero per station, and saturates at the headroom; the payoffs use the
    raw (unclamped) difference.
    """
    u_d = defender_payoff(instance.impact, defense.allocation, attack.deviations)
    u_a = attacker_payoff(level, instance, defense.allocation, attack.deviations)
    detection = _detection_array(level, instance, attack.deviations)
    net = np.maximum(attack.per_station - defense.allocation, 0.0)
    return GameOutcome(u_d, u_a, detection, its_deviation(instance.impact, net))


def stackelberg_equilibrium(
    level: StealthLevel,
    instance: GameInstance,
    budget: float,
    sources: Sequence[int] | None = None,
) -> tuple[DefenseStrategy, AttackStrategy, GameOutcome]:
    """Defender-first equilibrium: allocation LP, then the attacker's reply.

    The LP is :func:`equilibrium_allocations` at one budget.
    """
    allocation = equilibrium_allocations(level, instance, [budget])[0]
    defense = DefenseStrategy(allocation, float(budget))
    attack = attacker_best_response(level, instance, defense.allocation, sources)
    return defense, attack, evaluate_profile(level, instance, defense, attack)


def equal_allocation(count: int, budget: float) -> DefenseStrategy:
    """Spread the whole budget uniformly over ``count`` stations."""
    if count < 1:
        raise ValueError("need at least one station")
    return DefenseStrategy(np.full(count, budget / count), float(budget))


def solution_to_json(
    level: StealthLevel,
    defense: DefenseStrategy,
    attack: AttackStrategy,
    outcome: GameOutcome,
) -> str:
    """Serialise a solved profile to a structured text document."""
    doc = {
        "level": level.value,
        "budget": defense.budget,
        "p_d": [repr(float(x)) for x in defense.allocation],
        "p_a": [[repr(float(x)) for x in row] for row in attack.deviations],
        "defender_payoff": repr(outcome.defender_payoff),
        "attacker_payoff": repr(outcome.attacker_payoff),
        "detection": outcome.detection.tolist(),
        "residual_deviation": repr(outcome.residual_deviation),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def solution_from_json(text: str) -> tuple[StealthLevel, DefenseStrategy, AttackStrategy, GameOutcome]:
    """Inverse of :func:`solution_to_json`."""
    doc = json.loads(text)
    level = StealthLevel.from_name(doc["level"])
    defense = DefenseStrategy(
        np.array([float(x) for x in doc["p_d"]]), float(doc["budget"])
    )
    attack = AttackStrategy(np.array([[float(x) for x in row] for row in doc["p_a"]]))
    outcome = GameOutcome(
        float(doc["defender_payoff"]),
        float(doc["attacker_payoff"]),
        np.asarray(doc["detection"], dtype=float),
        float(doc["residual_deviation"]),
    )
    return level, defense, attack, outcome
