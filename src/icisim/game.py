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
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InfeasibleError, NoLineError
from .impact import ImpactModel, its_deviation
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
    """Everything the game needs: impacts, supply shares, power thresholds."""

    impact: ImpactModel
    assignment: PowerAssignment
    p_activation: np.ndarray

    def __post_init__(self) -> None:
        B = self.assignment.num_stations
        if self.impact.num_stations != B or self.p_activation.shape != (B,):
            raise ValueError("impact model, assignment and thresholds disagree on station count")
        if not np.allclose(self.headroom, self.impact.headroom, rtol=1e-9, atol=0.0):
            raise ValueError("impact model headroom does not match the power thresholds")

    @property
    def num_stations(self) -> int:
        return self.assignment.num_stations

    @property
    def num_generators(self) -> int:
        return self.assignment.num_generators

    @property
    def p_full(self) -> np.ndarray:
        return self.assignment.p_full

    @cached_property
    def headroom(self) -> np.ndarray:
        return self.assignment.p_full - self.p_activation

    @cached_property
    def line_caps(self) -> np.ndarray:
        """Per-line safe power, ``T[b, g] * p_full[b]``."""
        return self.assignment.T * self.assignment.p_full[:, None]

    @cached_property
    def safe_outputs(self) -> np.ndarray:
        """Undisturbed output of each generator."""
        return self.line_caps.sum(axis=0)


@dataclass(frozen=True, eq=False)
class AttackStrategy:
    """Per-line power drains in watts, shape (stations, generators)."""

    deviations: np.ndarray

    @property
    def per_station(self) -> np.ndarray:
        return self.deviations.sum(axis=1)

    @property
    def per_source(self) -> np.ndarray:
        return self.deviations.sum(axis=0)


@dataclass(frozen=True, eq=False)
class DefenseStrategy:
    """Backup power placed at each station, within ``budget`` watts total."""

    allocation: np.ndarray
    budget: float

    def __post_init__(self) -> None:
        if np.any(self.allocation < 0.0):
            raise ValueError("backup allocations must be nonnegative")
        total = float(self.allocation.sum())
        if total > self.budget * (1.0 + _FEAS_RTOL) + _FEAS_ATOL:
            raise ValueError(f"allocation spends {total} W of a {self.budget} W budget")


@dataclass(frozen=True, eq=False)
class GameOutcome:
    """Payoffs, per-unit detection probabilities and the physical deviation."""

    defender_payoff: float
    attacker_payoff: float
    detection: np.ndarray
    residual_deviation: float


def _zero_defense(instance: GameInstance) -> np.ndarray:
    return np.zeros(instance.num_stations)


def validate_attack(level: StealthLevel, instance: GameInstance, p_a: np.ndarray) -> None:
    """Raise InfeasibleError unless ``p_a`` is admissible at ``level``."""
    B, G = instance.num_stations, instance.num_generators
    p_a = np.asarray(p_a, dtype=float)
    if p_a.shape != (B, G):
        raise InfeasibleError(f"attack matrix has shape {p_a.shape}, expected {(B, G)}")
    if np.any(p_a < 0.0):
        raise InfeasibleError("attack deviations must be nonnegative")
    caps = instance.line_caps
    off_line = (caps <= 0.0) & (p_a > 0.0)
    if np.any(off_line):
        b, g = np.argwhere(off_line)[0]
        raise InfeasibleError(f"attack on nonexistent line generator {g} -> station {b}")

    def _over(amount: np.ndarray, limit: np.ndarray) -> np.ndarray:
        return amount > limit * (1.0 + _FEAS_RTOL) + _FEAS_ATOL

    if level is StealthLevel.POWER_SOURCE:
        bad = _over(p_a.sum(axis=0), instance.safe_outputs)
        if np.any(bad):
            g = int(np.nonzero(bad)[0][0])
            raise InfeasibleError(f"attack exceeds safe output of generator {g}")
    elif level is StealthLevel.POWER_LINE or level is StealthLevel.OVERT:
        # Overt attacks are still physically limited by line capacity.
        bad = _over(p_a, caps)
        if np.any(bad):
            b, g = np.argwhere(bad)[0]
            raise InfeasibleError(f"attack exceeds capacity of line generator {g} -> station {b}")
    elif level is StealthLevel.BASE_STATION:
        bad = _over(p_a.sum(axis=1), instance.headroom)
        if np.any(bad):
            b = int(np.nonzero(bad)[0][0])
            raise InfeasibleError(f"attack exceeds power headroom of station {b}")
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unhandled level {level}")


def detection_prob(
    level: StealthLevel,
    instance: GameInstance,
    p_a: np.ndarray,
    unit: int | tuple[int, int],
) -> float:
    """Detection probability of the attack at one monitored unit.

    ``unit`` is a generator id at the source level, a ``(g, b)`` pair at the
    line level, and a station id at the station level.
    """
    p_a = np.asarray(p_a, dtype=float)
    if level is StealthLevel.POWER_SOURCE:
        g = int(unit)  # type: ignore[arg-type]
        drained = float(p_a[:, g].sum())
        capacity = float(instance.safe_outputs[g])
    elif level is StealthLevel.POWER_LINE:
        g, b = unit  # type: ignore[misc]
        if not instance.assignment.has_line(g, b):
            raise NoLineError(f"no line from generator {g} to station {b}")
        drained = float(p_a[b, g])
        capacity = float(instance.line_caps[b, g])
    elif level is StealthLevel.BASE_STATION:
        b = int(unit)  # type: ignore[arg-type]
        drained = float(p_a[b, :].sum())
        capacity = float(instance.headroom[b])
    else:
        raise ValueError("the overt level has no detection model")
    return float(_ratio_array(np.array([drained]), np.array([capacity]), level)[0])


def _ratio_array(drained: np.ndarray, capacity: np.ndarray, level: StealthLevel) -> np.ndarray:
    """Detection ratios ``drained / capacity`` of many units, clipped to 1.

    A unit with no capacity is certain to be detected once anything is
    drained from it; a ratio above ``1 + _FEAS_RTOL`` raises InfeasibleError.
    """
    ratios = np.divide(
        drained, capacity, out=np.zeros_like(drained, dtype=float), where=capacity > 0.0
    )
    ratios[(capacity <= 0.0) & (drained > 0.0)] = 1.0
    if np.any(ratios > 1.0 + _FEAS_RTOL):
        unit = np.argwhere(ratios > 1.0 + _FEAS_RTOL)[0]
        raise InfeasibleError(
            f"detection ratio exceeds 1 at {level.value} unit {unit.tolist()}"
        )
    return np.minimum(ratios, 1.0)


def _detection_array(level: StealthLevel, instance: GameInstance, p_a: np.ndarray) -> np.ndarray:
    if level is StealthLevel.POWER_SOURCE:
        return _ratio_array(p_a.sum(axis=0), instance.safe_outputs, level)
    if level is StealthLevel.POWER_LINE:
        return _ratio_array(p_a, instance.line_caps, level)
    if level is StealthLevel.BASE_STATION:
        return _ratio_array(p_a.sum(axis=1), instance.headroom, level)
    return np.zeros(0)


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
    unweighted_defense_term: bool = False,
) -> float:
    """Stealth-discounted attacker gain minus the defender's compensation.

    ``unweighted_defense_term`` switches the source-level payoff to the
    variant whose defender term is not impact-weighted; the two differ by a
    constant in the attack, so maximisers coincide.
    """
    validate_attack(level, instance, p_a)
    p_a = np.asarray(p_a, dtype=float)
    p_d = np.asarray(p_d, dtype=float)
    z = instance.impact.z_scores

    if level is StealthLevel.OVERT:
        return -defender_payoff(instance.impact, p_d, p_a)

    if level is StealthLevel.POWER_SOURCE:
        safe = instance.safe_outputs
        per_source_gain = z @ p_a
        ratios = np.divide(
            p_a.sum(axis=0), safe, out=np.zeros_like(safe), where=safe > 0.0
        )
        defense = p_d.sum() if unweighted_defense_term else z @ p_d
        return float(per_source_gain @ (1.0 - ratios) - defense)

    if level is StealthLevel.POWER_LINE:
        caps = instance.line_caps
        ratios = np.divide(p_a, caps, out=np.zeros_like(p_a), where=caps > 0.0)
        line_gain = (p_a * (1.0 - ratios)).sum(axis=1)
        return float(z @ (line_gain - p_d))

    per_station = p_a.sum(axis=1)
    ratios = np.divide(
        per_station, instance.headroom, out=np.zeros_like(per_station),
        where=instance.headroom > 0.0,
    )
    return float(z @ ((per_station - p_d) * (1.0 - ratios)))


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
    Only the station-level response depends on the defender's allocation.
    """
    if p_d is None:
        p_d = _zero_defense(instance)
    p_d = np.asarray(p_d, dtype=float)
    caps = instance.line_caps
    wired = caps > 0.0
    mask = _source_mask(instance, sources)
    p_a = np.zeros_like(caps)

    if level is StealthLevel.POWER_SOURCE:
        for g in np.nonzero(mask)[0]:
            stations = np.nonzero(wired[:, g])[0]
            if stations.size:
                p_a[stations, g] = instance.safe_outputs[g] / (2.0 * stations.size)
    elif level is StealthLevel.POWER_LINE:
        p_a[:, mask] = caps[:, mask] / 2.0
    elif level is StealthLevel.OVERT:
        p_a[:, mask] = caps[:, mask]
    else:
        # Station level: drive each station's total shortfall to the vertex
        # of its concave gain, capped at the physical headroom, and split it
        # over the usable lines in proportion to their supply shares.
        h = instance.headroom
        target = np.minimum((p_d + h) / 2.0, h)
        weights = np.where(wired[:, mask], instance.assignment.T[:, mask], 0.0)
        totals = weights.sum(axis=1)
        scale = np.divide(target, totals, out=np.zeros_like(target), where=totals > 0.0)
        p_a[:, mask] = weights * scale[:, None]
    return AttackStrategy(p_a)


def defender_caps(
    level: StealthLevel, instance: GameInstance, bs_cap_rule: str = "dropped-sum"
) -> np.ndarray:
    """Per-station upper bounds for the defender's allocation at ``level``.

    Backup power beyond the attacker's anticipated shortfall is wasted, so
    the cap equals the per-station equilibrium attack.  For the station
    level two printed conventions exist: ``dropped-sum`` uses half the power
    headroom, ``literal`` multiplies that by the generator count.
    """
    if level is StealthLevel.BASE_STATION:
        if bs_cap_rule == "dropped-sum":
            return instance.headroom / 2.0
        if bs_cap_rule == "literal":
            return instance.num_generators * instance.headroom / 2.0
        raise ValueError(f"unknown station-level cap rule {bs_cap_rule!r}")
    if level is StealthLevel.POWER_LINE:
        return instance.line_caps.sum(axis=1) / 2.0
    response = attacker_best_response(level, instance)
    return response.per_station


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
    caps = np.asarray(caps, dtype=float)
    if np.any(caps < 0.0):
        raise ValueError("caps must be nonnegative")
    if budget < 0.0:
        raise ValueError("budget must be nonnegative")
    allocation = np.zeros_like(caps)
    remaining = float(budget)
    for b in _fill_order(impact.z_scores):
        if remaining <= 0.0:
            break
        take = min(float(caps[b]), remaining)
        allocation[b] = take
        remaining -= take
    return DefenseStrategy(allocation, float(budget))


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
    if level is StealthLevel.OVERT:
        u_a = -u_d
    else:
        u_a = attacker_payoff(level, instance, defense.allocation, attack.deviations)
    detection = _detection_array(level, instance, attack.deviations)
    net = np.maximum(attack.per_station - defense.allocation, 0.0)
    return GameOutcome(u_d, u_a, detection, its_deviation(instance.impact, net))


def stackelberg_equilibrium(
    level: StealthLevel,
    instance: GameInstance,
    budget: float,
    bs_cap_rule: str = "dropped-sum",
    sources: Sequence[int] | None = None,
) -> tuple[DefenseStrategy, AttackStrategy, GameOutcome]:
    """Defender-first equilibrium: allocation LP, then the attacker's reply."""
    caps = defender_caps(level, instance, bs_cap_rule)
    defense = solve_defender_lp(instance.impact, caps, budget)
    attack = attacker_best_response(level, instance, defense.allocation, sources)
    return defense, attack, evaluate_profile(level, instance, defense, attack)


def equal_allocation(base_stations: int | Sequence, budget: float) -> DefenseStrategy:
    """Spread the whole budget uniformly over all stations."""
    count = base_stations if isinstance(base_stations, int) else len(base_stations)
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
