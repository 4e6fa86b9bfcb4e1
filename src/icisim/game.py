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

Each game step has one implementation that takes many budgets and many
replicas at once.  A :class:`GameInstance` built by
:meth:`GameInstance.stack` carries R seeded replicas of one sweep point
along a leading axis; a single scenario is the case with no such axis.
One array fill gives the equilibrium backup at K budgets
(:func:`equilibrium_allocations`), shape (K, R, B) for a stack of R
replicas of B stations, the station-level reply of
:func:`attacker_best_response` accepts such a stack of allocations, and
:func:`reply_residuals` gives the physical residual of the reply to each
allocation, shape (K, R).  Axes before the station (and generator) axes
are batch axes: an argument's K budget axis leads, and its replica axis
lines up with the instance's.  Each replica's slice equals the same call
on that replica alone, bit for bit.  The one-profile API
(:func:`stackelberg_equilibrium`, :func:`solve_defender_lp`) calls them
with K = 1 on one scenario; the experiments call them once per sweep point
and level, over all its replicas.
"""
from __future__ import annotations

import enum
import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import InfeasibleError
from .impact import ImpactModel, _row_dots, its_deviations
from .power import PowerAssignment

# Attacked generators: all (None), one id list, or one list per replica.
Sources = Union[Sequence[int], Sequence[Sequence[int]], None]

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


@dataclass(frozen=True, eq=False)
class GameInstance:
    """Everything the game needs: impacts and supply shares.

    Station power headroom comes from the impact model; line capacities and
    safe generator outputs from the supply shares and station ratings.  The
    instance caches those two and the defender's fill order.

    A stack of R replicas (:meth:`stack`) shares its stations, so
    ``headroom`` and ``p_full`` stay (B,); the scores are (R, B),
    ``assignment.T`` and ``line_caps`` (R, B, G), ``safe_outputs`` (R, G)
    and ``fill_order`` (R, B).
    """

    impact: ImpactModel
    assignment: PowerAssignment

    def __post_init__(self) -> None:
        if self.impact.num_stations != self.assignment.num_stations:
            raise ValueError("impact model and assignment disagree on station count")

    @classmethod
    def stack(cls, instances: Sequence[GameInstance]) -> GameInstance:
        """The replicas ``instances``, in order, along a leading axis R.

        Replicas of one sweep point differ only in seed, so they share
        their stations, street count, ``delta`` and generator count;
        ValueError unless they do.
        """
        if not instances:
            raise ValueError("need at least one replica to stack")
        first = instances[0]
        for other in instances[1:]:
            if not (
                np.array_equal(other.headroom, first.headroom)
                and np.array_equal(other.assignment.p_full, first.assignment.p_full)
                and other.impact.null_vector.shape == first.impact.null_vector.shape
                and other.impact.delta == first.impact.delta
                and other.num_generators == first.num_generators
            ):
                raise ValueError(
                    "stacked replicas must share their stations, street count, delta "
                    "and generator count"
                )
        impact = ImpactModel(
            np.stack([inst.impact.null_vector for inst in instances]),
            np.stack([inst.impact.scale for inst in instances]),
            first.headroom,
            first.impact.delta,
        )
        T = np.stack([inst.assignment.T for inst in instances])
        return cls(impact, PowerAssignment(T, first.assignment.p_full))

    @property
    def num_stations(self) -> int:
        return self.assignment.num_stations

    @property
    def num_generators(self) -> int:
        return self.assignment.num_generators

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
        return self.line_caps.sum(axis=-2)

    @cached_property
    def fill_order(self) -> np.ndarray:
        """Station ids in the defender's fill order (:func:`_fill_order`),
        one row per replica, read-only."""
        scores = self.impact.z_scores
        rows = scores.reshape(-1, scores.shape[-1])
        order = np.array([_fill_order(row) for row in rows]).reshape(scores.shape)
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


def _check_backup(allocations: np.ndarray, budgets: np.ndarray | float = 0.0) -> None:
    """Raise ValueError unless the allocations and budgets are finite and
    the allocations nonnegative."""
    if not (np.isfinite(allocations).all() and np.isfinite(budgets).all()):
        raise ValueError("backup allocations and budgets must be finite")
    if (allocations < 0.0).any():
        raise ValueError("backup allocations must be nonnegative")


def _check_spend(allocations: np.ndarray, budgets: np.ndarray | float) -> None:
    """Raise ValueError unless each allocation (row) passes
    :func:`_check_backup` and spends at most its finite budget, up to the
    feasibility tolerances.  The budgets index the leading axes of the
    allocations: K budgets for a (K, B) or (K, R, B) stack."""
    _check_backup(allocations, budgets)
    totals = np.atleast_1d(allocations.sum(axis=-1))
    budgets = np.asarray(budgets, dtype=float)
    budgets = budgets.reshape(budgets.shape + (1,) * (totals.ndim - budgets.ndim))
    budgets = np.broadcast_to(budgets, totals.shape).ravel()
    totals = totals.ravel()
    over = np.flatnonzero(totals > budgets * (1.0 + _FEAS_RTOL) + _FEAS_ATOL)
    if over.size:
        k = over[0]
        raise ValueError(
            f"allocation spends {float(totals[k])} W of a {float(budgets[k])} W budget"
        )


def _per_station(p_d: np.ndarray, num_stations: int) -> np.ndarray:
    """The backup ``p_d`` as a float array; ValueError unless its last axis
    has one entry per station and every entry is finite and nonnegative."""
    p_d = np.asarray(p_d, dtype=float)
    if p_d.shape[-1:] != (num_stations,):
        got = p_d.shape[-1] if p_d.ndim else 0
        raise ValueError(f"allocation has {got} entries, expected {num_stations}, one per station")
    _check_backup(p_d)
    return p_d


@dataclass(frozen=True, eq=False)
class GameOutcome:
    """Payoffs, per-unit detection probabilities and the physical deviation."""

    defender_payoff: float
    attacker_payoff: float
    detection: np.ndarray
    residual_deviation: float


class _Level(NamedTuple):
    """How one stealth level monitors the attack and discounts its gain."""

    unit: str  # a unit in errors, formatted with its indices in the drained array
    axis: int | None  # attack axis summed into a unit's drain; None for a line
    capacity: str  # the GameInstance array of unit capacities
    discounted: bool  # detection discounts the gain
    backup_discounted: bool  # ... and the backup as well
    by_share: bool  # a unit's drain splits over its lines by supply share, else evenly


# The attacker's payoff is z @ (Σ_g p_a * kept - backup), where ``kept`` is
# one minus the detection ratio (drain over capacity) of the unit a line
# belongs to, or 1 undiscounted, and the backup is p_d, times ``kept`` only
# if the discount reaches it.  So the best reply drives each unit's drain to
# min((capacity + backup) / 2, capacity), or to its capacity undiscounted.
_LINE = "capacity of line generator {1} -> station {0}"
_LEVELS = {
    StealthLevel.POWER_SOURCE: _Level(
        "safe output of generator {0}", -2, "safe_outputs", True, False, False
    ),
    StealthLevel.POWER_LINE: _Level(_LINE, None, "line_caps", True, False, False),
    StealthLevel.BASE_STATION: _Level(
        "power headroom of station {0}", -1, "headroom", True, True, True
    ),
    # Not monitored, but line capacity still bounds the attack.
    StealthLevel.OVERT: _Level(_LINE, None, "line_caps", False, False, False),
}


def _monitored(
    level: StealthLevel, instance: GameInstance, p_a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Power drained from, and capacity of, each unit ``level`` monitors
    (:data:`_LEVELS`); a stack of attacks gives a stack of drains."""
    row = _LEVELS[level]
    drained = p_a if row.axis is None else p_a.sum(axis=row.axis)
    return drained, getattr(instance, row.capacity)


def _on_lines(per_unit: np.ndarray | float, axis: int | None) -> np.ndarray | float:
    """Per-unit values broadcastable against the (stations, generators) lines."""
    return per_unit if axis is None else np.expand_dims(per_unit, axis)


def _unit(flags: np.ndarray, axis: int | None) -> np.ndarray:
    """Index of the first flagged unit, without its batch indices; a line
    (``axis`` None) has two indices, a station or generator one."""
    return np.argwhere(flags)[0][flags.ndim - (2 if axis is None else 1):]


def validate_attack(level: StealthLevel, instance: GameInstance, p_a: np.ndarray) -> None:
    """Raise InfeasibleError unless ``p_a`` is admissible at ``level``.

    ``p_a`` is one attack, shape (B, G), or a stack of them; a stacked
    instance of R replicas takes (R, B, G) or (K, R, B, G).  An error names
    the first inadmissible unit, without its replica.
    """
    lines = instance.line_caps.shape
    p_a = np.asarray(p_a, dtype=float)
    if p_a.shape[-len(lines):] != lines:
        raise InfeasibleError(f"attack matrix has shape {p_a.shape}, expected {lines}")
    if not np.isfinite(p_a).all():
        raise InfeasibleError("attack deviations must be finite")
    if (p_a < 0.0).any():
        raise InfeasibleError("attack deviations must be nonnegative")
    off_line = (instance.line_caps <= 0.0) & (p_a > 0.0)
    if off_line.any():
        b, g = _unit(off_line, None)
        raise InfeasibleError(f"attack on nonexistent line generator {g} -> station {b}")
    drained, capacity = _monitored(level, instance, p_a)
    over = drained > capacity * (1.0 + _FEAS_RTOL) + _FEAS_ATOL
    if over.any():
        unit = _unit(over, _LEVELS[level].axis)
        raise InfeasibleError(f"attack exceeds {_LEVELS[level].unit.format(*unit)}")


def _detection_array(level: StealthLevel, instance: GameInstance, p_a: np.ndarray) -> np.ndarray:
    """Detection ratios ``drained / capacity`` of the units ``level``
    monitors (:func:`_monitored`), clipped to 1; none at the overt level.

    A unit with no capacity is certain to be detected once anything is
    drained from it.  Capacity is checked by :func:`validate_attack` alone,
    whose tolerances admit a drain a little above it.
    """
    if not _LEVELS[level].discounted:
        return np.zeros(0)
    drained, capacity = _monitored(level, instance, p_a)
    ratios = np.divide(
        drained, capacity, out=np.zeros_like(drained, dtype=float), where=capacity > 0.0
    )
    ratios[(capacity <= 0.0) & (drained > 0.0)] = 1.0
    return np.minimum(ratios, 1.0)


def defender_payoff(impact: ImpactModel, p_d: np.ndarray, p_a: np.ndarray) -> np.ndarray:
    """Negated impact-weighted net shortfall over all stations, one value per
    row of a stack of attacks or replicas, each bit for bit that row's call;
    ValueError unless the backup ``p_d`` has one entry per station."""
    p_a = np.asarray(p_a, dtype=float)
    p_d = _per_station(p_d, impact.num_stations)
    return -_row_dots(impact.z_scores, p_a.sum(axis=-1) - p_d)


def attacker_payoff(
    level: StealthLevel,
    instance: GameInstance,
    p_d: np.ndarray,
    p_a: np.ndarray,
) -> np.ndarray:
    """Stealth-discounted attacker gain minus the defender's compensation.

    Each monitored unit discounts the gain it carries, and at the station
    level also the backup, by one minus its detection ratio
    (:data:`_LEVELS`); the overt level is the zero-sum game, undiscounted.
    ValueError unless the backup ``p_d`` has one entry per station.  Batch
    axes give one payoff per row, as in :func:`defender_payoff`.
    """
    validate_attack(level, instance, p_a)
    p_a = np.asarray(p_a, dtype=float)
    p_d = _per_station(p_d, instance.num_stations)
    row = _LEVELS[level]
    kept = 1.0 - _detection_array(level, instance, p_a) if row.discounted else 1.0
    backup = p_d * kept if row.backup_discounted else p_d
    gain = (p_a * _on_lines(kept, row.axis)).sum(axis=-1)
    return _row_dots(instance.impact.z_scores, gain - backup)


def _ids_mask(G: int, sources: Sequence[int]) -> np.ndarray:
    ids = [operator.index(g) for g in sources]
    outside = [g for g in ids if not 0 <= g < G]
    if outside:
        raise ValueError(f"generator id {outside[0]} is outside 0..{G - 1}")
    mask = np.zeros(G, dtype=bool)
    mask[ids] = True
    return mask


def _source_mask(instance: GameInstance, sources: Sources) -> np.ndarray:
    """Attacked generators, broadcastable against the lines: (G,) when all
    replicas share ``sources``, (R, 1, G) for one id list per replica."""
    G = instance.num_generators
    if sources is None:
        return np.ones(G, dtype=bool)
    if len(sources) == 0 or np.ndim(sources[0]) == 0:
        return _ids_mask(G, sources)
    replicas = instance.line_caps.shape[:-2]
    if replicas != (len(sources),):
        raise ValueError(f"{len(sources)} source lists for replica axes {replicas}")
    return np.stack([_ids_mask(G, ids) for ids in sources])[:, None, :]


def attacker_best_response(
    level: StealthLevel,
    instance: GameInstance,
    p_d: np.ndarray | None = None,
    sources: Sources = None,
) -> AttackStrategy:
    """Closed-form attack maximising the level's payoff against ``p_d``.

    ``sources`` restricts the attacker to a subset of generators (used for
    single-source experiments); by default all generators are attacked.
    For a stack of R replicas it is one id list shared by all, or R lists,
    one per replica.  The reply has the instance's shape, (B, G) or
    (R, B, G).  Only the station level, whose discount reaches the backup,
    reads ``p_d`` (none by default).  There ``p_d`` may stack K
    allocations, shape (K, B), or (K, R, B) for a stack; the reply then
    stacks the K replies, shape (K, B, G) or (K, R, B, G).
    ValueError for a generator id outside ``0..G-1`` and, at every level,
    for a ``p_d`` whose last axis does not have one entry per station.
    """
    row = _LEVELS[level]
    mask = _source_mask(instance, sources)
    p_d = None if p_d is None else _per_station(p_d, instance.num_stations)
    target = capacity = getattr(instance, row.capacity)
    if row.discounted:
        backup = p_d if row.backup_discounted and p_d is not None else 0.0
        target = np.minimum((capacity + backup) / 2.0, capacity)
    # Split over the usable lines, the wired lines of the attacked
    # generators.  Totals are summed over an F-ordered copy, so a station
    # adds its shares in generator order, as a loop over its lines would;
    # the replica axis is then the fastest, which keeps that order.
    usable = (instance.line_caps > 0.0) & mask
    weights = np.where(usable, instance.assignment.T if row.by_share else 1.0, 0.0)
    totals = weights
    if row.axis is not None:
        totals = np.asfortranarray(weights).sum(axis=row.axis, keepdims=True)
    # A unit without usable lines has zero weights, so it drains nothing.
    scale = _on_lines(target, row.axis) / np.where(totals > 0.0, totals, 1.0)
    return AttackStrategy(weights * scale)


def defender_caps(level: StealthLevel, instance: GameInstance) -> np.ndarray:
    """Per-station upper bounds for the defender's allocation at ``level``,
    (B,) or, for a stack of R replicas, (R, B).

    Backup beyond the attacker's reply is wasted, and the net drain of a
    reply falls as the backup grows until the reply is covered.  So the cap
    is the per-station :func:`attacker_best_response` to a full-headroom
    backup.  Away from the station level the reply reads no backup; there
    it is the headroom, split over the lines and summed again, so a cap
    can differ from the headroom in the last bits.
    """
    return attacker_best_response(level, instance, instance.headroom).per_station


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
    """The defender's equilibrium backup at each budget, one row per budget:
    (K, B), or (K, R, B) for a stack of R replicas.

    It is :func:`solve_defender_lp` with the level's caps, filled in the
    instance's cached :attr:`GameInstance.fill_order`.
    """
    return _greedy_fill(instance.fill_order, defender_caps(level, instance), budgets)


def _greedy_fill(order: np.ndarray, caps: np.ndarray, budgets: Sequence[float]) -> np.ndarray:
    """Fill stations up to their caps in ``order`` until each budget is spent.

    ``order`` and ``caps`` have one row per replica, or are one row; entry
    k of the (K, ..., stations) result spends ``budgets[k]`` on each row,
    filled in that row's order.  The budget left before each station is a
    left-to-right running difference, as a loop over the stations would
    compute it, so every row is bit for bit the allocation of that loop.
    Raises ValueError for negative caps and for a negative or non-finite
    budget.
    """
    caps = np.asarray(caps, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    if (caps < 0.0).any():
        raise ValueError("caps must be nonnegative")
    if not np.isfinite(budgets).all():
        raise ValueError("budget must be finite")
    if (budgets < 0.0).any():
        raise ValueError("budget must be nonnegative")
    ordered = np.take_along_axis(caps, order, axis=-1)
    steps = np.empty((budgets.size, *ordered.shape[:-1], ordered.shape[-1] + 1))
    steps[..., 0] = budgets.reshape((-1,) + (1,) * (ordered.ndim - 1))
    steps[..., 1:] = ordered
    remaining = np.subtract.accumulate(steps, axis=-1)[..., :-1]
    filled = np.where(remaining > 0.0, np.minimum(ordered, remaining), 0.0)
    allocations = np.zeros_like(filled)
    np.put_along_axis(allocations, np.broadcast_to(order, filled.shape), filled, axis=-1)
    return allocations


def reply_residuals(
    level: StealthLevel,
    instance: GameInstance,
    allocations: np.ndarray,
    budgets: Sequence[float],
    sources: Sources = None,
) -> np.ndarray:
    """Physical residual deviation of the attacker's best reply to each allocation.

    Row k of ``allocations`` (K, stations) is a backup within ``budgets[k]``;
    entry k of the result is the ``residual_deviation`` that
    :func:`evaluate_profile` reports for it against
    :func:`attacker_best_response`, bit for bit, after the same checks of
    the allocation and of the reply.  For a stack of R replicas the
    allocations are (K, R, B), ``sources`` is as in
    :func:`attacker_best_response`, and the result is (K, R), each
    replica's column the call on that replica alone.  Only the
    station-level reply depends on the allocation; at the other levels one
    reply answers all K.
    """
    allocations = np.asarray(allocations, dtype=float)
    _check_spend(allocations, np.asarray(budgets, dtype=float))
    attack = attacker_best_response(level, instance, allocations, sources)
    validate_attack(level, instance, attack.deviations)
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
    raw (unclamped) difference.  ValueError unless the allocation has one
    entry per station.
    """
    u_d = float(defender_payoff(instance.impact, defense.allocation, attack.deviations))
    u_a = float(attacker_payoff(level, instance, defense.allocation, attack.deviations))
    detection = _detection_array(level, instance, attack.deviations)
    net = np.maximum(attack.per_station - defense.allocation, 0.0)
    return GameOutcome(u_d, u_a, detection, float(its_deviations(instance.impact, net)))


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
