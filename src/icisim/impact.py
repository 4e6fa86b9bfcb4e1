"""Station-to-street impact model.

A power shortfall at a base station shrinks the vehicle coverage on the
streets inside its cell, which shows up as flow deviations over the whole
network.  Because the balance matrix has a one-dimensional null space,
spanned by ``v``, the per-unit deviation pattern of street ``i`` is the
same vector rescaled: ``-v / v[i]``, exactly ``-1`` at row ``i``.  Weighting
those patterns by covered fraction over power headroom and summing over a
station's streets gives its per-watt impact vector.  The L1 norm of that
vector is the station's scalar importance score used by the allocation
game.  The whole model therefore costs one QR factorisation of the
network; the tests check it against an independent least-squares solve.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .coverage import BaseStation, CoverageMap
from .traffic import FlowNetwork, _null_patterns


@dataclass(frozen=True, eq=False)
class ImpactModel:
    """Per-watt impact vectors and scores of every station.

    ``z_vectors[b]`` maps one watt of shortfall at station ``b`` to flow
    deviations on all streets (scaled by ``delta``); ``z_scores[b]`` is its
    L1 norm.  ``headroom[b]`` is the watt band beyond which a station is
    dead and further shortfall has no extra effect.  ``delta`` converts the
    dimensionless fractions to veh/h/lane per km of affected street.
    """

    z_vectors: np.ndarray
    z_scores: np.ndarray
    headroom: np.ndarray
    delta: float

    @property
    def num_stations(self) -> int:
        return self.z_scores.shape[0]


def street_impact_vector(net: FlowNetwork, street: int) -> np.ndarray:
    """Unit deviation pattern of street ``street`` over the whole network.

    Row ``street`` is exactly -1; raises SingularError where the pattern is
    undefined.
    """
    return _null_patterns(net, [street])[0]


def bs_impact(net: FlowNetwork, coverage: CoverageMap, bs: BaseStation) -> tuple[np.ndarray, float]:
    """Impact vector and score of one station over its covered streets."""
    fractions = coverage.C[:, bs.id]
    covered = np.nonzero(fractions > 0.0)[0]
    if covered.size == 0:
        return np.zeros(net.n), 0.0
    patterns = _null_patterns(net, covered)
    z_vec = (fractions[covered] / bs.headroom) @ patterns
    return z_vec, float(np.abs(z_vec).sum())


def build_impact_model(
    net: FlowNetwork,
    coverage: CoverageMap,
    base_stations: Sequence[BaseStation],
    delta: float = 1.0,
) -> ImpactModel:
    """Assemble the impact model for all stations of a scenario."""
    B = len(base_stations)
    z_vectors = np.zeros((B, net.n))
    z_scores = np.zeros(B)
    for bs in base_stations:
        z_vectors[bs.id], z_scores[bs.id] = bs_impact(net, coverage, bs)
    headroom = np.array([bs.headroom for bs in base_stations])
    return ImpactModel(z_vectors, z_scores, headroom, float(delta))


def its_deviation(impact: ImpactModel, power_deviations: np.ndarray) -> float:
    """Total street-flow deviation caused by per-station power shortfalls.

    Each shortfall saturates at the station's headroom: once a station is
    fully dark, taking more power changes nothing downstream.
    """
    devs = np.clip(np.asarray(power_deviations, dtype=float), 0.0, impact.headroom)
    return float(impact.z_scores @ devs * impact.delta)


def export_impact_csv(impact: ImpactModel, coverage: CoverageMap, stream: IO[str]) -> None:
    """Write per-station scores as CSV (bs_id, z_score, covered_streets)."""
    writer = csv.writer(stream)
    writer.writerow(["bs_id", "z_score", "covered_streets"])
    for b in range(impact.num_stations):
        count = int(np.count_nonzero(coverage.covered_lengths[:, b] > 0.0))
        writer.writerow([b, repr(float(impact.z_scores[b])), count])
