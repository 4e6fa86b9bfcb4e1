"""Station-to-street impact model.

A power shortfall at a base station shrinks the vehicle coverage on the
streets inside its cell, which shows up as flow deviations over the whole
network.  Because the balance matrix has a one-dimensional null space,
spanned by ``v``, the per-unit deviation pattern of street ``i`` is the
same vector rescaled: ``-v / v[i]``, exactly ``-1`` at row ``i``.  Weighting
those patterns by covered fraction over power headroom and summing over a
station's streets gives its per-watt impact vector ``-s_b v`` with one
scale per station, ``s_b = sum_i C[i, b] / (headroom_b v[i])``.  Each
term divides by ``v[i]``, so streets with low flow get large per-watt
weights: a station covering a nearly idle street scores high.  The L1
norm of that vector, ``|s_b| ||v||_1``, is the station's scalar importance
score used by the allocation game.  The model is therefore ``v`` plus one
number per station, built from one sparse LU factorisation of the network; the
tests check it against the dense per-street sum.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

from .coverage import CoverageMap, Stations
from .traffic import FlowNetwork, _anchor_entries, csr_entries


@dataclass(frozen=True, eq=False)
class ImpactModel:
    """Per-watt impact of every station as one shared vector and a scale each.

    ``z_vectors[b] = -scale[b] * null_vector`` maps one watt of shortfall at
    station ``b`` to flow deviations on all streets (scaled by ``delta``);
    ``z_scores[b]`` is its L1 norm.  ``headroom[b]`` is the watt band beyond
    which a station is dead and further shortfall has no extra effect.
    ``delta`` converts the dimensionless fractions to veh/h/lane per km of
    affected street.

    The game's replica stack (:meth:`~icisim.game.GameInstance.stack`)
    gives ``null_vector`` and ``scale`` a leading replica axis, and so
    ``z_scores``; the replicas share ``headroom`` and ``delta``.
    """

    null_vector: np.ndarray
    scale: np.ndarray
    headroom: np.ndarray
    delta: float

    @property
    def num_stations(self) -> int:
        return self.scale.shape[-1]

    @cached_property
    def z_scores(self) -> np.ndarray:
        return np.abs(self.scale) * np.abs(self.null_vector).sum(axis=-1, keepdims=True)

    @property
    def z_vectors(self) -> np.ndarray:
        """Dense (stations, streets) impact matrix, built on each access."""
        return -(self.scale[..., :, None] * self.null_vector[..., None, :])


def build_impact_model(
    net: FlowNetwork,
    coverage: CoverageMap,
    stations: Stations,
    delta: float = 1.0,
) -> ImpactModel:
    """Assemble the impact model for all stations of a scenario.

    Raises SingularError when a covered street's null-vector entry vanishes;
    uncovered streets are never divided by.
    """
    headroom = stations.headroom
    streets, cells, fractions = csr_entries(coverage.fractions)
    weights = fractions / (headroom[cells] * _anchor_entries(net, streets))
    scale = np.bincount(cells, weights, minlength=len(stations))
    return ImpactModel(net.null_vector, scale, headroom, float(delta))


def _row_dots(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``z @ x`` per row over the batch axes of both, bit for bit the 1-D
    product: numpy's matmul of (1, n) by (n, 1) takes the same dot, while a
    matrix-vector product may round differently."""
    return np.matmul(z[..., None, :], x[..., None])[..., 0, 0]


def its_deviations(impact: ImpactModel, power_deviations: np.ndarray) -> np.ndarray:
    """Total street-flow deviation caused by per-station power shortfalls.

    Each shortfall saturates at the station's headroom: once a station is
    fully dark, taking more power changes nothing downstream.  A (stations,)
    row gives a scalar; batch axes, such as (K, R, stations) cuts against a
    replica stack's (R, stations) scores, give one dot per row (:func:`_row_dots`).
    """
    devs = np.clip(np.asarray(power_deviations, dtype=float), 0.0, impact.headroom)
    return _row_dots(impact.z_scores, devs) * impact.delta


def export_impact_csv(impact: ImpactModel, coverage: CoverageMap, stream: IO[str]) -> None:
    """Write per-station scores as CSV (bs_id, z_score, covered_streets)."""
    writer = csv.writer(stream)
    writer.writerow(["bs_id", "z_score", "covered_streets"])
    counts = coverage.covered_street_counts
    for b in range(impact.num_stations):
        writer.writerow([b, repr(float(impact.z_scores[b])), int(counts[b])])
