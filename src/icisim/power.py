"""Bipartite generator-to-station power supply model.

Each base station draws its power from the generators it is wired to; the
share matrix ``T`` records, per station, the portion supplied by each
generator, and a supply line exists exactly where a share is positive.
Rows of ``T`` sum to one, so with no disturbance every station receives
exactly its full-coverage power.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverage import Stations
from .errors import DisconnectedError


@dataclass(frozen=True, eq=False)
class PowerAssignment:
    """Row-stochastic supply-share matrix with station power ratings.

    ``T[b, g]`` is the share of station ``b``'s power supplied by generator
    ``g`` (zero where no line exists); ``p_full[b]`` is the station's
    full-coverage power in watts.  The game's replica stack gives ``T`` a
    leading replica axis; its replicas share ``p_full``.
    """

    T: np.ndarray
    p_full: np.ndarray

    @property
    def num_stations(self) -> int:
        return self.T.shape[-2]

    @property
    def num_generators(self) -> int:
        return self.T.shape[-1]


def build_assignment(stations: Stations, shares: np.ndarray) -> PowerAssignment:
    """Normalise raw supply weights into a PowerAssignment.

    ``shares[b, g]`` is a nonnegative raw weight, positive exactly where
    generator ``g`` has a line to station ``b``.  Each station's weights are
    scaled to sum to one, except that rows already summing to one within
    1e-12 are kept bit for bit, so a stored ``T`` loads unchanged.  A
    generator with no positive weight raises ValueError, and a station with
    none raises DisconnectedError.
    """
    B = len(stations)
    shares = np.asarray(shares, dtype=float)
    if shares.ndim != 2 or shares.shape[0] != B:
        raise ValueError(f"share matrix has shape {shares.shape}, expected ({B}, generators)")
    idle = np.flatnonzero(~(shares > 0.0).any(axis=0))
    if idle.size:
        raise ValueError(f"generator {idle[0]} is connected to no station")
    if np.any(shares < 0.0):
        raise ValueError("supply shares must be nonnegative")

    totals = shares.sum(axis=1)
    dead = np.nonzero(totals <= 0.0)[0]
    if dead.size:
        raise DisconnectedError(f"stations {dead.tolist()} have no supplying generator")
    # Re-dividing a normalised row by its rounded sum would move it by an ulp.
    totals[np.abs(totals - 1.0) <= 1e-12] = 1.0
    T = shares / totals[:, None]
    return PowerAssignment(T, stations.p_full)
