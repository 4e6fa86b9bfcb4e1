"""Bipartite generator-to-station power supply model.

Each base station draws its power from the generators it is wired to; the
share matrix ``T`` records, per station, the portion supplied by each
generator, and a supply line exists exactly where a share is positive.
Rows of ``T`` sum to one (within 1e-9), as the turning ratios of each
street do, so with no disturbance every station receives its
full-coverage power.
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
    full-coverage power in watts.  A replica stack gives ``T`` a leading
    replica axis; its replicas share ``p_full``.
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
    """The PowerAssignment whose ``T`` is ``shares``, stored as given.

    ``shares[b, g]`` is a nonnegative supply share, positive exactly where
    generator ``g`` has a line to station ``b``.  A generator with no
    positive share raises ValueError, and a station with none raises
    DisconnectedError; the shares of every station must then sum to 1
    within 1e-9 (ValueError listing the stations whose shares do not).
    A replica stack of shares, (R, B, G), is checked in one pass over all
    replicas, and the first replica at fault raises its own build's error.
    """
    B = len(stations)
    shares = np.asarray(shares, dtype=float)
    if shares.ndim < 2 or shares.shape[-2] != B:
        raise ValueError(f"share matrix has shape {shares.shape}, expected ({B}, generators)")
    stack = shares.reshape(-1, *shares.shape[-2:])
    idle = ~(stack > 0.0).any(axis=1)
    negative = (stack < 0.0).any(axis=(1, 2))
    totals = stack.sum(axis=2)
    dead = totals <= 0.0
    leaky = ~(np.abs(totals - 1.0) <= 1e-9)  # so a NaN fails too
    failed = np.flatnonzero(idle.any(axis=1) | negative | leaky.any(axis=1))
    if failed.size:
        r = failed[0]
        if idle[r].any():
            raise ValueError(f"generator {np.flatnonzero(idle[r])[0]} is connected to no station")
        if negative[r]:
            raise ValueError("supply shares must be nonnegative")
        if dead[r].any():
            raise DisconnectedError(
                f"stations {np.flatnonzero(dead[r]).tolist()} have no supplying generator"
            )
        raise ValueError(
            f"supply shares of stations {np.flatnonzero(leaky[r]).tolist()} do not sum to 1"
        )
    return PowerAssignment(shares, stations.p_full)
