"""Discretized path-flow space.

Departure-rate profiles are piecewise constant on a uniform time grid, so the
L2 inner product collapses to a dt-weighted dot product and the feasible set
(per-O-D mass balance plus nonnegativity) decomposes into independent scaled
simplices, one per O-D pair.  Intermediate solver iterates are allowed to
carry negative rates; only projected profiles are feasible.

`PathFlowProfile` and `DelayProfile` are validated boundary records: they are
built where values enter from outside (the caller, an operator) and checked
once there.  Solver arithmetic runs on their (path, interval) rate arrays, so
`inner`, `norm`, `project_feasible` and `residual_norm` take arrays plus dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, ValidationError

__all__ = [
    "TimeGrid",
    "PathFlowProfile",
    "DelayProfile",
    "TripTable",
    "inner",
    "norm",
    "project_simplex",
    "project_feasible",
    "residual_norm",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid over [t0, t1]; interval k covers [t0 + k*dt, t0 + (k+1)*dt)."""

    t0: float
    t1: float
    num_intervals: int

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValidationError(f"horizon must satisfy t1 > t0, got [{self.t0}, {self.t1}]")
        if self.num_intervals < 1:
            raise ValidationError(f"num_intervals must be >= 1, got {self.num_intervals}")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.num_intervals

    def boundaries(self) -> np.ndarray:
        """The num_intervals + 1 grid points."""
        return self.t0 + self.dt * np.arange(self.num_intervals + 1)

    def starts(self) -> np.ndarray:
        """Left edge of every interval."""
        return self.t0 + self.dt * np.arange(self.num_intervals)


def _frozen_matrix(values, grid: TimeGrid, what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{what} must be a (paths, intervals) matrix, got ndim={arr.ndim}")
    if arr.shape[1] != grid.num_intervals:
        raise ValidationError(
            f"{what} has {arr.shape[1]} columns but the grid has {grid.num_intervals} intervals"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PathFlowProfile:
    """Departure rates indexed (path, interval), vehicles per time unit.

    A validated, read-only boundary record; it has no arithmetic.
    """

    grid: TimeGrid
    rates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rates", _frozen_matrix(self.rates, self.grid, "rates"))

    @property
    def num_paths(self) -> int:
        return self.rates.shape[0]


@dataclass(frozen=True)
class DelayProfile:
    """Effective delays indexed (path, interval), same grid as the flows."""

    grid: TimeGrid
    delays: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delays", _frozen_matrix(self.delays, self.grid, "delays"))

    @property
    def num_paths(self) -> int:
        return self.delays.shape[0]


@dataclass(frozen=True)
class TripTable:
    """O-D demands Q_w (vehicles) and target arrival times tau_w."""

    demands: Mapping[str, float]
    target_times: Mapping[str, float]

    def __post_init__(self):
        for od, q in self.demands.items():
            if not q > 0:
                raise ValidationError(f"O-D pair {od!r} has non-positive demand {q}")
        missing = set(self.demands) - set(self.target_times)
        if missing:
            raise ValidationError(f"O-D pairs without a target arrival time: {sorted(missing)}")


def inner(x: np.ndarray, y: np.ndarray, dt: float) -> float:
    """Discretized L2 scalar product of two rate arrays: entrywise products
    summed and weighted by dt."""
    return float(x.ravel() @ y.ravel()) * dt


def norm(x: np.ndarray, dt: float) -> float:
    return math.sqrt(max(inner(x, x, dt), 0.0))


def project_simplex(y: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of y onto {x >= 0, sum(x) = total}, total > 0.

    Sort-based threshold algorithm, O(n log n).
    """
    if not total > 0:
        raise ValidationError(f"simplex total must be positive, got {total}")
    u = np.sort(y)[::-1]
    shifted = np.cumsum(u) - total
    counts = np.arange(1, y.size + 1)
    support = np.nonzero(u * counts > shifted)[0]
    rho = support[-1] + 1
    theta = shifted[rho - 1] / rho
    return np.maximum(y - theta, 0.0)


def _check_od_blocks(num_paths: int, trips: TripTable, paths_by_od: Mapping[str, np.ndarray]):
    covered = 0
    for od in trips.demands:
        rows = paths_by_od.get(od)
        if rows is None or len(rows) == 0:
            raise ConfigurationError(f"O-D pair {od!r} has an empty path set")
        covered += len(rows)
    if covered != num_paths:
        raise ConfigurationError(
            f"path rows grouped by O-D cover {covered} of {num_paths} paths; "
            "every path must belong to exactly one O-D pair"
        )


def project_feasible(
    rates: np.ndarray,
    dt: float,
    trips: TripTable,
    paths_by_od: Mapping[str, np.ndarray],
) -> np.ndarray:
    """Nearest rates (in the dt-weighted norm) that are nonnegative and, per
    O-D pair w, carry a total departing mass equal to Q_w.

    The weight dt is uniform, so each O-D block is an ordinary Euclidean
    simplex projection with target sum Q_w / dt.
    """
    _check_od_blocks(rates.shape[0], trips, paths_by_od)
    out = np.array(rates, dtype=float)
    for od, q in trips.demands.items():
        rows = np.asarray(paths_by_od[od], dtype=int)
        block = out[rows].ravel()
        out[rows] = project_simplex(block, q / dt).reshape(len(rows), -1)
    return out


def residual_norm(
    h: np.ndarray,
    tau: float,
    ah: np.ndarray,
    dt: float,
    trips: TripTable,
    paths_by_od: Mapping[str, np.ndarray],
) -> float:
    """Norm of h - P(h - tau * A(h)) for rates h and delays ah; zero exactly
    at equilibrium profiles."""
    if not tau > 0:
        raise ValidationError(f"residual step tau must be positive, got {tau}")
    if h.shape != ah.shape:
        raise ValidationError("flow rates and delays are incompatible")
    return norm(h - project_feasible(h - tau * ah, dt, trips, paths_by_od), dt)
