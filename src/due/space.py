"""Discretized path-flow space.

Departure-rate profiles are piecewise constant on a uniform time grid, so the
L2 inner product collapses to a dt-weighted dot product and the feasible set
(per-O-D mass balance plus nonnegativity) decomposes into independent scaled
simplices, one per O-D pair.  Intermediate solver iterates are allowed to
carry negative rates; only projected profiles are feasible.

`PathFlowProfile` and `DelayProfile` are validated boundary records: they are
built where values enter from outside (the caller, an operator) and checked
once there.  Solver arithmetic runs on their (path, interval) rate arrays, so
`inner` and `norm` take arrays plus dt.  `ODLayout` is the feasible set's
boundary record: the O-D blocks are checked and laid out once per solve, and
`project_feasible` and `residual_norm` take arrays plus that layout.
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
    "ODLayout",
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


# Cells per chunk of `project_feasible`.  A chunk holds three float arrays of
# this size at once (the gathered rows, their sort, their cumulative sums), so
# it bounds the projection's own memory whatever the grid, and at 128 KB each
# they stay in cache.  A chunk is still large enough that the fixed numpy
# cost per chunk is small.
_CHUNK_CELLS = 1 << 14


def _project_rows(y: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of y onto {x >= 0, sum(x) = total},
    with one positive total per row (a (rows, 1) column).

    Sort-based threshold algorithm, O(n log n) per row: sort descending, find
    the last index k (1-based) with u_k * k > sum(u_1..u_k) - total, and shift
    by theta = (sum(u_1..u_k) - total) / k.
    """
    u = np.negative(y)
    u.sort(axis=1)
    np.negative(u, out=u)
    shifted = np.cumsum(u, axis=1)
    shifted -= totals
    n = y.shape[1]
    u *= np.arange(1, n + 1)
    support = u > shifted
    last = n - 1 - np.argmax(support[:, ::-1], axis=1)
    theta = shifted[np.arange(len(y)), last] / (last + 1)
    out = np.subtract(y, theta[:, None], out=u)
    return np.maximum(out, 0.0, out=out)


def project_simplex(y: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of a vector y onto {x >= 0, sum(x) = total},
    total > 0: the one-row case of `project_feasible`."""
    if not total > 0:
        raise ValidationError(f"simplex total must be positive, got {total}")
    y = np.asarray(y, dtype=float)
    return _project_rows(y.reshape(1, -1), np.array([[total]])).reshape(y.shape)


@dataclass(frozen=True)
class ODLayout:
    """The O-D blocks of the feasible set, checked and stacked once per solve.

    The path rows of every O-D pair must be distinct, in range, and together
    cover every path exactly once.  Blocks with the same number of paths are
    stacked into (blocks, paths) row-index arrays, beside their totals
    Q_w / dt, and cut into chunks of at most `_CHUNK_CELLS` cells (a block
    larger than that is a chunk of its own).
    """

    grid: TimeGrid
    num_paths: int
    chunks: tuple[tuple[np.ndarray, np.ndarray], ...]

    @classmethod
    def build(cls, trips: TripTable, paths_by_od: Mapping[str, np.ndarray],
              grid: TimeGrid) -> "ODLayout":
        extra = sorted(set(paths_by_od) - set(trips.demands))
        if extra:
            raise ConfigurationError(
                f"O-D pair {extra[0]!r} has path rows but no demand; "
                "every path must belong to exactly one O-D pair"
            )
        ods = list(trips.demands)
        blocks = [np.asarray(paths_by_od.get(od, ()), dtype=int).ravel() for od in ods]
        for od, rows in zip(ods, blocks):
            if rows.size == 0:
                raise ConfigurationError(f"O-D pair {od!r} has an empty path set")
        sizes = np.array([rows.size for rows in blocks], dtype=int)
        num_paths = int(sizes.sum())
        flat = np.concatenate([np.zeros(0, dtype=int), *blocks])
        owner = np.repeat(np.arange(len(ods)), sizes)
        bad = np.flatnonzero((flat < 0) | (flat >= num_paths))
        if bad.size:
            raise ConfigurationError(
                f"O-D pair {ods[owner[bad[0]]]!r} lists path row {int(flat[bad[0]])}, "
                f"outside rows 0..{num_paths - 1} of the {num_paths} paths listed; "
                "every path must belong to exactly one O-D pair"
            )
        order = np.argsort(flat, kind="stable")
        twice = np.flatnonzero(flat[order[1:]] == flat[order[:-1]])
        if twice.size:
            i, j = order[twice[0]], order[twice[0] + 1]
            raise ConfigurationError(
                f"path row {int(flat[i])} is listed by O-D pair {ods[owner[i]]!r} "
                f"and again by {ods[owner[j]]!r}; "
                "every path must belong to exactly one O-D pair"
            )
        dt = grid.dt
        chunks = []
        for size in sorted(set(sizes.tolist())):
            members = np.flatnonzero(sizes == size)
            rows = np.stack([blocks[b] for b in members])
            totals = np.array([[trips.demands[ods[b]] / dt] for b in members])
            step = max(1, _CHUNK_CELLS // (size * grid.num_intervals))
            chunks.extend((rows[c:c + step], totals[c:c + step])
                          for c in range(0, len(members), step))
        return cls(grid, num_paths, tuple(chunks))


def project_feasible(rates: np.ndarray, layout: ODLayout) -> np.ndarray:
    """Nearest rates (in the dt-weighted norm) that are nonnegative and, per
    O-D pair w, carry a total departing mass equal to Q_w.

    The weight dt is uniform, so each O-D block is an ordinary Euclidean
    simplex projection with target sum Q_w / dt; the blocks of one chunk of
    `layout` are projected together, one row each.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.shape != (layout.num_paths, layout.grid.num_intervals):
        raise ValidationError(
            f"rates of shape {rates.shape} do not match the {layout.num_paths} paths "
            f"and {layout.grid.num_intervals} intervals of the O-D layout"
        )
    out = np.empty_like(rates)
    for rows, totals in layout.chunks:
        block = rates[rows].reshape(len(rows), -1)
        out[rows] = _project_rows(block, totals).reshape(rows.shape + (-1,))
    return out


def residual_norm(h: np.ndarray, tau: float, ah: np.ndarray, layout: ODLayout) -> float:
    """Norm of h - P(h - tau * A(h)) for rates h and delays ah; zero exactly
    at equilibrium profiles."""
    if not tau > 0:
        raise ValidationError(f"residual step tau must be positive, got {tau}")
    if h.shape != ah.shape:
        raise ValidationError("flow rates and delays are incompatible")
    return norm(h - project_feasible(h - tau * ah, layout), layout.grid.dt)
