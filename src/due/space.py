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

import bisect
import math
from dataclasses import dataclass, field
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
    """A read-only view of `values` as a float matrix, checked once.  A float
    array is shared, not copied, and its own flags are left as they are."""
    arr = np.asarray(values, dtype=float).view()
    if arr.ndim != 2:
        raise ValidationError(f"{what} must be a (paths, intervals) matrix, got ndim={arr.ndim}")
    if arr.shape[1] != grid.num_intervals:
        raise ValidationError(
            f"{what} has {arr.shape[1]} columns but the grid has {grid.num_intervals} intervals"
        )
    if not np.isfinite(arr).all():
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


@dataclass(frozen=True)
class DelayProfile:
    """Effective delays indexed (path, interval), same grid as the flows."""

    grid: TimeGrid
    delays: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delays", _frozen_matrix(self.delays, self.grid, "delays"))


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
    """sqrt(inner(x, x, dt)), with x raveled once: one copy at most."""
    v = x.ravel()
    return math.sqrt(inner(v, v, dt))


# Cells per chunk of `project_feasible`.  A chunk's gathered rows and their
# cumulative sums live in the layout's two scratch arrays of at most this size
# (a block larger than that is a chunk of its own), so they stay in cache and
# bound the projection's own memory whatever the grid, while the fixed numpy
# cost per chunk stays small.
_CHUNK_CELLS = 1 << 14


def project_simplex(y: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of a vector y onto {x >= 0, sum(x) = total},
    total > 0: `project_feasible` on one block over a grid with dt = 1."""
    if not total > 0:
        raise ValidationError(f"simplex total must be positive, got {total}")
    y = np.asarray(y, dtype=float)
    layout = ODLayout.build(TripTable({"": total}, {"": 0.0}), {"": np.zeros(1, dtype=int)},
                            TimeGrid(0.0, float(y.size), y.size))
    return project_feasible(y.reshape(1, -1), layout).reshape(y.shape)


@dataclass(frozen=True)
class ODLayout:
    """The O-D blocks of the feasible set, checked and stacked once per solve.

    The path rows of every O-D pair must be distinct, in range, and together
    cover every path exactly once.  Blocks are numbered by size (then in trip
    table order), `order` lists their path rows block by block, and `block_of`
    maps a path row to its block.  Blocks of one size are cut into chunks of at
    most `_CHUNK_CELLS` cells: slices of `order` and of the block ids, and the
    blocks' totals Q_w / dt.  `project_feasible` reuses the two chunk-size
    `scratch` arrays, so a layout serves one projection at a time.
    """

    grid: TimeGrid
    num_paths: int
    order: np.ndarray
    block_of: np.ndarray
    chunks: tuple[tuple[slice, slice, np.ndarray], ...]
    scratch: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)

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
        by_row = np.argsort(flat, kind="stable")
        twice = np.flatnonzero(flat[by_row[1:]] == flat[by_row[:-1]])
        if twice.size:
            i, j = by_row[twice[0]], by_row[twice[0] + 1]
            raise ConfigurationError(
                f"path row {int(flat[i])} is listed by O-D pair {ods[owner[i]]!r} "
                f"and again by {ods[owner[j]]!r}; "
                "every path must belong to exactly one O-D pair"
            )
        stacked = np.argsort(sizes, kind="stable")
        order = np.concatenate([np.zeros(0, dtype=int), *(blocks[b] for b in stacked)])
        block_of = np.empty(num_paths, dtype=int)
        block_of[order] = np.repeat(np.arange(len(ods)), sizes[stacked])
        totals = np.array([[trips.demands[ods[b]] / grid.dt] for b in stacked])
        by_size = sizes[stacked].tolist()
        bounds, chunks, c = np.cumsum([0, *by_size]).tolist(), [], 0
        while c < len(by_size):
            size = by_size[c]
            stop = min(c + max(1, _CHUNK_CELLS // (size * grid.num_intervals)),
                       bisect.bisect_right(by_size, size))
            chunks.append((slice(bounds[c], bounds[stop]), slice(c, stop), totals[c:stop]))
            c = stop
        cells = grid.num_intervals * max((r.stop - r.start for r, _, _ in chunks), default=0)
        return cls(grid, num_paths, order, block_of, tuple(chunks), tuple(np.empty((2, cells))))


def project_feasible(rates: np.ndarray, layout: ODLayout) -> np.ndarray:
    """Nearest rates (in the dt-weighted norm) that are nonnegative and, per
    O-D pair w, carry a total departing mass equal to Q_w.

    The weight dt is uniform, so each O-D block is a Euclidean simplex
    projection with target sum Q_w / dt: with u its n values in descending
    order, the rates less theta = (u_1 + ... + u_k - Q_w / dt) / k for the
    last k with u_k k > u_1 + ... + u_k - Q_w / dt, clamped at 0.  A chunk's
    blocks are gathered into the first scratch array (mode "clip" writes
    there unbuffered), one a row, and sorted ascending; the second holds the
    reversed cumulative sums, so column j sums the n - j largest values.
    """
    rates = np.asarray(rates, dtype=float)
    num_intervals = layout.grid.num_intervals
    if rates.shape != (layout.num_paths, num_intervals):
        raise ValidationError(
            f"rates of shape {rates.shape} do not match the {layout.num_paths} paths "
            f"and {num_intervals} intervals of the O-D layout"
        )
    theta = np.empty(layout.chunks[-1][1].stop if layout.chunks else 0)
    for rows, blocks, totals in layout.chunks:
        cells = (rows.stop - rows.start) * num_intervals
        u, s = (a[:cells].reshape(len(totals), -1) for a in layout.scratch)
        rates.take(layout.order[rows], axis=0, out=u.reshape(-1, num_intervals), mode="clip")
        u.sort(axis=1)
        np.cumsum(u[:, ::-1], axis=1, out=s[:, ::-1])
        s -= totals
        n = u.shape[1]
        u *= np.arange(n, 0, -1)
        first = np.argmax(u > s, axis=1)
        theta[blocks] = s[np.arange(len(s)), first] / (n - first)
    out = np.repeat(theta.take(layout.block_of), num_intervals).reshape(rates.shape)
    np.subtract(rates, out, out=out)
    return np.maximum(out, 0.0, out=out)


def residual_norm(h: np.ndarray, tau: float, ah: np.ndarray, layout: ODLayout) -> float:
    """Norm of h - P(h - tau * A(h)) for rates h and delays ah; zero exactly
    at equilibrium profiles."""
    if not tau > 0:
        raise ValidationError(f"residual step tau must be positive, got {tau}")
    if h.shape != ah.shape:
        raise ValidationError("flow rates and delays are incompatible")
    return norm(h - project_feasible(h - tau * ah, layout), layout.grid.dt)
