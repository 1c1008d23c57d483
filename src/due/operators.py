"""Delay operators consumed by the solvers.

The loading-backed operator wraps one network and grid; synthetic operators
over the same kind of feasible set (per-O-D simplex blocks) provide instances
with known solutions and known Lipschitz constants for solver verification.
All operators count their evaluations, one tick per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ValidationError
from .loading import _Engine, effective_delay
from .network import Network
from .space import (
    DelayProfile,
    ODLayout,
    PathFlowProfile,
    TimeGrid,
    TripTable,
    norm,
    residual_norm,
)

__all__ = [
    "DelayOperator",
    "DNLDelayOperator",
    "SyntheticVI",
    "dnl_operator",
    "affine_operator",
    "scaled_pseudo_monotone",
]


class DelayOperator:
    """Deterministic map from flow profiles to delay profiles.

    Subclasses implement `_compute`.  `evaluate` increments the call counter
    by exactly one per invocation.
    """

    def __init__(self, lipschitz: float | None = None):
        self.lipschitz = lipschitz
        self._calls = 0

    @property
    def eval_count(self) -> int:
        return self._calls

    def reset_count(self) -> None:
        self._calls = 0

    def evaluate(self, h: PathFlowProfile) -> DelayProfile:
        self._calls += 1
        return self._compute(h)

    def _compute(self, h: PathFlowProfile) -> DelayProfile:
        raise NotImplementedError


class DNLDelayOperator(DelayOperator):
    """Effective delays from dynamic network loading plus arrival penalty.

    Solver iterates may carry negative rates; loading is undefined for them,
    so the loading clamps negative entries to zero as it reads them (the
    minimal continuous extension) and leaves the profile untouched.
    """

    def __init__(self, net: Network, grid: TimeGrid, gamma: float = 1.0,
                 buffer: float | None = None):
        super().__init__(lipschitz=None)
        self.net = net
        self.grid = grid
        self.gamma = gamma
        self._engine = _Engine(net, grid, buffer)
        self._od_by_path = net.od_by_path()

    def _compute(self, h: PathFlowProfile) -> DelayProfile:
        delays = self._engine.run(h.rates).path_delays()
        return effective_delay(delays, self.grid, self.net.trips,
                               self._od_by_path, self.gamma)


def dnl_operator(net: Network, grid: TimeGrid, gamma: float = 1.0,
                 buffer: float | None = None) -> DNLDelayOperator:
    return DNLDelayOperator(net, grid, gamma=gamma, buffer=buffer)


class _CallableOperator(DelayOperator):
    def __init__(self, fn: Callable[[PathFlowProfile], np.ndarray],
                 lipschitz: float | None = None):
        super().__init__(lipschitz=lipschitz)
        self._fn = fn

    def _compute(self, h: PathFlowProfile) -> DelayProfile:
        return DelayProfile(h.grid, self._fn(h))


@dataclass
class SyntheticVI:
    """A test problem: operator, feasible set, and (optionally) its solution."""

    operator: DelayOperator
    grid: TimeGrid
    trips: TripTable
    paths_by_od: Mapping[str, np.ndarray]
    solution: PathFlowProfile | None = None
    lipschitz: float | None = None

    @property
    def num_paths(self) -> int:
        return sum(len(rows) for rows in self.paths_by_od.values())

    @property
    def layout(self) -> ODLayout:
        return ODLayout.build(self.trips, self.paths_by_od, self.grid)

    def certify_solution(self, tol: float = 1e-10) -> float:
        """Residual of the stored solution; raises if it is not a solution."""
        if self.solution is None:
            raise ValidationError("no stored solution to certify")
        ah = self.operator.evaluate(self.solution)
        r = residual_norm(self.solution.rates, 1.0, ah.delays, self.layout)
        if r > tol:
            raise ValidationError(f"stored solution has residual {r} > {tol}")
        return r


def _default_simplex_setup(n: int, total: float = 2.0):
    grid = TimeGrid(0.0, 1.0, 1)
    trips = TripTable({"w": total}, {"w": 1.0})
    paths_by_od = {"w": np.arange(n)}
    return grid, trips, paths_by_od


def affine_operator(
    m: np.ndarray,
    q: np.ndarray,
    trips: TripTable | None = None,
    paths_by_od: Mapping[str, np.ndarray] | None = None,
    grid: TimeGrid | None = None,
    solution: np.ndarray | None = None,
) -> SyntheticVI:
    """A(x) = M x + q over per-O-D simplex blocks (single block by default).

    Profiles are flattened row-major into the vector the matrix acts on.
    """
    m = np.asarray(m, dtype=float)
    q = np.asarray(q, dtype=float).ravel()
    n = q.size
    if m.shape != (n, n):
        raise ValidationError(f"matrix shape {m.shape} does not match q of size {n}")
    if grid is None or trips is None or paths_by_od is None:
        grid, trips, paths_by_od = _default_simplex_setup(n)
    cols = grid.num_intervals

    def apply(h: PathFlowProfile) -> np.ndarray:
        x = h.rates.ravel()
        return (m @ x + q).reshape(-1, cols)

    lip = float(np.linalg.norm(m, 2))
    op = _CallableOperator(apply, lipschitz=lip)
    sol = None
    if solution is not None:
        sol = PathFlowProfile(grid, np.asarray(solution, dtype=float).reshape(-1, cols))
    vi = SyntheticVI(operator=op, grid=grid, trips=trips, paths_by_od=paths_by_od,
                     solution=sol, lipschitz=lip)
    if sol is not None:
        vi.certify_solution()
        op.reset_count()
    return vi


def scaled_pseudo_monotone(
    base: SyntheticVI,
    theta: Callable[[PathFlowProfile], float] | None = None,
) -> SyntheticVI:
    """Positive pointwise rescaling A'(x) = theta(x) A(x).

    Preserves the solution set; turns monotone instances into genuinely
    non-monotone (but pseudo-monotone) ones.
    """
    if theta is None:
        theta = lambda h: 1.0 / (1.0 + norm(h.rates, h.grid.dt))
    inner_op = base.operator

    def apply(h: PathFlowProfile) -> np.ndarray:
        scale = theta(h)
        if not scale > 0:
            raise ValidationError(f"scaling field must stay positive, got {scale}")
        return scale * inner_op._compute(h).delays

    op = _CallableOperator(apply, lipschitz=None)
    vi = SyntheticVI(operator=op, grid=base.grid, trips=base.trips,
                     paths_by_od=base.paths_by_od, solution=base.solution,
                     lipschitz=None)
    if vi.solution is not None:
        vi.certify_solution()
        op.reset_count()
    return vi
