"""Fixed-point solvers for the equilibrium variational inequality.

Three iterations over the feasible flow set:

  fb    projected gradient with a fixed step; one operator call per
        iteration; the workhorse baseline.
  fbf   forward-backward-forward splitting with a correction step, an
        anchored relaxation toward the origin, and the adaptive step rule;
        two operator calls per iteration.
  ifbf  the same splitting with inertial extrapolation, relaxation, and an
        adaptive inertia cap; two operator calls per iteration.

The anchored variants drive the iterates to the minimum-norm equilibrium;
their intermediate iterates intentionally leave the feasible set, so the
returned final profile is projected once for reporting.

The iterations run on (path, interval) rate arrays.  Only the operator inputs
and the returned result are built as `PathFlowProfile`s.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, DueError
from .metrics import ConvergenceLog, IterationRecord, relative_energy, relative_step
from .operators import DelayOperator
from .space import ODLayout, PathFlowProfile, TripTable, norm, project_feasible

__all__ = [
    "ScheduleSpec",
    "parse_schedule",
    "eval_schedule",
    "SolverConfig",
    "run_fb",
    "run_fbf",
    "run_ifbf",
    "solve",
    "uniform_start",
]

_SCHEDULE_RE = re.compile(r"^\s*([a-z_]+)\s*\(([^)]*)\)\s*$")

_FAMILIES = {"pow": 3, "affine_pow": 4, "rational": 3, "const": 1}


@dataclass(frozen=True)
class ScheduleSpec:
    """A closed-form scalar sequence n -> value.

    Families: pow(a, b, c) = c*(a+n)^b; affine_pow(c0, c1, a, b) =
    c0 + c1*(a+n)^b; rational(a, b, c) = a/(b*n + c); const(c) = c.
    An index offset shifts the whole sequence, used when the first terms of
    a published family fall outside the admissible range.
    """

    family: str
    params: tuple[float, ...]
    offset: int = 0

    def raw(self, n: int) -> float:
        p = self.params
        if self.family == "pow":
            return p[2] * (p[0] + n) ** p[1]
        if self.family == "affine_pow":
            return p[0] + p[1] * (p[2] + n) ** p[3]
        if self.family == "rational":
            return p[0] / (p[1] * n + p[2])
        return p[0]

    def value(self, n: int) -> float:
        return self.raw(n + self.offset)

    def limit(self) -> float:
        p = self.params
        if self.family == "pow":
            return 0.0 if p[1] < 0 else (p[2] if p[1] == 0 else math.inf * np.sign(p[2]))
        if self.family == "affine_pow":
            tail = 0.0 if p[3] < 0 else (p[1] if p[3] == 0 else math.inf * np.sign(p[1]))
            return p[0] + tail
        if self.family == "rational":
            return 0.0 if p[1] != 0 else p[0] / p[2]
        return p[0]

    def sum_diverges(self) -> bool:
        """Whether the series of values diverges (polynomial-rate reasoning)."""
        p = self.params
        if self.family == "pow":
            return p[2] != 0 and p[1] >= -1
        if self.family == "affine_pow":
            if p[0] != 0:
                return True
            return p[1] != 0 and p[3] >= -1
        if self.family == "rational":
            return p[0] != 0
        return p[0] != 0

    def decay_exponent(self) -> float:
        """r such that value ~ n^-r for large n (0 for non-vanishing)."""
        p = self.params
        if self.family == "pow":
            return -p[1]
        if self.family == "affine_pow":
            return -p[3] if p[0] == 0 else 0.0
        if self.family == "rational":
            return 1.0 if p[1] != 0 else 0.0
        return 0.0

    def __str__(self) -> str:
        inside = ", ".join(repr(v) for v in self.params)
        text = f"{self.family}({inside})"
        if self.offset:
            text += f" [index offset {self.offset}]"
        return text


def parse_schedule(text) -> ScheduleSpec:
    if isinstance(text, ScheduleSpec):
        return text
    if isinstance(text, (int, float)):
        return ScheduleSpec("const", (float(text),))
    m = _SCHEDULE_RE.match(text)
    if not m:
        try:
            return ScheduleSpec("const", (float(text),))
        except ValueError:
            raise ConfigurationError(
                f"cannot parse schedule {text!r}: expected family(args) or a number"
            ) from None
    family, arg_text = m.group(1), m.group(2)
    if family not in _FAMILIES:
        raise ConfigurationError(
            f"unknown schedule family {family!r} at position {m.start(1)} in {text!r}"
        )
    parts = [a.strip() for a in arg_text.split(",")] if arg_text.strip() else []
    if len(parts) != _FAMILIES[family]:
        raise ConfigurationError(
            f"schedule {family!r} takes {_FAMILIES[family]} arguments, got {len(parts)} in {text!r}"
        )
    try:
        params = tuple(float(a) for a in parts)
    except ValueError as exc:
        raise ConfigurationError(f"bad schedule argument in {text!r}: {exc}") from None
    return ScheduleSpec(family, params)


def eval_schedule(spec, n: int) -> float:
    """Exact value of the schedule family at index n (no offset applied)."""
    if n < 0:
        raise ConfigurationError(f"schedule index must be nonnegative, got {n}")
    return parse_schedule(spec).raw(n)


@dataclass
class SolverConfig:
    """Algorithm choice plus parameters and schedules.

    tau0 seeds the adaptive step of fbf/ifbf; tau_fixed is the constant step
    of fb (falls back to tau0).  alpha is the inertia cap of ifbf.
    """

    algorithm: str = "ifbf"
    max_iterations: int = 100
    tolerance: float = 0.0
    tau0: float = 1.0
    tau_fixed: float | None = None
    mu: float = 0.5
    lam: float = 0.5
    alpha: float = 0.7
    alpha_schedule: object | None = None
    beta_schedule: object | None = None
    eps_schedule: object | None = None

    def __post_init__(self):
        self.algorithm = self.algorithm.lower()
        if self.algorithm not in ("fb", "fbf", "ifbf"):
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be at least 1")
        if not self.tau0 > 0:
            raise ConfigurationError("tau0 must be positive")
        if not 0 < self.mu < 1:
            raise ConfigurationError(f"mu must lie in (0, 1), got {self.mu}")
        if not 0 < self.lam < 1:
            raise ConfigurationError(f"lambda must lie in (0, 1), got {self.lam}")
        if not 0 < self.alpha < 1:
            raise ConfigurationError(f"alpha must lie in (0, 1), got {self.alpha}")


def _adaptive_step(tau: float, mu: float, residual: float,
                   a_x: np.ndarray, a_y: np.ndarray, dt: float) -> float:
    """Next step min(tau, mu ||x - y|| / ||A(x) - A(y)||), given residual
    ||x - y||; tau is kept while the delays barely differ."""
    diff = math.sqrt(float(((a_x - a_y) ** 2).sum()) * dt)
    thresh = 1e-14 * math.sqrt(float((a_x ** 2).sum()) * dt)
    return tau if diff <= thresh else min(tau, mu * residual / diff)


def _with_offset(spec: ScheduleSpec, check, horizon: int, what: str) -> ScheduleSpec:
    """Smallest index offset making `check(value_n, n)` hold across the run
    horizon."""
    for offset in range(4):
        shifted = replace(spec, offset=offset)
        if all(check(shifted.value(n), n) for n in range(horizon + 1)):
            return shifted
    raise ConfigurationError(
        f"{what} schedule {spec} violates its admissible range even after index shifts"
    )


def _validate_fbf_schedules(config: SolverConfig) -> tuple[ScheduleSpec, ScheduleSpec, list[str]]:
    if config.alpha_schedule is None or config.beta_schedule is None:
        raise ConfigurationError("fbf needs alpha_schedule and beta_schedule")
    alpha_s = parse_schedule(config.alpha_schedule)
    beta_s = parse_schedule(config.beta_schedule)
    horizon = config.max_iterations
    alpha_s = _with_offset(alpha_s, lambda v, n: 0 < v < 1, horizon, "anchor weight")
    beta_s = _with_offset(beta_s, lambda v, n: 0 < v < 1 - alpha_s.value(n), horizon,
                          "relaxation")
    notes = []
    if alpha_s.limit() != 0.0:
        notes.append(f"anchor weights {alpha_s} do not vanish; strong convergence not guaranteed")
    if not alpha_s.sum_diverges():
        notes.append(f"anchor weights {alpha_s} are summable; strong convergence not guaranteed")
    if alpha_s.offset or beta_s.offset:
        notes.append(
            f"schedules start at shifted indices (alpha {alpha_s.offset}, beta {beta_s.offset})"
        )
    return alpha_s, beta_s, notes


def _validate_ifbf_schedules(config: SolverConfig) -> tuple[ScheduleSpec, ScheduleSpec, list[str]]:
    if config.beta_schedule is None or config.eps_schedule is None:
        raise ConfigurationError("ifbf needs beta_schedule and eps_schedule")
    beta_s = parse_schedule(config.beta_schedule)
    eps_s = parse_schedule(config.eps_schedule)
    horizon = config.max_iterations
    beta_s = _with_offset(beta_s, lambda v, n: 0 < v < 1, horizon, "anchor weight")
    eps_s = _with_offset(eps_s, lambda v, n: v > 0, horizon, "inertia budget")
    notes = []
    if beta_s.limit() != 0.0:
        notes.append(f"anchor weights {beta_s} do not vanish; strong convergence not guaranteed")
    if not beta_s.sum_diverges():
        notes.append(f"anchor weights {beta_s} are summable; strong convergence not guaranteed")
    if eps_s.decay_exponent() <= beta_s.decay_exponent():
        notes.append(
            f"inertia budget {eps_s} does not vanish faster than anchor weights {beta_s}"
        )
    if beta_s.offset or eps_s.offset:
        notes.append(
            f"schedules start at shifted indices (beta {beta_s.offset}, eps {eps_s.offset})"
        )
    return beta_s, eps_s, notes


def _base_header(config: SolverConfig, op: DelayOperator, notes: list[str]) -> dict:
    header = {
        "algorithm": config.algorithm,
        "max_iterations": config.max_iterations,
        "tolerance": config.tolerance,
        "mu": config.mu,
        "lambda": config.lam,
        "alpha": config.alpha,
        "tau0": config.tau0,
        "operator_calls_at_start": op.eval_count,
        "notes": list(notes),
    }
    header["notes"].append(
        "operator regularity (Lipschitz continuity, pseudo-monotonicity) is assumed, "
        "not verified at runtime"
    )
    return header


@contextmanager
def _keeps_log(log: ConvergenceLog):
    """Attach `log`, the iterations recorded so far, to a DueError raised inside."""
    try:
        yield
    except DueError as exc:
        exc.log = log
        raise


def uniform_start(grid, trips: TripTable, paths_by_od: Mapping[str, np.ndarray]) -> PathFlowProfile:
    """Feasible start: each O-D demand split evenly over its paths and time."""
    num_paths = sum(len(rows) for rows in paths_by_od.values())
    rates = np.zeros((num_paths, grid.num_intervals))
    horizon = grid.t1 - grid.t0
    for od, rows in paths_by_od.items():
        rates[np.asarray(rows, dtype=int), :] = trips.demands[od] / (len(rows) * horizon)
    return PathFlowProfile(grid, rates)


def run_fb(
    op: DelayOperator,
    config: SolverConfig,
    h0: PathFlowProfile,
    trips: TripTable,
    paths_by_od: Mapping[str, np.ndarray],
) -> tuple[PathFlowProfile, ConvergenceLog]:
    """Projected gradient with a fixed step; one operator call per iteration."""
    tau = config.tau_fixed if config.tau_fixed is not None else config.tau0
    if not tau > 0:
        raise ConfigurationError(f"fb needs a positive fixed step, got {tau}")
    log = ConvergenceLog("fb", header=_base_header(config, op, []))
    grid, dt = h0.grid, h0.grid.dt
    layout = ODLayout.build(trips, paths_by_od, grid)
    h = h0.rates
    with _keeps_log(log):
        for n in range(config.max_iterations):
            ah = op.evaluate(PathFlowProfile(grid, h)).delays
            y = project_feasible(h - tau * ah, layout)
            residual = norm(h - y, dt)
            energy = relative_energy(y, h, dt)
            h = y
            log.append(IterationRecord(n, tau, math.nan, math.nan, residual, energy,
                                       op.eval_count))
            if config.tolerance > 0 and residual <= config.tolerance:
                log.stop_reason = "residual_tolerance"
                break
    return PathFlowProfile(grid, h), log


def run_fbf(
    op: DelayOperator,
    config: SolverConfig,
    h0: PathFlowProfile,
    trips: TripTable,
    paths_by_od: Mapping[str, np.ndarray],
) -> tuple[PathFlowProfile, ConvergenceLog]:
    """Anchored forward-backward-forward; two operator calls per iteration."""
    alpha_s, beta_s, notes = _validate_fbf_schedules(config)
    log = ConvergenceLog("fbf", header=_base_header(config, op, notes))
    grid, dt = h0.grid, h0.grid.dt
    layout = ODLayout.build(trips, paths_by_od, grid)
    h = h0.rates
    tau = config.tau0
    with _keeps_log(log):
        for n in range(config.max_iterations):
            a_n = alpha_s.value(n)
            b_n = beta_s.value(n)
            ah = op.evaluate(PathFlowProfile(grid, h)).delays
            y = project_feasible(h - tau * ah, layout)
            ay = op.evaluate(PathFlowProfile(grid, y)).delays
            z = y + tau * (ah - ay)
            h_next = (1.0 - a_n - b_n) * h + b_n * z
            residual = norm(h - y, dt)
            energy = relative_energy(h_next, h, dt)
            tau_next = _adaptive_step(tau, config.mu, residual, ah, ay, dt)
            log.append(IterationRecord(n, tau, a_n, b_n, residual, energy,
                                       op.eval_count))
            h, tau = h_next, tau_next
            if config.tolerance > 0 and residual <= config.tolerance:
                log.stop_reason = "residual_tolerance"
                break
    return PathFlowProfile(grid, project_feasible(h, layout)), log


def run_ifbf(
    op: DelayOperator,
    config: SolverConfig,
    h0: PathFlowProfile,
    trips: TripTable,
    paths_by_od: Mapping[str, np.ndarray],
) -> tuple[PathFlowProfile, ConvergenceLog]:
    """Inertial forward-backward-forward; two operator calls per iteration."""
    beta_s, eps_s, notes = _validate_ifbf_schedules(config)
    log = ConvergenceLog("ifbf", header=_base_header(config, op, notes))
    grid, dt = h0.grid, h0.grid.dt
    layout = ODLayout.build(trips, paths_by_od, grid)
    h_prev = h = h0.rates
    tau = config.tau0
    alpha_n = config.alpha
    with _keeps_log(log):
        for n in range(config.max_iterations):
            b_n = beta_s.value(n)
            w = (1.0 - b_n) * (h + alpha_n * (h - h_prev))
            aw = op.evaluate(PathFlowProfile(grid, w)).delays
            y = project_feasible(w - tau * aw, layout)
            ay = op.evaluate(PathFlowProfile(grid, y)).delays
            h_next = (1.0 - config.lam) * w + config.lam * (y + tau * (aw - ay))
            residual = norm(w - y, dt)
            step = norm(h_next - h, dt)
            energy = relative_step(step, h, dt)
            tau_next = _adaptive_step(tau, config.mu, residual, aw, ay, dt)
            if np.array_equal(h_next, h):
                alpha_next = config.alpha
            else:
                alpha_next = min(config.alpha, eps_s.value(n + 1) / step)
            log.append(IterationRecord(n, tau, alpha_n, b_n, residual, energy,
                                       op.eval_count))
            h_prev, h = h, h_next
            tau, alpha_n = tau_next, alpha_next
            if config.tolerance > 0 and residual <= config.tolerance:
                log.stop_reason = "residual_tolerance"
                break
    return PathFlowProfile(grid, project_feasible(h, layout)), log


_RUNNERS = {"fb": run_fb, "fbf": run_fbf, "ifbf": run_ifbf}


def solve(
    op: DelayOperator,
    config: SolverConfig,
    h0: PathFlowProfile,
    trips: TripTable,
    paths_by_od: Mapping[str, np.ndarray],
) -> tuple[PathFlowProfile, ConvergenceLog]:
    return _RUNNERS[config.algorithm](op, config, h0, trips, paths_by_od)
