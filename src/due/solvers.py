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
from collections import namedtuple
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
    "SolverConfig",
    "run_fb",
    "run_fbf",
    "run_ifbf",
    "solve",
    "uniform_start",
]

_SCHEDULE_RE = re.compile(r"^\s*([a-z_]+)\s*\(([^)]*)\)\s*$")

# One row per family: its number of arguments, its value at index n, and its
# tail (c0, c1, p), where the value tends to c0 + c1*n^p.
_Family = namedtuple("_Family", "arity value tail")
_FAMILIES = {
    "pow": _Family(3, lambda n, a, b, c: c * (a + n) ** b, lambda a, b, c: (0.0, c, b)),
    "affine_pow": _Family(4, lambda n, c0, c1, a, b: c0 + c1 * (a + n) ** b,
                          lambda c0, c1, a, b: (c0, c1, b)),
    "rational": _Family(3, lambda n, a, b, c: a / (b * n + c),
                        lambda a, b, c: (0.0, a / b, -1.0) if b != 0 else (a / c, 0.0, 0.0)),
    "const": _Family(1, lambda n, c: c, lambda c: (c, 0.0, 0.0)),
}


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

    def __post_init__(self):
        if not all(map(math.isfinite, self.params)):
            raise ConfigurationError(f"schedule {self} has a non-finite argument")

    def raw(self, n: int) -> float:
        try:  # float() rejects a complex power
            return float(_FAMILIES[self.family].value(n, *self.params))
        except (ArithmeticError, TypeError):
            raise ConfigurationError(f"schedule {self} has no real value at index {n}") from None

    def value(self, n: int) -> float:
        return self.raw(n + self.offset)

    def limit(self) -> float:
        c0, c1, p = _FAMILIES[self.family].tail(*self.params)
        return c0 + (0.0 if p < 0 else (c1 if p == 0 else math.inf * np.sign(c1)))

    def sum_diverges(self) -> bool:
        """Whether the series of values diverges (polynomial-rate reasoning)."""
        c0, c1, p = _FAMILIES[self.family].tail(*self.params)
        return c0 != 0 or (c1 != 0 and p >= -1)

    def decay_exponent(self) -> float:
        """r such that value ~ n^-r for large n (0 for non-vanishing)."""
        c0, _, p = _FAMILIES[self.family].tail(*self.params)
        return -p if c0 == 0 else 0.0

    def __str__(self) -> str:
        inside = ", ".join(repr(v) for v in self.params)
        text = f"{self.family}({inside})"
        if self.offset:
            text += f" [index offset {self.offset}]"
        return text


def parse_schedule(text) -> ScheduleSpec:
    """A schedule from family(args) text, a number or a spec; malformed text
    or a non-finite argument is a ConfigurationError and a boolean a TypeError."""
    if isinstance(text, ScheduleSpec):
        return text
    if isinstance(text, bool):
        raise TypeError(f"a schedule must be family(args) or a number, not {text!r}")
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
    arity = _FAMILIES[family].arity
    if len(parts) != arity:
        raise ConfigurationError(
            f"schedule {family!r} takes {arity} arguments, got {len(parts)} in {text!r}"
        )
    try:
        params = tuple(float(a) for a in parts)
    except ValueError as exc:
        raise ConfigurationError(f"bad schedule argument in {text!r}: {exc}") from None
    return ScheduleSpec(family, params)


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
    thresh = 1e-14 * math.sqrt(float((a_x ** 2).sum()) * dt)
    squares = a_x - a_y
    squares **= 2  # in place: one full-size temporary at a time
    diff = math.sqrt(float(squares.sum()) * dt)
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


def _check_anchor_schedules(config: SolverConfig, anchor: str, second: str, what: str,
                            admissible, outpaces_anchor: bool
                            ) -> tuple[ScheduleSpec, ScheduleSpec, list[str]]:
    """Anchor weights in (0, 1) and a second schedule whose values v keep
    `admissible(v, anchor value)`, read from the config's `<name>_schedule`
    fields and each started at its smallest valid index offset, plus the
    header notes on what they leave unguaranteed; if `outpaces_anchor`, the
    second schedule should vanish faster than the anchor weights."""
    specs = getattr(config, f"{anchor}_schedule"), getattr(config, f"{second}_schedule")
    if None in specs:
        raise ConfigurationError(
            f"{config.algorithm} needs {anchor}_schedule and {second}_schedule")
    anchor_s, second_s = (parse_schedule(spec) for spec in specs)
    horizon = config.max_iterations
    anchor_s = _with_offset(anchor_s, lambda v, n: 0 < v < 1, horizon, "anchor weight")
    second_s = _with_offset(second_s, lambda v, n: admissible(v, anchor_s.value(n)), horizon,
                            what)
    notes = []
    if anchor_s.limit() != 0.0:
        notes.append(f"anchor weights {anchor_s} do not vanish; strong convergence not guaranteed")
    if not anchor_s.sum_diverges():
        notes.append(f"anchor weights {anchor_s} are summable; strong convergence not guaranteed")
    if outpaces_anchor and second_s.decay_exponent() <= anchor_s.decay_exponent():
        notes.append(f"{what} {second_s} does not vanish faster than anchor weights {anchor_s}")
    if anchor_s.offset or second_s.offset:
        notes.append(f"schedules start at shifted indices "
                     f"({anchor} {anchor_s.offset}, {second} {second_s.offset})")
    return anchor_s, second_s, notes


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
    alpha_s, beta_s, notes = _check_anchor_schedules(
        config, "alpha", "beta", "relaxation", lambda v, a: 0 < v < 1 - a, outpaces_anchor=False)
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
    del ah, y, ay, z  # the loop's arrays: none is alive in the final projection
    return PathFlowProfile(grid, project_feasible(h, layout)), log


def run_ifbf(
    op: DelayOperator,
    config: SolverConfig,
    h0: PathFlowProfile,
    trips: TripTable,
    paths_by_od: Mapping[str, np.ndarray],
) -> tuple[PathFlowProfile, ConvergenceLog]:
    """Inertial forward-backward-forward; two operator calls per iteration."""
    beta_s, eps_s, notes = _check_anchor_schedules(
        config, "beta", "eps", "inertia budget", lambda v, a: v > 0, outpaces_anchor=True)
    log = ConvergenceLog("ifbf", header=_base_header(config, op, notes))
    grid, dt = h0.grid, h0.grid.dt
    layout = ODLayout.build(trips, paths_by_od, grid)
    h_prev = h = h0.rates
    tau = config.tau0
    alpha_n = config.alpha
    with _keeps_log(log):
        for n in range(config.max_iterations):
            b_n = beta_s.value(n)
            # full-size arrays are built in place, with one temporary at most:
            # w = (1 - b_n) (h + alpha_n (h - h_prev))
            w = h - h_prev
            w *= alpha_n
            w += h
            w *= 1.0 - b_n
            aw = op.evaluate(PathFlowProfile(grid, w)).delays
            y = project_feasible(w - tau * aw, layout)
            ay = op.evaluate(PathFlowProfile(grid, y)).delays
            residual = norm(w - y, dt)
            tau_next = _adaptive_step(tau, config.mu, residual, aw, ay, dt)
            # h_next = (1 - lam) w + lam (y + tau (aw - ay)), aw and ay dropped
            h_next = aw - ay
            del aw, ay
            h_next *= tau
            h_next += y
            h_next *= config.lam
            h_next += (1.0 - config.lam) * w
            step = norm(h_next - h, dt)
            energy = relative_step(step, h, dt)
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
    del w, y, h_prev  # the loop's arrays: none is alive in the final projection
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
