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

Each algorithm is an update rule; `solve` runs the one loop over them, on
(path, interval) rate arrays.  Only the operator inputs and the returned
result are built as `PathFlowProfile`s.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, DueError
from .metrics import ConvergenceLog, IterationRecord, relative_step
from .operators import DelayOperator
from .space import ODLayout, PathFlowProfile, TripTable, norm, project_feasible

__all__ = [
    "ScheduleSpec",
    "parse_schedule",
    "SolverConfig",
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
    """

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if not all(map(math.isfinite, self.params)):
            raise ConfigurationError(f"schedule {self} has a non-finite argument")

    def raw(self, n: int) -> float:
        return float(_FAMILIES[self.family].value(n, *self.params))

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
        return f"{self.family}({', '.join(repr(v) for v in self.params)})"


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


def _forward(x: np.ndarray, a: np.ndarray, tau: float) -> np.ndarray:
    """The forward point x - tau a in one full-size array: (-tau) a + x is
    bitwise the same, since x - y is x + (-y) and (-tau) a is -(tau a)."""
    t = np.multiply(a, -tau)
    t += x
    return t


def _tabulate(spec: ScheduleSpec, check, horizon: int, what: str) -> tuple[list[float], int, str]:
    """The values `spec.raw(n + k)` for n = 0 … `horizon`, k and the schedule's
    name at k, for the smallest index offset k that makes each keep `check(value,
    n)`: the first terms of a published family may fall outside the admissible
    range.  Each offset is read up to its first failing n."""
    for offset in range(4):
        values, name = [], f"{spec} [index offset {offset}]" if offset else str(spec)
        for n in range(offset, horizon + offset + 1):
            try:  # float() rejects a complex power
                values.append(spec.raw(n))
            except (ArithmeticError, TypeError):
                raise ConfigurationError(
                    f"schedule {name} has no real value at index {n}") from None
            if not check(values[-1], n - offset):
                break
        else:
            return values, offset, name
    raise ConfigurationError(
        f"{what} schedule {spec} violates its admissible range even after index shifts"
    )


def _check_anchor_schedules(config: SolverConfig, anchor: str, second: str, what: str,
                            admissible, outpaces_anchor: bool
                            ) -> tuple[list[float], list[float], list[str]]:
    """Per iteration and one more, the values of anchor weights in (0, 1) and of
    a second schedule whose values v keep `admissible(v, anchor value)`, read
    from the config's `<name>_schedule` fields, each from its smallest valid
    index offset; and the header notes on what they leave unguaranteed: if
    `outpaces_anchor`, the second schedule should vanish faster than the anchor weights."""
    specs = getattr(config, f"{anchor}_schedule"), getattr(config, f"{second}_schedule")
    if None in specs:
        raise ConfigurationError(
            f"{config.algorithm} needs {anchor}_schedule and {second}_schedule")
    anchor_s, second_s = (parse_schedule(spec) for spec in specs)
    anchor_v, anchor_k, label = _tabulate(anchor_s, lambda v, n: 0 < v < 1,
                                          config.max_iterations, "anchor weight")
    second_v, second_k, second_label = _tabulate(
        second_s, lambda v, n: admissible(v, anchor_v[n]), config.max_iterations, what)
    notes = []
    if anchor_s.limit() != 0.0:
        notes.append(f"anchor weights {label} do not vanish; strong convergence not guaranteed")
    if not anchor_s.sum_diverges():
        notes.append(f"anchor weights {label} are summable; strong convergence not guaranteed")
    if outpaces_anchor and second_s.decay_exponent() <= anchor_s.decay_exponent():
        notes.append(f"{what} {second_label} does not vanish faster than anchor weights {label}")
    if anchor_k or second_k:
        notes.append(f"schedules start at shifted indices ({anchor} {anchor_k}, {second} {second_k})")
    return anchor_v, second_v, notes


def uniform_start(grid, trips: TripTable, paths_by_od: Mapping[str, np.ndarray]) -> PathFlowProfile:
    """Feasible start: each O-D demand split evenly over its paths and time.

    The profile stores one rate per path, a (paths, 1) column, and its rates
    are a read-only broadcast of that column over the intervals, so a start
    held through a solve costs P floats, not P x K.
    """
    num_paths = sum(len(rows) for rows in paths_by_od.values())
    rate = np.zeros((num_paths, 1))
    horizon = grid.t1 - grid.t0
    for od, rows in paths_by_od.items():
        rate[np.asarray(rows, dtype=int)] = trips.demands[od] / (len(rows) * horizon)
    return PathFlowProfile(grid, np.broadcast_to(rate, (num_paths, grid.num_intervals)))


# An update rule checks its config and returns its header notes and `steps`: a
# generator of (iterate, tau, alpha, beta, residual, energy), one per iteration.
# The first iterate `h` may be a read-only broadcast (`uniform_start`); the
# rules read it only elementwise and through `norm`.

def _fb(config: SolverConfig):
    """Projected gradient with a fixed step; one operator call per iteration."""
    tau = config.tau_fixed if config.tau_fixed is not None else config.tau0
    if not tau > 0:
        raise ConfigurationError(f"fb needs a positive fixed step, got {tau}")

    def steps(evaluate, project, h, dt):
        while True:
            y = project(_forward(h, evaluate(h), tau))
            step = norm(h - y, dt)  # also ||y - h||, as h - y is exactly -(y - h)
            yield y, tau, math.nan, math.nan, step, relative_step(step, h, dt)
            h = y
    return [], steps


def _fbf(config: SolverConfig):
    """Anchored forward-backward-forward; two operator calls per iteration."""
    alphas, betas, notes = _check_anchor_schedules(
        config, "alpha", "beta", "relaxation", lambda v, a: 0 < v < 1 - a, outpaces_anchor=False)

    def steps(evaluate, project, h, dt):
        tau = config.tau0
        for a_n, b_n in zip(alphas, betas):
            ah = evaluate(h)
            y = project(_forward(h, ah, tau))
            ay = evaluate(y)
            z = y + tau * (ah - ay)
            h_next = (1.0 - a_n - b_n) * h + b_n * z
            residual = norm(h - y, dt)
            energy = relative_step(norm(h_next - h, dt), h, dt)
            tau_next = _adaptive_step(tau, config.mu, residual, ah, ay, dt)
            yield h_next, tau, a_n, b_n, residual, energy
            h, tau = h_next, tau_next
    return notes, steps


def _ifbf(config: SolverConfig):
    """Inertial forward-backward-forward; two operator calls per iteration."""
    betas, eps, notes = _check_anchor_schedules(
        config, "beta", "eps", "inertia budget", lambda v, a: v > 0, outpaces_anchor=True)

    def steps(evaluate, project, h, dt):
        h_prev, tau, alpha_n = h, config.tau0, config.alpha
        for b_n, eps_next in zip(betas, eps[1:]):
            # full-size arrays are built in place, with one temporary at most:
            # w = (1 - b_n) (h + alpha_n (h - h_prev))
            w = h - h_prev
            w *= alpha_n
            w += h
            w *= 1.0 - b_n
            aw = evaluate(w)
            y = project(_forward(w, aw, tau))
            ay = evaluate(y)
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
            # no cap at a zero step: the iterates are equal, or so close that
            # the squares of their differences underflow
            alpha_next = config.alpha if step == 0.0 else min(config.alpha, eps_next / step)
            yield h_next, tau, alpha_n, b_n, residual, energy
            h_prev, h = h, h_next
            tau, alpha_n = tau_next, alpha_next
    return notes, steps


def solve(
    op: DelayOperator,
    config: SolverConfig,
    h0: PathFlowProfile,
    trips: TripTable,
    paths_by_od: Mapping[str, np.ndarray],
) -> tuple[PathFlowProfile, ConvergenceLog]:
    """Run `config.algorithm` from h0 for at most `max_iterations`, stopping at
    the first residual within `tolerance`.  A DueError raised inside carries
    `log`, the iterations recorded so far.  The anchored variants' last
    iterate is projected once, with none of the loop's arrays alive."""
    notes, steps = {"fb": _fb, "fbf": _fbf, "ifbf": _ifbf}[config.algorithm](config)
    header = {
        "algorithm": config.algorithm,
        "max_iterations": config.max_iterations,
        "tolerance": config.tolerance,
        "mu": config.mu,
        "lambda": config.lam,
        "alpha": config.alpha,
        "tau0": config.tau0,
        "operator_calls_at_start": op.eval_count,
        "notes": notes + ["operator regularity (Lipschitz continuity, pseudo-monotonicity) "
                          "is assumed, not verified at runtime"],
    }
    log = ConvergenceLog(config.algorithm, header=header)
    grid = h0.grid
    layout = ODLayout.build(trips, paths_by_od, grid)
    h = h0.rates
    # the projection is looked up each call, so a wrapped `project_feasible` sees it
    iterates = steps(lambda x: op.evaluate(PathFlowProfile(grid, x)).delays,
                     lambda x: project_feasible(x, layout), h, grid.dt)
    try:
        # the count runs out first, so no operator call follows the last record
        for n, (h, tau, alpha, beta, residual, energy) in zip(range(config.max_iterations),
                                                              iterates):
            log.append(IterationRecord(n, tau, alpha, beta, residual, energy, op.eval_count))
            if config.tolerance > 0 and residual <= config.tolerance:
                log.stop_reason = "residual_tolerance"
                break
    except DueError as exc:
        exc.log = log
        raise
    iterates.close()  # frees the loop's arrays before the final projection
    if config.algorithm != "fb":
        h = project_feasible(h, layout)
    return PathFlowProfile(grid, h), log
