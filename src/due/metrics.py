"""Equilibrium-quality and convergence diagnostics."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .space import DelayProfile, PathFlowProfile, norm

__all__ = ["IterationRecord", "ConvergenceLog", "od_gap"]


@dataclass(frozen=True)
class IterationRecord:
    n: int
    tau: float
    alpha: float
    beta: float
    residual: float
    energy: float
    operator_calls: int


@dataclass
class ConvergenceLog:
    """Per-iteration trace of one solver run.

    Records carry no wall times, so identical configs produce bitwise-identical
    CSVs; the run's wall time lives in the JSON summary.
    """

    algorithm: str
    header: dict = field(default_factory=dict)
    records: list[IterationRecord] = field(default_factory=list)
    stop_reason: str = "max_iterations"
    final_gaps: dict[str, float] | None = None

    def append(self, record: IterationRecord) -> None:
        if self.records and record.n <= self.records[-1].n:
            raise ValidationError("iteration indices must be strictly increasing")
        self.records.append(record)

    @property
    def iterations(self) -> int:
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records], dtype=float)

    CSV_FIELDS = ("n", "tau", "alpha", "beta", "residual", "energy", "operator_calls")

    def summary(self) -> dict:
        out = {
            "algorithm": self.algorithm,
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "header": self.header,
        }
        if self.records:
            out["final_residual"] = self.records[-1].residual
            out["final_energy"] = self.records[-1].energy
            out["operator_calls"] = self.records[-1].operator_calls
            out["final_tau"] = self.records[-1].tau
        if self.final_gaps is not None:
            gaps = sorted(self.final_gaps.values())
            out["gap_min"] = gaps[0]
            out["gap_median"] = gaps[len(gaps) // 2]
            out["gap_max"] = gaps[-1]
        return out


def relative_step(step: float, h_curr: np.ndarray, dt: float) -> float:
    """A step's norm relative to the norm of `h_curr`; nan when that is zero."""
    base = norm(h_curr, dt)
    if base == 0.0:
        return math.nan
    return step / base


def od_gap(
    h: PathFlowProfile,
    ah: DelayProfile,
    paths_by_od: Mapping[str, np.ndarray],
    eps_support: float | None = None,
    strict: bool = False,
) -> dict[str, float]:
    """Spread (max - min) of effective delays over the used cells of each O-D.

    A cell (path, interval) counts as used when its rate exceeds eps_support,
    which defaults to 1e-6 times the largest rate in the profile.  With
    strict=True the minimum additionally ranges over unused cells, a sharper
    merit that also penalizes ignored cheaper departure options.
    """
    if h.grid != ah.grid or h.rates.shape != ah.delays.shape:
        raise ValidationError("flow and delay profiles are incompatible")
    if eps_support is None:
        eps_support = 1e-6 * float(h.rates.max(initial=0.0))
    gaps: dict[str, float] = {}
    for od, rows in paths_by_od.items():
        rows = np.asarray(rows, dtype=int)
        block_rates = h.rates[rows]
        block_delays = ah.delays[rows]
        used = block_rates > eps_support
        if not used.any():
            warnings.warn(
                f"O-D pair {od!r} has demand but no used departure cell; gap set to 0",
                RuntimeWarning,
                stacklevel=2,
            )
            gaps[od] = 0.0
            continue
        hi = float(block_delays[used].max())
        lo = float(block_delays.min()) if strict else float(block_delays[used].min())
        gaps[od] = max(hi - lo, 0.0)
    return gaps


