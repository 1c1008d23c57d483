"""Independent reference computations used across the test suite.

These deliberately avoid the code paths they check: the projection oracle
enumerates KKT candidates instead of running the cumulative threshold scan,
and the small-instance variant enumerates every support subset outright.
The junction reference is written over (demands, supplies, split matrix)
rather than over the engine's per-approach slot amounts.  The path-delay
reference probes one path at a time instead of one (hop, link) group.
"""

from __future__ import annotations

import itertools

import numpy as np

from due.errors import UnfinishedTripError


def qp_simplex_projection_active_set(y: np.ndarray, total: float) -> np.ndarray:
    """Solve min ||x - y||^2 s.t. x >= 0, sum(x) = total by checking the KKT
    system on every sorted-prefix support.

    For each candidate support size s (taken from the descending sort of y),
    the equality multiplier is fixed by the mass constraint; the candidate is
    accepted only if it satisfies primal feasibility on the support and dual
    feasibility off it.  Exactly one support size passes (up to ties).
    """
    n = y.size
    order = np.argsort(-y)
    u = y[order]
    for s in range(n, 0, -1):
        theta = (u[:s].sum() - total) / s
        x_support = u[:s] - theta
        if x_support[-1] < 0:
            continue
        if s < n and u[s] - theta > 1e-15 * max(1.0, abs(theta)):
            continue
        x = np.zeros(n)
        x[order[:s]] = x_support
        return x
    raise AssertionError("no KKT-consistent support found")


def qp_simplex_projection_subsets(y: np.ndarray, total: float) -> np.ndarray:
    """Same QP solved by full enumeration of 2^n - 1 supports (small n only)."""
    n = y.size
    best = None
    best_val = np.inf
    for r in range(1, n + 1):
        for support in itertools.combinations(range(n), r):
            idx = list(support)
            theta = (y[idx].sum() - total) / r
            x = np.zeros(n)
            x[idx] = y[idx] - theta
            if np.any(x[idx] < -1e-12):
                continue
            val = np.sum((x - y) ** 2)
            if val < best_val - 1e-15:
                best_val = val
                best = x
    assert best is not None
    return best


def brute_force_inner(f_rates: np.ndarray, g_rates: np.ndarray, dt: float) -> float:
    """Triple-loop summation of the discretized scalar product."""
    acc = 0.0
    for p in range(f_rates.shape[0]):
        for k in range(f_rates.shape[1]):
            acc += f_rates[p, k] * g_rates[p, k] * dt
    return acc


def junction_flows(
    demands: np.ndarray, supplies: np.ndarray, split: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve boundary flows at one junction.

    demands: sending flows of the m incoming approaches.
    supplies: receiving flows of the n outgoing links (may contain inf).
    split: m x n row-stochastic turning fractions for rows with demand.

    Each incoming approach keeps a single reduction factor (FIFO across its
    turning movements); binding outgoing supplies are relaxed by scaling all
    their contributors proportionally, most violated first.  Returns the
    approach outflows and the outgoing inflows.
    """
    d = np.asarray(demands, dtype=float)
    s = np.asarray(supplies, dtype=float)
    w = np.atleast_2d(np.asarray(split, dtype=float))
    m, n = w.shape
    theta = np.ones(m)
    for _ in range(n + 1):
        totals = (theta * d) @ w
        over = totals - s
        mask = over > 1e-12 * np.maximum(s, 1.0)
        if not np.any(mask):
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(mask, np.where(s > 0, totals / s, np.inf), 0.0)
        j = int(np.argmax(ratios))
        scale = s[j] / totals[j] if totals[j] > 0 else 0.0
        theta[w[:, j] > 0] *= scale
    f_out = theta * d
    return f_out, f_out @ w


def path_delays_by_path(res) -> np.ndarray:
    """Path delays of a `LoadingResult`, probed one path at a time.

    Each path rides its origin queue's curves and then `probe_link_exit` link
    by link.  The first path row with an unfinished probe raises, at its first
    failing hop.
    """
    eng = res.engine
    starts = eng.grid.starts()
    intervals = np.arange(starts.size)
    queue_of = {int(r): qi for qi, q in enumerate(eng.queues) for r in q.rows}
    out = np.empty((eng.num_paths, starts.size))
    for r, path in enumerate(eng.net.paths):
        qi = queue_of[r]
        s, unfinished = res._probe_exit(res.q_arrivals[qi], res.q_releases[qi], starts, 0.0)
        if np.any(unfinished):
            raise UnfinishedTripError(path.id, int(np.argmax(unfinished)))
        for lid in path.links:
            s = res.probe_link_exit(eng.index_of[lid], s, path.id, intervals)
        out[r] = s - starts
    return out
