"""Checks of the program's outputs, made without importing the program.

Each check takes what it needs and returns None when the output passes, or
a one-line reason when it does not.  A check that meets a cell which is not
a plain number raises `NonNumericCell`: `run.py` counts that check as a
failed operation, since the artifact itself is at fault.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from inputs import read_table

REL = 1e-9  # relative tolerance of recomputed quantities
ABS_HOURS = 1e-9  # absolute tolerance of times, in hours
GAP_SUPPORT = 1e-6  # a cell counts as used above this share of the largest rate


class NonNumericCell(ValueError):
    pass


def numbers(cells: list[str], where: str) -> np.ndarray:
    """Cells parsed strictly as finite floats."""
    try:
        out = np.array(cells, dtype=np.float64)
    except ValueError:
        bad = next(c for c in cells if not _is_number(c))
        raise NonNumericCell(f"{where}: cell {bad!r} is not a number") from None
    if not np.all(np.isfinite(out)):
        raise NonNumericCell(f"{where}: non-finite cell")
    return out


def _is_number(cell: str) -> bool:
    try:
        np.float64(cell)
    except ValueError:
        return False
    return True


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class Instance:
    """What the checks need from a generated instance and its run config."""

    def __init__(self, net_dir: Path, config: dict):
        self.gamma = float(config.get("gamma", 1.0))
        g = config["grid"]
        self.t0, self.k = float(g["t0"]), int(g["num_intervals"])
        self.dt = (float(g["t1"]) - self.t0) / self.k
        self.starts = self.t0 + self.dt * np.arange(self.k)
        units = (net_dir / "links.csv").read_text(encoding="utf-8").splitlines()[0]
        if "time=h" not in units or "distance=km" not in units:
            raise ValueError(f"links.csv of {net_dir} is not in hours and kilometres")
        ff = {r[0]: float(r[3]) / float(r[4]) for r in read_table(net_dir / "links.csv")}
        ods = read_table(net_dir / "od.csv")
        self.od_ids = [r[0] for r in ods]
        self.demand = {r[0]: float(r[3]) for r in ods}
        self.target = {r[0]: float(r[4]) for r in ods}
        paths = read_table(net_dir / "paths.csv")
        self.path_ids = [r[0] for r in paths]
        self.path_od = [r[1] for r in paths]
        self.free_flow = np.array([sum(ff[e] for e in r[2:]) for r in paths])
        self.rows_by_od = {od: [] for od in self.od_ids}
        for i, od in enumerate(self.path_od):
            self.rows_by_od[od].append(i)


def _matrix(inst: Instance, path: Path, columns: list[str]) -> list[np.ndarray]:
    """Named numeric columns of a (path, interval) CSV as matrices."""
    header, rows = read_rows(path)
    if len(rows) != len(inst.path_ids) * inst.k:
        raise ValueError(f"{path.name}: {len(rows)} rows, expected "
                         f"{len(inst.path_ids)} x {inst.k}")
    expect = [[p, od, str(k)] for p, od in zip(inst.path_ids, inst.path_od)
              for k in range(inst.k)]
    if [r[:3] for r in rows] != expect:
        raise ValueError(f"{path.name}: rows are not (path, interval) in instance order")
    out = []
    for name in columns:
        j = header.index(name)
        out.append(numbers([r[j] for r in rows], f"{path.name}:{name}")
                   .reshape(len(inst.path_ids), inst.k))
    return out


class Outputs:
    """The artifacts of one `due run`, each CSV parsed at most once.

    A parse failure is kept too, so every check that needs the file fails
    for the same reason without reading it again.
    """

    def __init__(self, inst: Instance, art: Path):
        self.inst = inst
        self.art = art
        self._parsed: dict[str, object] = {}

    def _get(self, name: str, columns: list[str]) -> list[np.ndarray]:
        if name not in self._parsed:
            try:
                self._parsed[name] = _matrix(self.inst, self.art / name, columns)
            except ValueError as exc:
                self._parsed[name] = exc
        got = self._parsed[name]
        if isinstance(got, Exception):
            raise got
        return got

    def flows(self) -> np.ndarray:
        return self._get("final_flows.csv", ["rate"])[0]

    def delays(self) -> tuple[np.ndarray, np.ndarray]:
        d, eff = self._get("final_delays.csv", ["delay", "effective_delay"])
        return d, eff


# -- DNL checks ------------------------------------------------------------------


def check_mass(out: Outputs):
    inst, rate = out.inst, out.flows()
    if rate.min() < 0:
        return f"negative rate {float(rate.min())!r}"
    for od, rows in inst.rows_by_od.items():
        mass = rate[rows].sum() * inst.dt
        if abs(mass - inst.demand[od]) > REL * inst.demand[od]:
            return f"O-D {od}: departing mass {float(mass)!r} != demand {inst.demand[od]!r}"
    return None


def check_free_flow(out: Outputs):
    inst, (d, _eff) = out.inst, out.delays()
    short = d - inst.free_flow[:, None]
    if short.min() < -ABS_HOURS:
        r, k = np.unravel_index(np.argmin(short), short.shape)
        return (f"path {inst.path_ids[r]} interval {k}: delay {float(d[r, k])!r} below its "
                f"free-flow time {float(inst.free_flow[r])!r}")
    return None


def expected_effective(inst: Instance, d: np.ndarray) -> np.ndarray:
    target = np.array([inst.target[od] for od in inst.path_od])
    return d + inst.gamma * np.maximum(inst.starts[None, :] + d - target[:, None], 0.0)


def check_effective(out: Outputs):
    inst, (d, eff) = out.inst, out.delays()
    err = np.abs(eff - expected_effective(inst, d)) - REL * np.maximum(1.0, np.abs(eff))
    if err.max() > 0:
        r, k = np.unravel_index(np.argmax(err), err.shape)
        return f"path {inst.path_ids[r]} interval {k}: effective delay {float(eff[r, k])!r} is off"
    return None


def check_fifo(out: Outputs):
    inst, (d, _eff) = out.inst, out.delays()
    drop = np.diff(inst.starts[None, :] + d, axis=1)
    if drop.size and drop.min() < -ABS_HOURS:
        r, k = np.unravel_index(np.argmin(drop), drop.shape)
        return f"path {inst.path_ids[r]}: arrival time falls after interval {k}"
    return None


def check_gaps(out: Outputs):
    inst, rate, (_d, eff) = out.inst, out.flows(), out.delays()
    _header, rows = read_rows(out.art / "od_gaps.csv")
    written = dict(zip([r[0] for r in rows], numbers([r[1] for r in rows], "od_gaps.csv")))
    if sorted(written) != sorted(inst.od_ids):
        return "od_gaps.csv does not list every O-D pair once"
    used = rate > GAP_SUPPORT * rate.max(initial=0.0)
    for od, rows_ in inst.rows_by_od.items():
        u, e = used[rows_], eff[rows_]
        gap = max(float(e[u].max() - e[u].min()), 0.0) if u.any() else 0.0
        if abs(gap - written[od]) > REL * max(1.0, abs(gap)):
            return f"O-D {od}: gap {float(written[od])!r} written, {gap!r} recomputed"
    return None


def check_iterations(out: Outputs, iterations: int):
    header, rows = read_rows(out.art / "iterations.csv")
    n = numbers([r[header.index("n")] for r in rows], "iterations.csv:n")
    tau = numbers([r[header.index("tau")] for r in rows], "iterations.csv:tau")
    calls = numbers([r[header.index("operator_calls")] for r in rows],
                    "iterations.csv:operator_calls")
    if len(rows) != iterations or not np.array_equal(n, np.arange(iterations)):
        return f"{len(rows)} iterations logged, expected {iterations}"
    if not np.array_equal(calls, 2 * (n + 1)):
        return f"operator calls {calls.tolist()} != 2(n+1)"
    if tau.min() <= 0 or np.any(np.diff(tau) > 0):
        return f"step sizes {tau.tolist()} not positive and non-increasing"
    return None


ARTIFACTS = ("iterations.csv", "final_flows.csv", "final_delays.csv", "od_gaps.csv")


def digest(art: Path) -> str:
    h = hashlib.sha256()
    for name in ARTIFACTS:
        h.update(name.encode())
        h.update((art / name).read_bytes())
    return h.hexdigest()


def check_same(art_a: Path, art_b: Path):
    a, b = digest(art_a), digest(art_b)
    return None if a == b else f"artifacts differ between two runs of one seed ({a[:12]} vs {b[:12]})"


def dnl_checks(iterations: int) -> dict:
    """Check name -> function of the `Outputs` of one run."""
    return {
        "mass": check_mass,
        "free_flow": check_free_flow,
        "effective_delay": check_effective,
        "fifo": check_fifo,
        "od_gaps": check_gaps,
        "iterations": lambda out: check_iterations(out, iterations),
    }


# -- VI checks -------------------------------------------------------------------


def vi_checks(info: dict, solver: dict) -> dict:
    """Check name -> function of the solver output (h, tau, calls, evaluations).

    `info` holds the generated inputs (`inputs.make_vi`), `solver` the
    solver parameters of the run.
    """
    h_star, h0, d = info["h_star"], info["h0"], info["d"]
    blocks, demands, dt = info["blocks"], info["demands"], info["dt"]
    tau0, mu, iterations = solver["tau0"], solver["mu"], solver["max_iterations"]

    def converged(out):
        ratio = np.linalg.norm(out["h"] - h_star) / np.linalg.norm(h0 - h_star)
        return None if ratio < 1e-2 else f"|h_N - h*| / |h_0 - h*| = {float(ratio)!r}"

    def step_floor(out):
        tau = out["tau"]
        floor = min(tau0, mu / float(d.max()))
        if np.any(np.diff(tau) > 0):
            return "step size increased"
        return None if tau.min() >= floor * (1 - 1e-12) else f"step {float(tau.min())!r} < floor {floor!r}"

    def feasible(out):
        h = out["h"]
        if h.min() < 0:
            return f"negative rate {float(h.min())!r}"
        for rows, q in zip(blocks, demands):
            if abs(h[rows].sum() * dt - q) > REL * q:
                return f"block mass {float(h[rows].sum() * dt)!r} != demand {float(q)!r}"
        return None

    def two_evaluations(out):
        calls = out["calls"]
        if int(out["evaluations"]) != 2 * iterations or len(calls) != iterations:
            return f"{int(out['evaluations'])} evaluations in {len(calls)} iterations"
        if not np.array_equal(calls, 2 * np.arange(1, iterations + 1)):
            return "operator calls per iteration are not two"
        return None

    return {"converged": converged, "step_floor": step_floor, "feasible": feasible,
            "two_evaluations": two_evaluations}
