"""Seeded inputs of the three workloads, made from the shipped instances.

Everything here is a function of (workload, seed); the program under test
only ever sees the files these functions write.  Random draws use
`numpy.random.default_rng([seed, stream])`, one stream per purpose, so
adding a draw to one stream leaves the others unchanged.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

JITTER_STREAM, HSTAR_STREAM, D_STREAM, START_STREAM = 1, 2, 3, 4

# workload -> (instance, shipped config, demand scale, ifbf iterations)
DNL_WORKLOADS = {
    "nguyen_queued": ("nguyen", "nguyen_ifbf.json", 1.5, 10),
    "siouxfalls_q25": ("siouxfalls", "siouxfalls_ifbf.json", 0.25, 1),
}
JITTER = 0.1  # each O-D demand is scaled by demand_scale * U(1 - JITTER, 1 + JITTER)

VI_INSTANCE = "siouxfalls"
VI_INTERVALS = 10
VI_ITERATIONS = 250
VI_D_RANGE = (0.5, 2.0)
VI_SOLVER = {
    "algorithm": "ifbf", "max_iterations": VI_ITERATIONS, "tau0": 2000.0, "mu": 0.5,
    "lambda": 0.5, "alpha": 0.7, "beta_n": "pow(10, -2, 1)", "eps_n": "pow(1, -5, 32)",
}
VI_GRID = {"t0": 0.0, "t1": 2.0, "num_intervals": VI_INTERVALS}

WORKLOADS = (*DNL_WORKLOADS, "vi_siouxfalls")


def read_table(path: Path) -> list[list[str]]:
    """Data rows of an instance CSV (comment lines and the header dropped)."""
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    return rows[1:]


def copy_instance(src: Path, dst: Path, demand_scale: np.ndarray | None = None) -> None:
    dst.mkdir(parents=True, exist_ok=True)
    for name in ("nodes.csv", "links.csv", "paths.csv"):
        shutil.copyfile(src / name, dst / name)
    lines = (src / "od.csv").read_text(encoding="utf-8").splitlines()
    out, i = [], 0
    for line in lines:
        cells = line.split(",")
        if demand_scale is None or line.lstrip().startswith("#") or cells[0] == "od_id":
            out.append(line)
            continue
        cells[3] = repr(float(cells[3]) * float(demand_scale[i]))
        out.append(",".join(cells))
        i += 1
    (dst / "od.csv").write_text("\n".join(out) + "\n", encoding="utf-8")


def make_dnl(root: Path, workload: str, seed: int, work: Path) -> dict:
    """Instance plus two identical run configs (outputs `art_a`, `art_b`)."""
    instance, config_name, scale, iterations = DNL_WORKLOADS[workload]
    src = root / "data" / instance
    num_od = len(read_table(src / "od.csv"))
    rng = np.random.default_rng([seed, JITTER_STREAM])
    factors = scale * rng.uniform(1 - JITTER, 1 + JITTER, size=num_od)
    copy_instance(src, work / "net", factors)

    cfg = json.loads((root / "configs" / config_name).read_text(encoding="utf-8"))
    cfg.pop("_comment", None)
    cfg["network_dir"] = "net"
    cfg["solver"]["max_iterations"] = iterations
    configs = {}
    for side in ("a", "b"):
        cfg["output_dir"] = f"art_{side}"
        path = work / f"run_{side}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        configs[side] = str(path)
    return {"kind": "dnl", "configs": configs, "config": cfg}


def feasible_profile(rng, blocks: list[np.ndarray], demands: np.ndarray,
                     num_paths: int, dt: float, low: float) -> np.ndarray:
    """Positive rates whose O-D blocks each carry their demand."""
    h = np.empty((num_paths, VI_INTERVALS))
    for rows, q in zip(blocks, demands):
        w = rng.uniform(low, 1.0, size=(rows.size, VI_INTERVALS))
        h[rows] = w * (q / dt / w.sum())
    return h


def make_vi(root: Path, seed: int, work: Path) -> dict:
    """Sioux Falls O-D blocks, a seeded solution h*, weights D and a start."""
    copy_instance(root / "data" / VI_INSTANCE, work / "net")
    od_rows = read_table(work / "net" / "od.csv")
    path_rows = read_table(work / "net" / "paths.csv")
    od_index = {row[0]: i for i, row in enumerate(od_rows)}
    members: list[list[int]] = [[] for _ in od_rows]
    for r, row in enumerate(path_rows):
        members[od_index[row[1]]].append(r)
    blocks = [np.array(m) for m in members]
    demands = np.array([float(row[3]) for row in od_rows])
    dt = (VI_GRID["t1"] - VI_GRID["t0"]) / VI_INTERVALS
    num_paths = len(path_rows)

    h_star = feasible_profile(np.random.default_rng([seed, HSTAR_STREAM]), blocks, demands,
                              num_paths, dt, low=0.2)
    d = np.random.default_rng([seed, D_STREAM]).uniform(*VI_D_RANGE,
                                                        size=(num_paths, VI_INTERVALS))
    h0 = feasible_profile(np.random.default_rng([seed, START_STREAM]), blocks, demands,
                          num_paths, dt, low=0.0)
    np.savez(work / "vi_inputs.npz", h_star=h_star, d=d, h0=h0)
    spec = {"network_dir": "net", "grid": VI_GRID, "solver": VI_SOLVER}
    (work / "vi.json").write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return {"kind": "vi", "spec": str(work / "vi.json"), "blocks": blocks,
            "demands": demands, "dt": dt, "h_star": h_star, "d": d, "h0": h0}


def make_inputs(root: Path, workload: str, seed: int, work: Path) -> dict:
    if workload in DNL_WORKLOADS:
        return make_dnl(root, workload, seed, work)
    return make_vi(root, seed, work)
