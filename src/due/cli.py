"""Batch experiment driver.

Subcommands:

  due run -c config.json [--dump-dnl]   load, solve, write artifacts
  due validate NETWORK_DIR              structural checks, no solving
  due compare -c a.json -c b.json ...   aligned convergence + gap tables

Configs are strict JSON: unknown keys are errors (keys starting with an
underscore are treated as comments).  All CSV outputs are written atomically
and are bitwise reproducible for identical configs; wall-clock timing only
ever lands in the JSON summaries.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigurationError, DueError, ParseError
from .loading import effective_delay, run_dnl
from .metrics import ConvergenceLog, od_gap
from .network import Network, load_network_dir, validate_network
from .operators import dnl_operator
from .solvers import SolverConfig, solve, uniform_start
from .space import TimeGrid

EXIT_CODES = {"parse": 2, "validation": 3, "config": 4, "numeric": 5}


# --------------------------------------------------------------------------
# config handling


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    unknown = [k for k in section if k not in allowed and not k.startswith("_")]
    if unknown:
        raise ConfigurationError(f"unknown key(s) {unknown} in {where}")


@dataclass
class RunConfig:
    network_dir: Path
    grid: TimeGrid
    solver: SolverConfig
    gamma: float
    horizon_buffer: float | None
    output_dir: Path
    dump_dnl: bool = False

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise ParseError(f"{path}: config file not found")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from None
        return cls.from_dict(raw, base_dir=path.parent, where=str(path))

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path = Path("."), where: str = "config") -> "RunConfig":
        _reject_unknown(
            raw,
            {"network_dir", "grid", "solver", "gamma", "horizon_buffer",
             "output_dir", "dump_dnl"},
            where,
        )
        for key in ("network_dir", "grid", "solver", "output_dir"):
            if key not in raw:
                raise ConfigurationError(f"missing key {key!r} in {where}")

        gspec = raw["grid"]
        _reject_unknown(gspec, {"t0", "t1", "num_intervals", "dt_seconds"}, f"{where}:grid")
        t0 = float(gspec.get("t0", 0.0))
        if "t1" not in gspec:
            raise ConfigurationError(f"{where}:grid needs t1")
        t1 = float(gspec["t1"])
        has_k = "num_intervals" in gspec
        has_dt = "dt_seconds" in gspec
        if has_k == has_dt:
            raise ConfigurationError(
                f"{where}:grid needs exactly one of num_intervals or dt_seconds"
            )
        if has_k:
            k = int(gspec["num_intervals"])
        else:
            dt_h = float(gspec["dt_seconds"]) / 3600.0
            k_float = (t1 - t0) / dt_h
            k = round(k_float)
            if abs(k_float - k) > 1e-9 * max(1.0, abs(k_float)) or k < 1:
                raise ConfigurationError(
                    f"{where}:grid dt_seconds does not divide the horizon "
                    f"({k_float} intervals)"
                )
        grid = TimeGrid(t0, t1, k)

        sspec = raw["solver"]
        _reject_unknown(
            sspec,
            {"algorithm", "max_iterations", "tolerance", "tau0", "tau", "mu",
             "lambda", "alpha", "alpha_n", "beta_n", "eps_n"},
            f"{where}:solver",
        )
        solver = SolverConfig(
            algorithm=sspec.get("algorithm", "ifbf"),
            max_iterations=int(sspec.get("max_iterations", 100)),
            tolerance=float(sspec.get("tolerance", 0.0)),
            tau0=float(sspec.get("tau0", 1.0)),
            tau_fixed=float(sspec["tau"]) if "tau" in sspec else None,
            mu=float(sspec.get("mu", 0.5)),
            lam=float(sspec.get("lambda", 0.5)),
            alpha=float(sspec.get("alpha", 0.7)),
            alpha_schedule=sspec.get("alpha_n"),
            beta_schedule=sspec.get("beta_n"),
            eps_schedule=sspec.get("eps_n"),
        )

        network_dir = (base_dir / raw["network_dir"]).resolve() \
            if not Path(raw["network_dir"]).is_absolute() else Path(raw["network_dir"])
        output_dir = (base_dir / raw["output_dir"]).resolve() \
            if not Path(raw["output_dir"]).is_absolute() else Path(raw["output_dir"])
        return cls(
            network_dir=network_dir,
            grid=grid,
            solver=solver,
            gamma=float(raw.get("gamma", 1.0)),
            horizon_buffer=float(raw["horizon_buffer"]) if "horizon_buffer" in raw else None,
            output_dir=output_dir,
            dump_dnl=bool(raw.get("dump_dnl", False)),
        )


# --------------------------------------------------------------------------
# atomic output helpers


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


# CSV cells are formatted from Python floats (`.tolist()`), because the repr
# of a numpy scalar reads `np.float64(...)` under numpy 2
def _csv_lines(prefix: str, cells: list[str], *columns: list[float]) -> Iterator[str]:
    """One line per entry of `cells`: `prefix`, the cell, then the matching
    value of each column as its `repr`, comma-separated."""
    parts = [repeat(prefix), cells, map(repr, columns[0])]
    for c in columns[1:]:
        parts += [repeat(","), map(repr, c)]
    return map("".join, zip(*parts))


def _interval_cells(grid: TimeGrid) -> list[str]:
    """The `interval,t_start,` cells of each departure interval."""
    return [f"{k},{t!r}," for k, t in enumerate(grid.starts().tolist())]


def _write_flow_csv(path: Path, net: Network, grid: TimeGrid, rates: np.ndarray) -> None:
    lines = ["path_id,od_id,interval,t_start,rate"]
    cells = _interval_cells(grid)
    for p, row in zip(net.paths, rates.tolist()):
        lines += _csv_lines(f"{p.id},{p.od},", cells, row)
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_delay_csv(path: Path, net: Network, grid: TimeGrid,
                     delays: np.ndarray, effective: np.ndarray) -> None:
    lines = ["path_id,od_id,interval,t_start,delay,effective_delay"]
    cells = _interval_cells(grid)
    for p, d, a in zip(net.paths, delays.tolist(), effective.tolist()):
        lines += _csv_lines(f"{p.id},{p.od},", cells, d, a)
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_gaps_csv(path: Path, gaps: dict) -> None:
    lines = ["od_id,gap"]
    for od in sorted(gaps):
        lines.append(f"{od},{gaps[od]!r}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _dump_dnl(outdir: Path, result) -> None:
    engine = result.engine
    cells = [f"{t!r}," for t in result.grid_ext.boundaries().tolist()]
    lines = ["link_id,t,n_up,n_down"]
    for lid, up, down in zip(engine.link_ids, result.n_up.tolist(), result.n_down.tolist()):
        lines += _csv_lines(f"{lid},", cells, up, down)
    _atomic_write(outdir / "dnl_curves.csv", "\n".join(lines) + "\n")
    lines = ["origin,link_id,t,arrivals,releases,queue"]
    queues = (result.q_arrivals - result.q_releases).tolist()
    for q, arr, rel, queue in zip(engine.queues, result.q_arrivals.tolist(),
                                  result.q_releases.tolist(), queues):
        lines += _csv_lines(f"{q.node},{engine.link_ids[q.link_idx]},", cells, arr, rel, queue)
    _atomic_write(outdir / "dnl_queues.csv", "\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# subcommands


def _execute_run(cfg: RunConfig) -> tuple[dict, ConvergenceLog]:
    """Solve one configuration and write all artifacts; returns the summary
    and the convergence log, which carries the final O-D gaps."""
    t_begin = time.perf_counter()
    net = load_network_dir(cfg.network_dir)
    by_od = net.path_rows_by_od()
    op = dnl_operator(net, cfg.grid, gamma=cfg.gamma, buffer=cfg.horizon_buffer)
    h0 = uniform_start(cfg.grid, net.trips, by_od)
    h_final, log = solve(op, cfg.solver, h0, net.trips, by_od)

    # final reporting loads once more outside the operator-call accounting
    result = run_dnl(h_final, net, cfg.grid, buffer=cfg.horizon_buffer)
    delays = result.path_delays()
    eff = effective_delay(delays, cfg.grid, net.trips, net.od_by_path(), cfg.gamma)
    gaps = od_gap(h_final, eff, by_od)
    log.final_gaps = gaps

    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "iterations.csv", log.csv_text())
    _write_flow_csv(out / "final_flows.csv", net, cfg.grid, h_final.rates)
    _write_delay_csv(out / "final_delays.csv", net, cfg.grid, delays, eff.delays)
    _write_gaps_csv(out / "od_gaps.csv", gaps)
    if cfg.dump_dnl:
        _dump_dnl(out, result)

    summary = log.summary()
    summary["network_dir"] = str(cfg.network_dir)
    summary["grid"] = {"t0": cfg.grid.t0, "t1": cfg.grid.t1,
                       "num_intervals": cfg.grid.num_intervals}
    summary["gamma"] = cfg.gamma
    summary["operator_evaluations"] = op.eval_count
    summary["total_wall_time"] = time.perf_counter() - t_begin
    _atomic_write(out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary, log


def cmd_run(config_path, dump_dnl: bool | None = None) -> int:
    cfg = RunConfig.from_file(config_path)
    if dump_dnl is not None and dump_dnl:
        cfg.dump_dnl = True
    summary, _log = _execute_run(cfg)
    print(f"run complete: {summary['iterations']} iterations, "
          f"stop={summary['stop_reason']}, artifacts in {cfg.output_dir}")
    return 0


def cmd_validate(network_dir) -> int:
    report = validate_network(load_network_dir(network_dir))
    width = max(len(name) for name, _ok, _d in report)
    failures = 0
    for name, ok, detail in report:
        mark = "pass" if ok else "FAIL"
        line = f"{name:<{width}}  {mark}"
        if detail:
            line += f"  {detail}"
        print(line)
        failures += 0 if ok else 1
    print(f"{len(report) - failures}/{len(report)} checks passed")
    return 0 if failures == 0 else EXIT_CODES["validation"]


def cmd_compare(config_paths, out_dir) -> int:
    if len(config_paths) < 2:
        raise ConfigurationError("compare needs at least two run configs")
    cfgs = [RunConfig.from_file(p) for p in config_paths]
    names = []
    for p in config_paths:
        stem = Path(p).stem
        name = stem
        i = 2
        while name in names:
            name = f"{stem}_{i}"
            i += 1
        names.append(name)
    first = cfgs[0]
    for cfg, name in zip(cfgs[1:], names[1:]):
        if cfg.network_dir != first.network_dir:
            raise ConfigurationError(
                f"config {name!r} runs a different instance than {names[0]!r}"
            )
        if cfg.grid != first.grid:
            raise ConfigurationError(
                f"config {name!r} uses a different grid than {names[0]!r}"
            )
        if cfg.gamma != first.gamma:
            raise ConfigurationError(
                f"config {name!r} uses a different penalty slope than {names[0]!r}"
            )

    summaries = {}
    logs = {}
    for cfg, name in zip(cfgs, names):
        cfg.output_dir = Path(out_dir) / name
        summaries[name], logs[name] = _execute_run(cfg)

    # cells are formatted as `ConvergenceLog.csv_text` and `_write_gaps_csv` do
    header = ["n"]
    for name in names:
        header += [f"energy_{name}", f"tau_{name}"]
    lines = [",".join(header)]
    for n in range(max(log.iterations for log in logs.values())):
        row = [str(n)]
        for name in names:
            records = logs[name].records
            if n < len(records):
                row += [repr(records[n].energy), repr(records[n].tau)]
            else:
                row += ["", ""]
        lines.append(",".join(row))
    outp = Path(out_dir)
    _atomic_write(outp / "compare_energy.csv", "\n".join(lines) + "\n")

    lines = ["od_id," + ",".join(f"gap_{name}" for name in names)]
    for od in sorted(logs[names[0]].final_gaps):
        lines.append(od + "," + ",".join(repr(logs[name].final_gaps[od]) for name in names))
    _atomic_write(outp / "compare_gaps.csv", "\n".join(lines) + "\n")
    _atomic_write(outp / "compare_summary.json",
                  json.dumps(summaries, indent=2, sort_keys=True) + "\n")
    print(f"compared {len(names)} runs; tables in {outp}")
    return 0


# --------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="due",
        description="dynamic user equilibrium experiments: loading plus splitting solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one configuration")
    p_run.add_argument("-c", "--config", required=True, help="run config JSON")
    p_run.add_argument("--dump-dnl", action="store_true",
                       help="also dump cumulative curves and origin queues")

    p_val = sub.add_parser("validate", help="check an instance directory")
    p_val.add_argument("network_dir")

    p_cmp = sub.add_parser("compare", help="run several configs on one instance")
    p_cmp.add_argument("-c", "--config", action="append", required=True,
                       help="run config JSON (repeat)")
    p_cmp.add_argument("-o", "--out", default="compare_out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, dump_dnl=args.dump_dnl)
        if args.command == "validate":
            return cmd_validate(args.network_dir)
        if args.command == "compare":
            return cmd_compare(args.config, args.out)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except DueError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)


if __name__ == "__main__":
    raise SystemExit(main())
