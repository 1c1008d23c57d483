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
import math
import os
import sys
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigurationError, DueError, ParseError
from .loading import effective_delay, run_dnl
from .metrics import ConvergenceLog, od_gap
from .network import load_network_dir, validate_network
from .operators import dnl_operator
from .solvers import SolverConfig, parse_schedule, solve, uniform_start
from .space import TimeGrid

EXIT_CODES = {"parse": 2, "validation": 3, "config": 4, "numeric": 5}


# --------------------------------------------------------------------------
# config handling


def _check_section(section, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {section!r}")
    unknown = [k for k in section if k not in allowed and not k.startswith("_")]
    if unknown:
        raise ConfigurationError(f"unknown key(s) {unknown} in {where}")


def _flag(value) -> bool:
    """A JSON boolean; `bool` would read the string "false" as true."""
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


def _integer(value) -> int:
    """A whole JSON number; `int` would truncate 70.9 to 70 and read `true` as 1."""
    if isinstance(value, bool) or value != int(value):
        raise TypeError(value)
    return int(value)


def _real(value) -> float:
    """A finite JSON number; `float` would read `true` as 1.0 and "5" as 5.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    if not math.isfinite(value):
        raise ValueError(value)
    return float(value)


def _nonnegative(value) -> float:
    """A finite JSON number at or above zero."""
    if not _real(value) >= 0.0:
        raise ValueError(value)
    return float(value)


def _positive(value) -> float:
    """A finite JSON number above zero."""
    if not _real(value) > 0.0:
        raise ValueError(value)
    return float(value)


def _value(section: dict, key: str, kind, where: str, default=None):
    """`section[key]` converted by `kind`, or `default` when the key is absent.
    A value that `kind` rejects raises ConfigurationError naming `where:key`."""
    if key not in section:
        return default
    try:
        return kind(section[key])
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"{where}:{key} cannot be {section[key]!r}") from None


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
        _check_section(
            raw,
            {"network_dir", "grid", "solver", "gamma", "horizon_buffer",
             "output_dir", "dump_dnl"},
            where,
        )
        for key in ("network_dir", "grid", "solver", "output_dir"):
            if key not in raw:
                raise ConfigurationError(f"missing key {key!r} in {where}")

        gspec, gwhere = raw["grid"], f"{where}:grid"
        _check_section(gspec, {"t0", "t1", "num_intervals", "dt_seconds"}, gwhere)
        t0 = _value(gspec, "t0", _real, gwhere, 0.0)
        if "t1" not in gspec:
            raise ConfigurationError(f"{gwhere} needs t1")
        t1 = _value(gspec, "t1", _real, gwhere)
        has_k = "num_intervals" in gspec
        has_dt = "dt_seconds" in gspec
        if has_k == has_dt:
            raise ConfigurationError(
                f"{gwhere} needs exactly one of num_intervals or dt_seconds"
            )
        if has_k:
            k = _value(gspec, "num_intervals", _integer, gwhere)
        else:
            dt_h = _value(gspec, "dt_seconds", _positive, gwhere) / 3600.0
            k_float = (t1 - t0) / dt_h
            k = round(k_float)
            if abs(k_float - k) > 1e-9 * max(1.0, abs(k_float)) or k < 1:
                raise ConfigurationError(
                    f"{gwhere} dt_seconds does not divide the horizon "
                    f"({k_float} intervals)"
                )
        grid = TimeGrid(t0, t1, k)

        sspec, swhere = raw["solver"], f"{where}:solver"
        _check_section(
            sspec,
            {"algorithm", "max_iterations", "tolerance", "tau0", "tau", "mu",
             "lambda", "alpha", "alpha_n", "beta_n", "eps_n"},
            swhere,
        )
        solver = SolverConfig(
            algorithm=_value(sspec, "algorithm", str, swhere, "ifbf"),
            max_iterations=_value(sspec, "max_iterations", _integer, swhere, 100),
            tolerance=_value(sspec, "tolerance", _nonnegative, swhere, 0.0),
            tau0=_value(sspec, "tau0", _real, swhere, 1.0),
            tau_fixed=_value(sspec, "tau", _real, swhere),
            mu=_value(sspec, "mu", _real, swhere, 0.5),
            lam=_value(sspec, "lambda", _real, swhere, 0.5),
            alpha=_value(sspec, "alpha", _real, swhere, 0.7),
            alpha_schedule=_value(sspec, "alpha_n", parse_schedule, swhere),
            beta_schedule=_value(sspec, "beta_n", parse_schedule, swhere),
            eps_schedule=_value(sspec, "eps_n", parse_schedule, swhere),
        )

        def directory(key: str) -> Path:
            path = _value(raw, key, Path, where)
            return path if path.is_absolute() else (base_dir / path).resolve()

        return cls(
            network_dir=directory("network_dir"),
            grid=grid,
            solver=solver,
            gamma=_value(raw, "gamma", _nonnegative, where, 1.0),
            horizon_buffer=_value(raw, "horizon_buffer", _nonnegative, where),
            output_dir=directory("output_dir"),
            dump_dnl=_value(raw, "dump_dnl", _flag, where, False),
        )


# --------------------------------------------------------------------------
# artifacts


def _write_atomic(path: Path, blocks: Iterable[str]) -> None:
    """Stream `blocks` into a temporary file beside `path`, then rename it onto
    `path`.  If writing fails, the temporary file is removed and `path` keeps
    its previous bytes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(blocks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# A numeric CSV cell is the repr of a Python number, which float() reads back
# bit for bit.  Arrays go through `.tolist()` first, because the repr of a
# numpy scalar reads `np.float64(...)` under numpy 2.
def _cells(values: Iterable) -> Iterator[str]:
    return map(repr, values)


def _csv(*columns: Iterable[str]) -> str:
    """CSV lines from columns of cells, one line per row."""
    return "\n".join([*map(",".join, zip(*columns)), ""])


# Cells per block of `_row_blocks`, summed over the table's arrays: the lines
# of a block are joined in one call.
_BLOCK_CELLS = 1024

# Groups per table of `_row_blocks`: each distinct value of a group of rows is
# formatted once.  Per-path tables repeat values across rows (0.0 on unused
# paths, free-flow delays), so a larger group formats fewer values but holds
# more text; a 128th of the rows keeps a table's writer under a twentieth of
# its file size (tests/test_cli.py, test_table_not_held_in_memory).
_TABLE_GROUPS = 128


def _row_blocks(leads: list[str], index: list[str], *arrays: np.ndarray) -> Iterator[str]:
    """Blocks of CSV lines for float arrays shaped (len(leads), len(index)):
    line k of row r is leads[r], index[k], then entry (r, k) of each array.
    Rows are taken a group at a time (1/_TABLE_GROUPS of them, at least one
    block), and each distinct value of a group is formatted once.  Values are
    told apart by their bits, since 0.0 == -0.0 but the two print differently.
    A group's lines are then built a block (about _BLOCK_CELLS cells) at a time
    as one object array of their pieces: lead and comma, index and comma, then
    each value and its comma or newline, joined in one call."""
    width = len(arrays)
    step = max(1, _BLOCK_CELLS // (width * len(index)))
    group = max(step, -(-len(leads) // _TABLE_GROUPS))
    parts = np.empty((step, len(index), 2 * width + 2), dtype=object)
    parts[:, :, 1] = np.array([f"{i}," for i in index], dtype=object)
    parts[:, :, 3::2] = ","
    parts[:, :, -1] = "\n"
    for g0 in range(0, len(leads), group):
        values = np.stack([a[g0:g0 + group] for a in arrays], axis=-1, dtype=np.float64)
        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
        text = np.array(list(_cells(bits.view(np.float64).tolist())), dtype=object)
        inverse = inverse.reshape(values.shape)
        heads = np.array([f"{lead}," for lead in leads[g0:g0 + group]], dtype=object)
        for r0 in range(0, len(heads), step):
            rows = heads[r0:r0 + step]
            block = parts[:len(rows)]
            block[:, :, 0] = rows[:, None]
            block[:, :, 2::2] = text.take(inverse[r0:r0 + step])
            yield "".join(block.ravel().tolist())
        del text, inverse  # so that two groups' text is never held at once


def _write_csv(path: Path, header: Iterable[str], blocks: Iterable[str]) -> None:
    _write_atomic(path, chain([",".join(header) + "\n"], blocks))


def _write_log(path: Path, log: ConvergenceLog) -> None:
    fields = log.CSV_FIELDS
    columns = [_cells([getattr(r, f) for r in log.records]) for f in fields]
    _write_csv(path, fields, [_csv(*columns)])


# --------------------------------------------------------------------------
# subcommands


def _execute_run(cfg: RunConfig) -> tuple[dict, ConvergenceLog]:
    """Solve one configuration and write all artifacts; returns the summary
    and the convergence log, which carries the final O-D gaps.  A failed solve
    or final loading leaves `iterations.csv` up to the failure and a summary
    with stop reason `error:<category>`, then raises again."""
    t_begin = time.perf_counter()
    net = load_network_dir(cfg.network_dir)
    by_od = net.path_rows_by_od()
    op = dnl_operator(net, cfg.grid, gamma=cfg.gamma, buffer=cfg.horizon_buffer)
    h0 = uniform_start(cfg.grid, net.trips, by_od)
    out = cfg.output_dir

    def write_summary(log: ConvergenceLog, **extra) -> dict:
        summary = {**log.summary(), "network_dir": str(cfg.network_dir), "gamma": cfg.gamma,
                   "grid": {"t0": cfg.grid.t0, "t1": cfg.grid.t1,
                            "num_intervals": cfg.grid.num_intervals},
                   "operator_evaluations": op.eval_count, **extra,
                   "total_wall_time": time.perf_counter() - t_begin}
        _write_atomic(out / "summary.json", [json.dumps(summary, indent=2, sort_keys=True) + "\n"])
        return summary

    log = None
    try:
        h_final, log = solve(op, cfg.solver, h0, net.trips, by_od)
        # final reporting loads once more outside the operator-call accounting
        result = run_dnl(h_final, net, cfg.grid, buffer=cfg.horizon_buffer)
        delays = result.path_delays()
    except DueError as exc:
        log = log or exc.log  # set when the solve finished
        if log is not None:
            log.stop_reason = f"error:{exc.category}"
            _write_log(out / "iterations.csv", log)
            write_summary(log, error=str(exc))
        raise
    eff = effective_delay(delays, cfg.grid, net.trips, net.od_by_path(), cfg.gamma)
    gaps = od_gap(h_final, eff, by_od)
    log.final_gaps = gaps

    _write_log(out / "iterations.csv", log)
    index = _csv(_cells(range(cfg.grid.num_intervals)),
                 _cells(cfg.grid.starts().tolist())).splitlines()
    leads = [f"{r},{od}" for r, od in zip(net.path_ids, net.od_by_path())]
    _write_csv(out / "final_flows.csv", ["path_id", "od_id", "interval", "t_start", "rate"],
               _row_blocks(leads, index, h_final.rates))
    _write_csv(out / "final_delays.csv",
               ["path_id", "od_id", "interval", "t_start", "delay", "effective_delay"],
               _row_blocks(leads, index, delays, eff.delays))
    ods = sorted(gaps)
    _write_csv(out / "od_gaps.csv", ["od_id", "gap"], [_csv(ods, _cells(gaps[od] for od in ods))])
    if cfg.dump_dnl:
        links, E = result.engine.link_ids, len(result.engine.link_ids)
        index = list(_cells(result.grid_ext.boundaries().tolist()))
        up, down = result.n_up, result.n_down  # the links' rows, then the queues'
        _write_csv(out / "dnl_curves.csv", ["link_id", "t", "n_up", "n_down"],
                   _row_blocks(links, index, up[:E], down[:E]))
        queue_leads = [f"{net.links[links[e]].tail},{links[e]}" for e in result.engine.queue_link]
        _write_csv(out / "dnl_queues.csv",
                   ["origin", "link_id", "t", "arrivals", "releases", "queue"],
                   _row_blocks(queue_leads, index, up[E:], down[E:], up[E:] - down[E:]))

    summary = write_summary(log, final_loading={"steps": result.engine.steps,
                                                "drained_step": result.drained_step})
    return summary, log


def cmd_run(config_path, dump_dnl: bool = False) -> int:
    cfg = RunConfig.from_file(config_path)
    if dump_dnl:
        cfg.dump_dnl = True
    summary, _log = _execute_run(cfg)
    print(f"run complete: {summary['iterations']} iterations, "
          f"stop={summary['stop_reason']}, artifacts in {cfg.output_dir}")
    return 0


def cmd_validate(network_dir) -> int:
    net = load_network_dir(network_dir)
    print(f"{len(net.nodes)} nodes, {len(net.links)} links, {len(net.od_pairs)} O-D pairs, "
          f"{net.num_paths} paths")
    report = validate_network(net)
    width = max(len(name) for name, _ok, _d in report)
    for name, ok, detail in report:
        print(f"{name:<{width}}  {'pass' if ok else 'FAIL'}  {detail}".rstrip())
    passed = sum(ok for _name, ok, _d in report)
    print(f"{passed}/{len(report)} checks passed")
    return 0 if passed == len(report) else EXIT_CODES["validation"]


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

    outp = Path(out_dir)
    n_rows = max(log.iterations for log in logs.values())
    header, columns = ["n"], [_cells(range(n_rows))]
    for name in names:
        records = logs[name].records
        missing = [""] * (n_rows - len(records))
        header += [f"energy_{name}", f"tau_{name}"]
        columns += [chain(_cells(r.energy for r in records), missing),
                    chain(_cells(r.tau for r in records), missing)]
    _write_csv(outp / "compare_energy.csv", header, [_csv(*columns)])
    ods = sorted(logs[names[0]].final_gaps)
    _write_csv(outp / "compare_gaps.csv", ["od_id"] + [f"gap_{name}" for name in names],
               [_csv(ods, *(_cells([logs[name].final_gaps[od] for od in ods]) for name in names))])
    _write_atomic(outp / "compare_summary.json",
                  [json.dumps(summaries, indent=2, sort_keys=True) + "\n"])
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
