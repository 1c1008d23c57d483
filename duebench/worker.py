"""One measured run of one workload, in a process of its own.

    python3 duebench/worker.py WORKLOAD SPEC RESULT_JSON [--trace] [--setup-repeats N]

`run.py` starts this with `src/` on PYTHONPATH and the BLAS and
OpenMP pools pinned to one thread.  It times the workload's set-up
`--setup-repeats` times (median reported), then one run, and writes the
timings, the peak RSS and, with `--trace`, the per-layer split to
RESULT_JSON.  For a DNL workload SPEC is the generated run config and the
run is `due run` on it; for the VI workload SPEC is `vi.json` and the run is
`solvers.solve` on a seeded separable operator.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import SELF_TIME_METRICS, Tracer  # noqa: E402

import due  # noqa: E402
import due.cli as cli  # noqa: E402
from due import solvers  # noqa: E402
from due.network import load_network_dir  # noqa: E402
from due.operators import DelayOperator, dnl_operator  # noqa: E402
from due.space import DelayProfile, PathFlowProfile, TimeGrid  # noqa: E402


class SeparableOperator(DelayOperator):
    """A(h) = D * (h - h_star), entrywise; monotone with constant max(D)."""

    def __init__(self, d: np.ndarray, h_star: np.ndarray):
        super().__init__(lipschitz=float(d.max()))
        self.d = d
        self.h_star = h_star

    def _compute(self, h: PathFlowProfile) -> DelayProfile:
        return DelayProfile(h.grid, self.d * (h.rates - self.h_star))


def dnl_setup(cfg):
    net = load_network_dir(cfg.network_dir)
    dnl_operator(net, cfg.grid, gamma=cfg.gamma, buffer=cfg.horizon_buffer)


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space.

    `ru_maxrss` would also count the parent's resident set at the time this
    process was spawned, which Linux carries across exec, so `VmHWM` is read
    where /proc exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args):
    gc.collect()  # every timed call starts from a collected heap
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("spec")
    ap.add_argument("result")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-repeats", type=int, default=3)
    args = ap.parse_args(argv)
    spec = Path(args.spec)
    out: dict = {"due_module": due.__file__}

    if args.workload == "vi_siouxfalls":
        raw = json.loads(spec.read_text(encoding="utf-8"))
        net_dir = spec.parent / raw["network_dir"]
        setups = [timed(load_network_dir, net_dir)[0] for _ in range(args.setup_repeats)]
        net = load_network_dir(net_dir)
        g = raw["grid"]
        grid = TimeGrid(g["t0"], g["t1"], g["num_intervals"])
        s = raw["solver"]
        config = solvers.SolverConfig(
            algorithm=s["algorithm"], max_iterations=s["max_iterations"], tau0=s["tau0"],
            mu=s["mu"], lam=s["lambda"], alpha=s["alpha"], beta_schedule=s["beta_n"],
            eps_schedule=s["eps_n"])
        arrays = np.load(spec.parent / "vi_inputs.npz")
        op = SeparableOperator(arrays["d"], arrays["h_star"])
        h0 = PathFlowProfile(grid, arrays["h0"])
        by_od = net.path_rows_by_od()

        def run():
            return solvers.solve(op, config, h0, net.trips, by_od)
    else:
        cfg = cli.RunConfig.from_file(spec)
        setups = [timed(dnl_setup, cfg)[0] for _ in range(args.setup_repeats)]

        def run():
            return cli.main(["run", "-c", str(spec)])

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # a VI run's root span is the traced solvers.solve
        if args.workload != "vi_siouxfalls":
            untraced = run

            def run():
                return tracer.span("cli", untraced)
    cpu0 = time.process_time()
    run_s, result = timed(run)
    out["run_cpu_s"] = time.process_time() - cpu0
    out["peak_rss_mb"] = peak_rss_mb()
    out["run_s"] = run_s
    out["setup_s"] = statistics.median(setups)
    out["setup_samples"] = setups

    if args.workload == "vi_siouxfalls":
        h, log = result
        out["exit_code"] = 0
        np.savez(Path(args.result).with_suffix(".npz"), h=h.rates,
                 tau=log.column("tau"), calls=log.column("operator_calls"),
                 evaluations=np.array(op.eval_count))
    else:
        out["exit_code"] = result
        out["artifact_bytes"] = sum(f.stat().st_size for f in cfg.output_dir.glob("*"))

    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer)
        out["layers"]["cli.artifact_mb"] = out.get("artifact_bytes", 0) / 2**20
        tracer.write(Path(args.result).with_suffix(".spans.jsonl"))
    Path(args.result).write_text(json.dumps(out) + "\n", encoding="utf-8")
    return 0


def layer_metrics(tracer: Tracer) -> dict:
    """Self time per layer over the run's span tree, plus the counts."""
    self_times = tracer.self_times(0)
    _name, start, end, _parent = tracer.spans[0]
    run_s = end - start
    if abs(sum(self_times.values()) - run_s) > 1e-9 * max(1.0, run_s):
        raise RuntimeError(f"layer self times {self_times} do not add up to {run_s}")
    metrics = {metric: self_times.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()}
    metrics.update(tracer.counts)
    metrics["loading.result_mb"] = tracer.max_result_bytes / 2**20
    metrics["trace.run_s"] = run_s
    return metrics


if __name__ == "__main__":
    raise SystemExit(main())
