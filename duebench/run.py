"""Benchmark of `due run` and of the solver, one workload per call.

    python3 duebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 duebench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is taken
from the checkout's `src/`, instances and configs from `data/` and
`configs/`.  It makes the workload's inputs from the seed, then
runs whole rounds until S seconds have passed (at least one round).  A
round is two runs, A and B, of the same inputs, each in a fresh worker
process, followed by the checks of A's outputs and a comparison of A with B.
With `--trace 1`, run B is traced and the metrics are the per-layer split
instead of the end-to-end figures.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Each run's raw figures,
with the CPU steal share measured over it, are appended to
`.duebench/results.jsonl` in the checkout.  See duebench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".duebench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import COUNT_METRICS, SELF_TIME_METRICS  # noqa: E402

DEADLINE_S = 170.0  # a benchmark run must end well within 180 s
SETUP_REPEATS = {"nguyen_queued": 15, "siouxfalls_q25": 5, "vi_siouxfalls": 5}
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{name: "s" for name in SELF_TIME_METRICS.values()},
    **{name: "count" for name in COUNT_METRICS},
    "loading.result_mb": "MB",
    "cli.artifact_mb": "MB",
    "trace.run_s": "s",
    "trace.overhead": "ratio",
}
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cpu_times() -> list[int] | None:
    """Aggregate CPU jiffies from /proc/stat, or None where it is absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is already in user
    return delta[7] / total if total > 0 else None


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool, started: float):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.started = started
        self.work = WORK / f"{workload}-s{seed}"
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: dict[str, str] = {}
        self.runs: list[dict] = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                        PYTHONDONTWRITEBYTECODE="1", **dict.fromkeys(PINNED, "1"))

    def op(self, name: str, fn, *args) -> bool:
        """Attempt one operation: a check function returning None or a reason."""
        self.attempted += 1
        try:
            reason = fn(*args)
        except checks.NonNumericCell as exc:
            reason, known = str(exc), True
        except Exception as exc:  # a broken artifact must not stop the run
            reason, known = f"{type(exc).__name__}: {exc}", False
        else:
            known = False
        if reason is None:
            return True
        self.failed += 1
        self.correct = self.correct and known
        self.failures.setdefault(name, reason)
        return False

    def worker(self, spec: Path, tag: str, traced: bool) -> dict:
        result = self.work / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload, str(spec), str(result),
               "--setup-repeats", str(SETUP_REPEATS[self.workload])]
        if traced:
            cmd.append("--trace")
        timeout = DEADLINE_S - (time.perf_counter() - self.started)
        before = cpu_times()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.work, capture_output=True,
                                  text=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            raise SystemExit(f"{tag}: worker overran the {DEADLINE_S:.0f} s deadline")
        steal = steal_share(before, cpu_times())
        if proc.returncode != 0 or not result.exists():
            raise RuntimeError(f"{tag}: worker exited {proc.returncode}\n{proc.stderr[-2000:]}")
        rec = json.loads(result.read_text(encoding="utf-8"))
        if not Path(rec["due_module"]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"worker imported due from {rec['due_module']}, not the checkout")
        rec.update(tag=tag, traced=traced, steal_share=steal, stderr=proc.stderr[-500:])
        self.runs.append(rec)
        return rec

    def run_op(self, spec: Path, tag: str, traced: bool):
        """The run itself, counted as one operation; None if it failed."""
        rec = {}

        def attempt():
            rec.update(self.worker(spec, tag, traced))
            return None if rec["exit_code"] == 0 else (
                f"exit code {rec['exit_code']}: {rec['stderr']}")

        return rec if self.op(f"run_{tag[-1]}", attempt) else None

    # -- rounds --------------------------------------------------------------

    def dnl_round(self, info: dict, inst: checks.Instance, n: int) -> None:
        iterations = info["config"]["solver"]["max_iterations"]
        arts = {side: self.work / f"art_{side}" for side in "ab"}
        for art in arts.values():
            shutil.rmtree(art, ignore_errors=True)
        ok_a = self.run_op(Path(info["configs"]["a"]), f"r{n}a", False)
        ok_b = self.run_op(Path(info["configs"]["b"]), f"r{n}b", self.trace)
        outputs = checks.Outputs(inst, arts["a"])
        for name, fn in checks.dnl_checks(iterations).items():
            self.op(name, lambda f=fn: f(outputs) if ok_a else "run A failed")
        self.op("bitwise_equal",
                lambda: checks.check_same(arts["a"], arts["b"]) if ok_a and ok_b
                else "a run failed")
        for art in arts.values():
            shutil.rmtree(art, ignore_errors=True)

    def vi_round(self, info: dict, n: int) -> None:
        spec = Path(info["spec"])
        fns = checks.vi_checks(info, inputs.VI_SOLVER)
        sides = {}
        for side, traced in (("a", False), ("b", self.trace)):
            if self.run_op(spec, f"r{n}{side}", traced):
                with np.load(self.work / f"r{n}{side}.npz") as z:
                    sides[side] = {k: z[k] for k in z.files}
        for name, fn in fns.items():
            self.op(name, lambda f=fn: f(sides["a"]) if "a" in sides else "run A failed")
        self.op("bitwise_equal", lambda: None if len(sides) == 2 and np.array_equal(
            sides["a"]["h"], sides["b"]["h"]) else "the two solves differ")

    def run(self, seconds: float) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        info = inputs.make_inputs(ROOT, self.workload, self.seed, self.work)
        inst = None
        if info["kind"] == "dnl":
            inst = checks.Instance(self.work / "net", info["config"])
        t0 = time.perf_counter()
        n = 0
        while n == 0 or time.perf_counter() - t0 < seconds:
            if info["kind"] == "dnl":
                self.dnl_round(info, inst, n)
            else:
                self.vi_round(info, n)
            n += 1
        self.rounds = n

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        plain = [r for r in self.runs if not r["traced"]]
        if not self.trace:
            values = {
                "setup_s": statistics.median(x for r in plain for x in r["setup_samples"]),
                "run_s": statistics.median(r["run_s"] for r in plain),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            }
            units = END_TO_END
        else:
            traced = [r["layers"] for r in self.runs if r["traced"]]
            values = {name: statistics.median(t[name] for t in traced)
                      for name in PER_LAYER if name != "trace.overhead"}
            values["trace.overhead"] = (
                values["trace.run_s"] / statistics.median(r["run_s"] for r in plain) - 1.0)
            units = PER_LAYER
        return {name: {"value": values[name], "unit": units[name]} for name in units}


def check_checkout() -> str | None:
    for need in ("src/due/cli.py", "data/nguyen/od.csv", "data/siouxfalls/paths.csv",
                 "configs/nguyen_ifbf.json", "configs/siouxfalls_ifbf.json"):
        if not (ROOT / need).is_file():
            return f"{need} is missing: run from a full checkout of the repository"
    return None


def bench_one(workload: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    bench = Bench(workload, seed, trace, started)
    bench.run(seconds)
    if not bench.runs:
        raise RuntimeError(f"{workload}: no run completed: {bench.failures}")
    metrics = bench.metrics()
    WORK.mkdir(exist_ok=True)
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "rounds": bench.rounds, "attempted": bench.attempted, "failed": bench.failed,
            "failures": bench.failures, "metrics": metrics,
            "runs": [{k: v for k, v in r.items() if k != "stderr"} for r in bench.runs],
        }) + "\n")
    print(f"{workload}  seed {seed}  {bench.rounds} round(s), {len(bench.runs)} runs")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    steal = [r["steal_share"] for r in bench.runs if r["steal_share"] is not None]
    if steal:
        print(f"  {'(cpu steal share)':<28} {statistics.median(steal):>14.4f}")
    print(f"  operations: {bench.attempted} attempted, {bench.failed} failed")
    for name, reason in bench.failures.items():
        print(f"    failed {name}: {reason[:160]}")
    return {"correct": bench.correct, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    problem = check_checkout()
    if problem:
        print(f"duebench: {problem}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    if args.workload != "all":
        result = bench_one(args.workload, args.seed, args.seconds, bool(args.trace), started)
        print(json.dumps(result))
        return 0
    results = {}
    for w in inputs.WORKLOADS:
        results[w] = bench_one(w, args.seed, args.seconds, bool(args.trace),
                               time.perf_counter())
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
