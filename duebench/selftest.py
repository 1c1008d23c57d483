"""Self-test of the benchmark's output checks.

    python3 duebench/selftest.py

Runs the program once on small inputs of each kind (Nguyen at 1.5x demand,
two `due run`s; the separable VI, one solve), then shows that every check
passes on those outputs and fails on a deliberately broken copy of them.

The artifacts of `due run` currently hold cells such as `np.float64(0.5)`,
which the checks refuse.  For the passing baseline only, this script reads
those cells leniently by rewriting them to plain numbers in a copy; the
benchmark itself never does.  Exit code 0 means every check passed on the
baseline and caught every breakage.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from run import ROOT, WORK, Bench, check_checkout  # noqa: E402

WRAPPED = re.compile(r"np\.float64\(([^()]*)\)")


def edit_csv(path: Path, column: str, fn) -> None:
    """Rewrite one column of a CSV: fn(list of float) -> list of float."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    j = header.index(column)
    rows = [line.split(",") for line in lines[1:]]
    values = fn([float(r[j]) for r in rows])
    for r, v in zip(rows, values):
        r[j] = repr(float(v))
    path.write_text("\n".join([lines[0], *(",".join(r) for r in rows)]) + "\n",
                    encoding="utf-8")


def per_path(k: int, fn):
    """Column editor applying fn to a (paths, intervals) matrix."""
    def edit(values):
        m = np.array(values).reshape(-1, k)
        return fn(m).ravel().tolist()
    return edit


def set_cell(r: int, k: int, fn):
    def edit(m):
        m = m.copy()
        m[r, k] = fn(m)
        return m
    return edit


class SelfTest:
    def __init__(self):
        self.problems = 0

    def expect(self, label: str, reason, should_fail: bool) -> None:
        failed = reason is not None
        ok = failed == should_fail
        self.problems += 0 if ok else 1
        verdict = "ok  " if ok else "BAD "
        state = f"fails ({str(reason)[:90]})" if failed else "passes"
        print(f"{verdict} {label:<44} {state}")

    @staticmethod
    def outcome(fn, *args):
        try:
            return fn(*args)
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}"

    def dnl(self) -> None:
        bench = Bench("nguyen_queued", 0, False, time.perf_counter())
        work = WORK / "selftest-dnl"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        info = inputs.make_inputs(ROOT, "nguyen_queued", 0, work)
        for side in "ab":
            subprocess.run([sys.executable, "-m", "due.cli", "run", "-c", info["configs"][side]],
                           cwd=work, env=bench.env, check=True, capture_output=True)
        inst = checks.Instance(work / "net", info["config"])
        iterations = info["config"]["solver"]["max_iterations"]
        fns = checks.dnl_checks(iterations)
        raw_a, raw_b = work / "art_a", work / "art_b"

        # the artifacts as written
        for name, fn in fns.items():
            self.expect(f"{name} on the artifacts as written",
                        self.outcome(fn, checks.Outputs(inst, raw_a)),
                        should_fail=any(WRAPPED.search((raw_a / f).read_text())
                                        for f in ("final_flows.csv", "final_delays.csv"))
                        and name != "iterations")
        self.expect("bitwise_equal on two runs", checks.check_same(raw_a, raw_b), False)

        base = work / "lenient"
        shutil.copytree(raw_a, base)
        for f in checks.ARTIFACTS:
            p = base / f
            p.write_text(WRAPPED.sub(r"\1", p.read_text(encoding="utf-8")), encoding="utf-8")
        for name, fn in fns.items():
            self.expect(f"{name} on the lenient copy",
                        self.outcome(fn, checks.Outputs(inst, base)), False)

        k, dt = inst.k, inst.dt
        flows, delays = "final_flows.csv", "final_delays.csv"
        other = next(i for i, od in enumerate(inst.path_od) if od != inst.path_od[0])
        swap = lambda m: m[[other if i == 0 else 0 if i == other else i
                            for i in range(m.shape[0])]]
        breakages = [
            ("mass", "scaled flows", flows, "rate", lambda v: [x * 1.001 for x in v]),
            ("mass", "a negative rate", flows, "rate",
             per_path(k, set_cell(0, 0, lambda m: -1.0))),
            ("free_flow", "a delay below free flow", delays, "delay",
             per_path(k, set_cell(0, 0, lambda m: 0.5 * inst.free_flow[0]))),
            ("effective_delay", "swapped delays of two paths", delays, "delay",
             per_path(k, swap)),
            ("effective_delay", "a raised effective delay", delays, "effective_delay",
             per_path(k, set_cell(0, k - 1, lambda m: m[0, k - 1] + 1e-3))),
            ("fifo", "an overtaking departure", delays, "delay",
             per_path(k, set_cell(0, k - 1, lambda m: m[0, k - 2] - 2 * dt))),
            ("od_gaps", "a changed gap", "od_gaps.csv", "gap",
             lambda v: [v[0] + 1e-3, *v[1:]]),
            ("iterations", "a raised tau", "iterations.csv", "tau",
             lambda v: [*v[:-1], 2 * v[0]]),
            ("iterations", "a missing operator call", "iterations.csv", "operator_calls",
             lambda v: [*v[:-1], v[-1] - 1]),
        ]
        for name, what, f, column, edit in breakages:
            broken = work / "broken"
            shutil.rmtree(broken, ignore_errors=True)
            shutil.copytree(base, broken)
            edit_csv(broken / f, column, edit)
            self.expect(f"{name} on {what}",
                        self.outcome(fns[name], checks.Outputs(inst, broken)), True)
        broken = work / "broken"
        shutil.rmtree(broken)
        shutil.copytree(raw_a, broken)
        edit_csv(broken / "od_gaps.csv", "gap", lambda v: [np.nextafter(v[0], np.inf), *v[1:]])
        self.expect("bitwise_equal on a one-ulp change", checks.check_same(raw_a, broken), True)

    def vi(self) -> None:
        bench = Bench("vi_siouxfalls", 0, False, time.perf_counter())
        bench.work = WORK / "selftest-vi"
        shutil.rmtree(bench.work, ignore_errors=True)
        bench.work.mkdir(parents=True)
        info = inputs.make_inputs(ROOT, "vi_siouxfalls", 0, bench.work)
        rec = bench.worker(Path(info["spec"]), "vi", False)
        assert rec["exit_code"] == 0
        with np.load(bench.work / "vi.npz") as z:
            out = {k: z[k] for k in z.files}
        s = inputs.VI_SOLVER
        fns = checks.vi_checks(info, s)
        for name, fn in fns.items():
            self.expect(f"{name} on the solver output", fn(out), False)
        floor = s["mu"] / float(info["d"].max())
        negative = out["h"].copy()
        negative[info["blocks"][0][0], 0] = -1.0
        breakages = [
            ("converged", "the start returned", {"h": info["h0"]}),
            ("step_floor", "a raised tau", {"tau": np.r_[out["tau"][:-1], out["tau"][0]]}),
            ("step_floor", "a tau below the floor", {"tau": np.r_[out["tau"][:-1], 0.9 * floor]}),
            ("feasible", "scaled flows", {"h": out["h"] * 1.001}),
            ("feasible", "a negative rate", {"h": negative}),
            ("two_evaluations", "an extra evaluation", {"evaluations": out["evaluations"] + 1}),
        ]
        for name, what, change in breakages:
            self.expect(f"{name} on {what}", fns[name]({**out, **change}), True)


def main() -> int:
    problem = check_checkout()
    if problem:
        print(f"duebench: {problem}", file=sys.stderr)
        return 2
    test = SelfTest()
    test.dnl()
    test.vi()
    print(f"{test.problems} problem(s)")
    return 1 if test.problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
