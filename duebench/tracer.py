"""Span tracing of the `due` package from outside it.

`Tracer.install()` replaces the public entry points of each package module,
at the places where the package looks them up, with wrappers that record a
span (name, start, end, parent) and a few counts.  Nothing under `src/`
changes; `uninstall()` puts the originals back.  Spans stay in memory and are
written out once, by `write()`.

A span's self time is its duration minus the durations of its direct
children.  Every wrapped call nests inside its caller's span, so the self
times of one tree add up to the duration of its root.
"""

from __future__ import annotations

import functools
import json
import time

# span name -> per-layer metric holding that span's self time
SELF_TIME_METRICS = {
    "cli": "cli.self_s",
    "network.load": "network.load_s",
    "operators.build": "operators.build_s",
    "operators.evaluate": "operators.evaluate_s",
    "solvers.solve": "solvers.self_s",
    "space.project": "space.project_s",
    "loading.step": "loading.step_s",
    "loading.probe": "loading.probe_s",
    "loading.run_dnl": "loading.run_dnl_s",
    "loading.effective_delay": "loading.effective_delay_s",
    "metrics.od_gap": "metrics.od_gap_s",
}

COUNT_METRICS = (
    "operators.evaluations",
    "operators.loadings",
    "operators.cache_hits",
    "loading.engine_builds",
    "loading.probes",
    "space.projections",
    "solvers.iterations",
)


def result_bytes(result) -> int:
    """Bytes of the arrays one `LoadingResult` holds."""
    total = 0
    for value in vars(result).values():
        if hasattr(value, "nbytes"):
            total += value.nbytes
        elif isinstance(value, list):
            total += sum(getattr(a, "nbytes", 0) for a in value)
    return total


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.max_result_bytes = 0
        self._stack: list[int] = []
        self._engine_runs = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if after is not None:
                after(out, *args)
            return out

        return traced

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per span name over the tree under spans[root]."""
        children: dict[int, float] = {}
        inside = {root}
        for i, (_name, start, end, parent) in enumerate(self.spans):
            if parent in inside or i == root:
                inside.add(i)
                if i != root:
                    children[parent] = children.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for i in sorted(inside):
            name, start, end, _parent = self.spans[i]
            out[name] = out.get(name, 0.0) + (end - start) - children.get(i, 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    # -- wrapping the package ------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        import due.cli as cli
        import due.loading as loading
        import due.operators as operators
        import due.solvers as solvers

        counts = self.counts

        def after_result(result, *_):
            counts["operators.loadings"] += 1 if self._in_evaluate() else 0
            self._engine_runs += 1
            self.max_result_bytes = max(self.max_result_bytes, result_bytes(result))

        def after_probe(delays, *_):
            counts["loading.probes"] += delays.size

        def after_project(_out, *_):
            counts["space.projections"] += 1

        def after_solve(out, *_):
            counts["solvers.iterations"] += out[1].iterations

        engine_init = loading._Engine.__init__

        @functools.wraps(engine_init)
        def counted_init(engine, *args, **kwargs):
            counts["loading.engine_builds"] += 1
            return engine_init(engine, *args, **kwargs)

        evaluate = operators.DelayOperator.evaluate

        @functools.wraps(evaluate)
        def traced_evaluate(op, h):
            counts["operators.evaluations"] += 1
            before = self._engine_runs
            out = self.span("operators.evaluate", evaluate, op, h)
            if isinstance(op, operators.DNLDelayOperator) and self._engine_runs == before:
                counts["operators.cache_hits"] += 1
            return out

        self._patch(loading._Engine, "__init__", counted_init)
        self._patch(loading._Engine, "run", self.wrap("loading.step", loading._Engine.run,
                                                      after_result))
        self._patch(loading.LoadingResult, "path_delays",
                    self.wrap("loading.probe", loading.LoadingResult.path_delays, after_probe))
        self._patch(operators.DelayOperator, "evaluate", traced_evaluate)
        self._patch(operators, "effective_delay",
                    self.wrap("loading.effective_delay", operators.effective_delay))
        self._patch(solvers, "project_feasible",
                    self.wrap("space.project", solvers.project_feasible, after_project))
        self._patch(solvers, "solve", self.wrap("solvers.solve", solvers.solve, after_solve))
        for attr, name, after in (
            ("load_network_dir", "network.load", None),
            ("dnl_operator", "operators.build", None),
            ("solve", "solvers.solve", after_solve),
            ("run_dnl", "loading.run_dnl", None),
            ("effective_delay", "loading.effective_delay", None),
            ("od_gap", "metrics.od_gap", None),
        ):
            self._patch(cli, attr, self.wrap(name, cli.__dict__[attr], after))

    def _in_evaluate(self) -> bool:
        return any(self.spans[i][0] == "operators.evaluate" for i in self._stack)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
