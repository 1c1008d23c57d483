"""End-to-end acceptance suite.

Each test prints one PASS line (visible with pytest -s); a failed assertion
marks the criterion FAIL.  Stated runtime budgets are asserted too.
"""

import json
import time

import numpy as np
import pytest

from conftest import affine_unit_instance, uniform_profile
from due.cli import main as cli_main
from due.loading import effective_delay, run_dnl
from due.metrics import od_gap
from due.operators import affine_operator, dnl_operator, scaled_pseudo_monotone
from due.solvers import SolverConfig, solve, uniform_start
from due.space import (
    PathFlowProfile,
    TimeGrid,
    TripTable,
    norm,
    project_feasible,
    project_simplex,
)

from oracles import (
    audit_loading,
    monotonicity_violation_witness,
    probe_link_exit,
    qp_simplex_projection_active_set,
    total_exited,
)

FBF_SCHEDULES = dict(alpha_schedule="pow(9, -1, 1)", beta_schedule="const(0.7)")
IFBF_SCHEDULES = dict(beta_schedule="pow(9, -1, 1)", eps_schedule="pow(1, -2, 0.1)")


def _report(num, name, elapsed, budget):
    print(f"ACCEPTANCE {num:02d} ({name}): PASS  [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert elapsed < budget


def test_criterion_01_projection_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(500):
        n = int(rng.integers(1, 21))
        y = rng.normal(scale=4.0, size=n)
        total = float(rng.uniform(0.2, 10.0))
        got = project_simplex(y, total)
        want = qp_simplex_projection_active_set(y, total)
        assert np.max(np.abs(got - want)) <= 1e-8
        again = project_simplex(got, total)
        assert np.max(np.abs(again - got)) <= 1e-10
        z = rng.normal(scale=4.0, size=n)
        pz = project_simplex(z, total)
        assert np.linalg.norm(got - pz) <= np.linalg.norm(y - z) + 1e-10
    _report(1, "projection oracle", time.perf_counter() - start, 10)


def test_criterion_02_step_size_lemma():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for trial in range(5):
        d = 6
        g = rng.normal(size=(d, d))
        m = g.T @ g
        vi = affine_operator(m, rng.normal(size=d),
                             trips=TripTable({"w": 3.0}, {"w": 1.0}),
                             paths_by_od={"w": np.arange(d)},
                             grid=TimeGrid(0.0, 1.0, 1))
        h0 = uniform_start(vi.grid, vi.trips, vi.paths_by_od)
        for tau0 in (0.01, 10.0):
            cfg = SolverConfig(algorithm="ifbf", max_iterations=300, tau0=tau0,
                               mu=0.5, lam=0.5, alpha=0.7, **IFBF_SCHEDULES)
            _, log = solve(vi.operator, cfg, h0, vi.trips, vi.paths_by_od)
            taus = log.column("tau")
            assert np.all(np.diff(taus) <= 0.0)
            floor = min(cfg.mu / vi.operator.lipschitz, tau0) - 1e-12
            assert np.all(taus >= floor)
    _report(2, "adaptive step floor", time.perf_counter() - start, 5)


def test_criterion_03_strong_convergence_monotone(solved):
    start = time.perf_counter()
    h_start = PathFlowProfile(TimeGrid(0.0, 1.0, 1), [[2.0], [0.0]])

    vi = affine_unit_instance()
    cfg = SolverConfig(algorithm="fb", max_iterations=10_000, tau_fixed=0.5, tolerance=0.0)
    h, _ = solve(vi.operator, cfg, h_start, vi.trips, vi.paths_by_od)
    assert norm(h.rates - vi.solution.rates, vi.grid.dt) <= 1e-4

    vi = affine_unit_instance()
    cfg = SolverConfig(algorithm="fbf", max_iterations=10_000, tau0=10.0, mu=0.5,
                       **FBF_SCHEDULES)
    h, _ = solve(vi.operator, cfg, h_start, vi.trips, vi.paths_by_od)
    assert norm(h.rates - vi.solution.rates, vi.grid.dt) <= 1e-4

    own = time.perf_counter() - start
    vi = affine_unit_instance()
    cfg = SolverConfig(algorithm="ifbf", max_iterations=10_000, tau0=10.0, mu=0.5,
                       lam=0.5, alpha=0.7, **IFBF_SCHEDULES)
    h, _, ifbf_s = solved("affine_unit", cfg, h_start.rates)
    assert norm(h.rates - vi.solution.rates, vi.grid.dt) <= 1e-4
    _report(3, "strong convergence, monotone", own + ifbf_s, 30)


def test_criterion_04_pseudo_monotone_non_monotone(solved):
    start = time.perf_counter()
    h_start = PathFlowProfile(TimeGrid(0.0, 1.0, 1), [[2.0], [0.0]])
    scaled = scaled_pseudo_monotone(affine_unit_instance())
    witness = monotonicity_violation_witness(scaled, radius=4.0, samples=3000, seed=0)
    assert witness is not None and witness[2] < -1e-3

    cfg = SolverConfig(algorithm="fbf", max_iterations=10_000, tau0=10.0, mu=0.5,
                       **FBF_SCHEDULES)
    h, _ = solve(scaled.operator, cfg, h_start, scaled.trips, scaled.paths_by_od)
    assert norm(h.rates - scaled.solution.rates, scaled.grid.dt) <= 1e-4

    own = time.perf_counter() - start
    scaled = scaled_pseudo_monotone(affine_unit_instance())
    cfg = SolverConfig(algorithm="ifbf", max_iterations=10_000, tau0=10.0, mu=0.5,
                       lam=0.5, alpha=0.7, **IFBF_SCHEDULES)
    h, _, ifbf_s = solved("scaled_affine_unit", cfg, h_start.rates)
    assert norm(h.rates - scaled.solution.rates, scaled.grid.dt) <= 1e-4
    _report(4, "pseudo-monotone convergence", own + ifbf_s, 60)


def test_criterion_05_minimum_norm_selection(solved):
    start = time.perf_counter()
    h_start = PathFlowProfile(TimeGrid(0.0, 1.0, 1), [[2.0], [0.0]])
    vi = affine_operator(np.zeros((2, 2)), np.zeros(2))
    target = project_feasible(np.zeros((2, 1)), vi.layout)
    np.testing.assert_allclose(target.ravel(), [1.0, 1.0])
    own = time.perf_counter() - start

    cfg = SolverConfig(algorithm="fbf", max_iterations=50_000, tau0=1.0, mu=0.5,
                       **FBF_SCHEDULES)
    h, _, fbf_s = solved("zero", cfg, h_start.rates)
    assert norm(h.rates - target, vi.grid.dt) <= 1e-2

    vi = affine_operator(np.zeros((2, 2)), np.zeros(2))
    cfg = SolverConfig(algorithm="ifbf", max_iterations=50_000, tau0=1.0, mu=0.5,
                       lam=0.5, alpha=0.7, **IFBF_SCHEDULES)
    h, _, ifbf_s = solved("zero", cfg, h_start.rates)
    assert norm(h.rates - target, vi.grid.dt) <= 1e-2
    _report(5, "minimum-norm selection", own + fbf_s + ifbf_s, 30)


def test_criterion_06_dnl_conservation_and_fifo(nguyen):
    start = time.perf_counter()
    grid = TimeGrid(0.0, 2.0, 70)
    h = uniform_profile(nguyen, grid)
    res = run_dnl(h, nguyen, buffer=2.5)
    total_demand = sum(nguyen.trips.demands.values())
    assert total_exited(res) == pytest.approx(total_demand, rel=1e-6)
    rep = audit_loading(res)
    assert rep["junction_conservation"] <= 1e-12
    assert rep["occupancy"] <= 1e-9
    assert rep["monotone"] <= 1e-12
    assert rep["path_split"] <= 1e-9
    assert rep["flow_bounds"] <= 0.0
    bt = res.grid_ext.boundaries()
    for e in range(len(res.engine.link_ids)):
        lam = probe_link_exit(res, e, bt[:-1])
        assert np.all(np.diff(lam) >= -1e-9)
    _report(6, "loading conservation and FIFO", time.perf_counter() - start, 60)


def test_criterion_07_free_flow_oracle(nguyen):
    start = time.perf_counter()
    grid = TimeGrid(0.0, 2.0, 70)
    # keep every link's flow at or below 1e-3 of its capacity
    paths_per_link = {}
    for p in nguyen.paths:
        for e in p.links:
            paths_per_link[e] = paths_per_link.get(e, 0) + 1
    cap = min(
        1e-3 * nguyen.links[e].capacity / count for e, count in paths_per_link.items()
    )
    h = PathFlowProfile(grid, np.full((nguyen.num_paths, grid.num_intervals), cap))
    res = run_dnl(h, nguyen, buffer=1.0)
    delays = res.path_delays()
    for r, p in enumerate(nguyen.paths):
        ff = sum(nguyen.links[e].free_flow_time for e in p.links)
        assert np.max(np.abs(delays[r] - ff)) < grid.dt
    _report(7, "free-flow delays", time.perf_counter() - start, 10)


@pytest.fixture(scope="module")
def nguyen_ifbf_run(nguyen):
    """The published-parameter run: 200 iterations, adaptive step from 2000."""
    grid = TimeGrid(0.0, 2.0, 70)
    by_od = nguyen.path_rows_by_od()
    op = dnl_operator(nguyen, grid, gamma=1.0, buffer=2.5)
    h0 = uniform_start(grid, nguyen.trips, by_od)
    cfg = SolverConfig(algorithm="ifbf", max_iterations=200, tau0=2000.0,
                       mu=0.5, lam=0.5, alpha=0.7,
                       beta_schedule="pow(10, -2, 1)", eps_schedule="pow(1, -5, 32)")
    start = time.perf_counter()
    h, log = solve(op, cfg, h0, nguyen.trips, by_od)
    elapsed = time.perf_counter() - start
    res = run_dnl(h, nguyen, buffer=2.5)
    eff = effective_delay(res.path_delays(), grid, nguyen.trips,
                          nguyen.od_by_path(), 1.0)
    return dict(h=h, log=log, eff=eff, by_od=by_od, elapsed=elapsed, grid=grid)


def test_criterion_08_nguyen_replication(nguyen, nguyen_ifbf_run):
    run = nguyen_ifbf_run
    energy = run["log"].column("energy")
    assert energy[-1] <= 1e-2 * energy[0], (energy[0], energy[-1])
    gaps = sorted(od_gap(run["h"], run["eff"], run["by_od"]).values())
    median = gaps[len(gaps) // 2]
    assert median < 0.5, gaps
    _report(8, "qualitative benchmark replication", run["elapsed"], 600)


def test_departure_peaks_align_with_delay_minima(nguyen, nguyen_ifbf_run):
    # flow-weighted mean cost below the unweighted mean over used cells:
    # departures concentrate where effective delays are low
    run = nguyen_ifbf_run
    h, eff = run["h"], run["eff"]
    eps = 1e-6 * h.rates.max()
    for od, rows in run["by_od"].items():
        rates = h.rates[rows]
        costs = eff.delays[rows]
        used = rates > eps
        weighted = float((rates[used] * costs[used]).sum() / rates[used].sum())
        unweighted = float(costs[used].mean())
        assert weighted <= unweighted, od


def test_criterion_09_operator_call_accounting():
    start = time.perf_counter()
    h_start = PathFlowProfile(TimeGrid(0.0, 1.0, 1), [[2.0], [0.0]])

    vi = affine_unit_instance()
    cfg = SolverConfig(algorithm="fb", max_iterations=17, tau_fixed=0.5)
    solve(vi.operator, cfg, h_start, vi.trips, vi.paths_by_od)
    assert vi.operator.eval_count == 17

    vi = affine_unit_instance()
    cfg = SolverConfig(algorithm="fbf", max_iterations=17, tau0=1.0, **FBF_SCHEDULES)
    solve(vi.operator, cfg, h_start, vi.trips, vi.paths_by_od)
    assert vi.operator.eval_count == 34

    vi = affine_unit_instance()
    cfg = SolverConfig(algorithm="ifbf", max_iterations=17, tau0=1.0, **IFBF_SCHEDULES)
    solve(vi.operator, cfg, h_start, vi.trips, vi.paths_by_od)
    assert vi.operator.eval_count == 34

    vi = affine_unit_instance()
    cfg = SolverConfig(algorithm="ifbf", max_iterations=1, tau0=1.0, **IFBF_SCHEDULES)
    solve(vi.operator, cfg, h_start, vi.trips, vi.paths_by_od)
    assert vi.operator.eval_count == 2
    _report(9, "operator-call accounting", time.perf_counter() - start, 10)


def test_criterion_10_cmd_run_determinism(tmp_path, nguyen_dir):
    start = time.perf_counter()
    outputs = []
    for tag in ("first", "second"):
        cfg = {
            "network_dir": str(nguyen_dir),
            "grid": {"t0": 0.0, "t1": 2.0, "num_intervals": 70},
            "horizon_buffer": 2.5,
            "gamma": 1.0,
            "solver": {"algorithm": "fb", "max_iterations": 3, "tau": 10.0},
            "output_dir": str(tmp_path / tag),
        }
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["run", "-c", str(path)]) == 0
        outputs.append(tmp_path / tag)
    for name in ("iterations.csv", "final_flows.csv", "final_delays.csv", "od_gaps.csv"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name
    _report(10, "bitwise-deterministic runs", time.perf_counter() - start, 60)
