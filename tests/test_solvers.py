import dataclasses
import json
import math
import runpy
import weakref

import numpy as np
import pytest

from conftest import REPO_ROOT, SOLVE_INSTANCES
from due.cli import RunConfig
from due.errors import ConfigurationError, UnfinishedTripError, ValidationError
from due.operators import DelayOperator, affine_operator, scaled_pseudo_monotone
from due.solvers import (
    ScheduleSpec,
    SolverConfig,
    _adaptive_step,
    parse_schedule,
    solve,
    uniform_start,
)
from due.space import DelayProfile, PathFlowProfile, TimeGrid, TripTable, norm, project_feasible
from oracles import project_feasible_by_block, reference_iterates


def zero_instance():
    return affine_operator(np.zeros((2, 2)), np.zeros(2))


def cocoercive_instance():
    return affine_operator(np.eye(2), np.array([-1.0, -1.0]), solution=np.array([1.0, 1.0]))


def vertex_start(vi):
    return PathFlowProfile(vi.grid, [[2.0], [0.0]])


FBF_TEST = dict(alpha_schedule="pow(9, -1, 1)", beta_schedule="const(0.7)")
IFBF_TEST = dict(beta_schedule="pow(9, -1, 1)", eps_schedule="pow(1, -2, 0.1)")


# text, value at n (the family's own formula, so compared bitwise), limit,
# whether the series diverges, decay exponent r (value ~ n^-r)
FAMILY_ROWS = [
    ("pow(1, -0.9, 1)", lambda n: 1.0 * (1.0 + n) ** -0.9, 0.0, True, 0.9),
    ("pow(10, -2, 1)", lambda n: 1.0 * (10.0 + n) ** -2.0, 0.0, False, 2.0),
    ("pow(1, -1, 0)", lambda n: 0.0 * (1.0 + n) ** -1.0, 0.0, False, 1.0),
    ("pow(2, 0.5, -3)", lambda n: -3.0 * (2.0 + n) ** 0.5, -math.inf, True, -0.5),
    ("pow(3, 0, 2.5)", lambda n: 2.5 * (3.0 + n) ** 0.0, 2.5, True, 0.0),
    ("affine_pow(0.7, -0.7, 1, -0.7)", lambda n: 0.7 + -0.7 * (1.0 + n) ** -0.7,
     0.7, True, 0.0),
    ("affine_pow(1, 2, 0, 0)", lambda n: 1.0 + 2.0 * (0.0 + n) ** 0.0, 3.0, True, 0.0),
    ("affine_pow(0.5, -1, 1, 2)", lambda n: 0.5 + -1.0 * (1.0 + n) ** 2.0,
     -math.inf, True, 0.0),
    ("affine_pow(0, 2, 1, -1.5)", lambda n: 0.0 + 2.0 * (1.0 + n) ** -1.5, 0.0, False, 1.5),
    ("affine_pow(0, 2, 1, -1)", lambda n: 0.0 + 2.0 * (1.0 + n) ** -1.0, 0.0, True, 1.0),
    ("rational(10, 10, 1)", lambda n: 10.0 / (10.0 * n + 1.0), 0.0, True, 1.0),
    ("rational(0, 2, 1)", lambda n: 0.0 / (2.0 * n + 1.0), 0.0, False, 1.0),
    ("rational(4, 0, 8)", lambda n: 4.0 / (0.0 * n + 8.0), 0.5, True, 0.0),
    ("const(0.25)", lambda n: 0.25, 0.25, True, 0.0),
    ("const(0)", lambda n: 0.0, 0.0, False, 0.0),
]


class TestSchedules:
    def test_table_families_at_zero(self):
        assert parse_schedule("pow(1, -0.9, 1)").raw(0) == pytest.approx(1.0)
        assert parse_schedule("pow(10, -2, 1)").raw(0) == pytest.approx(0.01)
        assert parse_schedule("rational(10, 10, 1)").raw(1) == pytest.approx(10.0 / 11.0)
        # 0.7 - 0.7 (1+n)^-0.7 at n = 0
        assert parse_schedule("affine_pow(0.7, -0.7, 1, -0.7)").raw(0) == pytest.approx(0.0)
        # (2/(1+n))^5 = 32 (1+n)^-5
        assert parse_schedule("pow(1, -5, 32)").raw(0) == pytest.approx(32.0)
        assert parse_schedule("pow(1, -5, 32)").raw(1) == pytest.approx(1.0)

    def test_bare_number_is_constant(self):
        assert parse_schedule("0.25").raw(17) == 0.25
        assert parse_schedule(0.25).raw(3) == 0.25

    @pytest.mark.parametrize("text, value, limit, diverges, decay", FAMILY_ROWS,
                             ids=[row[0].replace(" ", "") for row in FAMILY_ROWS])
    def test_family_table(self, text, value, limit, diverges, decay):
        s = parse_schedule(text)
        for n in (0, 1, 2, 7, 100):
            assert s.raw(n) == value(n), n
        assert s.limit() == limit
        assert s.sum_diverges() is diverges
        assert s.decay_exponent() == decay

    def test_parse_error_with_position(self):
        with pytest.raises(ConfigurationError, match="unknown schedule family"):
            parse_schedule("po(1, 2, 3)")
        with pytest.raises(ConfigurationError, match="takes 3 arguments"):
            parse_schedule("pow(1, 2)")
        with pytest.raises(ConfigurationError, match="cannot parse"):
            parse_schedule("not a schedule")
        for flag in (True, False):
            with pytest.raises(TypeError, match="not " + repr(flag)):
                parse_schedule(flag)

    def test_symbolic_family_properties(self):
        s = parse_schedule("pow(1, -0.9, 1)")
        assert s.limit() == 0.0
        assert s.sum_diverges()
        assert not parse_schedule("pow(10, -2, 1)").sum_diverges()
        assert parse_schedule("rational(10, 10, 1)").sum_diverges()
        assert parse_schedule("affine_pow(0.7, -0.7, 1, -0.7)").limit() == pytest.approx(0.7)

    def test_offset_shifts_index(self):
        # rational(10, 10, 1) is 1 at index 0, outside (0, 1): its table starts at index 1
        from due.solvers import _tabulate

        s = ScheduleSpec("rational", (10.0, 10.0, 1.0))
        values, offset, name = _tabulate(s, lambda v, n: 0 < v < 1, 5, "anchor weight")
        assert (offset, name) == (1, "rational(10.0, 10.0, 1.0) [index offset 1]")
        assert values == [s.raw(n + 1) for n in range(6)]
        assert values[0] == pytest.approx(10.0 / 11.0)

    def test_out_of_range_families_auto_shift(self):
        # anchor families whose first term is >= 1 start one index later
        from due.solvers import _check_anchor_schedules

        cfg = SolverConfig(algorithm="ifbf", max_iterations=50, tau0=1.0,
                           beta_schedule="rational(10, 10, 1)",
                           eps_schedule="pow(0.1, -1.1, 1)")
        betas, eps, notes = _check_anchor_schedules(
            cfg, "beta", "eps", "inertia budget", lambda v, a: v > 0, outpaces_anchor=True)
        assert betas == [parse_schedule("rational(10, 10, 1)").raw(n + 1) for n in range(51)]
        assert betas[0] == pytest.approx(10.0 / 11.0)
        assert eps == [parse_schedule("pow(0.1, -1.1, 1)").raw(n) for n in range(51)]
        assert any("shifted indices (beta 1, eps 0)" in n for n in notes)


class TestRunFb:
    def test_zero_operator_is_fixed_point(self):
        vi = zero_instance()
        h0 = vertex_start(vi)
        cfg = SolverConfig(algorithm="fb", max_iterations=50, tau_fixed=1.0)
        h, log = solve(vi.operator, cfg, h0, vi.trips, vi.paths_by_od)
        assert norm(h.rates - h0.rates, vi.grid.dt) == 0.0
        assert all(r.residual == 0.0 for r in log.records)

    def test_cocoercive_linear_convergence(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="fb", max_iterations=200, tau_fixed=0.5)
        h, log = solve(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert norm(h.rates - vi.solution.rates, vi.grid.dt) <= 1e-6

    def test_one_call_per_iteration(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="fb", max_iterations=37, tau_fixed=0.5)
        base = vi.operator.eval_count
        _, log = solve(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert vi.operator.eval_count - base == 37
        assert log.iterations == 37

    def test_residual_drops_six_orders(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="fb", max_iterations=200, tau_fixed=0.5)
        _, log = solve(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        res = log.column("residual")
        assert res[-1] <= 1e-6 * res[0]


class TestRunFbf:
    def test_zero_operator_reaches_minimum_norm_point(self, solved):
        # the fbf solve of acceptance criterion 05
        vi = zero_instance()
        target = project_feasible(np.zeros((2, 1)), vi.layout)
        cfg = SolverConfig(algorithm="fbf", max_iterations=50_000, tau0=1.0, **FBF_TEST)
        h, _log, _elapsed = solved("zero", cfg)
        np.testing.assert_allclose(h.rates, target, atol=1e-2)

    def test_step_rule_arithmetic(self):
        # ||x - y|| = 1, ||A(x) - A(y)|| = 4, mu = 0.5, tau = 10: the next tau
        # is 0.5 * 1 / 4; a smaller tau caps it; with equal delays, tau is kept
        dt = 0.25
        x, y = np.array([[2.0, 0.0]]), np.zeros((1, 2))
        a_x, a_y = np.array([[3.0, 5.0]]), np.array([[3.0, -3.0]])
        residual = norm(x - y, dt)
        assert (residual, norm(a_x - a_y, dt)) == (1.0, 4.0)
        assert _adaptive_step(10.0, 0.5, residual, a_x, a_y, dt) == 0.125
        assert _adaptive_step(0.1, 0.5, residual, a_x, a_y, dt) == 0.1
        assert _adaptive_step(10.0, 0.5, residual, a_x, a_x.copy(), dt) == 10.0

    def test_equal_delays_keep_step(self):
        vi = zero_instance()
        cfg = SolverConfig(algorithm="fbf", max_iterations=20, tau0=3.0, **FBF_TEST)
        _, log = solve(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert all(r.tau == 3.0 for r in log.records)

    def test_two_calls_per_iteration(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="fbf", max_iterations=25, tau0=1.0, **FBF_TEST)
        base = vi.operator.eval_count
        solve(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert vi.operator.eval_count - base == 50

    def test_schedule_violation_rejected_before_iterating(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="fbf", max_iterations=10, tau0=1.0,
                           alpha_schedule="const(0.5)", beta_schedule="const(0.7)")
        base = vi.operator.eval_count
        with pytest.raises(ConfigurationError):
            solve(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert vi.operator.eval_count == base

    def test_missing_schedules_rejected(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="fbf", max_iterations=10, tau0=1.0)
        with pytest.raises(ConfigurationError, match="needs alpha_schedule"):
            solve(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)


class TestRunIfbf:
    def test_zero_operator_reaches_minimum_norm_point(self, solved):
        # the ifbf solve of acceptance criterion 05
        vi = zero_instance()
        target = project_feasible(np.zeros((2, 1)), vi.layout)
        cfg = SolverConfig(algorithm="ifbf", max_iterations=50_000, tau0=1.0, **IFBF_TEST)
        h, _log, _elapsed = solved("zero", cfg)
        np.testing.assert_allclose(h.rates, target, atol=1e-2)

    def test_affine_monotone_converges(self, solved):
        # the ifbf solve of acceptance criterion 03
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="ifbf", max_iterations=10_000, tau0=10.0, **IFBF_TEST)
        h, _log, _elapsed = solved("affine_unit", cfg)
        assert norm(h.rates - vi.solution.rates, vi.grid.dt) <= 1e-4

    def test_scaled_pseudo_monotone_same_limit(self, solved):
        # the ifbf solve of acceptance criterion 04
        vi = scaled_pseudo_monotone(cocoercive_instance())
        cfg = SolverConfig(algorithm="ifbf", max_iterations=10_000, tau0=10.0, **IFBF_TEST)
        h, _log, _elapsed = solved("scaled_affine_unit", cfg)
        assert norm(h.rates - vi.solution.rates, vi.grid.dt) <= 1e-4

    def test_step_sequence_monotone_with_floor(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(4, 4))
        m = g.T @ g
        vi = affine_operator(m, rng.normal(size=4))
        h0 = uniform_start(vi.grid, vi.trips, vi.paths_by_od)
        for tau0 in (0.01, 10.0):
            cfg = SolverConfig(algorithm="ifbf", max_iterations=300, tau0=tau0, **IFBF_TEST)
            _, log = solve(vi.operator, cfg, h0, vi.trips, vi.paths_by_od)
            taus = log.column("tau")
            assert np.all(np.diff(taus) <= 1e-15)
            assert taus.min() >= min(cfg.mu / vi.operator.lipschitz, tau0) - 1e-12

    def test_step_bound_consequence(self):
        # after each update, operator variation is within (mu / tau_next) of the
        # point variation; verified through the logged taus on a fresh run
        vi = cocoercive_instance()
        op = vi.operator

        calls = []
        original = op._compute

        def traced(h):
            calls.append(h)
            return original(h)

        op._compute = traced
        cfg = SolverConfig(algorithm="ifbf", max_iterations=40, tau0=5.0, **IFBF_TEST)
        _, log = solve(op, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        op._compute = original
        taus = log.column("tau")
        mu = cfg.mu
        for n in range(len(taus) - 1):
            w, y = calls[2 * n], calls[2 * n + 1]
            aw = original(w).delays
            ay = original(y).delays
            lhs = math.sqrt(((aw - ay) ** 2).sum() * vi.grid.dt)
            rhs = mu / taus[n + 1] * norm(w.rates - y.rates, vi.grid.dt)
            assert lhs <= rhs + 1e-12

    def test_inertia_discipline(self):
        # reconstruct the iterates from the traced operator inputs and check
        # alpha_{n+1} * ||h_{n+1} - h_n|| <= eps_{n+1} whenever the step moved
        from due.solvers import parse_schedule

        vi = cocoercive_instance()
        op = vi.operator
        calls = []
        original = op._compute

        def traced(h):
            calls.append(h)
            return original(h)

        op._compute = traced
        cfg = SolverConfig(algorithm="ifbf", max_iterations=150, tau0=10.0, **IFBF_TEST)
        h0 = vertex_start(vi)
        _, log = solve(op, cfg, h0, vi.trips, vi.paths_by_od)
        op._compute = original

        alphas = log.column("alpha")
        taus = log.column("tau")
        eps_s = parse_schedule(IFBF_TEST["eps_schedule"])
        h = h0.rates
        for n in range(log.iterations - 1):
            w, y = calls[2 * n], calls[2 * n + 1]
            aw, ay = original(w).delays, original(y).delays
            corrected = y.rates + taus[n] * (aw - ay)
            h_next = (1 - cfg.lam) * w.rates + cfg.lam * corrected
            step = norm(h_next - h, vi.grid.dt)
            if step > 0:
                assert alphas[n + 1] * step <= eps_s.raw(n + 1) + 1e-12
            h = h_next

    def test_inertia_uncapped_after_an_underflowing_step(self):
        # iterates about 1e-170 apart: the squares of their differences
        # underflow, so the step is 0.0 while the iterates differ
        from due.solvers import _ifbf

        grid = TimeGrid(0.0, 1.0, 1)
        trips = TripTable({"w": 1e-170}, {"w": 1.0})
        by_od = {"w": np.arange(2)}
        vi = affine_operator(np.eye(2), np.array([0.0, 1.0]), trips, by_od, grid)
        h0 = PathFlowProfile(grid, [[1e-170], [0.0]])
        cfg = SolverConfig(algorithm="ifbf", max_iterations=5, tau0=1.0,
                           beta_schedule="pow(10, -2, 1)", eps_schedule="pow(1, -5, 32)")
        _h, log = solve(vi.operator, cfg, h0, trips, by_od)
        assert log.iterations == 5
        _notes, steps = _ifbf(cfg)
        iterates = steps(lambda x: vi.operator.evaluate(PathFlowProfile(grid, x)).delays,
                         lambda x: project_feasible(x, vi.layout), h0.rates, grid.dt)
        h, zero_steps = h0.rates, 0
        for n, (h_next, *_values) in zip(range(cfg.max_iterations - 1), iterates):
            if norm(h_next - h, grid.dt) == 0.0:
                zero_steps += 1
                assert not np.array_equal(h_next, h)
                assert log.records[n + 1].alpha == cfg.alpha
            h = h_next
        assert zero_steps > 0
        assert_same_as_reference(vi.operator, cfg, h0, trips, by_od)

    def test_two_calls_per_iteration(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="ifbf", max_iterations=33, tau0=1.0, **IFBF_TEST)
        base = vi.operator.eval_count
        solve(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert vi.operator.eval_count - base == 66

    def test_final_profile_is_feasible(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="ifbf", max_iterations=50, tau0=1.0, **IFBF_TEST)
        h, _ = solve(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert np.all(h.rates >= 0)
        assert h.rates.sum() * vi.grid.dt == pytest.approx(2.0, rel=1e-9)


class SeparableOperator(DelayOperator):
    """A(h) = D * (h - h_star), entrywise: monotone, solved by a feasible h_star."""

    def __init__(self, d, h_star):
        super().__init__(lipschitz=None)
        self.d, self.h_star = d, h_star

    def _compute(self, h):
        return DelayProfile(h.grid, self.d * (h.rates - self.h_star))


def assert_same_as_reference(op, cfg, h0, trips, by_od):
    """`solve` and `reference_iterates` from one start, with the operator's
    count reset before each: every record field and the final profile equal
    bit for bit."""
    op.reset_count()
    h, log = solve(op, cfg, h0, trips, by_od)
    op.reset_count()
    records, h_ref = reference_iterates(op, cfg, h0, trips, by_od)
    got = np.array([dataclasses.astuple(r) for r in log.records], dtype=float)
    want = np.array(records, dtype=float)
    assert got.shape == want.shape == (cfg.max_iterations, 7)
    for column, name in enumerate(log.CSV_FIELDS):
        assert np.array_equal(got[:, column].view(np.int64), want[:, column].view(np.int64)), name
    assert np.array_equal(h.rates.view(np.int64), h_ref.view(np.int64))


SCHEDULES = {"fb": dict(tau_fixed=0.5), "fbf": FBF_TEST, "ifbf": IFBF_TEST}


class TestReferenceIterates:
    @pytest.mark.parametrize("algorithm", ["fb", "fbf", "ifbf"])
    @pytest.mark.parametrize("instance", sorted(SOLVE_INSTANCES))
    def test_two_path_instances(self, instance, algorithm):
        vi = SOLVE_INSTANCES[instance]()
        cfg = SolverConfig(algorithm=algorithm, max_iterations=60, tau0=10.0,
                           **SCHEDULES[algorithm])
        assert_same_as_reference(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)

    def test_separable_vi_on_siouxfalls_blocks(self, siouxfalls_dir):
        # the shape of the benchmark's vi_siouxfalls solve: 528 O-D blocks, 10 intervals
        from due.network import load_network_dir

        net = load_network_dir(siouxfalls_dir)
        by_od = net.path_rows_by_od()
        grid = TimeGrid(0.0, 2.0, 10)
        rng = np.random.default_rng(28)
        shape = (net.num_paths, grid.num_intervals)
        h_star = project_feasible_by_block(rng.uniform(0.0, 50.0, size=shape), grid.dt,
                                           net.trips, by_od)
        op = SeparableOperator(rng.uniform(0.5, 2.0, size=shape), h_star)
        cfg = SolverConfig(algorithm="ifbf", max_iterations=30, tau0=2000.0,
                           beta_schedule="pow(10, -2, 1)", eps_schedule="pow(1, -5, 32)")
        assert_same_as_reference(op, cfg, uniform_start(grid, net.trips, by_od),
                                 net.trips, by_od)

    def test_nguyen_ifbf(self, nguyen):
        from due.operators import dnl_operator

        run = RunConfig.from_file(REPO_ROOT / "configs" / "nguyen_ifbf.json")
        cfg = dataclasses.replace(run.solver, max_iterations=5)
        by_od = nguyen.path_rows_by_od()
        op = dnl_operator(nguyen, run.grid, gamma=run.gamma, buffer=run.horizon_buffer)
        assert_same_as_reference(op, cfg, uniform_start(run.grid, nguyen.trips, by_od),
                                 nguyen.trips, by_od)


class TestSolveDispatch:
    def test_dispatch_matches_direct_call(self):
        # `solve` records what the fb update rule yields, driven here by hand
        from due.solvers import _fb

        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="fb", max_iterations=10, tau_fixed=0.5)
        h, log = solve(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        vi2 = cocoercive_instance()
        _notes, steps = _fb(cfg)
        iterates = steps(lambda x: vi2.operator.evaluate(PathFlowProfile(vi2.grid, x)).delays,
                         lambda x: project_feasible(x, vi2.layout),
                         vertex_start(vi2).rates, vi2.grid.dt)
        for record in log.records:
            want, *values = next(iterates)
            assert [record.tau, record.alpha, record.beta, record.residual,
                    record.energy] == pytest.approx(values, rel=0, abs=0, nan_ok=True)
        np.testing.assert_array_equal(h.rates, want)

    @pytest.mark.parametrize("algorithm, schedules, tolerance, calls, iterations", [
        ("fb", {}, 1e-3, 1, 11), ("fbf", FBF_TEST, 0.2, 2, 13), ("ifbf", IFBF_TEST, 0.2, 2, 21),
    ], ids=["fb", "fbf", "ifbf"])
    def test_tolerance_stops_at_first_small_residual(self, algorithm, schedules, tolerance,
                                                    calls, iterations):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm=algorithm, max_iterations=100, tau0=1.0, tau_fixed=0.5,
                           tolerance=tolerance, **schedules)
        _, log = solve(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        residuals = log.column("residual")
        assert log.stop_reason == "residual_tolerance"
        assert log.iterations == iterations
        assert residuals[-1] <= tolerance and np.all(residuals[:-1] > tolerance)
        # no evaluation after the stop
        assert vi.operator.eval_count == log.records[-1].operator_calls == calls * iterations

    @pytest.mark.parametrize("algorithm, schedules, calls", [
        ("fb", {}, 3), ("fbf", FBF_TEST, 6), ("ifbf", IFBF_TEST, 6),
    ], ids=["fb", "fbf", "ifbf"])
    def test_failure_carries_log_so_far(self, algorithm, schedules, calls):
        # the operator fails in its (calls + 1)-th evaluation, the first of
        # iteration 3 on every algorithm
        vi = cocoercive_instance()

        class Failing(DelayOperator):
            def _compute(self, h):
                if self.eval_count > calls:
                    raise UnfinishedTripError("p", 0)
                return vi.operator.evaluate(h)

        cfg = SolverConfig(algorithm=algorithm, max_iterations=10, tau0=1.0, tau_fixed=0.5,
                           **schedules)
        with pytest.raises(UnfinishedTripError) as info:
            solve(Failing(), cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        log = info.value.log
        assert [r.n for r in log.records] == [0, 1, 2]
        assert log.records[-1].operator_calls == calls
        assert log.algorithm == algorithm

    def test_uniform_start_is_feasible(self):
        vi = cocoercive_instance()
        h0 = uniform_start(vi.grid, vi.trips, vi.paths_by_od)
        proj = project_feasible(h0.rates, vi.layout)
        assert norm(h0.rates - proj, vi.grid.dt) <= 1e-12


class TestUniformStart:
    def test_broadcast_of_one_rate_per_path(self, nguyen):
        grid = TimeGrid(0.0, 2.0, 70)
        by_od = nguyen.path_rows_by_od()
        h0 = uniform_start(grid, nguyen.trips, by_od)
        dense = np.zeros((nguyen.num_paths, grid.num_intervals))
        for od, rows in by_od.items():
            dense[rows, :] = nguyen.trips.demands[od] / (len(rows) * (grid.t1 - grid.t0))
        assert np.array_equal(h0.rates.view(np.int64), dense.view(np.int64))
        assert not h0.rates.flags.writeable
        with pytest.raises(ValueError):
            h0.rates[0, 0] = 1.0
        # one float per path, read along each row with stride 0
        assert h0.rates.strides[1] == 0
        owner = h0.rates
        while owner.base is not None:
            owner = owner.base
        assert owner.nbytes == nguyen.num_paths * h0.rates.itemsize

    @pytest.mark.parametrize("algorithm", ["fb", "fbf", "ifbf"])
    def test_solve_as_from_a_dense_start(self, nguyen, algorithm):
        from due.operators import dnl_operator

        run = RunConfig.from_file(REPO_ROOT / "configs" / f"nguyen_{algorithm}.json")
        cfg = dataclasses.replace(run.solver, max_iterations=3)
        by_od = nguyen.path_rows_by_od()
        h0 = uniform_start(run.grid, nguyen.trips, by_od)
        solves = []
        for start in (h0, PathFlowProfile(run.grid, np.array(h0.rates))):
            op = dnl_operator(nguyen, run.grid, gamma=run.gamma, buffer=run.horizon_buffer)
            h, log = solve(op, cfg, start, nguyen.trips, by_od)
            solves.append((h.rates, np.array([dataclasses.astuple(r) for r in log.records])))
        (h_b, log_b), (h_d, log_d) = solves
        assert log_b.shape == (3, 7)
        assert np.array_equal(log_b.view(np.int64), log_d.view(np.int64))
        assert np.array_equal(h_b.view(np.int64), h_d.view(np.int64))


REGULARITY = ("operator regularity (Lipschitz continuity, pseudo-monotonicity) is assumed, "
              "not verified at runtime")
SUMMABLE = "anchor weights pow(10.0, -2.0, 1.0) are summable; strong convergence not guaranteed"


def header_notes(cfg):
    vi = cocoercive_instance()
    _, log = solve(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
    return log.header["notes"]


class TestHeaderNotes:
    # each config keeps its max_iterations: the index-offset search runs to it
    @pytest.mark.parametrize("source, notes", [
        ("nguyen_fb.json", [REGULARITY]),
        ("nguyen_fbf.json", ["schedules start at shifted indices (alpha 1, beta 1)", REGULARITY]),
        ("nguyen_ifbf.json", [SUMMABLE, REGULARITY]),
        ("nguyen_ifbf_dt120s.json", [SUMMABLE, REGULARITY]),
        ("siouxfalls_ifbf.json", ["schedules start at shifted indices (beta 1, eps 0)",
                                  REGULARITY]),
        ("duebench/inputs.py", [SUMMABLE, REGULARITY]),
    ], ids=["nguyen_fb", "nguyen_fbf", "nguyen_ifbf", "nguyen_ifbf_dt120s", "siouxfalls_ifbf",
            "vi_solver"])
    def test_shipped_solver_sections(self, source, notes):
        if source.endswith(".json"):
            section = json.loads((REPO_ROOT / "configs" / source).read_text())["solver"]
        else:
            section = runpy.run_path(str(REPO_ROOT / source))["VI_SOLVER"]
        raw = {"network_dir": ".", "grid": {"t1": 1.0, "num_intervals": 1},
               "solver": section, "output_dir": "."}
        assert header_notes(RunConfig.from_dict(raw).solver) == notes

    @pytest.mark.parametrize("schedules, notes", [
        (dict(algorithm="fbf", alpha_schedule="const(0.2)", beta_schedule="rational(10, 10, 1)"),
         ["anchor weights const(0.2) do not vanish; strong convergence not guaranteed",
          "schedules start at shifted indices (alpha 0, beta 2)"]),
        (dict(algorithm="fbf", alpha_schedule="pow(10, -2, 1)", beta_schedule="const(0.7)"),
         [SUMMABLE]),
        (dict(algorithm="ifbf", beta_schedule="affine_pow(0.5, 1, 1, -1)",
              eps_schedule="const(0.1)"), [
            "anchor weights affine_pow(0.5, 1.0, 1.0, -1.0) [index offset 2] do not vanish; "
            "strong convergence not guaranteed",
            "inertia budget const(0.1) does not vanish faster than anchor weights "
            "affine_pow(0.5, 1.0, 1.0, -1.0) [index offset 2]",
            "schedules start at shifted indices (beta 2, eps 0)"]),
        (dict(algorithm="ifbf", beta_schedule="pow(10, -2, 1)", eps_schedule="pow(1, -1, 1)"), [
            SUMMABLE,
            "inertia budget pow(1.0, -1.0, 1.0) does not vanish faster than anchor weights "
            "pow(10.0, -2.0, 1.0)"]),
    ], ids=["fbf_no_vanish_shift", "fbf_summable", "ifbf_no_vanish_decay_shift",
            "ifbf_summable_decay"])
    def test_every_note_in_order(self, schedules, notes):
        cfg = SolverConfig(max_iterations=20, tau0=1.0, **schedules)
        assert header_notes(cfg) == notes + [REGULARITY]


class TestBoundaryValidation:
    def test_non_finite_delay_rejected_on_first_evaluation(self):
        class NanOperator(DelayOperator):
            def _compute(self, h):
                delays = np.zeros_like(h.rates)
                delays[0, 0] = np.nan
                return DelayProfile(h.grid, delays)

        vi = cocoercive_instance()
        op = NanOperator()
        cfg = SolverConfig(algorithm="ifbf", max_iterations=5, tau0=1.0, **IFBF_TEST)
        with pytest.raises(ValidationError, match="non-finite"):
            solve(op, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert op.eval_count == 1

    @pytest.mark.parametrize("algorithm, schedules, calls", [
        ("fb", {}, 1), ("fbf", FBF_TEST, 2), ("ifbf", IFBF_TEST, 2),
    ], ids=["fb", "fbf", "ifbf"])
    def test_profiles_built_only_at_boundaries(self, monkeypatch, algorithm, schedules, calls):
        # one or two operator inputs per iteration plus the returned profile
        vi = cocoercive_instance()
        h0 = vertex_start(vi)
        built = []
        post_init = PathFlowProfile.__post_init__

        def counted(profile):
            built.append(profile)
            post_init(profile)

        monkeypatch.setattr(PathFlowProfile, "__post_init__", counted)
        cfg = SolverConfig(algorithm=algorithm, max_iterations=10, tau0=1.0, tau_fixed=0.5,
                           **schedules)
        solve(vi.operator, cfg, h0, vi.trips, vi.paths_by_od)
        assert len(built) == calls * 10 + 1

    @pytest.mark.parametrize("algorithm, schedules, final", [
        ("fb", {}, 0), ("fbf", FBF_TEST, 1), ("ifbf", IFBF_TEST, 1),
    ], ids=["fb", "fbf", "ifbf"])
    def test_projections_go_through_module_global(self, monkeypatch, algorithm,
                                                   schedules, final):
        # Benchmark tracing counts projections by wrapping
        # `due.solvers.project_feasible`: one per iteration, plus the final
        # projection of the anchored variants' reported profile.
        import due.solvers as solvers

        calls = []
        project = solvers.project_feasible

        def counted(rates, layout):
            calls.append(layout)
            return project(rates, layout)

        monkeypatch.setattr(solvers, "project_feasible", counted)
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm=algorithm, max_iterations=7, tau0=1.0, tau_fixed=0.5,
                           **schedules)
        _, log = solve(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert log.iterations == 7
        assert len(calls) == 7 + final
        assert all(layout is calls[0] for layout in calls)


    @pytest.mark.parametrize("algorithm, schedules", [("fbf", FBF_TEST), ("ifbf", IFBF_TEST)],
                             ids=["fbf", "ifbf"])
    def test_final_projection_holds_no_loop_array(self, monkeypatch, algorithm, schedules):
        # every operator input and output but the start is dead by the final
        # projection; the last iteration's first pair is alive at its own
        import due.solvers as solvers

        vi = cocoercive_instance()
        op = vi.operator
        arrays, alive = [], []
        evaluate, project = op.evaluate, solvers.project_feasible

        def traced(h):
            out = evaluate(h)
            arrays.extend([weakref.ref(h.rates.base), weakref.ref(out.delays)])
            return out

        def counted(rates, layout):
            alive.append([ref() is not None for ref in arrays])
            return project(rates, layout)

        monkeypatch.setattr(op, "evaluate", traced)
        monkeypatch.setattr(solvers, "project_feasible", counted)
        cfg = SolverConfig(algorithm=algorithm, max_iterations=5, tau0=1.0, **schedules)
        solve(op, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert len(alive) == 5 + 1
        assert alive[-2][-2:] == [True, True]
        assert alive[-1][1:] == [False] * (4 * 5 - 1)


class TestFbOnBenchmark:
    def test_energy_decays_on_nguyen(self, nguyen):
        # published protocol: constant step 10, 200 iterations
        from due.operators import dnl_operator
        from due.space import TimeGrid

        grid = TimeGrid(0.0, 2.0, 70)
        by_od = nguyen.path_rows_by_od()
        op = dnl_operator(nguyen, grid, gamma=1.0, buffer=2.5)
        h0 = uniform_start(grid, nguyen.trips, by_od)
        cfg = SolverConfig(algorithm="fb", max_iterations=200, tau_fixed=10.0)
        _, log = solve(op, cfg, h0, nguyen.trips, by_od)
        energy = log.column("energy")
        head = float(np.median(energy[:20]))
        tail = float(np.median(energy[-20:]))
        assert tail < head
        assert energy[-1] < energy[0]
