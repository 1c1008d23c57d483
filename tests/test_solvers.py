import math

import numpy as np
import pytest

from due.errors import ConfigurationError, UnfinishedTripError, ValidationError
from due.operators import DelayOperator, affine_operator, scaled_pseudo_monotone
from due.solvers import (
    ScheduleSpec,
    SolverConfig,
    eval_schedule,
    parse_schedule,
    run_fb,
    run_fbf,
    run_ifbf,
    solve,
    uniform_start,
)
from due.space import DelayProfile, PathFlowProfile, norm, project_feasible


def zero_instance():
    return affine_operator(np.zeros((2, 2)), np.zeros(2))


def cocoercive_instance():
    return affine_operator(np.eye(2), np.array([-1.0, -1.0]), solution=np.array([1.0, 1.0]))


def vertex_start(vi):
    return PathFlowProfile(vi.grid, [[2.0], [0.0]])


FBF_TEST = dict(alpha_schedule="pow(9, -1, 1)", beta_schedule="const(0.7)")
IFBF_TEST = dict(beta_schedule="pow(9, -1, 1)", eps_schedule="pow(1, -2, 0.1)")


class TestSchedules:
    def test_table_families_at_zero(self):
        assert eval_schedule("pow(1, -0.9, 1)", 0) == pytest.approx(1.0)
        assert eval_schedule("pow(10, -2, 1)", 0) == pytest.approx(0.01)
        assert eval_schedule("rational(10, 10, 1)", 1) == pytest.approx(10.0 / 11.0)
        # 0.7 - 0.7 (1+n)^-0.7 at n = 0
        assert eval_schedule("affine_pow(0.7, -0.7, 1, -0.7)", 0) == pytest.approx(0.0)
        # (2/(1+n))^5 = 32 (1+n)^-5
        assert eval_schedule("pow(1, -5, 32)", 0) == pytest.approx(32.0)
        assert eval_schedule("pow(1, -5, 32)", 1) == pytest.approx(1.0)

    def test_bare_number_is_constant(self):
        assert eval_schedule("0.25", 17) == 0.25
        assert eval_schedule(0.25, 3) == 0.25

    def test_parse_error_with_position(self):
        with pytest.raises(ConfigurationError, match="unknown schedule family"):
            parse_schedule("po(1, 2, 3)")
        with pytest.raises(ConfigurationError, match="takes 3 arguments"):
            parse_schedule("pow(1, 2)")
        with pytest.raises(ConfigurationError, match="cannot parse"):
            parse_schedule("not a schedule")

    def test_symbolic_family_properties(self):
        s = parse_schedule("pow(1, -0.9, 1)")
        assert s.limit() == 0.0
        assert s.sum_diverges()
        assert not parse_schedule("pow(10, -2, 1)").sum_diverges()
        assert parse_schedule("rational(10, 10, 1)").sum_diverges()
        assert parse_schedule("affine_pow(0.7, -0.7, 1, -0.7)").limit() == pytest.approx(0.7)

    def test_offset_shifts_index(self):
        s = ScheduleSpec("rational", (10.0, 10.0, 1.0), offset=1)
        assert s.value(0) == pytest.approx(10.0 / 11.0)

    def test_out_of_range_families_auto_shift(self):
        # anchor families whose first term is >= 1 start one index later
        from due.solvers import _validate_ifbf_schedules

        cfg = SolverConfig(algorithm="ifbf", max_iterations=50, tau0=1.0,
                           beta_schedule="rational(10, 10, 1)",
                           eps_schedule="pow(0.1, -1.1, 1)")
        beta_s, eps_s, notes = _validate_ifbf_schedules(cfg)
        assert beta_s.offset == 1
        assert beta_s.value(0) == pytest.approx(10.0 / 11.0)
        assert eps_s.offset == 0
        assert any("shifted indices" in n for n in notes)


class TestRunFb:
    def test_zero_operator_is_fixed_point(self):
        vi = zero_instance()
        h0 = vertex_start(vi)
        cfg = SolverConfig(algorithm="fb", max_iterations=50, tau_fixed=1.0)
        h, log = run_fb(vi.operator, cfg, h0, vi.trips, vi.paths_by_od)
        assert norm(h.rates - h0.rates, vi.grid.dt) == 0.0
        assert all(r.residual == 0.0 for r in log.records)

    def test_cocoercive_linear_convergence(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="fb", max_iterations=200, tau_fixed=0.5)
        h, log = run_fb(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert norm(h.rates - vi.solution.rates, vi.grid.dt) <= 1e-6

    def test_one_call_per_iteration(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="fb", max_iterations=37, tau_fixed=0.5)
        base = vi.operator.eval_count
        _, log = run_fb(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert vi.operator.eval_count - base == 37
        assert log.iterations == 37

    def test_residual_drops_six_orders(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="fb", max_iterations=200, tau_fixed=0.5)
        _, log = run_fb(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        res = log.column("residual")
        assert res[-1] <= 1e-6 * res[0]


class TestRunFbf:
    def test_zero_operator_reaches_minimum_norm_point(self):
        vi = zero_instance()
        target = project_feasible(np.zeros((2, 1)), vi.layout)
        cfg = SolverConfig(algorithm="fbf", max_iterations=50_000, tau0=1.0, **FBF_TEST)
        h, _ = run_fbf(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        np.testing.assert_allclose(h.rates, target, atol=1e-2)

    def test_step_rule_arithmetic(self):
        # ||y-h|| = 1, ||A(y)-A(h)|| = 4, mu = 0.5, tau = 10 -> next tau 0.125
        assert min(10.0, 0.5 * 1.0 / 4.0) == pytest.approx(0.125)

    def test_equal_delays_keep_step(self):
        vi = zero_instance()
        cfg = SolverConfig(algorithm="fbf", max_iterations=20, tau0=3.0, **FBF_TEST)
        _, log = run_fbf(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert all(r.tau == 3.0 for r in log.records)

    def test_two_calls_per_iteration(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="fbf", max_iterations=25, tau0=1.0, **FBF_TEST)
        base = vi.operator.eval_count
        run_fbf(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert vi.operator.eval_count - base == 50

    def test_schedule_violation_rejected_before_iterating(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="fbf", max_iterations=10, tau0=1.0,
                           alpha_schedule="const(0.5)", beta_schedule="const(0.7)")
        base = vi.operator.eval_count
        with pytest.raises(ConfigurationError):
            run_fbf(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert vi.operator.eval_count == base

    def test_missing_schedules_rejected(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="fbf", max_iterations=10, tau0=1.0)
        with pytest.raises(ConfigurationError, match="needs alpha_schedule"):
            run_fbf(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)


class TestRunIfbf:
    def test_zero_operator_reaches_minimum_norm_point(self):
        vi = zero_instance()
        target = project_feasible(np.zeros((2, 1)), vi.layout)
        cfg = SolverConfig(algorithm="ifbf", max_iterations=50_000, tau0=1.0, **IFBF_TEST)
        h, _ = run_ifbf(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        np.testing.assert_allclose(h.rates, target, atol=1e-2)

    def test_affine_monotone_converges(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="ifbf", max_iterations=10_000, tau0=10.0, **IFBF_TEST)
        h, _ = run_ifbf(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert norm(h.rates - vi.solution.rates, vi.grid.dt) <= 1e-4

    def test_scaled_pseudo_monotone_same_limit(self):
        vi = scaled_pseudo_monotone(cocoercive_instance())
        cfg = SolverConfig(algorithm="ifbf", max_iterations=10_000, tau0=10.0, **IFBF_TEST)
        h, _ = run_ifbf(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert norm(h.rates - vi.solution.rates, vi.grid.dt) <= 1e-4

    def test_step_sequence_monotone_with_floor(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(4, 4))
        m = g.T @ g
        vi = affine_operator(m, rng.normal(size=4))
        h0 = uniform_start(vi.grid, vi.trips, vi.paths_by_od)
        for tau0 in (0.01, 10.0):
            cfg = SolverConfig(algorithm="ifbf", max_iterations=300, tau0=tau0, **IFBF_TEST)
            _, log = run_ifbf(vi.operator, cfg, h0, vi.trips, vi.paths_by_od)
            taus = log.column("tau")
            assert np.all(np.diff(taus) <= 1e-15)
            assert taus.min() >= min(cfg.mu / vi.lipschitz, tau0) - 1e-12

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
        _, log = run_ifbf(op, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
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
        _, log = run_ifbf(op, cfg, h0, vi.trips, vi.paths_by_od)
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
                assert alphas[n + 1] * step <= eps_s.value(n + 1) + 1e-12
            h = h_next

    def test_two_calls_per_iteration(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="ifbf", max_iterations=33, tau0=1.0, **IFBF_TEST)
        base = vi.operator.eval_count
        run_ifbf(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert vi.operator.eval_count - base == 66

    def test_final_profile_is_feasible(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="ifbf", max_iterations=50, tau0=1.0, **IFBF_TEST)
        h, _ = run_ifbf(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        assert np.all(h.rates >= 0)
        assert h.rates.sum() * vi.grid.dt == pytest.approx(2.0, rel=1e-9)


class TestSolveDispatch:
    def test_dispatch_matches_direct_call(self):
        vi = cocoercive_instance()
        cfg = SolverConfig(algorithm="fb", max_iterations=10, tau_fixed=0.5)
        h1, _ = solve(vi.operator, cfg, vertex_start(vi), vi.trips, vi.paths_by_od)
        vi2 = cocoercive_instance()
        h2, _ = run_fb(vi2.operator, cfg, vertex_start(vi2), vi2.trips, vi2.paths_by_od)
        np.testing.assert_array_equal(h1.rates, h2.rates)

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

    def test_profiles_built_only_at_boundaries(self, monkeypatch):
        # two operator inputs per iteration plus the returned profile
        vi = cocoercive_instance()
        h0 = vertex_start(vi)
        built = []
        post_init = PathFlowProfile.__post_init__

        def counted(profile):
            built.append(profile)
            post_init(profile)

        monkeypatch.setattr(PathFlowProfile, "__post_init__", counted)
        cfg = SolverConfig(algorithm="ifbf", max_iterations=10, tau0=1.0, **IFBF_TEST)
        solve(vi.operator, cfg, h0, vi.trips, vi.paths_by_od)
        assert len(built) == 2 * 10 + 1

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
        _, log = run_fb(op, cfg, h0, nguyen.trips, by_od)
        energy = log.column("energy")
        head = float(np.median(energy[:20]))
        tail = float(np.median(energy[-20:]))
        assert tail < head
        assert energy[-1] < energy[0]
