import numpy as np
import pytest

from conftest import uniform_profile
from due.errors import ValidationError
from due.operators import affine_operator, dnl_operator, scaled_pseudo_monotone
from due.space import PathFlowProfile, TimeGrid, norm, residual_norm
from oracles import monotonicity_violation_witness, pseudo_monotone_audit


def cocoercive_instance():
    return affine_operator(np.eye(2), np.array([-1.0, -1.0]), solution=np.array([1.0, 1.0]))


class TestAffineOperator:
    def test_interior_solution_certified(self):
        vi = cocoercive_instance()
        assert vi.certify_solution() <= 1e-10

    def test_lp_vertex_solution(self):
        # zero matrix, costs (0, 1): all mass on the cheap coordinate
        vi = affine_operator(np.zeros((2, 2)), np.array([0.0, 1.0]),
                             solution=np.array([2.0, 0.0]))
        # independent check: enumerate simplex vertices of sum 2
        vertices = [np.array([2.0, 0.0]), np.array([0.0, 2.0])]
        costs = [v @ np.array([0.0, 1.0]) for v in vertices]
        assert np.argmin(costs) == 0
        assert vi.certify_solution() <= 1e-10

    def test_rotation_solution_by_grid_search(self):
        # monotone but not strongly monotone; solution found by residual scan
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        vi = affine_operator(m, np.zeros(2))
        ts = np.linspace(0.0, 2.0, 2001)
        layout = vi.layout
        res = []
        for t in ts:
            x = PathFlowProfile(vi.grid, [[t], [2.0 - t]])
            ax = vi.operator._compute(x)
            res.append(residual_norm(x.rates, 1.0, ax.delays, layout))
        best = ts[int(np.argmin(res))]
        x_star = np.array([best, 2.0 - best])
        np.testing.assert_allclose(x_star, [0.0, 2.0], atol=1e-3)
        vi2 = affine_operator(m, np.zeros(2), solution=x_star)
        assert vi2.certify_solution(tol=1e-9) <= 1e-9

    def test_empirical_lipschitz_bound(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4, 4))
        vi = affine_operator(g.T @ g, rng.normal(size=4))
        grid = vi.grid
        for _ in range(200):
            x = PathFlowProfile(grid, rng.normal(size=(4, 1)))
            y = PathFlowProfile(grid, rng.normal(size=(4, 1)))
            dx = norm(x.rates - y.rates, grid.dt)
            if dx == 0:
                continue
            ax = vi.operator._compute(x).delays
            ay = vi.operator._compute(y).delays
            da = float(np.sqrt(((ax - ay) ** 2).sum() * grid.dt))
            assert da <= vi.operator.lipschitz * dx * (1 + 1e-9)

    def test_eval_counter(self):
        vi = cocoercive_instance()
        x = PathFlowProfile(vi.grid, [[1.0], [1.0]])
        before = vi.operator.eval_count
        vi.operator.evaluate(x)
        vi.operator.evaluate(x)
        assert vi.operator.eval_count == before + 2


class TestScaledPseudoMonotone:
    def test_same_solution_as_base(self):
        vi = scaled_pseudo_monotone(cocoercive_instance())
        assert vi.certify_solution() <= 1e-10

    def test_monotonicity_violation_witness_found(self):
        vi = scaled_pseudo_monotone(cocoercive_instance())
        witness = monotonicity_violation_witness(vi, radius=4.0, samples=3000, seed=0)
        assert witness is not None
        x, y, val = witness
        assert val < -1e-3
        # re-verify the certificate from scratch
        ax = vi.operator._compute(x).delays
        ay = vi.operator._compute(y).delays
        assert float(((ax - ay) * (x.rates - y.rates)).sum()) * vi.grid.dt == pytest.approx(val)

    def test_pseudo_monotone_sampling_audit(self):
        vi = scaled_pseudo_monotone(cocoercive_instance())
        worst = pseudo_monotone_audit(vi, pairs=10_000, radius=4.0, seed=1)
        assert worst >= -1e-12

    def test_base_stays_monotone(self):
        vi = cocoercive_instance()
        assert monotonicity_violation_witness(vi, radius=4.0, samples=2000, seed=5) is None

    def test_rejects_nonpositive_scaling(self):
        # certification at construction already probes the scaling field
        with pytest.raises(ValidationError):
            scaled_pseudo_monotone(cocoercive_instance(), theta=lambda h: -1.0)
        # without a stored solution the first evaluate probes it
        base = affine_operator(np.eye(2), np.array([-1.0, -1.0]))
        vi = scaled_pseudo_monotone(base, theta=lambda h: 0.0)
        x = PathFlowProfile(vi.grid, [[1.0], [1.0]])
        with pytest.raises(ValidationError):
            vi.operator.evaluate(x)


class TestDnlOperator:
    def test_zero_flow_free_flow_plus_penalty(self, nguyen):
        grid = TimeGrid(0.0, 2.0, 70)
        op = dnl_operator(nguyen, grid, gamma=1.0, buffer=1.0)
        h = PathFlowProfile(grid, np.zeros((nguyen.num_paths, grid.num_intervals)))
        a = op.evaluate(h)
        starts = grid.starts()
        for r, p in enumerate(nguyen.paths):
            ff = sum(nguyen.links[e].free_flow_time for e in p.links)
            tau = nguyen.trips.target_times[p.od]
            expected = ff + np.maximum(starts + ff - tau, 0.0)
            np.testing.assert_allclose(a.delays[r], expected, atol=1e-9)

    def test_deterministic_bitwise(self, nguyen):
        grid = TimeGrid(0.0, 2.0, 70)
        h = uniform_profile(nguyen, grid)
        op1 = dnl_operator(nguyen, grid, buffer=2.5)
        op2 = dnl_operator(nguyen, grid, buffer=2.5)
        a1 = op1.evaluate(h)
        a2 = op2.evaluate(h)
        assert a1.delays.tobytes() == a2.delays.tobytes()

    def test_counts_every_call(self, nguyen):
        grid = TimeGrid(0.0, 2.0, 70)
        h = uniform_profile(nguyen, grid)
        op = dnl_operator(nguyen, grid, buffer=2.5)
        op.evaluate(h)
        op.evaluate(h)
        assert op.eval_count == 2

    def test_negative_rates_are_clamped(self, nguyen):
        grid = TimeGrid(0.0, 2.0, 70)
        h = uniform_profile(nguyen, grid)
        lowered = PathFlowProfile(grid, np.where(np.arange(h.rates.shape[1]) % 2 == 0,
                                                 -5.0, h.rates))
        clamped = PathFlowProfile(grid, np.maximum(lowered.rates, 0.0))
        op = dnl_operator(nguyen, grid, buffer=2.5)
        a_low = op.evaluate(lowered)
        a_clamp = op.evaluate(clamped)
        np.testing.assert_array_equal(a_low.delays, a_clamp.delays)

    def test_grid_refinement_stability(self, nguyen):
        # free-flow regime: doubling the grid resolution barely moves delays
        tiny = 1e-3
        coarse = TimeGrid(0.0, 2.0, 70)
        fine = TimeGrid(0.0, 2.0, 140)
        rates_c = np.full((nguyen.num_paths, 70), tiny)
        rates_f = np.full((nguyen.num_paths, 140), tiny)
        a_c = dnl_operator(nguyen, coarse, buffer=1.0).evaluate(
            PathFlowProfile(coarse, rates_c))
        a_f = dnl_operator(nguyen, fine, buffer=1.0).evaluate(
            PathFlowProfile(fine, rates_f))
        # compare on the coarse grid (fine column 2k starts at the same time)
        diff = np.abs(a_f.delays[:, ::2] - a_c.delays)
        rel = diff / np.maximum(np.abs(a_c.delays), 1e-12)
        assert rel.max() < 0.05
