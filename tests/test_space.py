from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from due import space
from due.errors import ConfigurationError, ValidationError
from due.space import (
    ODLayout,
    PathFlowProfile,
    TimeGrid,
    TripTable,
    inner,
    norm,
    project_feasible,
    project_simplex,
    residual_norm,
)

from oracles import (
    brute_force_inner,
    project_feasible_by_block,
    qp_simplex_projection_active_set,
    qp_simplex_projection_subsets,
)


def make_profile(rates, t0=0.0, t1=1.0):
    rates = np.atleast_2d(np.asarray(rates, dtype=float))
    grid = TimeGrid(t0, t1, rates.shape[1])
    return PathFlowProfile(grid, rates)


def two_path_layout(q=2.0, dt=1.0, k=1):
    """One O-D pair of demand q over two paths, on k intervals of width dt."""
    trips = TripTable({"w": q}, {"w": dt})
    return ODLayout.build(trips, {"w": np.array([0, 1])}, TimeGrid(0.0, dt * k, k))


class TestTimeGrid:
    def test_dt_and_boundaries(self):
        grid = TimeGrid(0.0, 2.0, 4)
        assert grid.dt == 0.5
        np.testing.assert_allclose(grid.boundaries(), [0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(grid.starts(), [0.0, 0.5, 1.0, 1.5])

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValidationError):
            TimeGrid(1.0, 1.0, 3)
        with pytest.raises(ValidationError):
            TimeGrid(0.0, 1.0, 0)


class TestInnerAndNorm:
    def test_zero_element(self):
        f = np.zeros((1, 2))
        assert inner(f, f, 0.5) == 0.0
        assert norm(f, 0.5) == 0.0

    def test_single_entry_arithmetic(self):
        # rate 2 on one interval of width 0.5 -> 2*2*0.5
        f = make_profile([[2.0, 0.0]], t1=1.0)
        assert f.grid.dt == 0.5
        assert inner(f.rates, f.rates, f.grid.dt) == pytest.approx(2.0, abs=1e-15)

    def test_single_entry_norm(self):
        assert norm(np.array([[3.0]]), 1.0) == pytest.approx(3.0, abs=1e-15)

    def test_against_brute_force_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rates_f = rng.normal(size=(3, 5))
            rates_g = rng.normal(size=(3, 5))
            dt = TimeGrid(0.0, 2.5, 5).dt
            expected = brute_force_inner(rates_f, rates_g, dt)
            assert inner(rates_f, rates_g, dt) == pytest.approx(expected, abs=1e-12)

    @given(
        st.lists(st.floats(-50, 50), min_size=4, max_size=4),
        st.lists(st.floats(-50, 50), min_size=4, max_size=4),
    )
    def test_triangle_inequality(self, a, b):
        f = np.array(a).reshape(2, 2)
        g = np.array(b).reshape(2, 2)
        assert norm(f + g, 0.5) <= norm(f, 0.5) + norm(g, 0.5) + 1e-9

    @given(st.lists(st.floats(-50, 50), min_size=6, max_size=6))
    def test_symmetric_positive_definite(self, a):
        f = np.array(a[:3]).reshape(1, 3)
        g = np.array(a[3:]).reshape(1, 3)
        dt = 1.0 / 3.0
        assert inner(f, g, dt) == pytest.approx(inner(g, f, dt), rel=1e-12, abs=1e-12)
        if any(abs(x) > 1e-9 for x in a[:3]):
            assert inner(f, f, dt) > 0


class TestProjectFeasible:
    def test_already_feasible(self):
        out = project_feasible(np.array([[1.0], [1.0]]), two_path_layout())
        np.testing.assert_allclose(out, [[1.0], [1.0]])

    def test_symmetry_forces_uniform_split(self):
        out = project_feasible(np.zeros((2, 1)), two_path_layout())
        np.testing.assert_allclose(out, [[1.0], [1.0]])

    def test_active_set_oracle_small(self):
        # min ||g - (3,0)||^2 s.t. g >= 0, g1 + g2 = 2 has solution (2, 0)
        out = project_feasible(np.array([[3.0], [0.0]]), two_path_layout())
        oracle = qp_simplex_projection_active_set(np.array([3.0, 0.0]), 2.0)
        np.testing.assert_allclose(out.ravel(), oracle, atol=1e-12)
        np.testing.assert_allclose(out.ravel(), [2.0, 0.0], atol=1e-12)

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = rng.integers(2, 7)
            y = rng.normal(scale=3.0, size=n)
            total = float(rng.uniform(0.5, 5.0))
            got = project_simplex(y, total)
            want = qp_simplex_projection_subsets(y, total)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_empty_path_set_is_config_error(self):
        trips = TripTable({"w": 2.0}, {"w": 0.5})
        with pytest.raises(ConfigurationError, match="empty path set"):
            ODLayout.build(trips, {"w": np.array([], dtype=int)}, TimeGrid(0.0, 1.0, 1))

    def test_nonpositive_demand_is_validation_error(self):
        with pytest.raises(ValidationError):
            TripTable({"w": 0.0}, {"w": 0.5})

    def test_rates_of_other_shape_rejected(self):
        layout = two_path_layout(k=2)
        for shape in ((3, 2), (2, 1)):
            with pytest.raises(ValidationError, match="O-D layout"):
                project_feasible(np.ones(shape), layout)

    @given(st.lists(st.floats(-20, 20), min_size=4, max_size=4))
    @settings(max_examples=60)
    def test_idempotent(self, vals):
        layout = two_path_layout(k=2)
        f = np.array(vals).reshape(2, 2)
        once = project_feasible(f, layout)
        twice = project_feasible(once, layout)
        assert norm(once - twice, 1.0) <= 1e-12

    @given(
        st.lists(st.floats(-20, 20), min_size=4, max_size=4),
        st.lists(st.floats(-20, 20), min_size=4, max_size=4),
    )
    @settings(max_examples=60)
    def test_nonexpansive(self, a, b):
        layout = two_path_layout(k=2)
        f = np.array(a).reshape(2, 2)
        g = np.array(b).reshape(2, 2)
        pf = project_feasible(f, layout)
        pg = project_feasible(g, layout)
        assert norm(pf - pg, 1.0) <= norm(f - g, 1.0) + 1e-10

    def test_projection_inequalities_on_random_points(self):
        # Variational characterization and the distance-reduction identity.
        rng = np.random.default_rng(3)
        grid = TimeGrid(0.0, 1.5, 3)
        dt = grid.dt
        trips = TripTable({"a": 2.0, "b": 1.0}, {"a": 1.0, "b": 1.0})
        layout = ODLayout.build(trips, {"a": np.array([0, 1]), "b": np.array([2])}, grid)
        for _ in range(50):
            f = rng.normal(scale=4.0, size=(3, 3))
            pf = project_feasible(f, layout)
            # random feasible y: project a random point
            y = project_feasible(rng.normal(scale=4.0, size=(3, 3)), layout)
            assert inner(pf - f, y - pf, dt) >= -1e-10
            lhs = norm(pf - y, dt) ** 2
            rhs = norm(f - y, dt) ** 2 - norm(f - pf, dt) ** 2
            assert lhs <= rhs + 1e-10

    def test_mass_and_nonnegativity(self):
        rng = np.random.default_rng(5)
        grid = TimeGrid(0.0, 2.0, 4)
        trips = TripTable({"a": 3.0, "b": 7.0}, {"a": 1.0, "b": 1.0})
        by_od = {"a": np.array([0, 1]), "b": np.array([2, 3, 4])}
        layout = ODLayout.build(trips, by_od, grid)
        for _ in range(30):
            pf = project_feasible(rng.normal(scale=5.0, size=(5, 4)), layout)
            assert np.all(pf >= 0)
            for od, rows in by_od.items():
                mass = pf[rows].sum() * grid.dt
                assert mass == pytest.approx(trips.demands[od], rel=1e-9)

    @given(
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=12),
        k=st.sampled_from([1, 10, 100]),
        chunk_cells=st.integers(1, 2000),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_bitwise_equal_to_per_block_oracle(self, sizes, k, chunk_cells, ties, seed):
        # Rows of each O-D pair are interleaved across the path matrix; small
        # chunk sizes split a group of equal-size blocks over several chunks.
        rng = np.random.default_rng(seed)
        perm = rng.permutation(sum(sizes))
        by_od = {f"w{i}": rows for i, rows in enumerate(np.split(perm, np.cumsum(sizes)[:-1]))}
        trips = TripTable({od: float(rng.uniform(0.1, 10.0)) for od in by_od},
                          {od: 1.0 for od in by_od})
        grid = TimeGrid(0.0, 1.5, k)
        if ties:
            rates = rng.choice([-0.0, 0.0, 0.5, -1.0, 2.0], size=(len(perm), k))
        else:
            rates = rng.normal(scale=5.0, size=(len(perm), k))
        with mock.patch.object(space, "_CHUNK_CELLS", chunk_cells):
            layout = ODLayout.build(trips, by_od, grid)
        got = project_feasible(rates, layout)
        want = project_feasible_by_block(rates, grid.dt, trips, by_od)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_group_larger_than_one_chunk(self):
        # one-path blocks of 100 intervals, more than one chunk holds
        k = 100
        n = space._CHUNK_CELLS // k + 37
        rng = np.random.default_rng(17)
        by_od = {f"w{i}": np.array([r]) for i, r in enumerate(rng.permutation(n))}
        trips = TripTable({od: 1.0 + i % 7 for i, od in enumerate(by_od)},
                          {od: 1.0 for od in by_od})
        grid = TimeGrid(0.0, 2.0, k)
        layout = ODLayout.build(trips, by_od, grid)
        assert len(layout.chunks) > 1
        assert all(rows.size * k <= space._CHUNK_CELLS for rows, _ in layout.chunks)
        rates = rng.normal(scale=3.0, size=(n, k))
        got = project_feasible(rates, layout)
        want = project_feasible_by_block(rates, grid.dt, trips, by_od)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestODLayout:
    grid = TimeGrid(0.0, 1.0, 2)
    trips = TripTable({"a": 2.0, "b": 1.0}, {"a": 1.0, "b": 1.0})

    @pytest.mark.parametrize("by_od, named", [
        ({"a": [0, 0], "b": [1]}, "'a'"),
        ({"a": [0, 1], "b": [0]}, "'b'"),
        ({"a": [0, -1], "b": [1]}, "'a'"),
        ({"a": [0, 1], "b": [3]}, "'b'"),
        ({"a": [0], "b": [2]}, "'b'"),
        ({"a": [0, 1]}, "'b'"),
        ({"a": [0], "b": [1], "c": [2]}, "'c'"),
    ], ids=["repeat_in_block", "repeat_across_blocks", "negative_row", "row_past_end",
            "path_not_covered", "missing_path_set", "paths_without_demand"])
    def test_bad_partition_is_config_error(self, by_od, named):
        by_od = {od: np.array(rows, dtype=int) for od, rows in by_od.items()}
        with pytest.raises(ConfigurationError, match=named):
            ODLayout.build(self.trips, by_od, self.grid)

    def test_blocks_grouped_by_size(self):
        by_od = {"a": np.array([3, 0]), "b": np.array([2]), "c": np.array([1, 4])}
        trips = TripTable({"a": 2.0, "b": 1.0, "c": 4.0}, dict.fromkeys("abc", 1.0))
        layout = ODLayout.build(trips, by_od, self.grid)
        assert layout.num_paths == 5
        (one, one_totals), (two, two_totals) = layout.chunks
        np.testing.assert_array_equal(one, [[2]])
        np.testing.assert_array_equal(two, [[3, 0], [1, 4]])
        np.testing.assert_array_equal(one_totals, [[2.0]])
        np.testing.assert_array_equal(two_totals, [[4.0], [8.0]])


class TestResidualNorm:
    def test_zero_delay_gives_zero_residual(self):
        h = np.array([[1.0], [1.0]])
        assert residual_norm(h, 1.0, np.zeros((2, 1)), two_path_layout()) == \
            pytest.approx(0.0, abs=1e-14)

    def test_constant_delay_shifts_uniformly(self):
        # constant costs over one O-D move every coordinate equally, and the
        # projection restores the original feasible point
        layout = two_path_layout()
        h = np.array([[0.5], [1.5]])
        ah = np.array([[4.0], [4.0]])
        back = project_feasible(h - 2.0 * ah, layout)
        assert norm(back - h, 1.0) <= 1e-12
        assert residual_norm(h, 2.0, ah, layout) == pytest.approx(0.0, abs=1e-12)

    def test_cheap_path_carries_all_flow(self):
        h = np.array([[2.0], [0.0]])
        ah = np.array([[0.0], [10.0]])
        oracle = qp_simplex_projection_active_set(np.array([2.0, -10.0]), 2.0)
        np.testing.assert_allclose(oracle, [2.0, 0.0], atol=1e-12)
        assert residual_norm(h, 1.0, ah, two_path_layout()) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive_tau(self):
        h = np.array([[1.0], [1.0]])
        with pytest.raises(ValidationError):
            residual_norm(h, 0.0, np.zeros((2, 1)), two_path_layout())


class TestProfileArithmetic:
    def test_vector_space_ops(self):
        # profiles are boundary records; solver arithmetic runs on .rates
        f = make_profile([[1.0, 2.0]])
        g = make_profile([[3.0, -1.0]])
        for op in (lambda: f + g, lambda: f - g, lambda: 2 * f, lambda: -f):
            with pytest.raises(TypeError):
                op()

    def test_rates_are_immutable(self):
        f = make_profile([[1.0]])
        with pytest.raises(ValueError):
            f.rates[0, 0] = 5.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            make_profile([[np.nan]])
