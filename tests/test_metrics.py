import math

import numpy as np
import pytest

from due.cli import _write_log
from due.errors import ValidationError
from due.metrics import ConvergenceLog, IterationRecord, od_gap, relative_energy
from due.space import DelayProfile, PathFlowProfile, TimeGrid


def profiles(rates, delays):
    rates = np.atleast_2d(np.asarray(rates, dtype=float))
    grid = TimeGrid(0.0, float(rates.shape[1]), rates.shape[1])
    return (PathFlowProfile(grid, rates), DelayProfile(grid, np.atleast_2d(delays)))


class TestOdGap:
    def test_equal_supported_costs(self):
        h, a = profiles([[1.0, 1.0], [1.0, 1.0]], [[3.0, 3.0], [3.0, 3.0]])
        gaps = od_gap(h, a, {"w": np.array([0, 1])})
        assert gaps["w"] == 0.0

    def test_max_minus_min(self):
        h, a = profiles([[1.0, 1.0], [1.0, 0.0]], [[3.0, 5.0], [4.0, 99.0]])
        gaps = od_gap(h, a, {"w": np.array([0, 1])})
        assert gaps["w"] == pytest.approx(2.0)

    def test_unsupported_cells_ignored(self):
        h, a = profiles([[1.0, 0.0]], [[3.0, 100.0]])
        gaps = od_gap(h, a, {"w": np.array([0])})
        assert gaps["w"] == 0.0

    def test_strict_mode_counts_cheaper_unused(self):
        h, a = profiles([[1.0, 0.0]], [[3.0, 1.0]])
        assert od_gap(h, a, {"w": np.array([0])})["w"] == 0.0
        assert od_gap(h, a, {"w": np.array([0])}, strict=True)["w"] == pytest.approx(2.0)

    def test_no_supported_cells_warns_and_zeroes(self):
        h, a = profiles([[0.0, 0.0], [2.0, 0.0]], [[3.0, 4.0], [5.0, 6.0]])
        with pytest.warns(RuntimeWarning, match="no used departure cell"):
            gaps = od_gap(h, a, {"a": np.array([0]), "b": np.array([1])})
        assert gaps["a"] == 0.0
        assert gaps["b"] == 0.0

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        rates = rng.uniform(0, 2, size=(4, 3))
        delays = rng.uniform(1, 5, size=(4, 3))
        h, a = profiles(rates, delays)
        perm = np.array([2, 0, 3, 1])
        h2, a2 = profiles(rates[perm], delays[perm])
        g1 = od_gap(h, a, {"w": np.arange(4)})
        g2 = od_gap(h2, a2, {"w": np.arange(4)})
        assert g1["w"] == pytest.approx(g2["w"])

    def test_threshold_halving_stability(self):
        # no rate sits between eps and eps/2: halving cannot change the gap
        h, a = profiles([[1.0, 1e-9], [0.5, 0.0]], [[3.0, 50.0], [4.0, 60.0]])
        eps = 1e-6
        g1 = od_gap(h, a, {"w": np.arange(2)}, eps_support=eps)
        g2 = od_gap(h, a, {"w": np.arange(2)}, eps_support=eps / 2)
        assert g1["w"] == pytest.approx(g2["w"])

    def test_incompatible_shapes_rejected(self):
        h, _ = profiles([[1.0]], [[1.0]])
        _, a = profiles([[1.0, 2.0]], [[1.0, 2.0]])
        with pytest.raises(ValidationError):
            od_gap(h, a, {"w": np.array([0])})


class TestRelativeEnergy:
    def test_identical_iterates(self):
        h = np.array([[1.0, 2.0]])
        assert relative_energy(h, h, 1.0) == 0.0

    def test_doubling(self):
        h = np.array([[1.0, 2.0]])
        assert relative_energy(2 * h, h, 1.0) == pytest.approx(1.0)

    def test_zero_base_sentinel(self):
        h = np.array([[1.0], [0.0]])
        assert math.isnan(relative_energy(h, np.zeros((2, 1)), 1.0))


class TestConvergenceLog:
    def rec(self, n, **kw):
        base = dict(tau=1.0, alpha=0.5, beta=0.1, residual=0.1, energy=0.01,
                    operator_calls=2 * (n + 1))
        base.update(kw)
        return IterationRecord(n=n, **base)

    def test_rows_strictly_increasing(self):
        log = ConvergenceLog("fbf")
        log.append(self.rec(0))
        log.append(self.rec(1))
        with pytest.raises(ValidationError):
            log.append(self.rec(1))

    def test_csv_omits_walltime(self, tmp_path):
        log = ConvergenceLog("ifbf")
        log.append(self.rec(0))
        _write_log(tmp_path / "iterations.csv", log)
        text = (tmp_path / "iterations.csv").read_text()
        assert "wall" not in text
        assert text.splitlines()[0] == "n,tau,alpha,beta,residual,energy,operator_calls"

    def test_summary_fields(self):
        log = ConvergenceLog("fb")
        log.append(self.rec(0, residual=0.5))
        log.append(self.rec(1, residual=0.25))
        log.final_gaps = {"a": 0.1, "b": 0.3, "c": 0.2}
        s = log.summary()
        assert s["iterations"] == 2
        assert s["final_residual"] == 0.25
        assert s["gap_median"] == 0.2
