import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import due.cli as cli
from due.cli import _BLOCK_CELLS, EXIT_CODES, _row_blocks, _write_csv, main
from test_network import write_minimal_instance


def line_config(tmp_path, net_dir, out_name="out", **solver_overrides):
    solver = {"algorithm": "fb", "max_iterations": 3, "tau": 1.0}
    solver.update(solver_overrides)
    cfg = {
        "network_dir": str(net_dir),
        "grid": {"t0": 0.0, "t1": 0.5, "num_intervals": 18},
        "horizon_buffer": 0.5,
        "gamma": 1.0,
        "solver": solver,
        "output_dir": str(tmp_path / out_name),
    }
    path = tmp_path / f"{out_name}.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def instance_dir(tmp_path):
    return write_minimal_instance(tmp_path / "net")


class TestRun:
    def test_artifacts_written(self, tmp_path, instance_dir, capsys):
        cfg = line_config(tmp_path, instance_dir)
        assert main(["run", "-c", str(cfg)]) == 0
        out = tmp_path / "out"
        for name in ("iterations.csv", "final_flows.csv", "final_delays.csv",
                     "od_gaps.csv", "summary.json"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 3
        assert summary["operator_evaluations"] == 3

    def test_failed_run_leaves_partial_artifacts(self, tmp_path, instance_dir, capsys):
        # without a horizon buffer the last departures cannot finish their
        # trips: the first operator call fails
        cfg_path = line_config(tmp_path, instance_dir, out_name="failed")
        raw = json.loads(cfg_path.read_text())
        raw["horizon_buffer"] = 0.0
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "-c", str(cfg_path)]) == EXIT_CODES["numeric"] == 5
        assert "error[numeric]" in capsys.readouterr().err
        out = tmp_path / "failed"
        assert (out / "iterations.csv").read_text() == (
            "n,tau,alpha,beta,residual,energy,operator_calls\n")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "error:numeric"
        assert summary["iterations"] == 0
        assert summary["operator_evaluations"] == 1
        assert "does not exit within the loading horizon" in summary["error"]
        assert not (out / "final_flows.csv").exists()

    def test_dump_dnl_flag(self, tmp_path, instance_dir):
        cfg = line_config(tmp_path, instance_dir, out_name="dump")
        assert main(["run", "-c", str(cfg), "--dump-dnl"]) == 0
        assert (tmp_path / "dump" / "dnl_curves.csv").exists()
        assert (tmp_path / "dump" / "dnl_queues.csv").exists()

    def test_dump_dnl_reads_back_as_the_curves(self, tmp_path, monkeypatch):
        # 2000 vehicles in 0.5 h over link a (2400 an hour) back up the origin
        # queue at node 0; O-D v queues at node 1 before link b
        net_dir = write_minimal_instance(
            tmp_path / "net",
            **{"od.csv": "od_id,origin,dest,demand,target_time\nw,0,2,2000.0,1.0\nv,1,2,50.0,1.0\n",
               "paths.csv": "path_id,od_id,links\np1,w,a,b\np2,v,b\n"})
        cfg = line_config(tmp_path, net_dir, out_name="dump")
        raw = json.loads(cfg.read_text())
        raw["horizon_buffer"] = 1.5
        cfg.write_text(json.dumps(raw))
        results = []
        run_dnl = cli.run_dnl

        def keep(*args, **kwargs):
            results.append(run_dnl(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run_dnl", keep)
        assert main(["run", "-c", str(cfg), "--dump-dnl"]) == 0
        res = results[-1]  # the final loading, which the dump writes
        links, E = res.engine.link_ids, len(res.engine.link_ids)
        bt = res.grid_ext.boundaries()

        def read(name):
            rows = [line.split(",") for line in (tmp_path / "dump" / name).read_text().splitlines()]
            return rows[0], rows[1:]

        def bits(cells, count):
            return np.array(cells, dtype=float).reshape(count, bt.size).view(np.int64)

        header, rows = read("dnl_curves.csv")
        assert header == ["link_id", "t", "n_up", "n_down"]
        assert [r[0] for r in rows] == [lid for lid in links for _ in bt]
        cols = list(zip(*rows))
        for got, want in ((cols[1], np.tile(bt, E)), (cols[2], res.n_up[:E]),
                          (cols[3], res.n_down[:E])):
            np.testing.assert_array_equal(bits(got, E), want.reshape(E, -1).view(np.int64))

        header, rows = read("dnl_queues.csv")
        assert header == ["origin", "link_id", "t", "arrivals", "releases", "queue"]
        assert [(r[0], r[1]) for r in rows] == [("0", "a")] * bt.size + [("1", "b")] * bt.size
        cols = list(zip(*rows))
        arrivals, releases = res.n_up[E:], res.n_down[E:]
        assert (arrivals - releases)[0].max() > 100.0  # the queue at node 0 backs up
        for got, want in ((cols[2], np.tile(bt, 2)), (cols[3], arrivals), (cols[4], releases),
                          (cols[5], arrivals - releases)):
            np.testing.assert_array_equal(bits(got, 2), want.reshape(2, -1).view(np.int64))

    def test_numeric_cells_parse(self, tmp_path, instance_dir):
        cfg = line_config(tmp_path, instance_dir, out_name="cells")
        assert main(["run", "-c", str(cfg), "--dump-dnl"]) == 0
        # file -> index of its first numeric column
        first_numeric = {"final_flows.csv": 2, "final_delays.csv": 2,
                         "dnl_curves.csv": 1, "dnl_queues.csv": 2}
        for name, first in first_numeric.items():
            rows = (tmp_path / "cells" / name).read_text().splitlines()[1:]
            assert rows, name
            for row in rows:
                for cell in row.split(",")[first:]:
                    float(cell)

    def test_missing_links_file_is_parse_error(self, tmp_path, instance_dir, capsys):
        (instance_dir / "links.csv").unlink()
        cfg = line_config(tmp_path, instance_dir)
        assert main(["run", "-c", str(cfg)]) == EXIT_CODES["parse"]
        assert "error[parse]" in capsys.readouterr().err

    def test_cfl_violation_names_link(self, tmp_path, instance_dir, capsys):
        cfg_path = line_config(tmp_path, instance_dir)
        raw = json.loads(cfg_path.read_text())
        raw["grid"] = {"t0": 0.0, "t1": 0.5, "num_intervals": 4}
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "-c", str(cfg_path)]) == EXIT_CODES["config"]
        err = capsys.readouterr().err
        assert "error[config]" in err
        assert "'a'" in err  # the 2 km link binds the admissible step

    def test_unknown_key_rejected(self, tmp_path, instance_dir, capsys):
        cfg_path = line_config(tmp_path, instance_dir)
        raw = json.loads(cfg_path.read_text())
        raw["solver"]["stepsize"] = 1.0
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "-c", str(cfg_path)]) == EXIT_CODES["config"]
        assert "stepsize" in capsys.readouterr().err

    def test_grid_requires_exactly_one_resolution_key(self, tmp_path, instance_dir, capsys):
        cfg_path = line_config(tmp_path, instance_dir)
        raw = json.loads(cfg_path.read_text())
        raw["grid"] = {"t0": 0.0, "t1": 0.5, "num_intervals": 18, "dt_seconds": 100.0}
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "-c", str(cfg_path)]) == EXIT_CODES["config"]

    def test_dt_seconds_grid(self, tmp_path, instance_dir):
        cfg_path = line_config(tmp_path, instance_dir, out_name="dts")
        raw = json.loads(cfg_path.read_text())
        raw["grid"] = {"t0": 0.0, "t1": 0.5, "dt_seconds": 100.0}
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "-c", str(cfg_path)]) == 0
        summary = json.loads((tmp_path / "dts" / "summary.json").read_text())
        assert summary["grid"]["num_intervals"] == 18

    def test_deterministic_outputs(self, tmp_path, instance_dir):
        cfg_a = line_config(tmp_path, instance_dir, out_name="rep_a",
                            algorithm="ifbf", max_iterations=5, tau0=50.0,
                            beta_n="pow(10, -2, 1)", eps_n="pow(1, -5, 32)")
        raw = json.loads(cfg_a.read_text())
        del raw["solver"]["tau"]
        cfg_a.write_text(json.dumps(raw))
        raw_b = dict(raw)
        raw_b["output_dir"] = str(tmp_path / "rep_b")
        cfg_b = tmp_path / "rep_b.json"
        cfg_b.write_text(json.dumps(raw_b))
        assert main(["run", "-c", str(cfg_a)]) == 0
        assert main(["run", "-c", str(cfg_b)]) == 0
        for name in ("iterations.csv", "final_flows.csv", "final_delays.csv", "od_gaps.csv"):
            a = (tmp_path / "rep_a" / name).read_bytes()
            b = (tmp_path / "rep_b" / name).read_bytes()
            assert a == b, name

    # each edit changes the config in place, or returns the value to write instead
    @pytest.mark.parametrize("edit, named", [
        (lambda raw: raw["solver"].update(max_iterations="ten"), "solver:max_iterations"),
        (lambda raw: raw["grid"].update(t1="late"), "grid:t1"),
        (lambda raw: raw.update(grid=5), "grid must be a JSON object"),
        (lambda raw: raw.update(gamma=None), "gamma"),
        (lambda raw: [raw], "must be a JSON object"),
        (lambda raw: raw["solver"].update(beta_n=[1, 2]), "solver:beta_n"),
        (lambda raw: raw.update(dump_dnl="false"), "dump_dnl"),
        (lambda raw: raw["grid"].update(num_intervals=17.9), "grid:num_intervals"),
        (lambda raw: raw["solver"].update(max_iterations=2.5), "solver:max_iterations"),
        (lambda raw: raw["solver"].update(max_iterations=True), "solver:max_iterations"),
        (lambda raw: raw.update(grid={"t1": 0.5, "dt_seconds": 0}), "grid:dt_seconds"),
        (lambda raw: raw.update(grid={"t1": 0.5, "dt_seconds": -100.0}), "grid:dt_seconds"),
        (lambda raw: raw.update(grid={"t1": 0.5, "dt_seconds": float("inf")}), "grid:dt_seconds"),
        (lambda raw: raw.update(grid={"t1": 0.5, "dt_seconds": float("nan")}), "grid:dt_seconds"),
        (lambda raw: raw["grid"].update(t1=float("inf")), "grid:t1"),
        (lambda raw: raw["grid"].update(t0=True), "grid:t0"),
        (lambda raw: raw["solver"].update(tolerance=float("nan")), "solver:tolerance"),
        (lambda raw: raw["solver"].update(tolerance=-1e-6), "solver:tolerance"),
        (lambda raw: raw.update(horizon_buffer=-1.0), "horizon_buffer"),
        (lambda raw: raw.update(gamma=True), "gamma"),
        (lambda raw: raw.update(gamma=-0.5), "gamma"),
        (lambda raw: raw["solver"].update(tau0="5"), "solver:tau0"),
        (lambda raw: raw["solver"].update(tau=float("inf")), "solver:tau"),
        (lambda raw: raw["solver"].update(mu="0.5"), "solver:mu"),
        (lambda raw: raw["solver"].update(alpha=True), "solver:alpha"),
        (lambda raw: raw["solver"].update({"lambda": float("-inf")}), "solver:lambda"),
        (lambda raw: raw["solver"].update(eps_n=True), "solver:eps_n"),
        (lambda raw: raw["solver"].update(beta_n=False), "solver:beta_n"),
        (lambda raw: raw["solver"].update(algorithm="ifbf", beta_n="pow(0, -1, 1)",
                                          eps_n="pow(1, -2, 0.1)"), "pow(0.0, -1.0, 1.0)"),
        (lambda raw: raw["solver"].update(algorithm="ifbf", beta_n="rational(1, 0, 0)",
                                          eps_n="pow(1, -2, 0.1)"), "rational(1.0, 0.0, 0.0)"),
        (lambda raw: raw["solver"].update(algorithm="ifbf", beta_n="pow(-2, 0.5, 0.1)",
                                          eps_n="pow(1, -2, 0.1)"), "pow(-2.0, 0.5, 0.1)"),
        (lambda raw: raw["solver"].update(beta_n="pow(1, -1, inf)"), "pow(1.0, -1.0, inf)"),
        (lambda raw: raw["solver"].update(eps_n="nan"), "const(nan)"),
    ], ids=["int", "float", "section", "null", "top_level", "schedule", "flag",
            "fraction_intervals", "fraction_iterations", "bool_iterations",
            "dt_zero", "dt_negative", "dt_inf", "dt_nan",
            "t1_inf", "t0_bool", "tolerance_nan", "tolerance_negative",
            "buffer_negative", "gamma_bool", "gamma_negative", "tau0_string", "tau_inf",
            "mu_string", "alpha_bool", "lambda_inf", "eps_bool", "beta_bool",
            "beta_zero_power", "beta_zero_denominator", "beta_complex", "beta_inf_argument",
            "eps_nan"])
    def test_wrongly_typed_value_is_config_error(self, tmp_path, instance_dir, capsys,
                                                 edit, named):
        cfg_path = line_config(tmp_path, instance_dir)
        raw = json.loads(cfg_path.read_text())
        cfg_path.write_text(json.dumps(edit(raw) or raw))
        assert main(["run", "-c", str(cfg_path)]) == EXIT_CODES["config"]
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ") and named in err
        assert not (tmp_path / "out").exists()


class TestArtifacts:
    HEADER = ["path_id", "od_id", "interval", "t_start", "rate"]

    def test_per_path_table_round_trips(self, tmp_path):
        rates = np.array([[-0.0, 5e-324, 1e16], [0.1, 1 / 3, -2.5e-308]])
        path = tmp_path / "flows.csv"
        index = ["0,0.0", "1,0.5", "2,1.0"]
        _write_csv(path, self.HEADER, _row_blocks(["p1,w", "p2,w"], index, rates))
        header, *rows = path.read_text().splitlines()
        assert header == ",".join(self.HEADER)
        assert [row.split(",")[:3] for row in rows] == [
            [p, "w", k] for p in ("p1", "p2") for k in ("0", "1", "2")]
        parsed = np.array([float(row.split(",")[-1]) for row in rows])
        assert parsed.tobytes() == rates.ravel().tobytes()

    def test_blocks_match_per_cell_repr(self, tmp_path):
        # several whole blocks and a partial one, as groups of one block each and
        # as one group of the whole table; 0.0 and -0.0 must not share a cell
        k = 7
        rows = 2 * (_BLOCK_CELLS // (2 * k)) + 3
        pool = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e16, 0.1, 1 / 3, 7.0, 2.0**-1074 * 3])
        rng = np.random.default_rng(5)
        delay, eff = rng.choice(pool, size=(2, rows, k))
        delay[0, :2] = 0.0, -0.0
        eff[0, 2] = delay[0, 3] = 1 / 3
        leads = [f"p{r},w" for r in range(rows)]
        index = [f"{c},{c / 10!r}" for c in range(k)]
        path = tmp_path / "delays.csv"
        cells = np.stack([delay, eff], axis=-1).tolist()
        expected = "".join(f"{leads[r]},{index[c]},{','.join(map(repr, cells[r][c]))}\n"
                           for r in range(rows) for c in range(k))
        for groups in (cli._TABLE_GROUPS, 1):
            with mock.patch.object(cli, "_TABLE_GROUPS", groups):
                _write_csv(path, ["path_id", "od_id", "interval", "t_start", "delay", "eff"],
                           _row_blocks(leads, index, delay, eff))
            assert path.read_text().split("\n", 1)[1] == expected

    def test_each_value_formatted_once_per_group(self, monkeypatch):
        # every row holds the same four values; a group of four rows spans two
        # blocks and formats each of the four once
        k, rows = _BLOCK_CELLS // 2, 4 * cli._TABLE_GROUPS
        row = np.resize([0.0, -0.0, 1 / 3, 7.0], k)
        leads = [f"p{r},w" for r in range(rows)]
        index = [f"{c},{c / 10!r}" for c in range(k)]
        formatted = []

        def record(values):
            formatted.append(list(values))
            return map(repr, formatted[-1])

        monkeypatch.setattr(cli, "_cells", record)
        text = "".join(_row_blocks(leads, index, np.tile(row, (rows, 1))))
        assert len(formatted) == cli._TABLE_GROUPS
        assert all(sorted(map(repr, values)) == ["-0.0", "0.0", "0.3333333333333333", "7.0"]
                   for values in formatted)
        tail = [f"{i},{v!r}\n" for i, v in zip(index, row.tolist())]
        assert text == "".join(f"{lead},{line}" for lead in leads for line in tail)

    def test_failure_keeps_previous_file(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_bytes(b"previous\n")

        def blocks():
            yield "p1,w,0,0.0,1.0\n"
            raise RuntimeError("disk gone")

        with pytest.raises(RuntimeError, match="disk gone"):
            _write_csv(path, self.HEADER, blocks())
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["flows.csv"]

    def test_table_not_held_in_memory(self, tmp_path):
        rates = np.random.default_rng(3).random((1000, 100))
        leads = [f"p{r},w" for r in range(1000)]
        index = [f"{k},{k / 100!r}" for k in range(100)]
        path = tmp_path / "flows.csv"
        tracemalloc.start()
        try:
            _write_csv(path, self.HEADER, _row_blocks(leads, index, rates, rates))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 20


class TestValidate:
    def test_nguyen_all_pass(self, nguyen_dir, capsys):
        assert main(["validate", str(nguyen_dir)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "13 nodes, 19 links, 4 O-D pairs, 24 paths",
            "target times nonnegative  pass",
            "1/1 checks passed"]

    def test_corrupted_path_row_fails_with_line(self, tmp_path, capsys):
        d = write_minimal_instance(
            tmp_path / "bad",
            **{"paths.csv": "path_id,od_id,links\np1,w,a,b\np2,w,b\n"},
        )
        code = main(["validate", str(d)])
        assert code == EXIT_CODES["validation"]
        err = capsys.readouterr().err
        assert "error[validation]" in err
        assert ":3" in err  # row number of the corrupted path

    def test_path_without_links_is_parse_error(self, tmp_path, capsys):
        d = write_minimal_instance(tmp_path / "bad", **{"paths.csv": "path_id,od_id,links\np1,w,,\n"})
        assert main(["validate", str(d)]) == EXIT_CODES["parse"]
        assert "error[parse]" in capsys.readouterr().err

    def test_negative_target_time_fails(self, tmp_path, capsys):
        d = write_minimal_instance(
            tmp_path / "early",
            **{"od.csv": "# units: time=h\nod_id,origin,dest,demand,target_time\nw,0,2,10.0,-1.0\n"},
        )
        assert main(["validate", str(d)]) == EXIT_CODES["validation"]
        rows = capsys.readouterr().out.splitlines()
        assert [r.split()[-1] for r in rows if r.startswith("target times nonnegative")] == ["FAIL"]
        assert sum("FAIL" in r for r in rows) == 1

    def test_empty_od_reports_no_demand(self, tmp_path, capsys):
        d = write_minimal_instance(
            tmp_path / "bad",
            **{"od.csv": "od_id,origin,dest,demand,target_time\n"},
        )
        assert main(["validate", str(d)]) == EXIT_CODES["validation"]
        assert "no demand" in capsys.readouterr().err


def compare_fb_ifbf(tmp_path, instance_dir):
    """`due compare` of a 3-iteration fb run and a 4-iteration ifbf run."""
    cfg_fb = line_config(tmp_path, instance_dir, out_name="fb")
    cfg_if = line_config(tmp_path, instance_dir, out_name="ifbf",
                         algorithm="ifbf", max_iterations=4, tau0=50.0,
                         beta_n="pow(10, -2, 1)", eps_n="pow(1, -5, 32)")
    raw = json.loads(cfg_if.read_text())
    del raw["solver"]["tau"]
    cfg_if.write_text(json.dumps(raw))
    out = tmp_path / "cmp"
    assert main(["compare", "-c", str(cfg_fb), "-c", str(cfg_if), "-o", str(out)]) == 0
    return out


class TestCompare:
    def test_two_methods(self, tmp_path, instance_dir):
        out = compare_fb_ifbf(tmp_path, instance_dir)
        energy = (out / "compare_energy.csv").read_text().splitlines()
        assert energy[0] == "n,energy_fb,tau_fb,energy_ifbf,tau_ifbf"
        assert len(energy) == 1 + 4  # longest run has 4 iterations
        gaps = (out / "compare_gaps.csv").read_text().splitlines()
        assert gaps[0] == "od_id,gap_fb,gap_ifbf"

    def test_three_methods_aligned(self, tmp_path, instance_dir):
        cfg_fb = line_config(tmp_path, instance_dir, out_name="m_fb")
        cfg_fbf = line_config(tmp_path, instance_dir, out_name="m_fbf",
                              algorithm="fbf", max_iterations=4, tau0=50.0,
                              alpha_n="pow(9, -1, 1)", beta_n="const(0.7)")
        cfg_if = line_config(tmp_path, instance_dir, out_name="m_ifbf",
                             algorithm="ifbf", max_iterations=4, tau0=50.0,
                             beta_n="pow(10, -2, 1)", eps_n="pow(1, -5, 32)")
        for cfg in (cfg_fbf, cfg_if):
            raw = json.loads(cfg.read_text())
            del raw["solver"]["tau"]
            cfg.write_text(json.dumps(raw))
        out = tmp_path / "cmp3"
        assert main(["compare", "-c", str(cfg_fb), "-c", str(cfg_fbf),
                     "-c", str(cfg_if), "-o", str(out)]) == 0
        header = (out / "compare_energy.csv").read_text().splitlines()[0]
        assert header.count("energy_") == 3

    def test_tables_match_run_artifacts(self, tmp_path, instance_dir):
        out = compare_fb_ifbf(tmp_path, instance_dir)

        def table(path):
            """Rows keyed by their first cell, each a dict by column name."""
            header, *rows = (line.split(",") for line in path.read_text().splitlines())
            return {row[0]: dict(zip(header, row)) for row in rows}

        energy = table(out / "compare_energy.csv")
        gaps = table(out / "compare_gaps.csv")
        checked = 0
        for name in ("fb", "ifbf"):
            iters = table(out / name / "iterations.csv")
            for n, row in energy.items():
                if n in iters:
                    assert row[f"energy_{name}"] == iters[n]["energy"]
                    assert row[f"tau_{name}"] == iters[n]["tau"]
                    checked += 2
                else:
                    assert row[f"energy_{name}"] == row[f"tau_{name}"] == ""
            od_gaps = table(out / name / "od_gaps.csv")
            assert set(od_gaps) == set(gaps)
            for od, row in gaps.items():
                assert row[f"gap_{name}"] == od_gaps[od]["gap"]
                checked += 1
        assert checked == 2 * 3 + 2 * 4 + 2 * len(gaps)

    def test_single_config_rejected(self, tmp_path, instance_dir, capsys):
        cfg = line_config(tmp_path, instance_dir)
        assert main(["compare", "-c", str(cfg), "-o", str(tmp_path / "x")]) == EXIT_CODES["config"]

    def test_mismatched_grid_rejected(self, tmp_path, instance_dir, capsys):
        cfg_a = line_config(tmp_path, instance_dir, out_name="a")
        cfg_b = line_config(tmp_path, instance_dir, out_name="b")
        raw = json.loads(cfg_b.read_text())
        raw["grid"]["num_intervals"] = 36
        cfg_b.write_text(json.dumps(raw))
        code = main(["compare", "-c", str(cfg_a), "-c", str(cfg_b), "-o", str(tmp_path / "x")])
        assert code == EXIT_CODES["config"]
        assert "different grid" in capsys.readouterr().err


class TestNguyenProtocol:
    def test_ifbf_run_produces_artifacts(self, tmp_path, nguyen_dir):
        # published parameterization, trimmed to a handful of iterations
        cfg = {
            "network_dir": str(nguyen_dir),
            "grid": {"t0": 0.0, "t1": 2.0, "num_intervals": 70},
            "horizon_buffer": 2.5,
            "gamma": 1.0,
            "solver": {
                "algorithm": "ifbf", "max_iterations": 8, "tau0": 2000.0,
                "mu": 0.5, "lambda": 0.5, "alpha": 0.7,
                "beta_n": "pow(10, -2, 1)", "eps_n": "pow(1, -5, 32)",
            },
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "-c", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["iterations"] == 8
        assert summary["operator_evaluations"] == 16
        assert summary["gap_median"] >= 0.0
        # the final report loading stops stepping once the network has drained
        loading = summary["final_loading"]
        assert loading["steps"] == 158 and loading["drained_step"] < loading["steps"]
        lines = (tmp_path / "out" / "iterations.csv").read_text().splitlines()
        assert len(lines) == 9


class TestPresetConfigs:
    def test_presets_parse(self):
        from conftest import REPO_ROOT
        from due.cli import RunConfig

        presets = sorted((REPO_ROOT / "configs").glob("*.json"))
        assert len(presets) >= 4
        for preset in presets:
            cfg = RunConfig.from_file(preset)
            assert cfg.network_dir.exists(), preset
