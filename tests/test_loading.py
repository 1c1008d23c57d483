import dataclasses
import gc
import runpy
import tracemalloc

import numpy as np
import pytest

from conftest import (REPO_ROOT, assert_matches_reference, assert_same_engine, build_line_network,
                      uniform_profile)
from due.cli import main as cli_main
from due.errors import ConfigurationError, UnfinishedTripError, ValidationError
from due.loading import _DELAY_BLOCK_ROWS, LoadingResult, _Engine, effective_delay, run_dnl
from due.network import Link, Network, PathDef, load_network_dir
from due.operators import DNLDelayOperator
from due.solvers import uniform_start
from due.space import PathFlowProfile, TimeGrid, TripTable
from oracles import (audit_loading, csr_layout, interp_rowwise, invert_index, junction_flows,
                     path_delays_by_path, probe_link_exit, total_exited)

# Line links default to 2 km at 60 km/h (w 20 km/h, kjam 160 veh/km): on this
# grid one step is one free-flow time, L/w is three steps, and capacity is
# 80 vehicles a step.
GRID = TimeGrid(0.0, 0.5, 15)
DT = GRID.dt

# the largest `audit_loading` value that a loading may show, per invariant
AUDIT_BOUNDS = {"junction_conservation": 1e-12, "occupancy": 1e-9, "monotone": 1e-12,
                "path_split": 1e-9, "flow_bounds": 0.0}


def with_kjam(net, lid, kjam):
    """`net` with link `lid` at another jam density, and hence capacity."""
    l = net.links[lid]
    links = dict(net.links)
    links[lid] = Link(lid, l.tail, l.head, l.length, l.vf, l.w, kjam,
                      l.vf * l.w * kjam / (l.vf + l.w))
    return Network(nodes=net.nodes, links=links, od_pairs=net.od_pairs,
                   trips=net.trips, paths=net.paths)


def load(net, rates):
    h = PathFlowProfile(GRID, np.asarray(rates, dtype=float).reshape(1, -1))
    return run_dnl(h, net, buffer=1.0)


def curves(res, lid):
    e = res.engine.index_of[lid]
    return res.n_up[e], res.n_down[e]


def queue_curves(res, q=0):
    """Arrivals and releases of origin queue `q`: the curves' rows after the links'."""
    row = len(res.engine.link_ids) + q
    return res.n_up[row], res.n_down[row]


def burst(vehicles=200.0, tail_rate=0.0):
    """One-link line; `vehicles` depart in the first interval, then a steady trickle."""
    rates = np.full(15, tail_rate)
    rates[0] = vehicles / DT
    return load(build_line_network(num_links=1), rates)


def bottleneck():
    """Two-link line whose second link has a quarter of the capacity (20 a step)."""
    net = with_kjam(build_line_network(num_links=2), "2", 40.0)
    rates = np.zeros(15)
    rates[:3] = 1500.0  # 50 vehicles a step for three steps
    return net, load(net, rates)


def spillback():
    """Three-link line at capacity demand whose last link lets through 0.04 vehicles a step."""
    net = with_kjam(build_line_network(num_links=3), "3", 0.08)
    return net, load(net, np.full(15, 2400.0))


def scaled(net, factor):
    """`net` with every O-D demand multiplied by `factor`."""
    trips = TripTable({od: factor * d for od, d in net.trips.demands.items()},
                      net.trips.target_times)
    return dataclasses.replace(net, trips=trips)


def line_link(lid, tail, head, vf=60.0, w=20.0, kjam=160.0):
    """A 2 km link, by default one of `build_line_network`'s."""
    return Link(lid, tail, head, 2.0, vf, w, kjam, vf * w * kjam / (vf + w))


def two_lines():
    """Two disjoint lines: path row 0 stalls on its links, row 1 in its origin queue.

    Row 0 (`pa`) departs 150 vehicles over links a1, a2 and a3.  a3 is slow
    (1 km/h, 80 vehicles an hour, two hours of free flow): the first
    departures enter it and stay to the end of the horizon, and the last ones
    are still waiting behind them on a2.  Row 1 (`pb`) departs 1200 over b1
    and b2, which lets through 0.04 vehicles a step: b1 jams and the origin
    queue never empties.
    """
    links = [line_link("a1", "a0", "a1"), line_link("a2", "a1", "a2"),
             line_link("a3", "a2", "a3", vf=1.0, w=1.0), line_link("b1", "b0", "b1"),
             line_link("b2", "b1", "b2", kjam=0.08)]
    nodes = {f"{side}{i}": (float(i), y) for side, y in (("a", 0.0), ("b", 1.0))
             for i in range(4)}
    net = Network(nodes=nodes, links={l.id: l for l in links},
                  od_pairs={"wa": ("a0", "a3"), "wb": ("b0", "b2")},
                  trips=TripTable({"wa": 150.0, "wb": 1200.0}, {"wa": 1.0, "wb": 1.0}),
                  paths=(PathDef("pa", "wa", ("a1", "a2", "a3")),
                         PathDef("pb", "wb", ("b1", "b2"))))
    rates = np.array([[300.0] * 15, [2400.0] * 15])
    return net, run_dnl(PathFlowProfile(GRID, rates), net, buffer=1.0)


def shared_prefix():
    """Path row 0 stalls on its last link; rows 1 and 2 stall on the prefix they share.

    Row 0 (`pa`) departs 50 vehicles over a1, a2 and the slow a3 (as in
    `two_lines`), which takes them all in and lets none out.  Rows 1 and 2
    (`pb`, `pc`) depart 20 vehicles each over b1 and the slow b2, then split
    onto b3 and c3.  So the first failing probe node, (b1, b2) at hop 1,
    comes before row 0's failing node (a1, a2, a3) at hop 2.
    """
    links = [line_link("a1", "a0", "a1"), line_link("a2", "a1", "a2"),
             line_link("a3", "a2", "a3", vf=1.0, w=1.0), line_link("b1", "b0", "b1"),
             line_link("b2", "b1", "b2", vf=1.0, w=1.0), line_link("b3", "b2", "b3"),
             line_link("c3", "b2", "c3")]
    nodes = {f"{side}{i}": (float(i), y) for side, y in (("a", 0.0), ("b", 1.0))
             for i in range(4)}
    nodes["c3"] = (3.0, 2.0)
    net = Network(nodes=nodes, links={l.id: l for l in links},
                  od_pairs={"wa": ("a0", "a3"), "wb": ("b0", "b3"), "wc": ("b0", "c3")},
                  trips=TripTable({"wa": 50.0, "wb": 20.0, "wc": 20.0},
                                  {"wa": 1.0, "wb": 1.0, "wc": 1.0}),
                  paths=(PathDef("pa", "wa", ("a1", "a2", "a3")),
                         PathDef("pb", "wb", ("b1", "b2", "b3")),
                         PathDef("pc", "wc", ("b1", "b2", "c3"))))
    rates = np.array([[100.0] * 15, [40.0] * 15, [40.0] * 15])
    return net, run_dnl(PathFlowProfile(GRID, rates), net, buffer=1.0)


def resolve_one(amounts, supplies):
    """`_Engine._resolve` on one junction: amounts (approach, out-slot)."""
    amounts, supplies = np.asarray(amounts, dtype=float), np.asarray(supplies, dtype=float)
    rounds = np.ones((supplies.size + 1, 1), dtype=bool)  # rounds 0..n_out
    return _Engine._resolve(amounts[None], supplies[None], rounds)[0]


def resolve_both(d, s, w):
    """Junction flows from `_Engine._resolve` and from the reference.

    Column 0 of the split `w` is the sink, which takes any amount.
    """
    d, s, w = (np.asarray(x, dtype=float) for x in (d, s, w))
    theta = resolve_one(d[:, None] * w[:, 1:], s)
    engine = (theta * d, (theta * d) @ w)
    return engine, junction_flows(d, np.r_[np.inf, s], w)


def random_junction(rng):
    """Demands, supplies and a split whose approaches each use a random
    subset of the out-links and of the destination sink (column 0)."""
    m = rng.integers(1, 4)
    n = rng.integers(1, 4)
    d = rng.uniform(0, 5, size=m)
    s = rng.uniform(0, 5, size=n)
    w = rng.dirichlet(np.ones(n + 1), size=m) * (rng.uniform(size=(m, n + 1)) < 0.6)
    w[np.arange(m), rng.integers(0, n + 1, size=m)] += 0.1
    return d, s, w / w.sum(axis=1, keepdims=True)


@pytest.fixture
def loadings(monkeypatch):
    """Every (rates, result) pair `_Engine.run` returns while the test runs."""
    seen = []
    run = _Engine.run

    def recording(engine, rates):
        seen.append((rates, run(engine, rates)))
        return seen[-1][1]

    monkeypatch.setattr(_Engine, "run", recording)
    return seen


def assert_same_flows(engine, oracle):
    for a, b in zip(engine, oracle):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestLinkDemandSupply:
    def test_empty_link_demand_zero(self):
        # nothing leaves a link before its first vehicle has crossed it
        res = load(build_line_network(num_links=2), np.full(15, 600.0))
        for pos, lid in enumerate(("1", "2")):
            _up, down = curves(res, lid)
            assert np.all(down[: pos + 2] == 0.0)
            assert down[pos + 2] > 0.0

    def test_empty_link_supply_capacity(self):
        res = burst()
        up, _down = curves(res, "1")
        np.testing.assert_allclose(np.diff(up)[:2], 80.0, rtol=1e-12)

    def test_queued_link_sends_capacity(self):
        # link 1 queues behind the bottleneck and discharges at its capacity
        net, res = bottleneck()
        cap = net.links["2"].capacity * DT
        up1, down1 = curves(res, "1")
        out = np.diff(down1)
        reached = up1[:-1] - down1[:-1]  # at the exit, one free-flow step after entry
        queued = reached >= cap
        assert queued.sum() >= 5
        np.testing.assert_allclose(out[queued], cap, rtol=1e-12)
        np.testing.assert_allclose(out[~queued], reached[~queued], atol=1e-9)
        up2, _down2 = curves(res, "2")
        np.testing.assert_allclose(np.diff(up2), out, atol=1e-12)

    def test_uncongested_demand_equals_lagged_inflow(self):
        res = load(build_line_network(num_links=2), np.full(15, 600.0))
        for lid in ("1", "2"):
            up, down = curves(res, lid)
            np.testing.assert_allclose(down[1:], up[:-1], atol=1e-9)

    def test_jammed_link_supply_zero(self):
        # once jammed, link 2 holds exactly its storage beyond the vehicles
        # that had left one backward-wave lag (three steps) earlier, and takes
        # in no more than its nearly shut exit frees
        net, res = spillback()
        storage = net.links["2"].storage
        up2, down2 = curves(res, "2")
        assert np.max(up2 - down2) <= storage + 1e-9
        held = up2[3:] - down2[:-3]
        assert np.all(held <= storage + 1e-9)
        jammed = np.nonzero(held >= storage - 1e-9)[0]
        assert jammed.size >= 10
        inflow = np.diff(up2)[jammed[0] + 3:]
        np.testing.assert_allclose(inflow, net.links["3"].capacity * DT, rtol=1e-9)
        assert inflow.max() < 1e-3 * net.links["2"].capacity * DT

    def test_full_link_with_outflow_at_capacity_receives_capacity(self):
        # the full link receives what its exit lets through, so the jam spills
        # back: link 1 fills too and the origin releases at the exit's rate
        net, res = spillback()
        rate = net.links["3"].capacity * DT
        _up3, down3 = curves(res, "3")
        up1, down1 = curves(res, "1")
        np.testing.assert_allclose(np.diff(down3)[-10:], rate, rtol=1e-9)
        np.testing.assert_allclose(np.diff(up1)[-10:], rate, rtol=1e-9)
        assert up1[-1] - down1[-1] == pytest.approx(
            net.links["1"].storage - 3 * rate, rel=1e-9)
        np.testing.assert_allclose(np.diff(queue_curves(res)[1])[-10:], rate, rtol=1e-9)


class TestJunctionFlows:
    def test_single_pipe_min(self):
        engine, oracle = resolve_both([2.0], [3.0], [[0.0, 1.0]])
        assert_same_flows(engine, oracle)
        assert engine[0][0] == pytest.approx(2.0)
        assert engine[1][1] == pytest.approx(2.0)

    def test_single_pipe_supply_bound(self):
        engine, oracle = resolve_both([5.0], [3.0], [[0.0, 1.0]])
        assert_same_flows(engine, oracle)
        assert engine[0][0] == pytest.approx(3.0)
        assert engine[1][1] == pytest.approx(3.0)

    def test_fifo_diverge_scaling(self):
        # one binding branch throttles the whole approach by the same factor
        engine, oracle = resolve_both([4.0], [1.0, 10.0], [[0.0, 0.5, 0.5]])
        assert_same_flows(engine, oracle)
        assert engine[0][0] == pytest.approx(2.0)
        np.testing.assert_allclose(engine[1], [0.0, 1.0, 1.0])

    def test_fifo_diverge_by_enumeration(self):
        # brute force over candidate reductions: largest feasible single factor
        D, S, W = 4.0, np.array([1.0, 10.0]), np.array([0.5, 0.5])
        thetas = np.linspace(0, 1, 100001)
        feasible = thetas[np.all(np.outer(thetas * D, W) <= S + 1e-12, axis=1)]
        theta = resolve_one([D * W], S)
        assert theta[0] == pytest.approx(feasible.max(), abs=1e-4)

    def test_merge_proportional_to_demand(self):
        engine, oracle = resolve_both([4.0, 2.0], [3.0], [[0.0, 1.0], [0.0, 1.0]])
        assert_same_flows(engine, oracle)
        np.testing.assert_allclose(engine[0], [2.0, 1.0])
        assert engine[1][1] == pytest.approx(3.0)

    def test_small_overshoot_rescaled(self):
        # the first rescale (out-link 1) leaves out-link 2 over its supply by
        # 0.005 vehicles, which a second rescale must remove
        amounts = np.array([[0.0, 4.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 3.0]])
        d = amounts.sum(axis=1)
        s = np.array([2.5, 3.495])
        engine, oracle = resolve_both(d, s, amounts / d[:, None])
        assert_same_flows(engine, oracle)
        assert np.all(engine[1][1:] <= s + 1e-9)

    def test_conservation_random(self):
        # random junctions whose approaches each use a random subset of the
        # out-links and of the destination sink
        rng = np.random.default_rng(42)
        for _ in range(200):
            d, s, w = random_junction(rng)
            engine, oracle = resolve_both(d, s, w)
            assert_same_flows(engine, oracle)
            f_out, f_in = engine
            assert abs(f_out.sum() - f_in.sum()) <= 1e-12 * max(1.0, f_out.sum())
            assert np.all(f_out <= d + 1e-12)
            assert np.all(f_in[1:] <= s + 1e-9 * np.maximum(s, 1.0))
            assert np.all(f_out >= 0)

    def test_stacked_junctions(self):
        # junctions of every arity resolved in one call, padded with
        # zero-amount approaches and zero-supply out-slots, each as it
        # resolves alone
        rng = np.random.default_rng(7)
        junctions = [random_junction(rng) for _ in range(60)]
        amounts = np.zeros((60, 3, 3))
        supplies = np.zeros((60, 3))
        n_out = np.array([s.size for _d, s, _w in junctions])
        for j, (d, s, w) in enumerate(junctions):
            amounts[j, : d.size, : s.size] = d[:, None] * w[:, 1:]
            supplies[j, : s.size] = s
        theta = _Engine._resolve(amounts, supplies, np.arange(4)[:, None] <= n_out)
        for j, (d, s, w) in enumerate(junctions):
            alone = resolve_one(d[:, None] * w[:, 1:], s)
            np.testing.assert_allclose(theta[j, : d.size], alone, rtol=1e-12, atol=1e-12)
            assert_same_flows((theta[j, : d.size] * d, (theta[j, : d.size] * d) @ w),
                              junction_flows(d, np.r_[np.inf, s], w))


class TestOriginQueue:
    def test_origin_demand_branches(self):
        # a backed-up queue sends big M, so the link's supply sets its release;
        # an empty one sends its inflow
        up, down = queue_curves(burst(tail_rate=600.0))
        arrivals, released = np.diff(up), np.diff(down)
        queue = (up - down)[:-1]
        backed_up = queue > 0
        assert 0 < backed_up.sum() < queue.size
        np.testing.assert_allclose(
            released[backed_up],
            np.minimum(80.0, queue[backed_up] + arrivals[backed_up]), rtol=1e-12)
        np.testing.assert_allclose(
            released[~backed_up], np.minimum(80.0, arrivals[~backed_up]), rtol=1e-12)

    def test_free_flow_through(self):
        res = load(build_line_network(num_links=1), np.full(15, 600.0))
        arrivals, releases = queue_curves(res)
        np.testing.assert_array_equal(releases, arrivals)
        up, _down = curves(res, "1")
        np.testing.assert_array_equal(up, releases)

    def test_supply_bound_builds_queue(self):
        # 200 vehicles at once: 80 leave a step, so the queue builds to 120
        # and drains at capacity
        arrivals, releases = queue_curves(burst())
        np.testing.assert_allclose(np.diff(releases)[:4], [80.0, 80.0, 40.0, 0.0])
        queue = arrivals - releases
        np.testing.assert_allclose(queue[:4], [0.0, 120.0, 40.0, 0.0], atol=1e-12)

    def test_release_capped_by_content(self):
        # the draining step releases only what is left: no queue goes negative
        for res in (burst(), burst(vehicles=170.0, tail_rate=300.0), spillback()[1]):
            queue = (res.n_up - res.n_down)[len(res.engine.link_ids):]
            assert queue.min() >= 0.0
            assert res.queued.min() >= 0.0
            np.testing.assert_allclose(
                queue[:, -1], np.bincount(res.engine.queue_of_path, res.queued))

    def test_trickle_stays_queued(self):
        # 1e-16 vehicles a step are too few to release until they add up
        # past 1e-15; the last ones stay in the per-path queue content
        res = load(build_line_network(num_links=1), np.full(15, 1e-16 / DT))
        arrivals, releases = queue_curves(res)
        queue = arrivals - releases
        assert queue[-1] > 0.0
        np.testing.assert_allclose(res.queued, queue[-1:], rtol=0, atol=1e-30)


class TestExitTime:
    def test_free_flow_translation(self):
        res = load(build_line_network(num_links=1), np.full(15, 600.0))
        t = res.grid_ext.boundaries()[:30]
        ff = res.engine.ff_time[0]
        np.testing.assert_allclose(probe_link_exit(res, 0, t), t + ff, atol=1e-12)

    def test_no_vehicle_convention(self):
        # an empty link is crossed at free flow
        res = load(build_line_network(num_links=1), np.zeros(15))
        t = res.grid_ext.boundaries()[:30]
        np.testing.assert_array_equal(probe_link_exit(res, 0, t), t + res.engine.ff_time[0])

    def test_queued_staircase_brute_force(self):
        net, res = bottleneck()
        e = res.engine.index_of["1"]
        up, down = curves(res, "1")
        bt = res.grid_ext.boundaries()
        ff = net.links["1"].free_flow_time
        fine = np.linspace(bt[0], bt[-1], 200001)
        vals = np.interp(fine, bt, down)
        times = np.array([0.0, 0.01, 0.03, 0.05, 0.07, 0.09])
        lam = probe_link_exit(res, e, times)
        for t, got in zip(times, lam):
            level = np.interp(t, bt, up)
            expected = max(fine[np.argmax(vals >= level - 1e-12)], t + ff)
            assert got == pytest.approx(expected, abs=1e-4)
        assert np.any(lam > times + ff + DT)  # the later probes wait in the queue

    def test_unfinished_trip(self):
        _net, res = spillback()
        with pytest.raises(UnfinishedTripError) as info:
            res.path_delays()
        assert info.value.path_id == "p1"
        with pytest.raises(UnfinishedTripError):
            probe_link_exit(res, res.engine.index_of["1"], res.grid_ext.boundaries()[10:20])

    def test_unfinished_trip_names_lowest_row(self):
        # row 1 stalls in its origin queue, the first probe of every path.
        # Row 0 passes its queue and stalls on its second link from interval
        # 12, and on its third from interval 1: the error names row 0 at its
        # second link, as the path-by-path probe does
        _net, res = two_lines()
        starts = GRID.starts()
        for row, stalls in ((0, False), (1, True)):
            qi = res.engine.queue_of_path[row]
            _exits, unfinished = res._probe_exit(*queue_curves(res, qi), starts, 0.0)
            assert unfinished.any() == stalls
        with pytest.raises(UnfinishedTripError) as batched:
            res.path_delays()
        with pytest.raises(UnfinishedTripError) as by_path:
            path_delays_by_path(res)
        assert (batched.value.path_id, batched.value.interval) == ("pa", 12)
        assert (by_path.value.path_id, by_path.value.interval) == ("pa", 12)

    def test_unfinished_trip_not_named_by_shared_prefix(self):
        # the shared prefix (b1, b2) of rows 1 and 2 fails at hop 1, before
        # row 0 fails at hop 2: the error still names row 0
        _net, res = shared_prefix()
        eng = res.engine
        starts = GRID.starts()
        intervals = np.arange(starts.size)

        def ride(row, links):
            t, unfinished = res._probe_exit(*queue_curves(res, eng.queue_of_path[row]),
                                            starts, 0.0)
            assert not unfinished.any()
            for lid in links:
                t = probe_link_exit(res, eng.index_of[lid], t, row, intervals)

        ride(0, ["a1", "a2"])
        with pytest.raises(UnfinishedTripError):
            ride(0, ["a1", "a2", "a3"])
        with pytest.raises(UnfinishedTripError):
            ride(1, ["b1", "b2"])
        shared = [i for i, g in enumerate(eng.probe_groups) if g[0] == eng.index_of["b2"]]
        own = [i for i, g in enumerate(eng.probe_groups) if g[0] == eng.index_of["a3"]]
        assert len(shared) == len(own) == 1 and eng.probe_groups[shared[0]][1].size == 1
        assert shared[0] < own[0]
        with pytest.raises(UnfinishedTripError) as batched:
            res.path_delays()
        with pytest.raises(UnfinishedTripError) as by_path:
            path_delays_by_path(res)
        assert (batched.value.path_id, batched.value.interval) == ("pa", 1)
        assert (by_path.value.path_id, by_path.value.interval) == ("pa", 1)


class TestRunDnl:
    def test_zero_flow_zero_curves(self, line_network):
        grid = TimeGrid(0.0, 0.5, 15)
        h = PathFlowProfile(grid, np.zeros((1, grid.num_intervals)))
        res = run_dnl(h, line_network)
        for lid in line_network.links:
            up, down = curves(res, lid)
            assert np.all(up == 0.0)
            assert np.all(down == 0.0)
        assert total_exited(res) == 0.0

    def test_pulse_conservation(self):
        net = build_line_network(num_links=2, demand=10.0)
        grid = TimeGrid(0.0, 0.5, 15)
        rates = np.zeros((1, 15))
        rates[0, 0] = 10.0 / grid.dt  # all vehicles depart in the first interval
        h = PathFlowProfile(grid, rates)
        res = run_dnl(h, net, buffer=1.0)
        assert total_exited(res) == pytest.approx(10.0, rel=1e-9)
        _up, down = curves(res, net.paths[0].links[-1])
        assert down[-1] == pytest.approx(10.0, rel=1e-9)

    def test_free_flow_translation_of_curves(self):
        net = build_line_network(num_links=1, demand=30.0)
        link = net.links["1"]
        grid = TimeGrid(0.0, 1.0, 30)
        rates = np.full((1, 30), 30.0)  # far below capacity
        h = PathFlowProfile(grid, rates)
        res = run_dnl(h, net, buffer=0.5)
        up, down = curves(res, "1")
        bt = res.grid_ext.boundaries()
        lag = link.free_flow_time
        expected = np.interp(bt - lag, bt, up, left=0.0)
        np.testing.assert_allclose(down, expected, atol=1e-8)

    def test_cfl_violation_names_link(self, line_network):
        grid = TimeGrid(0.0, 1.0, 5)  # dt = 0.2 > L/v
        h = PathFlowProfile(grid, np.zeros((1, grid.num_intervals)))
        with pytest.raises(ConfigurationError, match="link"):
            run_dnl(h, line_network)

    def test_disconnected_path_rejected(self, line_network):
        # c and d double links 1 and 2, so p1 leaves the origin and reaches the
        # destination, but link 2 ends where link 1 does not start
        links = {**line_network.links, "c": line_link("c", "0", "1"), "d": line_link("d", "1", "2")}
        with pytest.raises(ValidationError, match="not connected between links '2' and '1'"):
            dataclasses.replace(line_network, links=links,
                                paths=(PathDef("p1", "w", ("c", "2", "1", "d")),))

    def test_rejects_negative_rates(self, line_network):
        grid = TimeGrid(0.0, 0.5, 15)
        h = PathFlowProfile(grid, np.full((1, 15), -1.0))
        with pytest.raises(ValidationError):
            run_dnl(h, line_network)

    @pytest.mark.parametrize("state", ["drained", "link_holds", "queue_holds", "recent_entry"])
    def test_drain_needs_empty_links_and_queues_and_flat_entries(self, state):
        # a 4 km link: free flow takes two steps, so the sending read at step
        # k starts at column k - 1
        engine = _Engine(build_line_network(num_links=1, length=4.0), GRID, 0.5)
        k = GRID.num_intervals + 2
        n_up = np.full((1, engine.steps + 1), 5.0)
        n_down = n_up.copy()
        queued = np.zeros(1)
        if state == "link_holds":
            n_down[0, k] = 4.0
        elif state == "queue_holds":
            queued[0] = 1e-12
        elif state == "recent_entry":
            n_up[0, :k] = 4.0
        floor_at = engine._read_schedule()[0][k, :1]  # n_up[0, k - 1]
        assert engine._drained(n_up, n_down, queued, k, floor_at) == (state == "drained")

    def test_invariants_on_loaded_network(self, nguyen):
        grid = TimeGrid(0.0, 2.0, 70)
        h = uniform_profile(nguyen, grid)
        res = run_dnl(h, nguyen, buffer=2.5)
        rep = audit_loading(res)
        assert rep["junction_conservation"] <= 1e-12
        assert rep["occupancy"] <= 1e-9
        assert rep["monotone"] <= 1e-12
        assert rep["path_split"] <= 1e-9
        assert total_exited(res) == pytest.approx(
            sum(nguyen.trips.demands.values()), rel=1e-6
        )

    @pytest.mark.parametrize("fault", ["decrease", "overfull", "over_capacity", "split",
                                       "lost_at_junction"])
    def test_audit_finds_corrupted_curves(self, nguyen, fault):
        # each fault corrupts a copy of one array of a clean loading
        grid = TimeGrid(0.0, 2.0, 70)
        res = run_dnl(uniform_profile(nguyen, grid), nguyen, buffer=2.5)
        assert all(v <= AUDIT_BOUNDS[key] for key, v in audit_loading(res).items())
        eng, k = res.engine, 20
        e = int(np.argmax(res.n_up[:, k]))  # a loaded link
        bad = dataclasses.replace(res, n_up=res.n_up.copy(), n_down=res.n_down.copy(),
                                  p_up=res.p_up.copy())
        if fault == "decrease":
            key = "monotone"
            bad.n_up[e, k] = bad.n_up[e, k - 1] - 1e-9
        elif fault == "overfull":
            key = "occupancy"
            bad.n_up[e, k:] += eng.storage[e]
        elif fault == "over_capacity":
            key = "flow_bounds"
            bad.n_up[e, k:] += 1.5 * eng.capacity[e] * grid.dt
        elif fault == "split":
            key = "path_split"
            bad.p_up[0, np.flatnonzero(eng.link_of == e)[0]] += 1e-6  # the first kept row
        else:
            key = "junction_conservation"
            ends = {nguyen.links[p.links[-1]].head for p in nguyen.paths}
            e = next(i for i, lid in enumerate(eng.link_ids)
                     if nguyen.links[lid].head not in ends and res.n_down[i, -1] > 0)
            bad.n_down[e, k:] += 1e-6  # leave link e, enter no link and no trip end
        assert audit_loading(bad)[key] > AUDIT_BOUNDS[key]

    def test_fifo_exit_times_monotone(self, nguyen):
        grid = TimeGrid(0.0, 2.0, 70)
        h = uniform_profile(nguyen, grid)
        res = run_dnl(h, nguyen, buffer=2.5)
        bt = res.grid_ext.boundaries()[:-20]
        for e in range(len(res.engine.link_ids)):
            lam = probe_link_exit(res, e, bt)
            assert np.all(np.diff(lam) >= -1e-9)

    def test_siouxfalls_result_keeps_no_per_path_history(self, siouxfalls_dir):
        # the origin-queue content is one value per path where stepping stopped,
        # not a column per path in each of the 24 window rows (2,892,896 bytes)
        net = scaled(load_network_dir(siouxfalls_dir), 0.25)
        grid = TimeGrid(0.0, 2.0, 100)
        res = run_dnl(uniform_profile(net, grid), net, buffer=2.0)
        arrays = {name: v for name, v in vars(res).items() if isinstance(v, np.ndarray)}
        assert res.queued.shape == (net.num_paths,)
        assert [name for name, v in arrays.items() if net.num_paths in v.shape] == ["queued"]
        assert sum(v.nbytes for v in arrays.values()) == 1_755_776


class TestPathDelay:
    def test_free_flow_two_links(self):
        # links of 2 and 3 minutes free-flow time, empty network
        net = build_line_network(num_links=2, demand=6.0)
        # reconfigure lengths: 2 km and 3 km at 60 km/h
        links = dict(net.links)
        links["2"] = Link("2", "1", "2", 3.0, 60.0, 20.0, 160.0, 2400.0)
        net = Network(nodes=net.nodes, links=links, od_pairs=net.od_pairs,
                      trips=net.trips, paths=net.paths)
        grid = TimeGrid(0.0, 1.0, 30)
        h = PathFlowProfile(grid, np.full((1, 30), 6.0))
        d = run_dnl(h, net, buffer=0.5).path_delays()
        ff = 2.0 / 60.0 + 3.0 / 60.0
        np.testing.assert_allclose(d[0], ff, atol=1e-9)

    def test_origin_queue_plus_free_flow(self):
        # capacity-limited first link: queue service adds to free-flow time
        net = build_line_network(num_links=1, demand=100.0, kjam=160.0)
        link = net.links["1"]
        grid = TimeGrid(0.0, 1.0, 30)
        rates = np.zeros((1, 30))
        rates[0, 0] = 100.0 / grid.dt  # burst: 100 vehicles in one interval
        h = PathFlowProfile(grid, rates)
        res = run_dnl(h, net, buffer=0.5)
        d = res.path_delays()
        # the last vehicle of the burst waits (100/C - dt) in the queue
        wait = 100.0 / link.capacity
        ff = link.free_flow_time
        assert d[0, 0] == pytest.approx(ff + max(wait - grid.dt, 0.0), abs=2 * grid.dt)
        # probes after the burst ride an emptying system
        assert d[0, -1] == pytest.approx(ff, abs=1e-6)

    def test_unused_intervals_get_free_flow(self):
        # a zero profile still yields delays on the whole grid (free flow)
        net = build_line_network(num_links=2, demand=5.0)
        grid = TimeGrid(0.0, 0.5, 15)
        h = PathFlowProfile(grid, np.zeros((1, grid.num_intervals)))
        res = run_dnl(h, net)
        d = res.path_delays()
        ff = sum(net.links[e].free_flow_time for e in net.paths[0].links)
        np.testing.assert_allclose(d[0], ff, atol=1e-12)


class TestPathDelaysByPath:
    """`path_delays` probes each shared path prefix once; the reference probes
    path by path.  Each loading is also checked against the reference loader."""

    @pytest.mark.parametrize("case", ["free", "burst", "bottleneck", "two_links"])
    def test_line_fixtures(self, case, loadings):
        if case == "free":
            res = load(build_line_network(num_links=2), np.full(15, 600.0))
        elif case == "burst":
            res = burst(tail_rate=600.0)
        elif case == "bottleneck":
            res = bottleneck()[1]
        else:
            net = build_line_network(num_links=2)
            net = dataclasses.replace(net, paths=(*net.paths, PathDef("p2", "w", ("1", "2"))))
            h = PathFlowProfile(GRID, np.array([[900.0] * 15, [1500.0] * 15]))
            res = run_dnl(h, net, buffer=1.0)
        np.testing.assert_array_equal(res.path_delays(), path_delays_by_path(res))
        ((rates, _res),) = loadings
        assert_matches_reference(res, rates)

    @pytest.mark.parametrize("factor", [1.0, 1.5, 2.0])
    def test_nguyen_uniform_start(self, nguyen, factor, loadings):
        # above the shipped demand, origin queues form
        net = scaled(nguyen, factor)
        grid = TimeGrid(0.0, 2.0, 70)
        res = run_dnl(uniform_profile(net, grid), net, buffer=2.5)
        queue = (res.n_up - res.n_down)[len(res.engine.link_ids):]
        assert (np.max(queue) > 0) == (factor > 1)
        assert res.drained_step is not None
        np.testing.assert_array_equal(res.path_delays(), path_delays_by_path(res))
        ((rates, _res),) = loadings
        assert_matches_reference(res, rates)

    def test_siouxfalls_quarter_demand_evaluation(self, siouxfalls_dir, monkeypatch):
        # one operator evaluation on the grid of configs/siouxfalls_ifbf.json
        net = scaled(load_network_dir(siouxfalls_dir), 0.25)
        grid = TimeGrid(0.0, 2.0, 100)
        op = DNLDelayOperator(net, grid, gamma=1.0, buffer=2.0)
        loaded = []
        run = op._engine.run

        def run_and_keep(rates):
            loaded.append((rates, run(rates)))
            return loaded[-1][1]

        monkeypatch.setattr(op._engine, "run", run_and_keep)
        h0 = uniform_start(grid, net.trips, net.path_rows_by_od())
        effective = op.evaluate(h0).delays
        ((rates, res),) = loaded
        assert total_exited(res) == pytest.approx(sum(net.trips.demands.values()), rel=1e-6)
        assert res.drained_step is not None
        # the entry-curve window keeps 24 rows of the 201 steps here
        assert res.p_up.shape[0] <= 24
        delays = res.path_delays()
        np.testing.assert_array_equal(
            effective, effective_delay(delays, grid, net.trips, net.od_by_path()).delays)
        free_flow = np.array([sum(net.links[e].free_flow_time for e in p.links)
                              for p in net.paths])
        assert np.all(delays >= free_flow[:, None] - 1e-12)
        np.testing.assert_array_equal(delays, path_delays_by_path(res))
        assert_matches_reference(res, rates)
        assert all(v <= AUDIT_BOUNDS[key] for key, v in audit_loading(res).items())

    def test_operator_writes_over_its_probe_array(self, nguyen, monkeypatch):
        # the effective delays are `effective_delay` of the travel times bit
        # for bit, stored in the rows of the array they were probed into
        grid = TimeGrid(0.0, 2.0, 70)
        op = DNLDelayOperator(nguyen, grid, gamma=1.0, buffer=2.5)
        probed = []
        path_delays = LoadingResult.path_delays

        def keep(result):
            probed.append((result, path_delays(result)))
            return probed[-1][1]

        monkeypatch.setattr(LoadingResult, "path_delays", keep)
        effective = op.evaluate(uniform_profile(nguyen, grid)).delays
        monkeypatch.undo()
        ((res, probe_rows),) = probed
        want = effective_delay(res.path_delays(), grid, nguyen.trips, nguyen.od_by_path())
        assert np.array_equal(effective.view(np.int64), want.delays.view(np.int64))
        assert np.shares_memory(effective, probe_rows)

    def test_siouxfalls_evaluation_holds_no_second_delay_array(self, siouxfalls_dir):
        net = scaled(load_network_dir(siouxfalls_dir), 0.25)
        grid = TimeGrid(0.0, 2.0, 100)
        op = DNLDelayOperator(net, grid, gamma=1.0, buffer=2.0)
        h0 = uniform_profile(net, grid)
        res = op._engine.run(h0.rates)
        result_bytes = sum(v.nbytes for v in vars(res).values() if isinstance(v, np.ndarray))
        probe_bytes = res.engine.num_probe_rows * grid.num_intervals * 8
        delay_bytes = net.num_paths * grid.num_intervals * 8
        del res
        gc.collect()
        tracemalloc.start()
        try:
            op.evaluate(h0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the loading result and the probe array, and less than another
        # (path, interval) array of delays beside them
        assert peak < result_bytes + probe_bytes + delay_bytes / 2

    def test_siouxfalls_probes_each_node_once(self, siouxfalls_dir, monkeypatch):
        # 6,180 paths make 33,083 (link, path) incidences, stepped as 6,338
        # (link, remaining route) nodes; over 76 origin queues they make only
        # 6,289 distinct (queue, link prefix) nodes to probe
        net = scaled(load_network_dir(siouxfalls_dir), 0.25)
        grid = TimeGrid(0.0, 2.0, 100)
        res = run_dnl(uniform_start(grid, net.trips, net.path_rows_by_od()), net,
                      buffer=2.0)
        assert sum(len(p.links) for p in net.paths) == 33083
        assert res.engine.link_count.sum() == 6338
        shapes = []
        probe = LoadingResult._probe_exit

        def counted(self, up, down, times, floor):
            shapes.append(times.shape)
            return probe(self, up, down, times, floor)

        with monkeypatch.context() as mp:
            mp.setattr(LoadingResult, "_probe_exit", counted)
            delays = res.path_delays()
        assert shapes[:76] == [(1, 100)] * 76  # the queues, one row each
        assert sum(s[0] for s in shapes[76:]) == 6289
        assert {s[1] for s in shapes} == {100}
        assert sum(np.prod(s) for s in shapes) == (76 + 6289) * 100
        np.testing.assert_array_equal(delays.view(np.int64),
                                      path_delays_by_path(res).view(np.int64))

    def test_every_loading_of_a_short_solve(self, tmp_path, loadings):
        # the benchmark's `nguyen_queued` run: Nguyen at about 1.5 times its
        # demand, 10 ifbf iterations and the final report, 21 loadings.  Their
        # delays can miss a relative 1e-12 where a probed curve climbs through
        # dust, so they are checked backward, hop by hop
        make_dnl = runpy.run_path(str(REPO_ROOT / "duebench" / "inputs.py"))["make_dnl"]
        configs = make_dnl(REPO_ROOT, "nguyen_queued", 1, tmp_path)["configs"]
        assert cli_main(["run", "-c", configs["a"]]) == 0
        assert len(loadings) == 21
        for rates, res in loadings:
            assert_matches_reference(res, rates, backward=True)



class TestReferenceLoading:
    """Cases the delay comparisons above cannot take: unfinished trips and a
    trickle below the origin release threshold, against the reference loader."""

    @pytest.mark.parametrize("case", ["spillback", "two_lines", "shared_prefix", "trickle"])
    def test_line_fixtures(self, case, loadings):
        if case == "spillback":
            spillback()
        elif case == "two_lines":
            two_lines()
        elif case == "shared_prefix":
            shared_prefix()
        else:
            load(build_line_network(num_links=1), np.full(15, 1e-16 / DT))
        ((rates, res),) = loadings
        assert_matches_reference(res, rates)


class TestEngineLayout:
    """The engine's precomputed read schedule and CSR order against the oracles."""

    @pytest.mark.parametrize("case", ["burst", "bottleneck", "spillback", "nguyen"])
    def test_read_schedule_matches_rowwise_interpolation(self, case, nguyen):
        # line links take three steps of L/w, so the first receiving reads
        # fall before column 0 and must read +0.0, as the oracle's mask does
        if case == "nguyen":
            net, grid = scaled(nguyen, 1.5), TimeGrid(0.0, 2.0, 70)
            res = run_dnl(uniform_profile(net, grid), net, buffer=2.5)
        else:
            res = {"burst": lambda: burst(tail_rate=600.0), "bottleneck": lambda: bottleneck()[1],
                   "spillback": lambda: spillback()[1]}[case]()
        eng = res.engine
        E = len(eng.link_ids)
        floor_at, next_at, frac, now_at = eng._read_schedule()
        stacked = np.vstack((res.n_up, res.n_down))  # each with the queues' rows last
        up, down = res.n_up[:E], res.n_down[:E]
        before_start = 0
        for k in range(eng.steps):
            base = stacked.take(floor_at[k])
            reads = base + frac[k] * (stacked.take(next_at[k]) - base)
            pos = np.r_[k + 1 - eng.lag_v, k + 1 - eng.lag_w]
            expected = np.r_[interp_rowwise(up, pos[:E]), interp_rowwise(down, pos[E:])]
            np.testing.assert_array_equal(reads.view(np.int64), expected.view(np.int64))
            assert np.all(reads[pos < 0].view(np.int64) == 0)
            np.testing.assert_array_equal(stacked.take(now_at[k]), np.r_[down[:, k], up[:, k]])
            before_start += np.count_nonzero(pos < 0)
        assert before_start > 0

    def test_entries_between_inverts_as_searchsorted(self):
        # levels below the first entry, on flat stretches, between entries,
        # at the last entry and above it (past the last column, as the
        # searchsorted index capped at the last entry gives); a window of the
        # curves from column at - 1 of the lower level on reads the same
        engine = _Engine(build_line_network(num_links=1), GRID, 0.5)
        hist = np.array([[0.0, 1.0, 3.0, 4.0, 4.0, 6.0]])
        curves = np.zeros((engine.steps + 1, 2))  # one suffix node, one origin queue
        curves[:, 0] = np.arange(engine.steps + 1) ** 1.5
        entries = curves[:, 0]

        def read(pos):
            fl = int(pos)
            return entries[fl] + (pos - fl) * (entries[fl + 1] - entries[fl])

        for hi, lo in [(0.5, 0.0), (3.5, 1.0), (4.0, 3.0), (5.0, 4.0), (6.0, 0.0), (6.5, 2.0),
                       (7.0, 6.25)]:
            got = engine._entries_between(curves, 0, hist, np.array([[hi], [lo]]))
            want = max(read(invert_index(hist[0], hi)) - read(invert_index(hist[0], lo)), 0.0)
            assert got.tolist() == [want], (hi, lo)
            start = max(min(int(np.searchsorted(hist[0], lo)), hist.shape[1] - 1) - 1, 0)
            windowed = engine._entries_between(curves[start:], start, hist,
                                               np.array([[hi], [lo]]))
            assert windowed.tolist() == [want], (hi, lo, start)

    def test_window_keeps_entries_below_the_count_resolution(self, monkeypatch):
        # 5e-15 vehicles of p2 enter the empty link 1 between two batches of
        # p1, which ends there: too few to move its count of 240, but the
        # entry curve of p2's node (link 1, then link 2) rises there, and the
        # second batch reads the curves at that count
        net = build_line_network(num_links=2)
        net = dataclasses.replace(
            net, od_pairs={**net.od_pairs, "v": ("0", "1")},
            trips=TripTable({"w": 5e-15, "v": 480.0}, {"w": 1.0, "v": 1.0}),
            paths=(PathDef("p1", "v", ("1",)), PathDef("p2", "w", ("1", "2"))))
        rates = np.zeros((2, 15))
        rates[0, [0, 1, 2, 9, 10, 11]] = 80.0 / DT
        rates[1, 5] = 5e-15 / DT
        h = PathFlowProfile(GRID, rates)
        monkeypatch.setattr(_Engine, "_window_rows", lambda self: 2)
        res = run_dnl(h, net, buffer=1.0)
        monkeypatch.setattr(_Engine, "_window_rows", lambda self: self.steps + 1)
        full = run_dnl(h, net, buffer=1.0)
        assert res.first_step > 5
        assert res.exited_by_link.tolist() == full.exited_by_link.tolist() == [480.0, 5e-15]
        np.testing.assert_array_equal(res.path_delays(), full.path_delays())

    def test_probe_rows_put_each_path_first(self):
        # p3 repeats p1's origin and links, and p2 is their one-link prefix:
        # each path's exit times are probed into its own row, the queue after,
        # from the spare last row
        net = build_line_network(num_links=2)
        net = dataclasses.replace(
            net, od_pairs={**net.od_pairs, "v": ("0", "1")},
            trips=TripTable({"w": 10.0, "v": 5.0}, {"w": 1.0, "v": 1.0}),
            paths=(*net.paths, PathDef("p2", "v", ("1",)), PathDef("p3", "w", ("1", "2"))))
        h = PathFlowProfile(GRID, np.array([[900.0] * 15, [600.0] * 15, [1500.0] * 15]))
        res = run_dnl(h, net, buffer=1.0)
        eng = res.engine
        assert eng.num_probe_rows == 5
        assert [((eng.link_ids + ["queue"])[e], rows.tolist(), parents.tolist())
                for e, rows, parents in eng.probe_groups] == [("queue", [3], [4]),
                                                              ("1", [1], [3]),
                                                              ("2", [0, 2], [1, 1])]
        delays = res.path_delays()
        assert delays.shape == (3, 15)
        np.testing.assert_array_equal(delays.view(np.int64),
                                      path_delays_by_path(res).view(np.int64))
        np.testing.assert_array_equal(delays[0], delays[2])

    def test_replaced_network_lays_out_as_built(self, nguyen):
        # a link parallel to link 1 and a path over it, put in by
        # `dataclasses.replace`: node 1 gets a third out-slot and node 5 a
        # third approach, as in the same network built from scratch
        links = dict(nguyen.links)
        links["1b"] = dataclasses.replace(nguyen.links["1"], id="1b")
        paths = (*nguyen.paths, PathDef("p25", "w1", ("1b", "5", "7", "9", "11")))
        net = scaled(dataclasses.replace(nguyen, links=links, paths=paths), 2.0)
        built = Network(nodes=net.nodes, links=links, od_pairs=net.od_pairs,
                        trips=net.trips, paths=paths)
        grid = TimeGrid(0.0, 2.0, 70)
        got, want = (run_dnl(uniform_profile(n, grid), n, buffer=2.5) for n in (net, built))
        assert want.engine.shape == (13, 3, 3)
        assert_same_engine(got.engine, want.engine)
        for name in ("n_up", "n_down", "p_up", "queued", "exited_by_link"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.path_delays().tobytes() == want.path_delays().tobytes()

    @pytest.mark.parametrize("instance", ["nguyen", "siouxfalls"])
    def test_csr_order_matches_stable_sort(self, instance, nguyen_dir, siouxfalls_dir):
        net = load_network_dir(nguyen_dir if instance == "nguyen" else siouxfalls_dir)
        eng = _Engine(net, TimeGrid(0.0, 2.0, 100 if instance == "siouxfalls" else 70), None)
        names = ("link_of", "into", "end_node", "seg_start", "seg_bin")
        for name, want in zip(names, csr_layout(eng)):
            np.testing.assert_array_equal(getattr(eng, name), want, err_msg=name)


class TestEffectiveDelay:
    def grid(self):
        return TimeGrid(0.0, 10.0, 10)

    def test_early_arrival_no_penalty(self):
        grid = self.grid()
        trips = TripTable({"w": 1.0}, {"w": 10.0})
        delays = np.full((1, 10), 5.0)
        a = effective_delay(delays, grid, trips, ["w"], gamma=1.0)
        # departures at t=0..4 arrive at t+5 <= 10: no penalty
        np.testing.assert_allclose(a.delays[0, :5], 5.0)

    def test_late_arrival_linear_penalty(self):
        grid = self.grid()
        trips = TripTable({"w": 1.0}, {"w": 10.0})
        delays = np.full((1, 10), 5.0)
        a = effective_delay(delays, grid, trips, ["w"], gamma=1.0)
        # departure at t=8 arrives at 13: penalty 3
        assert a.delays[0, 8] == pytest.approx(8.0)

    def test_gamma_zero_discards_penalty(self):
        grid = self.grid()
        trips = TripTable({"w": 1.0}, {"w": 2.0})
        delays = np.random.default_rng(0).uniform(1, 3, size=(1, 10))
        a = effective_delay(delays, grid, trips, ["w"], gamma=0.0)
        np.testing.assert_allclose(a.delays, delays)

    def test_effective_at_least_travel_time(self):
        grid = self.grid()
        trips = TripTable({"w": 1.0}, {"w": 3.0})
        delays = np.random.default_rng(1).uniform(0.5, 4, size=(1, 10))
        a = effective_delay(delays, grid, trips, ["w"], gamma=2.0)
        assert np.all(a.delays >= delays - 1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.5])
    def test_blocks_equal_the_allocating_formula(self, gamma):
        # two full blocks and a partial one; targets 2 and 8 make rows that
        # arrive on time and rows that arrive late
        grid = self.grid()
        rows = 2 * _DELAY_BLOCK_ROWS + 37
        trips = TripTable({"early": 1.0, "late": 1.0}, {"early": 2.0, "late": 8.0})
        od_by_path = ["early", "late"] * (rows // 2) + ["late"]
        delays = np.random.default_rng(29).uniform(0.1, 6.0, size=(rows, 10))
        tau = np.array([trips.target_times[od] for od in od_by_path])
        late = delays + grid.starts() - tau[:, None]
        assert (late > 0).any() and (late <= 0).any()
        want = gamma * np.maximum(late, 0.0) + delays
        kept = delays.copy()
        fresh = effective_delay(delays, grid, trips, od_by_path, gamma).delays
        assert np.array_equal(delays, kept)  # the travel times are left as they were
        written = effective_delay(delays, grid, trips, od_by_path, gamma, out=delays).delays
        assert np.shares_memory(written, delays)
        for got in (fresh, written):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
