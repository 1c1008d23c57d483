"""Loading on random acyclic networks.

Networks have 3 to 12 nodes: a chain through all of them plus extra forward
links, which make merges, diverges, parallel links and links shared by
several paths.  Every link meets the wave-speed condition on the grid, and
1 to 4 O-D pairs load up to three of their paths with demands from free flow
to spillback.  The engine is compared with the junction-by-junction reference
loader and checked for its invariants, its early exit once the network has
drained with stepping the full horizon, and its suffix-trie layout with one
rebuilt from route tuples by a stable sort.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from conftest import assert_matches_reference, assert_same_paths, full_history
from due.errors import UnfinishedTripError
from due.loading import _Engine
from due.network import Link, Network, PathDef, load_network_dir, save_network
from due.space import TimeGrid, TripTable
from oracles import audit_loading, csr_layout, path_delays_by_path, total_exited

GRID = TimeGrid(0.0, 0.5, 15)
DT = GRID.dt

# derandomized, so that tier-1 draws the same networks on every run; not
# shrunk, so that a failure reports its first failing network at once
RANDOM_NETWORKS = settings(max_examples=60, derandomize=True, deadline=None, database=None,
                           phases=[p for p in Phase if p != Phase.shrink],
                           suppress_health_check=[HealthCheck.too_slow])


def forward_paths(out, origin, dest):
    """Every path from origin to dest, as link lists; `out[n]` is [(link, head)]."""
    if origin == dest:
        return [[]]
    return [[lid, *rest] for lid, head in out[origin] for rest in forward_paths(out, head, dest)]


@st.composite
def random_loadings(draw):
    """(network, rates, free) where `free` says no link gets above half its capacity."""
    n = draw(st.integers(3, 12))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 2), st.integers(1, n - 1))
                          .map(lambda e: tuple(sorted(e))).filter(lambda e: e[0] < e[1]), max_size=2 * n))
    links = {}
    out = {i: [] for i in range(n)}
    for i, (a, b) in enumerate([(i, i + 1) for i in range(n - 1)] + extra):
        vf = draw(st.floats(30.0, 90.0))
        w = draw(st.floats(10.0, vf))
        kjam = draw(st.sampled_from([2.0, 20.0, 80.0, 160.0]))
        length = vf * DT * draw(st.floats(1.0, 2.0))
        lid = f"l{i}"
        links[lid] = Link(lid, str(a), str(b), length, vf, w, kjam, vf * w * kjam / (vf + w))
        out[a].append((lid, b))

    ods = draw(st.lists(st.tuples(st.integers(0, n - 2), st.integers(1, n - 1))
                        .map(lambda e: tuple(sorted(e))).filter(lambda e: e[0] < e[1]),
                        min_size=1, max_size=4, unique=True))
    paths = []
    for k, (o, d) in enumerate(ods):
        found = forward_paths(out, o, d)
        picks = draw(st.lists(st.sampled_from(range(len(found))), min_size=1, max_size=3,
                              unique=True))
        paths += [PathDef(f"w{k}p{i}", f"w{k}", tuple(found[i])) for i in picks]

    # per-path departure rates: a random profile, some intervals empty,
    # scaled to `level` times the path's narrowest capacity
    level = draw(st.sampled_from([0.02, 0.3, 1.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = rng.uniform(size=(len(paths), GRID.num_intervals))
    shape *= rng.uniform(size=shape.shape) < 0.8
    narrowest = np.array([min(links[e].capacity for e in p.links) for p in paths])
    rates = level * narrowest[:, None] * shape

    demand = {f"w{k}": 0.0 for k in range(len(ods))}
    for p, row in zip(paths, rates):
        demand[p.od] += row.sum() * DT
    net = Network(nodes={str(i): (float(i), 0.0) for i in range(n)}, links=links,
                  od_pairs={f"w{k}": (str(o), str(d)) for k, (o, d) in enumerate(ods)},
                  trips=TripTable({od: max(q, 1e-9) for od, q in demand.items()},
                                  {od: 1.0 for od in demand}),
                  paths=tuple(paths))
    peak = {e: 0.0 for e in links}
    for p, row in zip(paths, rates):
        for e in p.links:
            peak[e] += row.max()
    free = all(peak[e] <= 0.5 * links[e].capacity for e in links)
    return net, rates, free


def load(net, rates, buffer_factor=3.0):
    # three free-flow times of buffer: every trip ends in a free-flowing network
    engine = _Engine(net, GRID, buffer_factor * net.longest_free_flow_time())
    return engine.run(rates)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@RANDOM_NETWORKS
@given(random_loadings())
def test_longest_free_flow_time_is_the_python_sum(case):
    net = case[0]  # it sets the loading horizon when no buffer is given
    expected = max(sum(net.links[e].free_flow_time for e in p.links) for p in net.paths)
    assert net.longest_free_flow_time().hex() == expected.hex()


@RANDOM_NETWORKS
@given(random_loadings())
def test_loaded_copy_matches_the_network_built_in_code(case):
    # built from `PathDef`s or streamed from paths.csv, the paths go through
    # the same columns and checks
    net = case[0]
    with tempfile.TemporaryDirectory() as d:
        save_network(net, d)
        loaded = load_network_dir(d)
    assert loaded.paths == net.paths
    assert_same_paths(loaded, net, GRID)


@RANDOM_NETWORKS
@given(random_loadings())
def test_matches_reference_loader(case):
    net, rates, _free = case
    assert_matches_reference(load(net, rates), rates)


@RANDOM_NETWORKS
@given(random_loadings())
def test_loading_properties(case):
    net, rates, free = case
    res = load(net, rates)
    assert max(audit_loading(res).values()) <= 1e-9
    demand = rates.sum() * DT
    held = (res.n_up - res.n_down)[:, -1].sum()  # on the links and in the origin queues
    assert total_exited(res) + held == pytest.approx(demand, rel=1e-9, abs=1e-9)
    if free:
        assert total_exited(res) == pytest.approx(demand, rel=1e-9, abs=1e-9)

    # FIFO: on every link, probes that finish leave in the order they entered
    bt = res.grid_ext.boundaries()
    eng = res.engine
    for e in range(len(eng.link_ids)):
        exits, unfinished = res._probe_exit(res.n_up[e], res.n_down[e], bt, eng.ff_time[e])
        assert np.all(np.diff(exits[~unfinished]) >= -1e-9)

    try:
        delays = res.path_delays()
    except UnfinishedTripError as exc:
        assert not free
        with pytest.raises(UnfinishedTripError) as info:
            path_delays_by_path(res)
        assert (info.value.path_id, info.value.interval) == (exc.path_id, exc.interval)
        return
    np.testing.assert_array_equal(delays, path_delays_by_path(res))
    free_flow = np.array([sum(net.links[e].free_flow_time for e in p.links) for p in net.paths])
    assert np.all(delays >= free_flow[:, None] - 1e-12)
    assert np.all(np.diff(GRID.starts() + delays, axis=1) >= -1e-9)


def assert_same_delays(res, full):
    """Both loadings give the same delays bit for bit, or the same unfinished trip."""
    try:
        delays = res.path_delays()
    except UnfinishedTripError as exc:
        with pytest.raises(UnfinishedTripError) as info:
            full.path_delays()
        assert (info.value.path_id, info.value.interval) == (exc.path_id, exc.interval)
        return
    np.testing.assert_array_equal(bits(delays), bits(full.path_delays()))


@RANDOM_NETWORKS
@given(random_loadings(), st.sampled_from([3.0, 0.3]))
def test_drain_exit_matches_full_horizon(case, buffer_factor):
    # a short buffer leaves trips unfinished; spillback may never drain
    net, rates, _free = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Engine, "_window_rows", lambda self: self.steps + 1)
        res = load(net, rates, buffer_factor=buffer_factor)
        mp.setattr(_Engine, "_drained", lambda *args: False)
        full = load(net, rates, buffer_factor=buffer_factor)
    assert full.drained_step is None
    res.p_up = full_history(res)
    for name in ("n_up", "n_down", "p_up", "queued", "exited_by_link"):
        np.testing.assert_array_equal(bits(getattr(res, name)), bits(getattr(full, name)),
                                      err_msg=name)
    assert_same_delays(res, full)


@RANDOM_NETWORKS
@given(random_loadings(), st.sampled_from([3.0, 0.3]))
def test_window_matches_full_history(case, buffer_factor):
    # a 2-row window is compacted and doubled many times; a full-height one never
    net, rates, _free = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Engine, "_window_rows", lambda self: 2)
        res = load(net, rates, buffer_factor=buffer_factor)
        mp.setattr(_Engine, "_window_rows", lambda self: self.steps + 1)
        full = load(net, rates, buffer_factor=buffer_factor)
    assert res.drained_step == full.drained_step
    for name in ("n_up", "n_down", "queued", "exited_by_link"):
        np.testing.assert_array_equal(bits(getattr(res, name)), bits(getattr(full, name)),
                                      err_msg=name)
    # the kept rows are those of the full history at their steps, then zeros
    last = (res.engine.steps if res.drained_step is None else res.drained_step) + 1
    kept = res.p_up
    np.testing.assert_array_equal(bits(kept[:last - res.first_step]),
                                  bits(full.p_up[res.first_step:last]))
    assert not kept[last - res.first_step:].any()
    assert_same_delays(res, full)


@RANDOM_NETWORKS
@given(random_loadings())
def test_csr_order_matches_stable_sort(case):
    net, _rates, _free = case
    engine = _Engine(net, GRID, None)
    names = ("link_of", "into", "end_node", "seg_start", "seg_bin")
    for name, want in zip(names, csr_layout(engine)):
        np.testing.assert_array_equal(getattr(engine, name), want, err_msg=name)
