import time
from pathlib import Path

import numpy as np
import pytest

from due.errors import UnfinishedTripError
from due.loading import _Engine
from due.network import Link, Network, PathDef, load_network_dir
from due.operators import affine_operator, scaled_pseudo_monotone
from due.solvers import solve, uniform_start
from due.space import PathFlowProfile, TimeGrid, TripTable
from oracles import reference_loading

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = REPO_ROOT / "data"


@pytest.fixture(scope="session")
def nguyen_dir() -> Path:
    return DATA_DIR / "nguyen"


@pytest.fixture(scope="session")
def siouxfalls_dir() -> Path:
    return DATA_DIR / "siouxfalls"


@pytest.fixture(scope="session")
def nguyen(nguyen_dir) -> Network:
    return load_network_dir(nguyen_dir)


def affine_unit_instance():
    return affine_operator(np.eye(2), np.array([-1.0, -1.0]), solution=np.array([1.0, 1.0]))


# the 2-path instances that solver tests and acceptance criteria share solves on
SOLVE_INSTANCES = {
    "zero": lambda: affine_operator(np.zeros((2, 2)), np.zeros(2)),
    "affine_unit": affine_unit_instance,
    "scaled_affine_unit": lambda: scaled_pseudo_monotone(affine_unit_instance()),
}


@pytest.fixture(scope="session")
def solved():
    """`solved(instance, config, start)` solves a fresh `SOLVE_INSTANCES`
    entry from the `start` rates (by default the vertex [[2], [0]]) once per
    session, and returns (h, log, elapsed): elapsed is the time of that
    solve, on every call."""
    memo = {}

    def solved(instance: str, config, start=((2.0,), (0.0,))):
        start = np.asarray(start, dtype=float)
        key = (instance, repr(config), start.shape, start.tobytes())
        if key not in memo:
            vi = SOLVE_INSTANCES[instance]()
            h0 = PathFlowProfile(vi.grid, start)
            begin = time.perf_counter()
            h, log = solve(vi.operator, config, h0, vi.trips, vi.paths_by_od)
            memo[key] = h, log, time.perf_counter() - begin
        return memo[key]

    return solved


def build_line_network(num_links=2, demand=10.0, target=1.0, length=2.0, vf=60.0,
                       w=20.0, kjam=160.0):
    """origin - mid nodes - destination chain with a single path."""
    nodes = {str(i): (float(i), 0.0) for i in range(num_links + 1)}
    capacity = vf * w * kjam / (vf + w)
    links = {
        str(i): Link(str(i), str(i - 1), str(i), length, vf, w, kjam, capacity)
        for i in range(1, num_links + 1)
    }
    od_pairs = {"w": ("0", str(num_links))}
    trips = TripTable({"w": demand}, {"w": target})
    paths = (PathDef("p1", "w", tuple(str(i) for i in range(1, num_links + 1))),)
    return Network(nodes=nodes, links=links, od_pairs=od_pairs, trips=trips,
                   paths=paths)


@pytest.fixture
def line_network() -> Network:
    return build_line_network()


def uniform_profile(net: Network, grid: TimeGrid):
    """The uniform start that `due run` loads first."""
    return uniform_start(grid, net.trips, net.path_rows_by_od())


def full_history(res):
    """`res.p_up` of a loading whose window holds every step, at every step:
    the rows past a drained step copy it, as stepping on would."""
    assert res.first_step == 0 and len(res.p_up) == res.engine.steps + 1
    curves = res.p_up.copy()
    if res.drained_step is not None:
        curves[res.drained_step + 1:] = curves[res.drained_step]
    return curves


def assert_same_engine(engine, want):
    """Two `_Engine`s with equal attributes, arrays bit for bit, but for `net`."""
    assert vars(engine).keys() == vars(want).keys()
    for name, value in vars(engine).items():
        if name == "net":
            continue
        other = getattr(want, name)
        if name == "probe_groups":
            value, other = ([(e, rows.tobytes(), parents.tobytes()) for e, rows, parents in gs]
                            for gs in (value, other))
        if isinstance(value, np.ndarray):
            assert (value.dtype, value.shape, value.tobytes()) == \
                (other.dtype, other.shape, other.tobytes()), name
        else:
            assert value == other, name


def assert_same_paths(net, want, grid):
    """Two networks with the same path ids, the same path table arrays bit for
    bit, and equal engines on `grid`."""
    assert net.path_ids == want.path_ids
    for name, value, other in zip(want.table._fields, net.table, want.table):
        assert (value.dtype, value.shape, value.tobytes()) == \
            (other.dtype, other.shape, other.tobytes()), name
    assert_same_engine(_Engine(net, grid, None), _Engine(want, grid, None))


def assert_matches_reference(res, rates, backward=False):
    """A `LoadingResult` against the junction-by-junction reference loader.

    Boundary curves (the links' and the origin queues'), queue content and
    exits agree within 1e-12 of the total demand, and path delays within a
    relative 1e-12 (or both name the same unfinished trip).  With `backward`,
    the delays are checked hop by hop instead, by `assert_probes_land`.
    """
    rates = np.maximum(rates, 0.0)  # the engine clamps negative rates where a step reads them
    ref = reference_loading(res.engine, rates)
    atol = 1e-12 * rates.sum() * res.engine.grid.dt
    for name in ("n_up", "n_down", "queued", "exited_by_link"):
        np.testing.assert_allclose(getattr(res, name), getattr(ref, name),
                                   rtol=0, atol=atol, err_msg=name)
    if backward:
        assert_probes_land(res, ref, atol)
        return
    try:
        expected = ref.path_delays()
    except UnfinishedTripError as exc:
        with pytest.raises(UnfinishedTripError) as info:
            res.path_delays()
        assert (info.value.path_id, info.value.interval) == (exc.path_id, exc.interval)
    else:
        np.testing.assert_allclose(res.path_delays(), expected, rtol=1e-12, atol=0)


def assert_probes_land(res, ref, atol):
    """A backward-error check of the engine's probes on the reference's curves.

    Each hop of each probe row starts from the engine's entry times, as
    `path_delays` probes it, whose delays the walk reproduces bit for bit.
    At the engine's exit time, the reference's exit curve stands within `atol`
    of its level at the reference's own exit time, and both probes finish on
    the same cells.  A forward check of the exit times can fail where a curve
    climbs through dust: inverting a nearly flat curve turns a tiny count
    difference into a large time difference.
    """
    eng = res.engine
    starts = eng.grid.starts()
    exits = np.empty((eng.num_probe_rows, starts.size))
    exits[-1] = starts
    finished = []
    for e, rows, parents in eng.probe_groups:
        times = exits[parents]
        got, unfinished = res._probe_exit(res.n_up[e], res.n_down[e], times, eng.ff_time[e])
        want, ref_unfinished = ref._probe_exit(ref.n_up[e], ref.n_down[e], times, eng.ff_time[e])
        np.testing.assert_array_equal(unfinished, ref_unfinished, err_msg=f"row {e}")
        curve = ref.n_down[e]
        miss = np.abs(np.interp(got, eng.boundaries, curve) - np.interp(want, eng.boundaries, curve))
        assert np.all(miss[~unfinished] <= atol), (e, miss.max(), atol)
        exits[rows] = got
        finished.append(not unfinished.any())
    if all(finished):
        np.testing.assert_array_equal(exits[:eng.num_paths] - starts, res.path_delays())
