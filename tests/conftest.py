from pathlib import Path

import numpy as np
import pytest

from due.errors import UnfinishedTripError
from due.network import Link, Network, PathDef, load_network_dir
from due.space import TimeGrid, TripTable
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
                   paths=paths, junctions=None)


@pytest.fixture
def line_network() -> Network:
    return build_line_network()


def uniform_profile(net: Network, grid: TimeGrid):
    """Feasible start: per O-D demand split evenly over paths and intervals."""
    from due.space import PathFlowProfile

    rates = np.zeros((net.num_paths, grid.num_intervals))
    horizon = grid.t1 - grid.t0
    by_od = net.path_rows_by_od()
    for od, rows in by_od.items():
        rates[rows, :] = net.trips.demands[od] / (len(rows) * horizon)
    return PathFlowProfile(grid, rates)


def assert_matches_reference(res, rates):
    """A `LoadingResult` against the junction-by-junction reference loader.

    Boundary curves, origin queues and exits agree within 1e-12 of the total
    demand, and path delays within a relative 1e-12 (or both name the same
    unfinished trip).
    """
    ref = reference_loading(res.engine, rates)
    atol = 1e-12 * rates.sum() * res.engine.grid.dt
    for name in ("n_up", "n_down", "q_arrivals", "q_releases", "exited_by_path"):
        np.testing.assert_allclose(getattr(res, name), getattr(ref, name),
                                   rtol=0, atol=atol, err_msg=name)
    try:
        expected = ref.path_delays()
    except UnfinishedTripError as exc:
        with pytest.raises(UnfinishedTripError) as info:
            res.path_delays()
        assert (info.value.path_id, info.value.interval) == (exc.path_id, exc.interval)
    else:
        np.testing.assert_allclose(res.path_delays(), expected, rtol=1e-12, atol=0)
