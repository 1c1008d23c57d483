"""Network data model and benchmark-instance ingestion.

An instance directory holds four CSV files (UTF-8, one header row, ``#``
lines are comments):

    nodes.csv   id,x,y
    links.csv   id,from,to,length,vf,w,kjam,capacity   (capacity optional)
    od.csv      od_id,origin,dest,demand,target_time
    paths.csv   path_id,od_id,link_1,link_2,...

A comment line of the form ``# units: time=h distance=km`` may appear in
links.csv and od.csv; quantities are converted to the canonical units
(hours, kilometers) at load time.  Path sets are instance inputs; no path
enumeration happens here.  A `Network` holds the five inputs and `table`, the
paths checked and indexed when it is built, and no per-node view of the links.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import count, islice, pairwise, repeat
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .errors import ParseError, ValidationError
from .space import TripTable

__all__ = [
    "Link",
    "PathDef",
    "Network",
    "load_network",
    "save_network",
]

_TIME_FACTORS = {"h": 1.0, "hr": 1.0, "min": 1.0 / 60.0, "s": 1.0 / 3600.0, "sec": 1.0 / 3600.0}
_DIST_FACTORS = {"km": 1.0, "m": 1.0 / 1000.0, "mi": 1.609344}

_FD_RELTOL = 1e-9


@dataclass(frozen=True)
class Link:
    """One directed road segment with a triangular fundamental diagram.

    Units after loading: length km, speeds km/h, densities veh/km,
    capacity veh/h.  The diagram is pinned by (vf, w, kjam); capacity and
    critical density follow from C = vf*w*kjam/(vf+w).
    """

    id: str
    tail: str
    head: str
    length: float
    vf: float
    w: float
    kjam: float
    capacity: float

    def __post_init__(self):
        for name in ("length", "vf", "w", "kjam"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"link {self.id!r}: {name} must be positive")
        derived = self.vf * self.w * self.kjam / (self.vf + self.w)
        if abs(self.capacity - derived) > _FD_RELTOL * max(1.0, derived):
            raise ValidationError(
                f"link {self.id!r}: capacity {self.capacity} inconsistent with the "
                f"triangular diagram (expected {derived})"
            )

    @property
    def free_flow_time(self) -> float:
        return self.length / self.vf

    @property
    def storage(self) -> float:
        """Maximum vehicles the link can hold."""
        return self.kjam * self.length


@dataclass(frozen=True)
class PathDef:
    id: str
    od: str
    links: tuple[str, ...]


class PathTable(NamedTuple):
    """Path r runs over the links ``links[start[r]:start[r + 1]]``, indices in
    ``net.links`` order, for the O-D pair ``od[r]``, an index in ``net.od_pairs``."""
    links: np.ndarray
    start: np.ndarray
    od: np.ndarray


@dataclass(frozen=True)
class Network:
    """An instance's nodes, links, O-D pairs, trips and paths, and `table`: the
    paths checked and indexed when it is built, so `dataclasses.replace` redoes it."""
    nodes: Mapping[str, tuple[float, float]]
    links: Mapping[str, Link]
    od_pairs: Mapping[str, tuple[str, str]]
    trips: TripTable
    paths: tuple[PathDef, ...]
    table: PathTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "table", _path_table(self))

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    def path_rows_by_od(self) -> dict[str, np.ndarray]:
        """Row indices into the path-flow matrix, grouped by O-D pair."""
        od = self.table.od
        starts = np.cumsum(np.bincount(od, minlength=len(self.od_pairs)))[:-1]
        return dict(zip(self.od_pairs, np.split(np.argsort(od, kind="stable"), starts)))

    def od_by_path(self) -> list[str]:
        return list(map(list(self.od_pairs).__getitem__, self.table.od.tolist()))

    @property
    def max_capacity(self) -> float:
        return max(l.capacity for l in self.links.values())

    def min_cfl_dt(self) -> tuple[float, str]:
        """Largest admissible loading step and the link that binds it."""
        binding = min(self.links.values(), key=lambda l: l.length / max(l.vf, l.w))
        return binding.length / max(binding.vf, binding.w), binding.id

    def longest_free_flow_time(self) -> float:
        """The longest path's free-flow time, each path's summed link by link."""
        ff = np.array([l.free_flow_time for l in self.links.values()])[self.table.links].tolist()
        return max(sum(ff[a:b]) for a, b in pairwise(self.table.start.tolist()))


# a path's checks (error, message), in the order they run and `_path_table` stacks them
_PATH_CHECKS = (
    (ParseError, lambda net, p: f"duplicate path id {p.id!r}"),
    (ParseError, lambda net, p: f"path {p.id!r} references unknown O-D {p.od!r}"),
    (ParseError, lambda net, p: f"path {p.id!r} lists no links"),
    (ValidationError, lambda net, p: f"path {p.id!r} repeats a link"),
    (ParseError, lambda net, p: f"path {p.id!r} references unknown link "
                                f"{next(e for e in p.links if e not in net.links)!r}"),
    (ValidationError, lambda net, p: f"path {p.id!r} starts at {net.links[p.links[0]].tail!r}, "
                                     f"not at origin {net.od_pairs[p.od][0]!r}"),
    (ValidationError, lambda net, p: f"path {p.id!r} ends at {net.links[p.links[-1]].head!r}, "
                                     f"not at destination {net.od_pairs[p.od][1]!r}"),
    (ValidationError, lambda net, p: "path {!r} is not connected between links {!r} and {!r}".format(
        p.id, *next((a, b) for a, b in zip(p.links, p.links[1:])
                    if net.links[a].head != net.links[b].tail))),
)


def _path_table(net: Network) -> PathTable:
    """Index the paths and run every check of `_PATH_CHECKS` on all of them at once;
    the first failing path raises its first failing check's error."""
    paths, links, P, E = net.paths, net.links, len(net.paths), len(net.links)
    start = np.cumsum([0] + [len(p.links) for p in paths])
    path = np.repeat(np.arange(P), np.diff(start))  # of each hop
    cells = [e for p in paths for e in p.links]
    index_of = {lid: i for i, lid in enumerate(links)}
    hops = np.fromiter(map(index_of.get, cells, repeat(E)), int, len(cells))
    if (hops == E).any():  # unknown links, numbered from E by name for the repeat check
        index_of.update(zip(set(cells).difference(index_of), count(E)))
        hops = np.fromiter(map(index_of.__getitem__, cells), int, len(cells))
    od_index = {od: i for i, od in enumerate(net.od_pairs)}
    od = np.fromiter(map(od_index.get, [p.od for p in paths], repeat(-1)), int, P)
    ids, duplicate = [p.id for p in paths], np.zeros(P, dtype=bool)
    if len(set(ids)) < P:
        first_row = dict(zip(reversed(ids), range(P - 1, -1, -1)))  # of each id
        duplicate = np.fromiter(map(first_row.__getitem__, ids), int, P) != np.arange(P)
    key = np.sort(path * len(index_of) + hops)  # (path, link); a repeated link ties
    node_of = {n: i for i, n in enumerate(net.nodes)}
    # a spare last row (-1) for unknown links, unknown O-D pairs and empty paths
    tail, head = np.array([[node_of[l.tail], node_of[l.head]] for l in links.values()] + [[-1, -1]]).T
    ends = np.array([[node_of[o], node_of[d]] for o, d in net.od_pairs.values()] + [[-1, -1]])
    safe = np.append(np.minimum(hops, E), E)
    cut = (head[safe[:-2]] != tail[safe[1:-1]]) & (path[:-1] == path[1:])
    faults = np.stack((
        duplicate,
        od < 0,
        start[1:] == start[:-1],
        np.bincount(key[1:][key[1:] == key[:-1]] // len(index_of), minlength=P) > 0,
        np.bincount(path[hops >= E], minlength=P) > 0,
        tail[safe[start[:-1]]] != ends[od, 0],
        head[safe[start[1:] - 1]] != ends[od, 1],
        np.bincount(path[:-1][cut], minlength=P) > 0,
    ))
    if faults.any():
        r = int(faults.any(axis=0).argmax())
        cls, message = _PATH_CHECKS[int(faults[:, r].argmax())]
        error = cls(message(net, paths[r]))
        error.path_row = r  # for the loader to name the row's line
        raise error
    return PathTable(hops, start, od)


def _read_rows(path: Path, units: dict[str, str] | None = None) -> Iterator[tuple[int, list[str]]]:
    """The non-comment CSV rows after the header, with their line numbers, one
    at a time; the declarations of a ``# units:`` comment go into `units`."""
    if not path.exists():
        raise ParseError(f"{path}: file not found")
    header = True
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, raw in enumerate(csv.reader(fh), start=1):
            cells = list(map(str.strip, raw))
            if not any(cells):
                continue
            if cells[0].startswith("#"):
                text = ",".join(raw).lstrip("# ").strip()
                if units is not None and text.lower().startswith("units:"):
                    for part in text[6:].replace(",", " ").split():
                        if "=" in part:
                            key, val = part.split("=", 1)
                            units[key.strip()] = val.strip()
            elif header:
                header = False
            else:
                yield lineno, cells
    if header:
        raise ParseError(f"{path}: no data rows")


def _to_float(value: str, path: Path, lineno: int, what: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: cannot parse {what} from {value!r}") from None
    if not math.isfinite(x):
        raise ParseError(f"{path}:{lineno}: {what} must be finite, got {value!r}")
    return x


def load_network(node_file, link_file, od_file, path_file) -> Network:
    """Load and fully validate an instance from its four CSV files."""
    node_file, link_file = Path(node_file), Path(link_file)
    od_file, path_file = Path(od_file), Path(path_file)

    nodes: dict[str, tuple[float, float]] = {}
    for lineno, row in _read_rows(node_file):
        if len(row) < 3:
            raise ParseError(f"{node_file}:{lineno}: expected id,x,y")
        nid = row[0]
        if nid in nodes:
            raise ParseError(f"{node_file}:{lineno}: duplicate node id {nid!r}")
        nodes[nid] = (
            _to_float(row[1], node_file, lineno, "x"),
            _to_float(row[2], node_file, lineno, "y"),
        )

    link_units: dict[str, str] = {}
    link_rows = list(_read_rows(link_file, link_units))  # the units may come last
    tf = _TIME_FACTORS.get(link_units.get("time", "h"))
    df = _DIST_FACTORS.get(link_units.get("distance", "km"))
    if tf is None or df is None:
        raise ParseError(f"{link_file}: unsupported units declaration {link_units}")
    links: dict[str, Link] = {}
    for lineno, row in link_rows:
        if len(row) < 7:
            raise ParseError(f"{link_file}:{lineno}: expected id,from,to,length,vf,w,kjam[,capacity]")
        lid, tail, head = row[0], row[1], row[2]
        if lid in links:
            raise ParseError(f"{link_file}:{lineno}: duplicate link id {lid!r}")
        for endpoint in (tail, head):
            if endpoint not in nodes:
                raise ParseError(f"{link_file}:{lineno}: link {lid!r} references unknown node {endpoint!r}")
        length = _to_float(row[3], link_file, lineno, "length") * df
        vf = _to_float(row[4], link_file, lineno, "vf") * df / tf
        w = _to_float(row[5], link_file, lineno, "w") * df / tf
        kjam = _to_float(row[6], link_file, lineno, "kjam") / df
        if len(row) > 7 and row[7]:
            capacity = _to_float(row[7], link_file, lineno, "capacity") / tf
        else:
            capacity = vf * w * kjam / (vf + w)
        try:
            links[lid] = Link(lid, tail, head, length, vf, w, kjam, capacity)
        except ValidationError as exc:
            raise ParseError(f"{link_file}:{lineno}: {exc}") from None

    od_units: dict[str, str] = {}
    od_rows = list(_read_rows(od_file, od_units))
    tf_od = _TIME_FACTORS.get(od_units.get("time", "h"))
    if tf_od is None:
        raise ParseError(f"{od_file}: unsupported units declaration {od_units}")
    od_pairs: dict[str, tuple[str, str]] = {}
    demands: dict[str, float] = {}
    targets: dict[str, float] = {}
    for lineno, row in od_rows:
        if len(row) < 5:
            raise ParseError(f"{od_file}:{lineno}: expected od_id,origin,dest,demand,target_time")
        od = row[0]
        if od in od_pairs:
            raise ParseError(f"{od_file}:{lineno}: duplicate O-D id {od!r}")
        origin, dest = row[1], row[2]
        for endpoint in (origin, dest):
            if endpoint not in nodes:
                raise ParseError(f"{od_file}:{lineno}: O-D {od!r} references unknown node {endpoint!r}")
        if origin == dest:
            raise ValidationError(f"{od_file}:{lineno}: O-D {od!r} has identical origin and destination")
        od_pairs[od] = (origin, dest)
        demands[od] = _to_float(row[3], od_file, lineno, "demand")
        targets[od] = _to_float(row[4], od_file, lineno, "target_time") * tf_od
    if not od_pairs:
        raise ValidationError(f"{od_file}: no demand")

    try:
        trips = TripTable(demands, targets)
    except ValidationError as exc:
        raise ValidationError(f"{od_file}: {exc}") from None

    # one row at a time, up to the first short one, so that each row's cells
    # are freed once its path is made; a path shares its links' and its O-D
    # pair's id strings
    link_id, od_id = dict(zip(links, links)).get, dict(zip(od_pairs, od_pairs)).get
    paths, short = [], None
    for lineno, row in _read_rows(path_file):
        if len(row) < 3:
            short = lineno
            break
        cells = row[2:] if "" not in row else [c for c in row[2:] if c]
        paths.append(PathDef(row[0], od_id(row[1], row[1]), tuple(map(link_id, cells, cells))))
    try:
        net = Network(nodes=nodes, links=links, od_pairs=od_pairs, trips=trips, paths=tuple(paths))
    except (ParseError, ValidationError) as exc:  # a path check names the path's row
        lineno = next(islice(_read_rows(path_file), exc.path_row, None))[0]
        raise type(exc)(f"{path_file}:{lineno}: {exc}") from None
    if short is not None:
        raise ParseError(f"{path_file}:{short}: expected path_id,od_id,link_1,...")

    routed = np.bincount(net.table.od, minlength=len(od_pairs))
    missing = [od for od, n in zip(od_pairs, routed) if not n]
    if missing:
        raise ValidationError(f"O-D pairs without any path: {missing}")
    return net


def load_network_dir(directory) -> Network:
    """Convenience loader for the canonical four-file layout."""
    d = Path(directory)
    return load_network(d / "nodes.csv", d / "links.csv", d / "od.csv", d / "paths.csv")


def save_network(net: Network, directory) -> None:
    """Write an instance back out in canonical units; round-trips exactly."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    with open(d / "nodes.csv", "w", encoding="utf-8") as fh:
        fh.write("id,x,y\n")
        for nid, (x, y) in net.nodes.items():
            fh.write(f"{nid},{x!r},{y!r}\n")
    with open(d / "links.csv", "w", encoding="utf-8") as fh:
        fh.write("# units: time=h distance=km\n")
        fh.write("id,from,to,length,vf,w,kjam,capacity\n")
        for l in net.links.values():
            fh.write(f"{l.id},{l.tail},{l.head},{l.length!r},{l.vf!r},{l.w!r},{l.kjam!r},{l.capacity!r}\n")
    with open(d / "od.csv", "w", encoding="utf-8") as fh:
        fh.write("# units: time=h\n")
        fh.write("od_id,origin,dest,demand,target_time\n")
        for od, (o, dest) in net.od_pairs.items():
            fh.write(f"{od},{o},{dest},{net.trips.demands[od]!r},{net.trips.target_times[od]!r}\n")
    with open(d / "paths.csv", "w", encoding="utf-8") as fh:
        fh.write("path_id,od_id,links\n")
        for p in net.paths:
            fh.write(",".join((p.id, p.od) + p.links) + "\n")


def validate_network(net: Network) -> list[tuple[str, bool, str]]:
    """Checks that `load_network` leaves to the report; returns (check name,
    passed, detail) rows.  What `load_network` enforces (link endpoints and
    diagrams, the O-D pairs) and every path check, which runs whenever a
    `Network` is built, are not repeated here."""
    report: list[tuple[str, bool, str]] = []

    def add(name, ok, detail=""):
        report.append((name, bool(ok), detail))

    add("nodes present", len(net.nodes) > 0, f"{len(net.nodes)} nodes")
    add("links present", len(net.links) > 0, f"{len(net.links)} links")
    add("demand present", len(net.trips.demands) > 0, f"{len(net.od_pairs)} O-D pairs")
    add("paths present", net.num_paths > 0, f"{net.num_paths} paths")

    horizon_ok = all(t >= 0 for t in net.trips.target_times.values())
    add("target times nonnegative", horizon_ok)

    return report
