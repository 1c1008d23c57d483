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
enumeration happens here.  A `Network` keeps its paths as their ids and `table`,
checked and indexed when it is built, and no per-node view of the links.  Loaded
ids, and path ids always, are not empty and hold no comma, quote or line break.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import InitVar, astuple, dataclass, field
from itertools import count, islice, pairwise
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

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
_UNWRITABLE = "is empty or holds a comma, quote or line break"


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


class PathColumns(NamedTuple):
    """Path r, ``ids[r]``, runs for O-D ``od[r]`` over the next ``counts[r]`` ``links``,
    as numbered by ``od_index`` and ``link_index``, which number the network's own first."""
    ids: Sequence[str]
    od: Sequence[int]
    links: Sequence[int]
    counts: Sequence[int]
    od_index: Mapping[str, int]
    link_index: Mapping[str, int]


def _index(ids) -> defaultdict:
    """`ids` numbered in order; another id is numbered on from len(ids) when first read."""
    return defaultdict(count(len(ids)).__next__, zip(ids, count()))


class PathTable(NamedTuple):
    """Path r runs over ``links[start[r]:start[r + 1]]`` for ``od[r]``, numbered as in the network."""
    links: np.ndarray
    start: np.ndarray
    od: np.ndarray


@dataclass(frozen=True, eq=False)
class Network:
    """An instance's nodes, links, O-D pairs, trips and path ids, and `table`: the
    `paths` checked and indexed when it is built.  The `paths` property, also the
    argument's default, rebuilds them, so `dataclasses.replace` redoes the table."""
    nodes: Mapping[str, tuple[float, float]]
    links: Mapping[str, Link]
    od_pairs: Mapping[str, tuple[str, str]]
    trips: TripTable
    paths: InitVar[Sequence[PathDef] | PathColumns]
    path_ids: tuple[str, ...] = field(init=False)
    table: PathTable = field(init=False, repr=False)

    def __post_init__(self, paths):
        if not isinstance(paths, PathColumns):
            od_index, link_index = _index(self.od_pairs), _index(self.links)
            hops = [link_index[e] for p in paths for e in p.links]
            paths = PathColumns([p.id for p in paths], [od_index[p.od] for p in paths], hops,
                                [len(p.links) for p in paths], od_index, link_index)
        object.__setattr__(self, "path_ids", tuple(paths.ids))
        object.__setattr__(self, "table", _path_table(self, paths))

    @property
    def paths(self) -> tuple[PathDef, ...]:
        hops = list(map(list(self.links).__getitem__, self.table.links.tolist()))
        start = self.table.start.tolist()
        return tuple(PathDef(r, od, tuple(hops[a:b]))
                     for r, od, a, b in zip(self.path_ids, self.od_by_path(), start, start[1:]))

    @property
    def num_paths(self) -> int:
        return len(self.path_ids)

    def path_rows_by_od(self) -> dict[str, np.ndarray]:
        """Row indices into the path-flow matrix, grouped by O-D pair."""
        od = self.table.od
        starts = np.cumsum(np.bincount(od, minlength=len(self.od_pairs)))[:-1]
        return dict(zip(self.od_pairs, np.split(np.argsort(od, kind="stable"), starts)))

    def od_by_path(self) -> list[str]:
        return list(map(list(self.od_pairs).__getitem__, self.table.od.tolist()))

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
    (ParseError, lambda net, p: f"path id {p.id!r} {_UNWRITABLE}"),
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


def _path_table(net: Network, paths: PathColumns) -> PathTable:
    """Index the paths and run every check of `_PATH_CHECKS` on all of them at once;
    the first failing path raises its first failing check's error."""
    ids, ods, cells, counts, od_index, link_index = paths
    links, P, E, W = net.links, len(ids), len(net.links), len(net.od_pairs)
    start = np.cumsum([0, *counts])
    path = np.repeat(np.arange(P), np.diff(start))  # of each hop
    hops, od = np.fromiter(cells, int, len(cells)), np.fromiter(ods, int, P)
    unwritable, duplicate = np.zeros(P, dtype=bool), np.zeros(P, dtype=bool)
    if not (all(ids) and _writable("".join(ids))):
        unwritable = ~np.fromiter(map(_writable, ids), bool, P)
    if len(set(ids)) < P:
        first_row = dict(zip(reversed(ids), range(P - 1, -1, -1)))  # of each id
        duplicate = np.fromiter(map(first_row.__getitem__, ids), int, P) != np.arange(P)
    key = np.sort(path * len(link_index) + hops)  # (path, link); a repeated link ties
    node_of = {n: i for i, n in enumerate(net.nodes)}
    # a spare last row (-1) for unknown links, unknown O-D pairs and empty paths
    tail, head = np.array([[node_of[l.tail], node_of[l.head]] for l in links.values()] + [[-1, -1]]).T
    ends = np.array([[node_of[o], node_of[d]] for o, d in net.od_pairs.values()] + [[-1, -1]])
    safe, safe_od = np.append(np.minimum(hops, E), E), np.minimum(od, W)
    cut = (head[safe[:-2]] != tail[safe[1:-1]]) & (path[:-1] == path[1:])
    faults = np.stack((
        unwritable,
        duplicate,
        od >= W,
        start[1:] == start[:-1],
        np.bincount(key[1:][key[1:] == key[:-1]] // len(link_index), minlength=P) > 0,
        np.bincount(path[hops >= E], minlength=P) > 0,
        tail[safe[start[:-1]]] != ends[safe_od, 0],
        head[safe[start[1:] - 1]] != ends[safe_od, 1],
        np.bincount(path[:-1][cut], minlength=P) > 0,
    ))
    if faults.any():
        r = int(faults.any(axis=0).argmax())
        cls, message = _PATH_CHECKS[int(faults[:, r].argmax())]
        links_r = map(list(link_index).__getitem__, cells[start[r]:start[r + 1]])
        error = cls(message(net, PathDef(ids[r], list(od_index)[ods[r]], tuple(links_r))))
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
                    units.update(p.split("=", 1) for p in text[6:].replace(",", " ").split() if "=" in p)
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


def _writable(text: str) -> bool:
    """Whether an id is not empty and holds no character that a CSV writer would quote."""
    return text != "" and "," not in text and '"' not in text and "\r" not in text and "\n" not in text


def _record(path: Path, lineno: int, row: list[str], fields: str, kind: str, seen, nodes=None) -> str:
    """The id of a `kind` row of `fields`, writable and new; with `nodes`, cells 2 and 3 name nodes."""
    if len(row) < fields.split("[")[0].count(",") + 1:
        raise ParseError(f"{path}:{lineno}: expected {fields}")
    if not _writable(rid := row[0]):
        raise ParseError(f"{path}:{lineno}: {kind} id {rid!r} {_UNWRITABLE}")
    if rid in seen:
        raise ParseError(f"{path}:{lineno}: duplicate {kind} id {rid!r}")
    for endpoint in row[1:3] if nodes is not None else ():
        if endpoint not in nodes:
            raise ParseError(f"{path}:{lineno}: {kind} {rid!r} references unknown node {endpoint!r}")
    return rid


def load_network(node_file, link_file, od_file, path_file) -> Network:
    """Load and fully validate an instance from its four CSV files."""
    node_file, link_file, od_file, path_file = map(Path, (node_file, link_file, od_file, path_file))

    nodes: dict[str, tuple[float, float]] = {}
    for lineno, row in _read_rows(node_file):
        nid = _record(node_file, lineno, row, "id,x,y", "node", nodes)
        nodes[nid] = (_to_float(row[1], node_file, lineno, "x"), _to_float(row[2], node_file, lineno, "y"))

    link_units: dict[str, str] = {}
    link_rows = list(_read_rows(link_file, link_units))  # the units may come last
    tf = _TIME_FACTORS.get(link_units.get("time", "h"))
    df = _DIST_FACTORS.get(link_units.get("distance", "km"))
    if tf is None or df is None:
        raise ParseError(f"{link_file}: unsupported units declaration {link_units}")
    links: dict[str, Link] = {}
    for lineno, row in link_rows:
        lid = _record(link_file, lineno, row, "id,from,to,length,vf,w,kjam[,capacity]", "link",
                      links, nodes)
        length = _to_float(row[3], link_file, lineno, "length") * df
        vf = _to_float(row[4], link_file, lineno, "vf") * df / tf
        w = _to_float(row[5], link_file, lineno, "w") * df / tf
        kjam = _to_float(row[6], link_file, lineno, "kjam") / df
        capacity = (_to_float(row[7], link_file, lineno, "capacity") / tf if len(row) > 7 and row[7]
                    else vf * w * kjam / (vf + w))
        try:
            links[lid] = Link(lid, row[1], row[2], length, vf, w, kjam, capacity)
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
        od = _record(od_file, lineno, row, "od_id,origin,dest,demand,target_time", "O-D", od_pairs, nodes)
        if row[1] == row[2]:
            raise ValidationError(f"{od_file}:{lineno}: O-D {od!r} has identical origin and destination")
        od_pairs[od] = (row[1], row[2])
        demands[od] = _to_float(row[3], od_file, lineno, "demand")
        targets[od] = _to_float(row[4], od_file, lineno, "target_time") * tf_od
    if not od_pairs:
        raise ValidationError(f"{od_file}: no demand")

    try:
        trips = TripTable(demands, targets)
    except ValidationError as exc:
        raise ValidationError(f"{od_file}: {exc}") from None

    # the rows up to the first short one, into flat columns of ids and indices
    od_of, link_of = _index(od_pairs), _index(links)
    ids, ods, cells, counts, short = [], [], [], [], None
    for lineno, row in _read_rows(path_file):
        if len(row) < 3:
            short = lineno
            break
        hops = row[2:] if "" not in row else [c for c in row[2:] if c]
        ids.append(row[0])
        ods.append(od_of[row[1]])
        cells += map(link_of.__getitem__, hops)
        counts.append(len(hops))
    try:
        net = Network(nodes, links, od_pairs, trips, PathColumns(ids, ods, cells, counts, od_of, link_of))
    except (ParseError, ValidationError) as exc:  # a path check names the path's row
        lineno = next(islice(_read_rows(path_file), exc.path_row, None))[0]
        raise type(exc)(f"{path_file}:{lineno}: {exc}") from None
    if short is not None:
        raise ParseError(f"{path_file}:{short}: expected path_id,od_id,link_1,...")

    missing = [od for od, n in zip(od_pairs, np.bincount(net.table.od, minlength=len(od_pairs))) if not n]
    if missing:
        raise ValidationError(f"O-D pairs without any path: {missing}")
    return net


def load_network_dir(directory) -> Network:
    """Convenience loader for the canonical four-file layout."""
    return load_network(*(Path(directory, f"{name}.csv") for name in ("nodes", "links", "od", "paths")))


def save_network(net: Network, directory) -> None:
    """Write an instance back out in canonical units; round-trips exactly."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    q, tau = net.trips.demands, net.trips.target_times

    def cells(*values) -> str:  # a number as its float's repr, which reads back bit for bit
        return ",".join(v if isinstance(v, str) else repr(float(v)) for v in values)
    files = {
        "nodes.csv": ["id,x,y", *(cells(n, x, y) for n, (x, y) in net.nodes.items())],
        "links.csv": ["# units: time=h distance=km", "id,from,to,length,vf,w,kjam,capacity",
                      *(cells(*astuple(l)) for l in net.links.values())],
        "od.csv": ["# units: time=h", "od_id,origin,dest,demand,target_time",
                   *(cells(od, o, dest, q[od], tau[od]) for od, (o, dest) in net.od_pairs.items())],
        "paths.csv": ["path_id,od_id,links", *(cells(p.id, p.od, *p.links) for p in net.paths)],
    }
    for name, lines in files.items():
        with open(Path(directory, name), "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)


def validate_network(net: Network) -> list[tuple[str, bool, str]]:
    """The checks that `load_network` and `Network` leave, as (name, passed, detail) rows."""
    return [
        ("nodes present", len(net.nodes) > 0, f"{len(net.nodes)} nodes"),
        ("links present", len(net.links) > 0, f"{len(net.links)} links"),
        ("demand present", len(net.trips.demands) > 0, f"{len(net.od_pairs)} O-D pairs"),
        ("paths present", net.num_paths > 0, f"{net.num_paths} paths"),
        ("target times nonnegative", all(t >= 0 for t in net.trips.target_times.values()), ""),
    ]
