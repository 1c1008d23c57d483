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
enumeration happens here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ParseError, ValidationError
from .space import TripTable

__all__ = [
    "Link",
    "Junction",
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
class Junction:
    node: str
    incoming: tuple[str, ...]
    outgoing: tuple[str, ...]


@dataclass(frozen=True)
class PathDef:
    id: str
    od: str
    links: tuple[str, ...]


@dataclass(frozen=True)
class Network:
    nodes: Mapping[str, tuple[float, float]]
    links: Mapping[str, Link]
    od_pairs: Mapping[str, tuple[str, str]]
    trips: TripTable
    paths: tuple[PathDef, ...]
    junctions: Mapping[str, Junction] = field(default=None)

    def __post_init__(self):
        if self.junctions is None:
            object.__setattr__(self, "junctions", _classify(self))

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    def path_rows_by_od(self) -> dict[str, np.ndarray]:
        """Row indices into the path-flow matrix, grouped by O-D pair."""
        rows: dict[str, list[int]] = {od: [] for od in self.od_pairs}
        for i, p in enumerate(self.paths):
            rows[p.od].append(i)
        return {od: np.array(r, dtype=int) for od, r in rows.items()}

    def od_by_path(self) -> list[str]:
        return [p.od for p in self.paths]

    @property
    def max_capacity(self) -> float:
        return max(l.capacity for l in self.links.values())

    def min_cfl_dt(self) -> tuple[float, str]:
        """Largest admissible loading step and the link that binds it."""
        binding = min(self.links.values(), key=lambda l: l.length / max(l.vf, l.w))
        return binding.length / max(binding.vf, binding.w), binding.id

    def longest_free_flow_time(self) -> float:
        return max(sum(self.links[e].free_flow_time for e in p.links) for p in self.paths)


def _classify(net: Network) -> dict[str, Junction]:
    incoming: dict[str, list[str]] = {n: [] for n in net.nodes}
    outgoing: dict[str, list[str]] = {n: [] for n in net.nodes}
    for link in net.links.values():
        outgoing[link.tail].append(link.id)
        incoming[link.head].append(link.id)
    return {
        n: Junction(
            node=n,
            incoming=tuple(sorted(incoming[n])),
            outgoing=tuple(sorted(outgoing[n])),
        )
        for n in net.nodes
    }


def _read_rows(path: Path) -> tuple[list[tuple[int, list[str]]], dict[str, str]]:
    """Non-comment CSV rows with their line numbers, plus declared units."""
    if not path.exists():
        raise ParseError(f"{path}: file not found")
    units: dict[str, str] = {}
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, raw in enumerate(csv.reader(fh), start=1):
            if not raw or not "".join(raw).strip():
                continue
            if raw[0].lstrip().startswith("#"):
                text = ",".join(raw).lstrip("# ").strip()
                if text.lower().startswith("units:"):
                    for part in text[6:].replace(",", " ").split():
                        if "=" in part:
                            key, val = part.split("=", 1)
                            units[key.strip()] = val.strip()
                continue
            rows.append((lineno, [c.strip() for c in raw]))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return rows[1:], units  # drop header row


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

    node_rows, _ = _read_rows(node_file)
    nodes: dict[str, tuple[float, float]] = {}
    for lineno, row in node_rows:
        if len(row) < 3:
            raise ParseError(f"{node_file}:{lineno}: expected id,x,y")
        nid = row[0]
        if nid in nodes:
            raise ParseError(f"{node_file}:{lineno}: duplicate node id {nid!r}")
        nodes[nid] = (
            _to_float(row[1], node_file, lineno, "x"),
            _to_float(row[2], node_file, lineno, "y"),
        )

    link_rows, link_units = _read_rows(link_file)
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

    od_rows, od_units = _read_rows(od_file)
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

    path_rows, _ = _read_rows(path_file)
    paths: list[PathDef] = []
    seen_paths: set[str] = set()
    for lineno, row in path_rows:
        if len(row) < 3:
            raise ParseError(f"{path_file}:{lineno}: expected path_id,od_id,link_1,...")
        pid, od = row[0], row[1]
        if pid in seen_paths:
            raise ParseError(f"{path_file}:{lineno}: duplicate path id {pid!r}")
        seen_paths.add(pid)
        if od not in od_pairs:
            raise ParseError(f"{path_file}:{lineno}: path {pid!r} references unknown O-D {od!r}")
        seq = tuple(c for c in row[2:] if c)
        if not seq:
            raise ParseError(f"{path_file}:{lineno}: path {pid!r} lists no links")
        if len(set(seq)) != len(seq):
            raise ValidationError(f"{path_file}:{lineno}: path {pid!r} repeats a link")
        for e in seq:
            if e not in links:
                raise ParseError(f"{path_file}:{lineno}: path {pid!r} references unknown link {e!r}")
        origin, dest = od_pairs[od]
        if links[seq[0]].tail != origin:
            raise ValidationError(
                f"{path_file}:{lineno}: path {pid!r} starts at {links[seq[0]].tail!r}, "
                f"not at origin {origin!r}"
            )
        if links[seq[-1]].head != dest:
            raise ValidationError(
                f"{path_file}:{lineno}: path {pid!r} ends at {links[seq[-1]].head!r}, "
                f"not at destination {dest!r}"
            )
        for a, b in zip(seq, seq[1:]):
            if links[a].head != links[b].tail:
                raise ValidationError(
                    f"{path_file}:{lineno}: path {pid!r} is not connected between "
                    f"links {a!r} and {b!r}"
                )
        paths.append(PathDef(pid, od, seq))

    routed = {p.od for p in paths}
    missing = [od for od in od_pairs if od not in routed]
    if missing:
        raise ValidationError(f"O-D pairs without any path: {missing}")

    try:
        trips = TripTable(demands, targets)
    except ValidationError as exc:
        raise ValidationError(f"{od_file}: {exc}") from None

    return Network(
        nodes=nodes,
        links=links,
        od_pairs=od_pairs,
        trips=trips,
        paths=tuple(paths),
        junctions=None,
    )


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
    passed, detail) rows.  The invariants it enforces while loading (link
    endpoints, diagram consistency, path connectivity, the O-D partition) are
    not repeated here."""
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
