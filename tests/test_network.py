import csv
import dataclasses
import gc
import tracemalloc
from pathlib import Path

import pytest

from conftest import DATA_DIR, assert_same_engine, assert_same_paths, build_line_network
from due.errors import ParseError, ValidationError
from due.loading import _Engine
from due.network import Link, Network, PathDef, load_network_dir, save_network, validate_network
from due.space import TimeGrid, TripTable


UNWRITABLE = "is empty or holds a comma, quote or line break"


def write_minimal_instance(d: Path, **overrides):
    """2-link line instance origin(0) - mid(1) - destination(2)."""
    files = {
        "nodes.csv": "id,x,y\n0,0,0\n1,1,0\n2,2,0\n",
        "links.csv": (
            "# units: time=h distance=km\n"
            "id,from,to,length,vf,w,kjam,capacity\n"
            "a,0,1,2.0,60.0,20.0,160.0,2400.0\n"
            "b,1,2,3.0,60.0,20.0,160.0,2400.0\n"
        ),
        "od.csv": "# units: time=h\nod_id,origin,dest,demand,target_time\nw,0,2,10.0,1.0\n",
        "paths.csv": "path_id,od_id,links\np1,w,a,b\n",
    }
    files.update(overrides)
    d.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (d / name).write_text(content, encoding="utf-8")
    return d


class TestLoadBenchmarks:
    def test_nguyen_counts(self, nguyen):
        assert len(nguyen.links) == 19
        assert len(nguyen.nodes) == 13
        assert len(nguyen.od_pairs) == 4
        assert nguyen.num_paths == 24

    def test_siouxfalls_counts(self, siouxfalls_dir):
        net = load_network_dir(siouxfalls_dir)
        assert len(net.links) == 76
        assert len(net.nodes) == 24
        assert len(net.od_pairs) == 528
        assert net.num_paths == 6180

    def test_line_instance(self, tmp_path):
        net = load_network_dir(write_minimal_instance(tmp_path / "line"))
        assert len(net.links) == 2
        assert net.num_paths == 1
        # the middle node has one approach, link a, and one out-slot, link b
        eng = _Engine(net, TimeGrid(0.0, 1.0, 30), None)
        assert eng.shape == (3, 1, 1)
        assert eng.supply_at.ravel().tolist() == [2, 3, 4]  # a's, b's, none
        assert eng.link_app.tolist() == [1, 2]

    def test_unit_conversion(self, tmp_path):
        d = write_minimal_instance(
            tmp_path / "units",
            **{
                "links.csv": (
                    "# units: time=s distance=m\n"
                    "id,from,to,length,vf,w,kjam,capacity\n"
                    # 2000 m, 16.667 m/s, 5.5556 m/s, 0.16 veh/m
                    "a,0,1,2000.0,16.666666666666668,5.555555555555556,0.16,0.6666666666666666\n"
                    "b,1,2,3000.0,16.666666666666668,5.555555555555556,0.16,0.6666666666666666\n"
                ),
                "od.csv": "# units: time=min\nod_id,origin,dest,demand,target_time\nw,0,2,10.0,60.0\n",
            },
        )
        net = load_network_dir(d)
        a = net.links["a"]
        assert a.length == pytest.approx(2.0)
        assert a.vf == pytest.approx(60.0)
        assert a.w == pytest.approx(20.0)
        assert a.kjam == pytest.approx(160.0)
        assert a.capacity == pytest.approx(2400.0)
        assert net.trips.target_times["w"] == pytest.approx(1.0)

    def test_capacity_optional(self, tmp_path):
        d = write_minimal_instance(
            tmp_path / "nocap",
            **{
                "links.csv": (
                    "id,from,to,length,vf,w,kjam,capacity\n"
                    "a,0,1,2.0,60.0,20.0,160.0,\n"
                    "b,1,2,3.0,60.0,20.0,160.0\n"
                )
            },
        )
        net = load_network_dir(d)
        assert net.links["a"].capacity == pytest.approx(2400.0)
        assert net.links["b"].capacity == pytest.approx(2400.0)


class TestValidationErrors:
    def test_dangling_node(self, tmp_path):
        d = write_minimal_instance(
            tmp_path / "x",
            **{
                "links.csv": (
                    "id,from,to,length,vf,w,kjam,capacity\n"
                    "a,0,9,2.0,60.0,20.0,160.0,2400.0\n"
                    "b,1,2,3.0,60.0,20.0,160.0,2400.0\n"
                )
            },
        )
        with pytest.raises(ParseError, match="unknown node"):
            load_network_dir(d)

    def test_inconsistent_fundamental_diagram(self, tmp_path):
        d = write_minimal_instance(
            tmp_path / "x",
            **{
                "links.csv": (
                    "id,from,to,length,vf,w,kjam,capacity\n"
                    "a,0,1,2.0,60.0,20.0,160.0,9999.0\n"
                    "b,1,2,3.0,60.0,20.0,160.0,2400.0\n"
                )
            },
        )
        with pytest.raises(ParseError, match="inconsistent"):
            load_network_dir(d)

    def test_disconnected_path(self, tmp_path):
        d = write_minimal_instance(tmp_path / "x", **{"paths.csv": "path_id,od_id,links\np1,w,b,a\n"})
        with pytest.raises(ValidationError):
            load_network_dir(d)

    def test_duplicate_link_id(self, tmp_path):
        d = write_minimal_instance(
            tmp_path / "x",
            **{
                "links.csv": (
                    "id,from,to,length,vf,w,kjam,capacity\n"
                    "a,0,1,2.0,60.0,20.0,160.0,2400.0\n"
                    "a,1,2,3.0,60.0,20.0,160.0,2400.0\n"
                )
            },
        )
        with pytest.raises(ParseError, match="duplicate"):
            load_network_dir(d)

    def test_missing_file(self, tmp_path):
        d = write_minimal_instance(tmp_path / "x")
        (d / "links.csv").unlink()
        with pytest.raises(ParseError, match="not found"):
            load_network_dir(d)

    def test_empty_od_file(self, tmp_path):
        d = write_minimal_instance(
            tmp_path / "x",
            **{"od.csv": "od_id,origin,dest,demand,target_time\n# no rows\n"},
        )
        with pytest.raises(ValidationError, match="no demand"):
            load_network_dir(d)

    def test_blank_od_file(self, tmp_path):
        d = write_minimal_instance(tmp_path / "x", **{"od.csv": "\n"})
        with pytest.raises(ParseError, match="no data rows"):
            load_network_dir(d)

    def test_path_with_repeated_link(self, tmp_path):
        d = write_minimal_instance(tmp_path / "x", **{"paths.csv": "path_id,od_id,links\np1,w,a,a,b\n"})
        with pytest.raises(ValidationError, match="repeats"):
            load_network_dir(d)

    def test_od_pairs_without_path_named(self, tmp_path):
        od = ("od_id,origin,dest,demand,target_time\n"
              "v,0,1,5.0,1.0\nw,0,2,10.0,1.0\nu,1,2,5.0,1.0\n")
        d = write_minimal_instance(tmp_path / "x", **{"od.csv": od})
        with pytest.raises(ValidationError, match=r"without any path: \['v', 'u'\]"):
            load_network_dir(d)

    @pytest.mark.parametrize("name, row, field", [
        ("links.csv", "a,0,1,inf,60.0,20.0,160.0,2400.0", "length"),
        ("links.csv", "a,0,1,2.0,60.0,20.0,inf,", "kjam"),
        ("od.csv", "w,0,2,inf,1.0", "demand"),
        ("od.csv", "w,0,2,10.0,nan", "target_time"),
    ])
    def test_non_finite_value_named(self, tmp_path, name, row, field):
        header = {"links.csv": "id,from,to,length,vf,w,kjam,capacity\n",
                  "od.csv": "od_id,origin,dest,demand,target_time\n"}[name]
        rest = {"links.csv": "b,1,2,3.0,60.0,20.0,160.0,2400.0\n", "od.csv": ""}[name]
        d = write_minimal_instance(tmp_path / "x", **{name: header + row + "\n" + rest})
        with pytest.raises(ParseError, match=rf"{name}:2: {field} must be finite"):
            load_network_dir(d)

    def test_path_without_links(self, tmp_path):
        d = write_minimal_instance(tmp_path / "x", **{"paths.csv": "path_id,od_id,links\np1,w,,\n"})
        with pytest.raises(ParseError, match=r"paths.csv:2: path 'p1' lists no links"):
            load_network_dir(d)

    # links a (0 -> 1) and b (1 -> 2) unless a case gives its own; O-D w is 0 -> 2
    @pytest.mark.parametrize("rows, cls, line, message", [
        ("p1,w,a,b\np1,w,a,b\n", ParseError, 3, "duplicate path id 'p1'"),
        ("p1,x,a,b\n", ParseError, 2, "path 'p1' references unknown O-D 'x'"),
        ("p1,w,a,a,b\n", ValidationError, 2, "path 'p1' repeats a link"),
        ("p1,w,a,c\n", ParseError, 2, "path 'p1' references unknown link 'c'"),
        ("p1,w,b\n", ValidationError, 2, "path 'p1' starts at '1', not at origin '0'"),
        ("p1,w,a\n", ValidationError, 2, "path 'p1' ends at '1', not at destination '2'"),
        ("p1,w,a,b\n", ValidationError, 2, "path 'p1' is not connected between links 'a' and 'b'"),
        # the first failing row is named, whichever check fails it
        ("p1,w,a\np2,x,a,b\n", ValidationError, 2,
         "path 'p1' ends at '1', not at destination '2'"),
        ("p1,w,a,b\np2,w,a,a,b\np2,x\n", ValidationError, 3, "path 'p2' repeats a link"),
        ("p1,w,b\np2,w\n", ValidationError, 2, "path 'p1' starts at '1', not at origin '0'"),
        ("p1,w,a,b\np2,w\np3,x,c\n", ParseError, 3, "expected path_id,od_id,link_1,..."),
        ("p1,w\n", ParseError, 2, "expected path_id,od_id,link_1,..."),
        # an id that a CSV writer would quote, or an empty one, in any row
        ('"p,1",w,a,b\n', ParseError, 2, f"path id 'p,1' {UNWRITABLE}"),
        (",w,a,b\n", ParseError, 2, f"path id '' {UNWRITABLE}"),
        ('p1,w,a,b\n"p""2",w,a,b\n', ParseError, 3, f"path id 'p\"2' {UNWRITABLE}"),
        ('"p\n1",w,a,b\n', ParseError, 2, f"path id 'p\\n1' {UNWRITABLE}"),
        ('"p,1",w,a,b\n"p,1",w,a,a,b\n', ParseError, 2, f"path id 'p,1' {UNWRITABLE}"),
        ('p1,w,a\n"p,2",w,a,b\n', ValidationError, 2, "path 'p1' ends at '1', not at destination '2'"),
        # a row is named by the line it starts on, after a cell that spans two
        ('p1,w,"a\n",b\np2,w,b\n', ValidationError, 4, "path 'p2' starts at '1', not at origin '0'"),
        ('p1,w,"a\n",b\np2,w\n', ParseError, 4, "expected path_id,od_id,link_1,..."),
    ], ids=["duplicate_id", "unknown_od", "repeated_link", "unknown_link", "wrong_start",
            "wrong_end", "disconnected", "earlier_row_later_check", "earliest_of_three",
            "fault_before_short_row", "short_row_first", "short_row_without_paths",
            "comma_in_id", "empty_id", "quote_in_id", "line_break_in_id", "unwritable_before_duplicate",
            "fault_before_unwritable_id", "fault_after_line_break", "short_row_after_line_break"])
    def test_path_fault_names_first_failing_row(self, tmp_path, rows, cls, line, message):
        links = None
        if message.endswith("links 'a' and 'b'"):
            links = ("id,from,to,length,vf,w,kjam,capacity\n"
                     "a,0,1,2.0,60.0,20.0,160.0,2400.0\n"
                     "b,0,2,3.0,60.0,20.0,160.0,2400.0\n")
        d = write_minimal_instance(tmp_path / "x", **{"paths.csv": "path_id,od_id,links\n" + rows},
                                   **({"links.csv": links} if links else {}))
        with pytest.raises(cls) as info:
            load_network_dir(d)
        assert type(info.value) is cls
        assert str(info.value) == f"{d / 'paths.csv'}:{line}: {message}"

    @pytest.mark.parametrize("name, row, line, kind, rid", [
        ("nodes.csv", '"n,3",3,0', 5, "node", "n,3"),
        ("nodes.csv", ",3,0", 5, "node", ""),
        ("links.csv", '"c""",0,1,2.0,60.0,20.0,160.0,2400.0', 5, "link", 'c"'),
        ("links.csv", ",0,1,2.0,60.0,20.0,160.0,2400.0", 5, "link", ""),
        ("od.csv", '"v\rw",0,1,5.0,1.0', 4, "O-D", "v\rw"),
        ("od.csv", ",0,1,5.0,1.0", 4, "O-D", ""),
    ], ids=["node_comma", "node_empty", "link_quote", "link_empty", "od_line_break", "od_empty"])
    def test_unwritable_id_named(self, tmp_path, name, row, line, kind, rid):
        # the row comes after the minimal instance's own rows of that file
        base = write_minimal_instance(tmp_path / "base")
        d = write_minimal_instance(tmp_path / "x", **{name: (base / name).read_text() + row + "\n"})
        with pytest.raises(ParseError) as info:
            load_network_dir(d)
        assert type(info.value) is ParseError
        assert str(info.value) == f"{d / name}:{line}: {kind} id {rid!r} {UNWRITABLE}"

    def test_demand_fault_before_path_fault(self, tmp_path):
        # od.csv is checked in full before paths.csv is read
        d = write_minimal_instance(tmp_path / "x", **{
            "od.csv": "od_id,origin,dest,demand,target_time\nw,0,2,0.0,1.0\n",
            "paths.csv": "path_id,od_id,links\np1,w,a\n"})
        with pytest.raises(ValidationError, match=r"od.csv: O-D pair 'w' has non-positive demand"):
            load_network_dir(d)

    def test_od_looping_on_one_node(self, tmp_path):
        d = write_minimal_instance(
            tmp_path / "x",
            **{"od.csv": "od_id,origin,dest,demand,target_time\nw,0,0,10.0,1.0\n"},
        )
        with pytest.raises(ValidationError, match="identical origin"):
            load_network_dir(d)


def python_longest_free_flow_time(net):
    return max(sum(net.links[e].free_flow_time for e in p.links) for p in net.paths)


class TestPathTable:
    def test_network_checks_its_paths_when_built(self, line_network):
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(line_network, paths=(PathDef("p1", "w", ("2", "1")),))
        assert str(info.value) == "path 'p1' starts at '1', not at origin '0'"

    @pytest.mark.parametrize("kind, rid, endpoint, message", [
        ("link", "1", "zz", "link '1' references unknown node 'zz'"),
        ("O-D", "w", "zz", "O-D 'w' references unknown node 'zz'"),
        ("node", "0,5", None, f"node id '0,5' {UNWRITABLE}"),
        ("link", "1,x", None, f"link id '1,x' {UNWRITABLE}"),
        ("O-D", "", None, f"O-D id '' {UNWRITABLE}"),
    ], ids=["link_tail", "od_origin", "node_id", "link_id", "od_id"])
    def test_network_built_in_code_names_bad_ids(self, line_network, kind, rid, endpoint, message):
        # a network that `save_network` would write and `load_network` not read back
        net = line_network
        nodes, links, od_pairs = dict(net.nodes), dict(net.links), dict(net.od_pairs)
        demands, targets = dict(net.trips.demands), dict(net.trips.target_times)
        paths = net.paths
        if kind == "node":
            nodes[rid] = nodes.pop("0")
        elif kind == "link":
            old = links.pop("1")
            links[rid] = Link(rid, endpoint or old.tail, *dataclasses.astuple(old)[2:])
            paths = (PathDef("p1", "w", (rid, "2")),)
        else:
            od_pairs[rid] = (endpoint or "0", od_pairs.pop("w")[1])
            demands[rid], targets[rid] = demands.pop("w"), targets.pop("w")
            paths = (PathDef("p1", rid, ("1", "2")),)
        with pytest.raises(ValidationError) as info:
            Network(nodes, links, od_pairs, TripTable(demands, targets), paths)
        assert str(info.value) == message

    @pytest.mark.parametrize("change, message", [
        ("link_id", "link '1' holds a Link with id 'x'"),
        ("trips_keys", "O-D pair 'w' is not both in od_pairs and in trips"),
        ("extra_trip", "O-D pair 'v' is not both in od_pairs and in trips"),
    ], ids=["link_id", "trips_keys", "extra_trip"])
    def test_network_built_in_code_checks_its_maps_agree(self, line_network, change, message):
        # such a network would be written by `save_network` as files that do
        # not load, or make it raise a bare KeyError
        net = line_network
        demands, targets = dict(net.trips.demands), dict(net.trips.target_times)
        if change == "link_id":
            fields = {"links": {**net.links, "1": dataclasses.replace(net.links["1"], id="x")}}
        elif change == "trips_keys":
            fields = {"trips": TripTable({"v": 10.0}, {"v": 1.0})}
        else:
            fields = {"trips": TripTable({**demands, "v": 1.0}, {**targets, "v": 1.0})}
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(net, **fields)
        assert str(info.value) == message

    def test_table_reads_as_the_path_defs(self, nguyen, siouxfalls_dir):
        for net in (nguyen, load_network_dir(siouxfalls_dir)):
            # the loading horizon's default buffer, bit for bit
            assert net.longest_free_flow_time().hex() == python_longest_free_flow_time(net).hex()
            paths = net.paths  # each read rebuilds every PathDef
            rows = net.path_rows_by_od()
            assert list(rows) == list(net.od_pairs)
            for od, r in rows.items():
                assert r.dtype == int
                assert r.tolist() == [i for i, p in enumerate(paths) if p.od == od]
            assert net.od_by_path() == [p.od for p in paths]
            ids = list(net.links)
            assert [tuple(ids[e] for e in net.table.links[a:b])
                    for a, b in zip(net.table.start, net.table.start[1:])] == [p.links for p in paths]

    @pytest.mark.parametrize("instance, intervals", [("nguyen", 70), ("siouxfalls", 100)])
    def test_network_built_in_code_matches_the_loaded_one(self, instance, intervals):
        # the path rows as `PathDef`s go through the same columns and checks
        # as the loader's stream
        loaded = load_network_dir(DATA_DIR / instance)
        with open(DATA_DIR / instance / "paths.csv", newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
        paths = tuple(PathDef(r[0], r[1], tuple(r[2:])) for r in rows)
        built = Network(loaded.nodes, loaded.links, loaded.od_pairs, loaded.trips, paths)
        assert built.paths == loaded.paths == paths
        assert_same_paths(built, loaded, TimeGrid(0.0, 2.0, intervals))

    def test_replace_indexes_the_paths_on_the_new_links(self, nguyen):
        # the links in reverse order: every path keeps its links by id
        links = dict(reversed(nguyen.links.items()))
        net = dataclasses.replace(nguyen, links=links)
        assert net.paths == nguyen.paths
        assert net.table.links.tolist() == [len(links) - 1 - e for e in nguyen.table.links.tolist()]
        assert net.table.start.tolist() == nguyen.table.start.tolist()

    def test_loaded_network_keeps_ids_and_table_only(self, siouxfalls_dir):
        load_network_dir(siouxfalls_dir)  # module and cache set-up outside the trace
        gc.collect()
        tracemalloc.start()
        try:
            net = load_network_dir(siouxfalls_dir)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert not any(isinstance(v, tuple) and v and isinstance(v[0], PathDef)
                       for v in vars(net).values())
        assert kept < 1.3e6  # 1.98 MB when the network held a `PathDef` per path

    def test_path_cells_share_their_link_ids(self, siouxfalls_dir):
        net = load_network_dir(siouxfalls_dir)
        ods = {od: od for od in net.od_pairs}
        assert all(e is net.links[e].id for p in net.paths for e in p.links)
        assert all(p.od is ods[p.od] for p in net.paths)


class TestClassifyJunctions:
    """Each node's links classified into approaches and out-slots, numbered in
    link id order, in the engine's padded (node, approach, out-slot) arrays."""

    def test_line_middle_node(self, line_network):
        # nodes 0, 1, 2; links 1 (0 -> 1) and 2 (1 -> 2); one origin queue at 0.
        # A node's out-slot reads its link's receiving flow (E + link) or zero (2E)
        eng = _Engine(line_network, TimeGrid(0.0, 0.5, 15), 1.0)
        assert eng.shape == (3, 1, 1)
        assert eng.supply_at.ravel().tolist() == [2, 3, 4]
        assert eng.link_app.tolist() == [1, 2]  # node * A + approach
        assert eng.queue_app.tolist() == [0]

    def test_merge_shape(self):
        net = build_line_network()
        # a second incoming link into node 1, first in link order but after
        # link 1 in id order, with a path over it
        nodes = dict(net.nodes)
        nodes["9"] = (0.0, 1.0)
        links = {"c": Link("c", "9", "1", 2.0, 60.0, 20.0, 160.0, 2400.0), **net.links}
        merged = Network(
            nodes=nodes, links=links, od_pairs={**net.od_pairs, "v": ("9", "2")},
            trips=TripTable({"w": 10.0, "v": 10.0}, {"w": 1.0, "v": 1.0}),
            paths=(*net.paths, PathDef("q", "v", ("c", "2"))),
        )
        eng = _Engine(merged, TimeGrid(0.0, 0.5, 15), 1.0)
        assert eng.link_ids == ["c", "1", "2"]
        assert eng.shape == (4, 2, 1)
        # node 1: approaches link 1, then c; out-slot link 2
        assert eng.link_app.tolist() == [1 * 2 + 1, 1 * 2 + 0, 2 * 2 + 0]
        assert eng.supply_at[1].tolist() == [3 + 2]

    def test_nguyen_origin_roles(self, nguyen):
        # the loading engine keeps origin point queues at the origin nodes
        # only, each sending into its first link's out-slot
        engine = _Engine(nguyen, TimeGrid(0.0, 2.0, 70), None)
        E, (_J, A, S) = len(engine.link_ids), engine.shape
        nodes = list(nguyen.nodes)
        assert {nodes[engine.tail[e]] for e in engine.queue_link} == {"1", "4"}
        for e, seg in zip(engine.queue_link, engine.queue_seg):
            assert seg // S // A == engine.tail[e]
            assert engine.supply_at[engine.tail[e], seg % S] == E + e


class TestRoundTrip:
    def test_save_load_identical(self, nguyen, tmp_path):
        out = tmp_path / "copy"
        save_network(nguyen, out)
        again = load_network_dir(out)
        assert again.nodes == nguyen.nodes
        assert again.od_pairs == nguyen.od_pairs
        assert again.links == nguyen.links
        assert again.paths == nguyen.paths
        assert dict(again.trips.demands) == dict(nguyen.trips.demands)
        assert dict(again.trips.target_times) == dict(nguyen.trips.target_times)
        grid = TimeGrid(0.0, 2.0, 70)
        assert_same_engine(_Engine(again, grid, None), _Engine(nguyen, grid, None))

    @pytest.mark.parametrize("instance, intervals", [("nguyen", 70), ("siouxfalls", 100)])
    def test_save_load_save_is_byte_identical(self, instance, intervals, tmp_path):
        net = load_network_dir(DATA_DIR / instance)
        save_network(net, tmp_path / "first")
        again = load_network_dir(tmp_path / "first")
        save_network(again, tmp_path / "second")
        for name in ("nodes.csv", "links.csv", "od.csv", "paths.csv"):
            assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
        assert again.paths == net.paths
        assert_same_paths(again, net, TimeGrid(0.0, 2.0, intervals))

    def test_validation_report_all_pass(self, nguyen):
        # loading leaves only the target times to check
        assert validate_network(nguyen) == [("target times nonnegative", True, "")]

    def test_reachability_along_paths(self, nguyen):
        for p in nguyen.paths:
            at = nguyen.od_pairs[p.od][0]
            for e in p.links:
                assert nguyen.links[e].tail == at
                at = nguyen.links[e].head
            assert at == nguyen.od_pairs[p.od][1]
