"""Path-based dynamic network loading.

Links carry cumulative entering/exiting vehicle counts sampled at the grid
boundaries.  Per step, each link offers a sending flow (demand) and a
receiving flow (supply) derived from time-lagged reads of the opposite
boundary curve; junctions resolve the competing flows with a first-in
first-out diverge (one scalar reduction factor per incoming approach) and a
demand-proportional merge.  Origins hold point queues, one per (origin node,
first link) pair.  Path travel times come from composing exit-time functions
along the path, origin queue first.

The loading grid extends past the departure horizon by a configurable buffer
so departing vehicles can finish their trips; delays are reported on the
departure grid only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, UnfinishedTripError, ValidationError
from .network import Network
from .space import DelayProfile, PathFlowProfile, TimeGrid, TripTable

__all__ = [
    "DelayProfile",
    "LoadingResult",
    "run_dnl",
    "effective_delay",
    "DEFAULT_BUFFER_FACTOR",
]

# count dust tolerated when inverting a cumulative curve
EPS_COUNT = 1e-9

DEFAULT_BUFFER_FACTOR = 2.0


# --------------------------------------------------------------------------
# loading engine


class _QueueSpec:
    __slots__ = ("node", "link_idx", "rows", "dst_local", "slot")

    def __init__(self, node, link_idx, rows, dst_local):
        self.node = node
        self.link_idx = link_idx
        self.rows = rows
        self.dst_local = dst_local
        self.slot = -1


class _Engine:
    """Precomputed index structure for loading one network on one grid."""

    def __init__(self, net: Network, grid: TimeGrid, buffer: float | None):
        self.net = net
        self.grid = grid
        dt = grid.dt
        min_dt, worst = net.min_cfl_dt()
        if dt > min_dt * (1 + 1e-12):
            raise ConfigurationError(
                f"loading step dt={dt:.6g} violates the wave-speed condition on link "
                f"{worst!r}; need dt <= {min_dt:.6g}"
            )
        if buffer is None:
            buffer = DEFAULT_BUFFER_FACTOR * net.longest_free_flow_time()
        self.buffer = buffer
        self.steps = grid.num_intervals + int(math.ceil(buffer / dt - 1e-12))
        self.grid_ext = TimeGrid(grid.t0, grid.t0 + self.steps * dt, self.steps)

        self.link_ids = list(net.links)
        self.index_of = {lid: i for i, lid in enumerate(self.link_ids)}
        links = [net.links[lid] for lid in self.link_ids]
        self.capacity = np.array([l.capacity for l in links])
        self.storage = np.array([l.storage for l in links])
        self.lag_v = np.array([l.free_flow_time / dt for l in links])
        self.lag_w = np.array([l.length / l.w / dt for l in links])
        self.ff_time = np.array([l.free_flow_time for l in links])
        self.big_m = 10.0 * net.max_capacity

        # per-link path incidence and successor slots; the probe schedule
        # groups the paths by (hop, link): rows_by_hop[h][e] lists the paths
        # whose h-th link is e
        paths = net.paths
        self.num_paths = len(paths)
        rows_by_link: list[list[int]] = [[] for _ in links]
        rows_by_hop: list[dict[int, list[int]]] = []
        next_link: dict[tuple[int, int], int] = {}
        first_of_path = np.empty(self.num_paths, dtype=int)
        for r, p in enumerate(paths):
            seq = [self.index_of[e] for e in p.links]
            first_of_path[r] = seq[0]
            for pos, e in enumerate(seq):
                rows_by_link[e].append(r)
                next_link[(e, r)] = seq[pos + 1] if pos + 1 < len(seq) else -1
                if pos == len(rows_by_hop):
                    rows_by_hop.append({})
                rows_by_hop[pos].setdefault(e, []).append(r)
        self.rows = [np.array(r, dtype=int) for r in rows_by_link]
        local_of = [
            {r: i for i, r in enumerate(rows)} for rows in self.rows
        ]
        self.hops = [
            [(e, np.array(rws, dtype=int)) for e, rws in hop.items()] for hop in rows_by_hop
        ]

        # junction wiring: per node, incoming links with flow structure
        self.junctions = []
        for node, j in net.junctions.items():
            in_idx = [self.index_of[e] for e in j.incoming]
            out_idx = [self.index_of[e] for e in j.outgoing]
            slot_of = {e: s for s, e in enumerate(out_idx)}
            approaches = []
            for e in in_idx:
                if len(self.rows[e]) == 0:
                    continue  # link carries no path; it never sends flow
                nxt = np.array(
                    [slot_of.get(next_link[(e, r)], -1) if next_link[(e, r)] >= 0 else -1
                     for r in self.rows[e]],
                    dtype=int,
                )
                per_slot = []
                for s, jl in enumerate(out_idx):
                    src = np.nonzero(nxt == s)[0]
                    dst = np.array([local_of[jl][self.rows[e][i]] for i in src], dtype=int)
                    per_slot.append((src, dst))
                sink_src = np.nonzero(nxt == -1)[0]
                approaches.append(
                    {"link": e, "next_slot": nxt, "per_slot": per_slot, "sink_src": sink_src}
                )
            if approaches or out_idx:
                self.junctions.append({"node": node, "out": out_idx, "approaches": approaches})

        # origin point queues, one per (origin node, first link)
        specs: dict[tuple[str, int], list[int]] = {}
        for r, p in enumerate(paths):
            e = int(first_of_path[r])
            node = net.od_pairs[p.od][0]
            specs.setdefault((node, e), []).append(r)
        self.queues: list[_QueueSpec] = []
        self.queues_by_node: dict[str, list[int]] = {}
        for (node, e), rws in sorted(specs.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            rows = np.array(rws, dtype=int)
            dst = np.array([local_of[e][r] for r in rws], dtype=int)
            self.queues_by_node.setdefault(node, []).append(len(self.queues))
            self.queues.append(_QueueSpec(node, e, rows, dst))

        node_pos = {j["node"]: i for i, j in enumerate(self.junctions)}
        for node, qidx in self.queues_by_node.items():
            if node not in node_pos:
                self.junctions.append({"node": node, "out": [], "approaches": []})
                node_pos[node] = len(self.junctions) - 1
        self.queue_slots = {
            node_pos[node]: qidx for node, qidx in self.queues_by_node.items()
        }
        # out-slot position of each queue's first link within its junction
        for node, qidx in self.queues_by_node.items():
            jn = self.junctions[node_pos[node]]
            slot_of = {e: s for s, e in enumerate(jn["out"])}
            for qi in qidx:
                q = self.queues[qi]
                if q.link_idx not in slot_of:
                    raise ValidationError(
                        f"first link {self.link_ids[q.link_idx]!r} does not leave "
                        f"origin node {node!r}"
                    )
                q.slot = slot_of[q.link_idx]

    # -- stepping ----------------------------------------------------------

    def run(self, rates: np.ndarray, validate: bool = False) -> "LoadingResult":
        if rates.shape != (self.num_paths, self.grid.num_intervals):
            raise ValidationError(
                f"rate matrix shape {rates.shape} does not match "
                f"({self.num_paths}, {self.grid.num_intervals})"
            )
        if not np.all(np.isfinite(rates)):
            raise ValidationError("departure rates contain non-finite values")
        if np.any(rates < 0):
            raise ValidationError("departure rates must be nonnegative for loading")

        E = len(self.link_ids)
        T = self.steps
        dt = self.grid.dt
        K = self.grid.num_intervals

        n_up = np.zeros((E, T + 1))
        n_down = np.zeros((E, T + 1))
        p_up = [np.zeros((len(r), T + 1)) for r in self.rows]
        # per-path exit totals, kept only for the path_split check
        p_down_now = [np.zeros(len(r)) for r in self.rows] if validate else None
        q_arr = np.zeros((len(self.queues), T + 1))
        q_rel = np.zeros((len(self.queues), T + 1))
        q_path = [np.zeros((len(q.rows), T + 1)) for q in self.queues]
        q_now = [np.zeros(len(q.rows)) for q in self.queues]
        exited = np.zeros(self.num_paths)

        worst = {"junction_conservation": 0.0, "occupancy": 0.0, "monotone": 0.0,
                 "path_split": 0.0, "flow_bounds": 0.0}

        for k in range(T):
            # sending and receiving flows, integrated over the step (vehicles)
            d_veh = np.clip(
                self._interp_rowwise(n_up, k + 1 - self.lag_v) - n_down[:, k],
                0.0,
                self.capacity * dt,
            )
            s_veh = np.clip(
                self._interp_rowwise(n_down, k + 1 - self.lag_w) + self.storage - n_up[:, k],
                0.0,
                self.capacity * dt,
            )
            if validate:
                cap = self.capacity * dt
                worst["flow_bounds"] = max(
                    worst["flow_bounds"],
                    float(np.max(d_veh - cap, initial=0.0)),
                    float(np.max(s_veh - cap, initial=0.0)),
                    float(np.max(-d_veh, initial=0.0)),
                    float(np.max(-s_veh, initial=0.0)),
                )

            up_inc = np.zeros(E)
            down_inc = np.zeros(E)
            pu_inc: dict[int, np.ndarray] = {}

            def _pu(e):
                if e not in pu_inc:
                    pu_inc[e] = np.zeros(len(self.rows[e]))
                return pu_inc[e]

            for jpos, jn in enumerate(self.junctions):
                out_idx = jn["out"]
                n_out = len(out_idx)
                payloads = []
                slot_amounts = []
                for ap in jn["approaches"]:
                    e = ap["link"]
                    if d_veh[e] <= 1e-15:
                        continue
                    comp = self._exit_composition(e, n_up, p_up[e], n_down[e, k], d_veh[e], k)
                    amounts = np.zeros(n_out + 1)
                    amounts[0] = comp[ap["sink_src"]].sum()
                    for s in range(n_out):
                        src, _dst = ap["per_slot"][s]
                        if src.size:
                            amounts[s + 1] = comp[src].sum()
                    payloads.append(("link", e, comp, ap))
                    slot_amounts.append(amounts)
                for qi in self.queue_slots.get(jpos, ()):  # origin approaches
                    q = self.queues[qi]
                    arr_in = rates[q.rows, k] * dt if k < K else np.zeros(len(q.rows))
                    avail = q_now[qi] + arr_in
                    total_avail = float(avail.sum())
                    q_arr[qi, k + 1] = q_arr[qi, k] + arr_in.sum()
                    if total_avail <= 1e-15:
                        q_rel[qi, k + 1] = q_rel[qi, k]
                        q_path[qi][:, k + 1] = q_now[qi]
                        continue
                    # a backed-up queue sends big M, an empty one its inflow
                    queued = float(q_now[qi].sum())
                    d_rate = self.big_m if queued > 0 else float(arr_in.sum()) / dt
                    want = min(d_rate * dt, total_avail)
                    amounts = np.zeros(n_out + 1)
                    amounts[q.slot + 1] = want
                    payloads.append(("queue", qi, avail, want))
                    slot_amounts.append(amounts)

                if not payloads:
                    continue
                supplies = np.array([s_veh[e] for e in out_idx])
                theta = self._resolve(np.array(slot_amounts), supplies)

                j_sent = 0.0
                j_received = 0.0
                for (kind, key, data, extra), th in zip(payloads, theta):
                    if th <= 0:
                        if kind == "queue":
                            qi, avail = key, data
                            q_now[qi] = avail
                            q_rel[qi, k + 1] = q_rel[qi, k]
                            q_path[qi][:, k + 1] = avail
                        continue
                    if kind == "link":
                        e, comp, ap = key, data, extra
                        moved = th * comp
                        down_inc[e] += moved.sum()
                        j_sent += moved.sum()
                        if validate:
                            p_down_now[e] += moved
                        for s, jl in enumerate(out_idx):
                            src, dst = ap["per_slot"][s]
                            if src.size:
                                amt = moved[src]
                                _pu(jl)[dst] += amt
                                up_inc[jl] += amt.sum()
                                j_received += amt.sum()
                        if ap["sink_src"].size:
                            gone = moved[ap["sink_src"]]
                            exited[self.rows[e][ap["sink_src"]]] += gone
                            j_received += gone.sum()
                    else:
                        qi, avail, want = key, data, extra
                        q = self.queues[qi]
                        released = th * want
                        rel_p = avail * (released / avail.sum())
                        q_now[qi] = avail - rel_p
                        q_rel[qi, k + 1] = q_rel[qi, k] + released
                        q_path[qi][:, k + 1] = q_now[qi]
                        _pu(q.link_idx)[q.dst_local] += rel_p
                        up_inc[q.link_idx] += released
                        j_sent += released
                        j_received += released

                if validate:
                    scale = max(1.0, j_sent)
                    worst["junction_conservation"] = max(
                        worst["junction_conservation"], abs(j_sent - j_received) / scale
                    )

            n_up[:, k + 1] = n_up[:, k] + up_inc
            n_down[:, k + 1] = n_down[:, k] + down_inc
            for e in range(E):
                if len(self.rows[e]) == 0:
                    continue
                p_up[e][:, k + 1] = p_up[e][:, k] + pu_inc.get(e, 0.0)

            if validate:
                occ = n_up[:, k + 1] - n_down[:, k + 1]
                worst["occupancy"] = max(
                    worst["occupancy"],
                    float(np.max(occ - self.storage, initial=0.0)),
                    float(np.max(-occ, initial=0.0)),
                )
                worst["monotone"] = max(
                    worst["monotone"],
                    float(np.max(-up_inc, initial=0.0)),
                    float(np.max(-down_inc, initial=0.0)),
                )
                for e in range(E):
                    if len(self.rows[e]):
                        worst["path_split"] = max(
                            worst["path_split"],
                            abs(p_up[e][:, k + 1].sum() - n_up[e, k + 1]),
                            abs(p_down_now[e].sum() - n_down[e, k + 1]),
                        )

        return LoadingResult(
            engine=self,
            n_up=n_up,
            n_down=n_down,
            p_up=p_up,
            q_arrivals=q_arr,
            q_releases=q_rel,
            q_paths=q_path,
            exited_by_path=exited,
            invariant_report=worst if validate else None,
        )

    def _interp_rowwise(self, curves: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """curves[e] evaluated at fractional column positions, zero before 0."""
        p = np.clip(pos, 0.0, None)
        fl = np.floor(p).astype(int)
        fr = p - fl
        rows = np.arange(curves.shape[0])
        base = curves[rows, fl]
        nxt = curves[rows, np.minimum(fl + 1, curves.shape[1] - 1)]
        out = base + fr * (nxt - base)
        out[pos < 0] = 0.0
        return out

    def _exit_composition(self, e, n_up, p_up_e, lo, amount, k) -> np.ndarray:
        """Per-path share of the next `amount` vehicles to exit link e.

        Reads the upstream per-path curves at the cumulative-count positions
        [lo, lo + amount] (FIFO: exit order equals entry order).
        """
        hi = lo + amount
        values = n_up[e, : k + 1]
        pos_lo = self._invert_index(values, lo)
        pos_hi = self._invert_index(values, min(hi, values[-1]))
        comp = self._eval_paths(p_up_e, pos_hi) - self._eval_paths(p_up_e, pos_lo)
        comp = np.maximum(comp, 0.0)
        total = comp.sum()
        if total > 0 and abs(total - amount) > 1e-9 * max(1.0, amount):
            comp *= amount / total
        return comp

    @staticmethod
    def _invert_index(values: np.ndarray, level: float) -> float:
        idx = int(np.searchsorted(values, level, side="left"))
        if idx <= 0:
            return 0.0
        idx = min(idx, values.size - 1)
        lo, hi = values[idx - 1], values[idx]
        if hi <= lo:
            return float(idx)
        return idx - 1 + (level - lo) / (hi - lo)

    @staticmethod
    def _eval_paths(p_up_e: np.ndarray, pos: float) -> np.ndarray:
        fl = int(pos)
        fr = pos - fl
        if fr == 0.0 or fl + 1 >= p_up_e.shape[1]:
            return p_up_e[:, fl].copy()
        return p_up_e[:, fl] + fr * (p_up_e[:, fl + 1] - p_up_e[:, fl])

    @staticmethod
    def _resolve(slot_amounts: np.ndarray, supplies: np.ndarray) -> np.ndarray:
        """Reduction factors for the approach amounts (column 0 is the sink)."""
        n_app = slot_amounts.shape[0]
        theta = np.ones(n_app)
        real = slot_amounts[:, 1:]
        for _ in range(supplies.size + 1):
            totals = theta @ real
            over = totals - supplies
            mask = over > 1e-12 * np.maximum(supplies, 1.0) + 1e-15
            if not np.any(mask):
                break
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(mask, np.where(supplies > 0, totals / supplies, np.inf), 0.0)
            j = int(np.argmax(ratio))
            scale = supplies[j] / totals[j] if totals[j] > 0 and supplies[j] > 0 else 0.0
            theta[real[:, j] > 0] *= scale
        return theta


@dataclass
class LoadingResult:
    """Boundary curves, per-path entry curves and origin queues of one loading."""

    engine: _Engine
    n_up: np.ndarray
    n_down: np.ndarray
    p_up: list[np.ndarray]
    q_arrivals: np.ndarray
    q_releases: np.ndarray
    q_paths: list[np.ndarray]
    exited_by_path: np.ndarray
    invariant_report: dict | None = None

    @property
    def grid_ext(self) -> TimeGrid:
        return self.engine.grid_ext

    @property
    def total_exited(self) -> float:
        return float(self.exited_by_path.sum())

    # -- probe tracing ------------------------------------------------------

    def probe_link_exit(self, link_idx: int, times: np.ndarray,
                        path_id=None, intervals=None) -> np.ndarray:
        """Exit times for probes entering the link at the given times.

        Rides the aggregate boundary curves and never undercuts free flow.
        """
        exits, unfinished = self._probe_exit(self.n_up[link_idx], self.n_down[link_idx],
                                             times, self.engine.ff_time[link_idx])
        if np.any(unfinished):
            bad = int(np.argmax(unfinished))
            raise UnfinishedTripError(path_id, None if intervals is None else int(intervals[bad]))
        return exits

    def _probe_exit(self, up, down, times, floor) -> tuple[np.ndarray, np.ndarray]:
        """Earliest time `down` reaches the level `up` has at each of `times`.

        The result is never below `times + floor`.  Also returns the mask of
        unfinished probes: levels `down` never reaches.
        """
        bt = self.grid_ext.boundaries()
        levels = np.interp(times, bt, up)
        unfinished = levels > down[-1] + EPS_COUNT
        idx = np.searchsorted(down, levels - EPS_COUNT, side="left")
        idx = np.clip(idx, 1, down.size - 1)
        lo, hi = down[idx - 1], down[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(hi > lo, np.minimum((levels - lo) / (hi - lo), 1.0), 0.0)
        raw = bt[idx - 1] + frac * (bt[idx] - bt[idx - 1])
        raw = np.where(levels <= down[0] + EPS_COUNT, bt[0], raw)
        return np.maximum(times + floor, raw), unfinished

    def path_delays(self) -> np.ndarray:
        """Travel time per (path, departure interval) on the departure grid.

        Probes all paths together, hop by hop: each origin queue once on the
        departure starts, then one probe per (hop, link) group of the engine's
        schedule.  An unfinished trip is reported for the lowest path row that
        has one, at its earliest failing hop and that hop's first failing
        interval.
        """
        eng = self.engine
        starts = eng.grid.starts()
        exits = np.empty((eng.num_paths, starts.size))
        first_bad = np.full(eng.num_paths, -1)  # first failing interval per row
        for qi, q in enumerate(eng.queues):
            # every path of a queue departs at the same starts: probe it once
            out, unfinished = self._probe_exit(self.q_arrivals[qi], self.q_releases[qi],
                                               starts, 0.0)
            exits[q.rows] = out
            if unfinished.any():
                first_bad[q.rows] = int(np.argmax(unfinished))
        for hop in eng.hops:
            for e, rows in hop:
                exits[rows], unfinished = self._probe_exit(
                    self.n_up[e], self.n_down[e], exits[rows], eng.ff_time[e])
                if unfinished.any():  # keep each row's earliest failing hop
                    hit = unfinished.any(axis=1) & (first_bad[rows] < 0)
                    first_bad[rows[hit]] = unfinished[hit].argmax(axis=1)
        failed = np.flatnonzero(first_bad >= 0)
        if failed.size:
            r = int(failed[0])
            raise UnfinishedTripError(eng.net.paths[r].id, int(first_bad[r]))
        return exits - starts


# --------------------------------------------------------------------------
# top-level operations


def run_dnl(
    h: PathFlowProfile,
    net: Network,
    grid: TimeGrid | None = None,
    *,
    buffer: float | None = None,
    validate: bool = False,
) -> LoadingResult:
    """Load the departure profile through the network."""
    grid = grid or h.grid
    if grid != h.grid:
        raise ValidationError("profile grid differs from the loading grid")
    engine = _Engine(net, grid, buffer)
    return engine.run(np.asarray(h.rates, dtype=float), validate=validate)


def effective_delay(
    delays: np.ndarray,
    grid: TimeGrid,
    trips: TripTable,
    od_by_path: Sequence[str],
    gamma: float = 1.0,
) -> DelayProfile:
    """Travel time plus one-sided linear late-arrival penalty.

    The penalty is gamma * max(arrival - target, 0); early arrivals are free.
    """
    delays = np.asarray(delays, dtype=float)
    tau = np.array([trips.target_times[od] for od in od_by_path])
    starts = grid.starts()
    lateness = starts[None, :] + delays - tau[:, None]
    return DelayProfile(grid, delays + gamma * np.maximum(lateness, 0.0))
