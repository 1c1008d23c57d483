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


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """Indices that sort integer `keys`, ties in their given order.

    Python's sort: numpy's stable integer sort would page in another 128 KiB
    of numpy's library, which shows in the peak RSS of a small run.
    """
    return np.array(sorted(range(keys.size), key=keys.tolist().__getitem__), dtype=int)


class _QueueSpec:
    __slots__ = ("node", "link_idx", "rows")

    def __init__(self, node, link_idx, rows):
        self.node = node
        self.link_idx = link_idx
        self.rows = rows


class _Engine:
    """Precomputed index structure for loading one network on one grid.

    The (link, path) incidences are laid out in CSR order, link-major, so
    that per-link and per-(link, out-slot) sums are segmented sums.  Every
    node is a junction; its approaches (incoming links that carry paths,
    then its origin queues) and its out-slots (outgoing links) index padded
    (node, approach, out-slot) arrays, so that one step resolves all
    junctions at once.
    """

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
        self.boundaries = self.grid_ext.boundaries()

        self.link_ids = list(net.links)
        self.index_of = {lid: i for i, lid in enumerate(self.link_ids)}
        links = [net.links[lid] for lid in self.link_ids]
        E = len(links)
        self.capacity = np.array([l.capacity for l in links])
        self.storage = np.array([l.storage for l in links])
        self.lag_v = np.array([l.free_flow_time / dt for l in links])
        self.lag_w = np.array([l.length / l.w / dt for l in links])
        self.ff_time = np.array([l.free_flow_time for l in links])
        self.big_m = 10.0 * net.max_capacity
        node_of = {n: i for i, n in enumerate(net.nodes)}
        self.tail = np.array([node_of[l.tail] for l in links])
        self.head = np.array([node_of[l.head] for l in links])

        # flat hop positions, path by path
        paths = net.paths
        P = self.num_paths = len(paths)
        seqs = [[self.index_of[e] for e in p.links] for p in paths]
        lengths = np.array([len(q) for q in seqs])
        hop_link = np.array([e for q in seqs for e in q], dtype=int)
        hop_path = np.repeat(np.arange(P), lengths)
        first = np.cumsum(lengths) - lengths
        last = first + lengths - 1
        hop = np.arange(hop_link.size) - np.repeat(first, lengths)
        succ_link = np.roll(hop_link, -1)
        has_succ = np.ones(hop_link.size, dtype=bool)
        has_succ[last] = False
        broken = has_succ & (self.tail[succ_link] != self.head[hop_link])
        if broken.any():
            f = int(np.argmax(broken))
            raise ValidationError(
                f"path {paths[hop_path[f]].id!r} is not connected between links "
                f"{self.link_ids[hop_link[f]]!r} and {self.link_ids[succ_link[f]]!r}")
        # origin point queues, one per (origin node, first link)
        specs: dict[tuple[str, int], list[int]] = {}
        for r, p in enumerate(paths):
            specs.setdefault((net.od_pairs[p.od][0], seqs[r][0]), []).append(r)
        self.queues = [_QueueSpec(node, e, np.array(rws, dtype=int))
                       for (node, e), rws in sorted(specs.items())]
        self.queue_of_path = np.empty(P, dtype=int)
        for qi, q in enumerate(self.queues):
            if net.links[self.link_ids[q.link_idx]].tail != q.node:
                raise ValidationError(
                    f"first link {self.link_ids[q.link_idx]!r} does not leave "
                    f"origin node {q.node!r}"
                )
            self.queue_of_path[q.rows] = qi
        self.queue_node = np.array([node_of[q.node] for q in self.queues], dtype=int)

        # the probe schedule runs on the prefix trie: a path's exit time after
        # its h-th link depends only on its origin queue and its first h links.
        # The distinct (queue, link prefix) nodes are numbered after the queues,
        # by (hop, link, parent), so each (hop, link) group of nodes is an id
        # range; their parents are queues or nodes one hop shorter
        deepest = self.queue_of_path.copy()  # each path's deepest node so far
        n = Q = len(self.queues)
        span = Q + hop_link.size  # above every id
        keys = []
        for h in range(int(lengths.max())):
            at = hop == h
            rows = hop_path[at]
            k, inv = np.unique((h * E + hop_link[at]) * span + deepest[rows], return_inverse=True)
            deepest[rows] = n + inv
            n += k.size
            keys.append(k)
        group, parent = np.divmod(np.concatenate(keys), span)
        lo = np.flatnonzero(np.diff(group, prepend=-1)).tolist()
        # (link, lo, hi, parents of the ids lo..hi-1)
        self.probe_groups = [(int(group[a] % E), Q + a, Q + b, parent[a:b])
                             for a, b in zip(lo, lo[1:] + [group.size])]
        self.path_node, self.num_probe_rows = deepest, n

        # padded (node, approach, out-slot) layout of the junctions
        J = len(node_of)
        self.link_count = np.bincount(hop_link, minlength=E)
        slot = np.zeros(E, dtype=int)
        app_of_link = np.zeros(E, dtype=int)
        n_app = np.zeros(J, dtype=int)
        self.n_out = np.zeros(J, dtype=int)
        for node, jn in net.junctions.items():
            j = node_of[node]
            self.n_out[j] = len(jn.outgoing)
            for s, lid in enumerate(jn.outgoing):
                slot[self.index_of[lid]] = s
            for lid in jn.incoming:
                e = self.index_of[lid]
                if self.link_count[e]:
                    app_of_link[e] = n_app[j]
                    n_app[j] += 1
        app_of_queue = np.zeros(len(self.queues), dtype=int)
        for qi, j in enumerate(self.queue_node):
            app_of_queue[qi] = n_app[j]
            n_app[j] += 1
        A, S = int(n_app.max()), int(self.n_out.max())
        self.shape = (J, A, S)
        self.out_links = np.full((J, S), E)  # E pads: a zero supply
        self.out_links[self.tail, slot] = np.arange(E)
        self.link_app = self.head * A + app_of_link
        self.queue_app = self.queue_node * A + app_of_queue
        self.queue_seg = self.queue_app * S + slot[[q.link_idx for q in self.queues]]

        # (link, path) incidences in CSR order, segmented by (link, out-slot):
        # link-major, then the out-slot of the path's next link (0: the path
        # ends here), then path row
        key = np.where(has_succ, slot[succ_link] + 1, 0)
        order = _stable_order(hop_link * (S + 1) + key)
        inc = np.empty_like(order)
        inc[order] = np.arange(order.size)
        I = order.size
        self.link_of = hop_link[order]
        self.last_inc = inc[last]
        # where each incidence's entries come from: the path's previous
        # incidence, or I + row, the path's origin queue
        pred = I + hop_path
        pred[hop > 0] = inc[:-1][hop[1:] > 0]
        self.pred = pred[order]
        key = key[order]
        self.link_start = np.flatnonzero(np.r_[True, np.diff(self.link_of) != 0])
        self.seg_start = np.flatnonzero(
            np.r_[True, (np.diff(self.link_of) != 0) | (np.diff(key) != 0)])
        # each segment's (approach, out-slot) bin; ending segments go to the
        # extra bin J*A*S
        at = self.seg_start
        self.seg_bin = np.where(key[at] > 0, self.link_app[self.link_of[at]] * S + key[at] - 1,
                                J * A * S)
        self._cols = np.arange(I)

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
        P = self.num_paths
        Q = len(self.queues)
        I = self.link_of.size
        J, A, S = self.shape
        link_of, qop = self.link_of, self.queue_of_path
        cap = self.capacity * dt

        n_up = np.zeros((E, T + 1))
        n_down = np.zeros((E, T + 1))
        # time-major per-path curves: entries per incidence, then the origin
        # queue content per path; each step writes one row
        curves = np.zeros((T + 1, I + P))
        p_up, q_paths = curves[:, :I], curves[:, I:]
        q_arr = np.zeros((Q, T + 1))
        q_rel = np.zeros((Q, T + 1))
        exited = np.zeros(P)
        flat = curves.ravel()
        no_arrivals = np.zeros(P)
        flow = np.empty(I + P)  # moved per incidence, then released per path
        s_pad = np.zeros(E + 1)  # supplies; the last entry pads missing out-slots

        worst = {"junction_conservation": 0.0, "occupancy": 0.0, "monotone": 0.0,
                 "path_split": 0.0, "flow_bounds": 0.0}
        p_down_now = np.zeros(I)  # per-incidence exit totals, for path_split

        drained = None
        for k in range(T):
            if k >= K and self._drained(n_up, n_down, q_paths, k):
                # every later step would copy column k: copy it and stop
                for curve in (n_up, n_down, q_arr, q_rel):
                    curve[:, k + 1:] = curve[:, k:k + 1]
                curves[k + 1:] = curves[k]
                drained = k
                break
            # sending and receiving flows, integrated over the step (vehicles)
            d_veh = np.minimum(np.maximum(
                self._interp_rowwise(n_up, k + 1 - self.lag_v) - n_down[:, k], 0.0), cap)
            np.minimum(np.maximum(
                self._interp_rowwise(n_down, k + 1 - self.lag_w) + self.storage - n_up[:, k],
                0.0), cap, out=s_pad[:E])

            # per-path share of each link's next d_veh vehicles to exit: the
            # entry curves read at the count levels [n_down, n_down + d_veh]
            # (FIFO: exit order equals entry order); a link that sends no more
            # than 1e-15 reads an empty interval
            lo = n_down[:, k]
            hi = np.where(d_veh > 1e-15, np.minimum(lo + d_veh, n_up[:, k]), lo)
            read = self._eval_paths(flat, self._invert(n_up[:, : k + 1], np.stack((hi, lo))))
            comp = np.maximum(read[0] - read[1], 0.0)
            total = self._per_link(comp)
            fix = (total > 0) & (np.abs(total - d_veh) > 1e-9 * np.maximum(1.0, d_veh))
            if fix.any():
                comp *= np.repeat(np.divide(d_veh, total, out=np.ones(E), where=fix),
                                  self.link_count)
            amounts = np.zeros(J * A * S + 1)
            amounts[self.seg_bin] = np.add.reduceat(comp, self.seg_start)
            amounts = amounts[:-1]

            # origin queues: a backed-up queue sends big M, an empty one its
            # inflow, either capped by its content
            arr_in = rates[:, k] * dt if k < K else no_arrivals
            avail = q_paths[k] + arr_in
            total_avail = np.bincount(qop, avail, Q)
            arr_sum = np.bincount(qop, arr_in, Q)
            q_arr[:, k + 1] = q_arr[:, k] + arr_sum
            live = total_avail > 1e-15
            d_rate = np.where(np.bincount(qop, q_paths[k], Q) > 0, self.big_m, arr_sum / dt)
            want = np.where(live, np.minimum(d_rate * dt, total_avail), 0.0)
            amounts[self.queue_seg] = want

            supplies = s_pad.take(self.out_links)
            theta = self._resolve(amounts.reshape(J, A, S), supplies, self.n_out).ravel()
            moved = np.multiply(np.repeat(theta.take(self.link_app), self.link_count), comp,
                                out=flow[:I])
            released = theta[self.queue_app] * want
            share = np.divide(released, total_avail, out=np.zeros(Q), where=live)
            rel_p = np.multiply(avail, share[qop], out=flow[I:])
            q_paths[k + 1] = avail - rel_p
            q_rel[:, k + 1] = q_rel[:, k] + released
            entered = flow.take(self.pred)
            np.add(p_up[k], entered, out=p_up[k + 1])
            n_up[:, k + 1] = n_up[:, k] + self._per_link(entered)
            n_down[:, k + 1] = n_down[:, k] + self._per_link(moved)
            exited += moved[self.last_inc]

            if validate:
                ends = moved[self.last_inc]
                sent = (np.bincount(self.head[link_of], moved, J)
                        + np.bincount(self.queue_node, released, J))
                received = (np.bincount(self.tail[link_of], entered, J)
                            + np.bincount(self.head[link_of[self.last_inc]], ends, J))
                p_down_now += moved
                worst["junction_conservation"] = max(
                    worst["junction_conservation"],
                    float(np.max(np.abs(sent - received) / np.maximum(1.0, sent))))
                s_veh = s_pad[:E]
                worst["flow_bounds"] = max(
                    worst["flow_bounds"],
                    float(np.max(d_veh - cap, initial=0.0)),
                    float(np.max(s_veh - cap, initial=0.0)),
                    float(np.max(-d_veh, initial=0.0)),
                    float(np.max(-s_veh, initial=0.0)),
                )
                worst["path_split"] = max(
                    worst["path_split"],
                    float(np.max(np.abs(self._per_link(p_down_now)
                                        - n_down[:, k + 1]))))

        if validate:
            occ = n_up - n_down
            worst["occupancy"] = max(float(np.max(occ - self.storage[:, None])),
                                     float(np.max(-occ)))
            worst["monotone"] = max(float(np.max(-np.diff(n_up), initial=0.0)),
                                    float(np.max(-np.diff(n_down), initial=0.0)))
            split = (np.add.reduceat(p_up, self.link_start, axis=1)
                     - n_up[link_of[self.link_start]].T)
            worst["path_split"] = max(worst["path_split"], float(np.max(np.abs(split))))

        return LoadingResult(
            engine=self,
            n_up=n_up,
            n_down=n_down,
            p_up=p_up,
            q_arrivals=q_arr,
            q_releases=q_rel,
            q_paths=q_paths,
            exited_by_path=exited,
            invariant_report=worst if validate else None,
            drained_step=drained,
        )

    def _drained(self, n_up, n_down, q_paths, k) -> bool:
        """Whether step k, after the departures, moves nothing: no origin queue
        is above the release threshold, every link is empty, and every entry
        curve is flat (it never decreases: two ends suffice) from the floor
        column of its sending read through column k.  Then column k + 1 equals
        column k bit for bit, and the same holds at k + 1."""
        up = n_up[:, k]
        if not (up <= n_down[:, k]).all():
            return False
        if not (np.bincount(self.queue_of_path, q_paths[k], len(self.queues)) <= 1e-15).all():
            return False
        fl = np.floor(np.maximum(k + 1 - self.lag_v, 0.0)).astype(int)
        return bool((n_up[np.arange(up.size), fl] == up).all())

    def _per_link(self, values: np.ndarray) -> np.ndarray:
        """Sums of per-incidence values over each link's incidences."""
        out = np.zeros(len(self.link_ids))
        out[self.link_of[self.link_start]] = np.add.reduceat(values, self.link_start)
        return out

    @staticmethod
    def _interp_rowwise(curves: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """curves[e] evaluated at fractional column positions, zero before 0."""
        p = np.maximum(pos, 0.0)
        fl = np.floor(p).astype(int)
        fr = p - fl
        rows = np.arange(curves.shape[0])
        base = curves[rows, fl]
        nxt = curves[rows, np.minimum(fl + 1, curves.shape[1] - 1)]
        out = base + fr * (nxt - base)
        out[pos < 0] = 0.0
        return out

    @staticmethod
    def _invert(hist: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """Fractional column at which each nondecreasing row of `hist` reaches
        `levels[:, row]`.

        The left searchsorted index of a level is the row's first entry at or
        above it, or the row's length when there is none.
        """
        rows = np.arange(hist.shape[0])
        first = (hist >= levels[:, :, None]).argmax(axis=2)
        idx = np.where(hist[rows, first] >= levels, first, hist.shape[1])
        at = np.minimum(idx, hist.shape[1] - 1)
        lo, hi = hist[rows, np.maximum(at - 1, 0)], hist[rows, at]
        frac = np.divide(levels - lo, hi - lo, out=np.ones(levels.shape), where=hi > lo)
        return np.where(idx > 0, (at - 1) + frac, 0.0)

    def _eval_paths(self, flat: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Each incidence's entry curve at its link's fractional steps `pos`.

        `flat` is the raveled time-major curves array, in which an incidence's
        curve is a column; `pos` holds rows of per-link steps below the last.
        """
        fl = pos.astype(int)
        fr = np.repeat(pos - fl, self.link_count, axis=1)
        stride = flat.size // (self.steps + 1)
        at = np.repeat(fl * stride, self.link_count, axis=1) + self._cols
        base = flat.take(at)
        return base + fr * (flat.take(at + stride) - base)

    @staticmethod
    def _resolve(amounts: np.ndarray, supplies: np.ndarray, n_out: np.ndarray) -> np.ndarray:
        """Reduction factors per (junction, approach) of padded slot amounts.

        `amounts` is (junction, approach, out-slot) and `supplies` (junction,
        out-slot).  Each round, every junction with an out-slot over its
        supply scales all contributors of its most violated slot to fit it
        (FIFO: one factor per approach), for at most n_out + 1 rounds.
        """
        theta = np.ones(amounts.shape[:2])
        uses = amounts > 0
        tol = 1e-12 * np.maximum(supplies, 1.0) + 1e-15
        positive = supplies > 0
        rows = np.arange(amounts.shape[0])
        for r in range(int(n_out.max(initial=0)) + 1):
            totals = (theta[:, :, None] * amounts).sum(axis=1)
            mask = totals - supplies > tol
            fire = mask.any(axis=1) & (r <= n_out)
            if not fire.any():
                break
            ratio = np.divide(totals, supplies, out=np.full(totals.shape, np.inf), where=positive)
            j = np.argmax(np.where(mask, ratio, 0.0), axis=1)
            t, s = totals[rows, j], supplies[rows, j]
            scale = np.divide(s, t, out=np.zeros(t.size), where=(t > 0) & (s > 0))
            theta = np.where(fire[:, None] & uses[rows, :, j], theta * scale[:, None], theta)
        return theta


@dataclass
class LoadingResult:
    """Boundary curves, per-path entry curves and origin queues of one loading."""

    engine: _Engine
    n_up: np.ndarray
    n_down: np.ndarray
    p_up: np.ndarray  # (step, incidence): entries per (link, path) incidence
    q_arrivals: np.ndarray
    q_releases: np.ndarray
    q_paths: np.ndarray  # (step, path): content of the path's origin queue
    exited_by_path: np.ndarray
    invariant_report: dict | None = None
    drained_step: int | None = None  # where stepping stopped; None: the full horizon

    @property
    def grid_ext(self) -> TimeGrid:
        return self.engine.grid_ext

    def _probe_exit(self, up, down, times, floor) -> tuple[np.ndarray, np.ndarray]:
        """Earliest time `down` reaches the level `up` has at each of `times`.

        The result is never below `times + floor`.  Also returns the mask of
        unfinished probes: levels `down` never reaches.
        """
        bt = self.engine.boundaries
        levels = np.interp(times, bt, up)
        unfinished = levels > down[-1] + EPS_COUNT
        idx = np.searchsorted(down, levels - EPS_COUNT, side="left")
        idx = np.minimum(np.maximum(idx, 1), down.size - 1)
        lo, hi = down[idx - 1], down[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(hi > lo, np.minimum((levels - lo) / (hi - lo), 1.0), 0.0)
        raw = bt[idx - 1] + frac * (bt[idx] - bt[idx - 1])
        raw = np.where(levels <= down[0] + EPS_COUNT, bt[0], raw)
        return np.maximum(times + floor, raw), unfinished

    def path_delays(self) -> np.ndarray:
        """Travel time per (path, departure interval) on the departure grid.

        Probes the engine's prefix trie into one stacked array of exit times,
        origin queues first, on the departure starts, then each (hop, link)
        group of nodes once, from its parents' rows.  Each row is probed on
        its own, so a path takes its last node's row bit for bit.  A failure
        passes from parent to child: an unfinished trip is reported for the
        lowest path row that has one, at its earliest failing hop and that
        hop's first failing interval.
        """
        eng = self.engine
        starts = eng.grid.starts()
        exits = np.empty((eng.num_probe_rows, starts.size))
        first_bad = np.full(eng.num_probe_rows, -1)  # first failing interval per row
        for qi in range(len(eng.queues)):
            exits[qi], unfinished = self._probe_exit(self.q_arrivals[qi], self.q_releases[qi],
                                                     starts, 0.0)
            if unfinished.any():
                first_bad[qi] = int(np.argmax(unfinished))
        for e, lo, hi, parents in eng.probe_groups:
            exits[lo:hi], unfinished = self._probe_exit(
                self.n_up[e], self.n_down[e], exits[parents], eng.ff_time[e])
            bad = first_bad[lo:hi]
            bad[:] = first_bad[parents]
            if unfinished.any():  # keep each node's earliest failing hop
                hit = unfinished.any(axis=1) & (bad < 0)
                bad[hit] = unfinished[hit].argmax(axis=1)
        failed = np.flatnonzero(first_bad[eng.path_node] >= 0)
        if failed.size:
            r = int(failed[0])
            raise UnfinishedTripError(eng.net.paths[r].id, int(first_bad[eng.path_node[r]]))
        delays = exits[eng.path_node]
        delays -= starts
        return delays


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
