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
        n_out = np.zeros(J, dtype=int)
        for node, jn in net.junctions.items():
            j = node_of[node]
            n_out[j] = len(jn.outgoing)
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
        A, S = int(n_app.max()), int(n_out.max())
        self.shape = (J, A, S)
        # a junction rescales in rounds 0..n_out (see _resolve)
        self.rounds = np.arange(S + 1)[:, None] <= n_out
        # each out-slot's supply among a step's sending, receiving, zero flows
        self.supply_at = np.full((J, S), 2 * E)
        self.supply_at[self.tail, slot] = E + np.arange(E)
        self.link_app = self.head * A + app_of_link
        self.queue_app = self.queue_node * A + app_of_queue
        self.queue_seg = self.queue_app * S + slot[[q.link_idx for q in self.queues]]

        # (link, path) incidences in CSR order, segmented by (link, out-slot):
        # link-major, then the out-slot of the path's next link (0: the path
        # ends here), then path row
        key = np.where(has_succ, slot[succ_link] + 1, 0)
        I = hop_link.size
        # the keys made unique by position: any sort is the stable one
        order = np.argsort((hop_link * (S + 1) + key) * I + np.arange(I))
        inc = np.empty_like(order)
        inc[order] = np.arange(I)
        self.link_of = hop_link[order]
        self.last_inc = inc[last]
        # where each incidence's entries come from in a step's flows: the exits
        # of the path's previous incidence, or its origin queue's release
        pred = 2 * I + hop_path
        pred[hop > 0] = I + inc[:-1][hop[1:] > 0]
        self.pred = pred[order]
        key = key[order]
        self.link_start = np.flatnonzero(np.r_[True, np.diff(self.link_of) != 0])
        self.link_used = self.link_of[self.link_start]
        # a step's per-link sums of entries, then of exits, in n_up and n_down
        self.sum_rows = np.concatenate((self.link_used, E + self.link_used))
        self.sum_starts = np.concatenate((self.link_start, I + self.link_start))
        self.seg_start = np.flatnonzero(
            np.r_[True, (np.diff(self.link_of) != 0) | (np.diff(key) != 0)])
        # each segment's (approach, out-slot) bin; ending segments go to the
        # extra bin J*A*S
        at = self.seg_start
        self.seg_bin = np.where(key[at] > 0, self.link_app[self.link_of[at]] * S + key[at] - 1,
                                J * A * S)
        self._cols = np.arange(I)
        self._links = np.arange(E)

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
        floor_at, next_at, frac, now_at = self._read_schedule()
        cap = np.tile(self.capacity * dt, 2)

        counts = np.zeros((2 * E, T + 1))  # the boundary curves, n_up on n_down
        n_up, n_down = counts[:E], counts[E:]
        # time-major per-path curves: entries per incidence, then the origin
        # queue content per path; each step writes one row
        curves = np.zeros((T + 1, I + P))
        p_up, q_paths = curves[:, :I], curves[:, I:]
        # per-queue arrivals and releases by step, summed into curves at the end
        q_steps = np.zeros((2 * Q, T + 1))
        no_arrivals = np.zeros(P)
        # sending and receiving flows, then a zero supply for padded out-slots
        limits = np.zeros(2 * E + 1)
        both, sending, receiving = limits[:-1], limits[:E], limits[E:-1]
        levels = np.empty((3, E))  # entry levels hi and lo = n_down[:, k], then n_up[:, k]
        hi, lo, up = levels
        now = levels[1:].reshape(-1)  # column k of the curves opposite the reads
        amounts = np.zeros(J * A * S + 1)  # the last bin takes the ending paths
        slots = amounts[:-1].reshape(J, A, S)
        flows = np.empty(2 * I + P)  # entries and exits per incidence, releases per path
        entered, moved, rel_p = flows[:I], flows[I:2 * I], flows[2 * I:]
        column = np.zeros(2 * E)  # one step's per-link entries and exits
        exited = np.zeros(P)

        worst = {"junction_conservation": 0.0, "occupancy": 0.0, "monotone": 0.0,
                 "path_split": 0.0, "flow_bounds": 0.0}
        p_down_now = np.zeros(I)  # per-incidence exit totals, for path_split

        drained = None
        for k in range(T):
            if k >= K and self._drained(n_up, n_down, q_paths, k, floor_at[k, :E]):
                # every later step would copy column k: copy it and stop
                counts[:, k + 1:] = counts[:, k:k + 1]
                curves[k + 1:] = curves[k]
                drained = k
                break
            # sending and receiving flows, integrated over the step (vehicles):
            # the lagged reads, less column k of the opposite curve
            base = counts.take(floor_at[k])
            np.add(base, frac[k] * (counts.take(next_at[k]) - base), out=both)
            receiving += self.storage
            counts.take(now_at[k], out=now, mode="clip")  # in range: unbuffered
            both -= now
            np.maximum(both, 0.0, out=both)
            np.minimum(both, cap, out=both)

            # per-path share of each link's next sending vehicles to exit: the
            # entry curves read at the count levels [n_down, n_down + sending]
            # (FIFO: exit order equals entry order); a link that sends no more
            # than 1e-15 reads an empty interval
            np.minimum(lo + sending, up, out=hi)
            np.copyto(hi, lo, where=sending <= 1e-15)
            comp = self._entries_between(curves, n_up[:, : k + 1], levels[:2])
            total = self._per_link(comp)
            fix = (total > 0) & (np.abs(total - sending) > 1e-9 * np.maximum(1.0, sending))
            if fix.any():
                comp *= np.repeat(np.divide(sending, total, out=np.ones(E), where=fix),
                                  self.link_count)
            amounts[self.seg_bin] = np.add.reduceat(comp, self.seg_start)

            # origin queues: a backed-up queue sends big M, an empty one its
            # inflow, either capped by its content
            arr_in = rates[:, k] * dt if k < K else no_arrivals
            avail = q_paths[k] + arr_in
            total_avail = np.bincount(qop, avail, Q)
            arr_sum = q_steps[:Q, k + 1] = np.bincount(qop, arr_in, Q)
            live = total_avail > 1e-15
            d_rate = np.where(np.bincount(qop, q_paths[k], Q) > 0, self.big_m, arr_sum / dt)
            want = np.where(live, np.minimum(d_rate * dt, total_avail), 0.0)
            amounts[self.queue_seg] = want

            theta = self._resolve(slots, limits.take(self.supply_at), self.rounds).ravel()
            np.multiply(np.repeat(theta.take(self.link_app), self.link_count), comp, out=moved)
            released = np.multiply(theta.take(self.queue_app), want, out=q_steps[Q:, k + 1])
            share = np.divide(released, total_avail, out=np.zeros(Q), where=live)
            np.multiply(avail, share.take(qop), out=rel_p)
            np.subtract(avail, rel_p, out=q_paths[k + 1])
            flows.take(self.pred, out=entered, mode="clip")
            np.add(p_up[k], entered, out=p_up[k + 1])
            column[self.sum_rows] = np.add.reduceat(flows[:2 * I], self.sum_starts)
            np.add(counts[:, k], column, out=counts[:, k + 1])
            exited += moved.take(self.last_inc)

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
                worst["flow_bounds"] = max(
                    worst["flow_bounds"],
                    float(np.max(sending - cap[:E], initial=0.0)),
                    float(np.max(receiving - cap[E:], initial=0.0)),
                    float(np.max(-sending, initial=0.0)),
                    float(np.max(-receiving, initial=0.0)),
                )
                worst["path_split"] = max(
                    worst["path_split"],
                    float(np.max(np.abs(self._per_link(p_down_now)
                                        - n_down[:, k + 1]))))

        q_arr, q_rel = np.cumsum(q_steps, axis=1, out=q_steps).reshape(2, Q, T + 1)
        if validate:
            occ = n_up - n_down
            worst["occupancy"] = max(float(np.max(occ - self.storage[:, None])),
                                     float(np.max(-occ)))
            worst["monotone"] = max(float(np.max(-np.diff(n_up), initial=0.0)),
                                    float(np.max(-np.diff(n_down), initial=0.0)))
            split = (np.add.reduceat(p_up, self.link_start, axis=1)
                     - n_up[self.link_used].T)
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

    def _read_schedule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per step k and row of the raveled stacked (n_up, n_down) curves: the
        floor column of the read at k + 1 - lag (lag_v, lag_w), the next (the
        last at most), the fraction between, and column k of the opposite curve:
        the per-step operations vectorised over k, bitwise the same.  Column 0
        holds zeros, so a read before it needs no mask: 0 + 0 * x is +0.0.
        """
        E, T = len(self.link_ids), self.steps
        lag = np.concatenate((self.lag_v, self.lag_w))
        pos = np.maximum(np.arange(1, T + 1)[:, None] - lag, 0.0)
        fl = np.floor(pos).astype(int)
        row = np.arange(2 * E) * (T + 1)
        opposite = np.concatenate((row[E:], row[:E])) + np.arange(T)[:, None]
        return fl + row, np.minimum(fl + 1, T) + row, pos - fl, opposite

    def _drained(self, n_up, n_down, q_paths, k, floor_at) -> bool:
        """Whether step k, after the departures, moves nothing: no origin queue
        is above the release threshold, every link is empty, and every entry
        curve is flat (it never decreases: two ends suffice) from the floor
        column of its sending read (at `floor_at` in the raveled `n_up`)
        through column k.  Then every later column equals column k bit for bit."""
        up = n_up[:, k]
        if not (up <= n_down[:, k]).all():
            return False
        if not (np.bincount(self.queue_of_path, q_paths[k], len(self.queues)) <= 1e-15).all():
            return False
        return bool((n_up.take(floor_at) == up).all())

    def _per_link(self, values: np.ndarray) -> np.ndarray:
        """Sums of per-incidence values over each link's incidences."""
        out = np.zeros(len(self.link_ids))
        out[self.link_used] = np.add.reduceat(values, self.link_start)
        return out

    def _entries_between(self, curves: np.ndarray, hist: np.ndarray,
                         levels: np.ndarray) -> np.ndarray:
        """Each incidence's entries between its link's two count `levels`
        (higher first), from the time-major `curves` read at the steps where
        the nondecreasing n_up rows `hist` reach them: between the columns
        at - 1 and at, for at the left searchsorted index capped at the last
        column.  At column 0 both ends are column 0: the step is -1 + 1.0.
        """
        above = hist >= levels[:, :, None]
        above[:, :, -1] = True  # no entry at or above: the last column
        at = above.argmax(axis=2)
        below = at - 1
        lo, hi = hist[self._links, np.maximum(below, 0)], hist[self._links, at]
        frac = np.divide(levels - lo, hi - lo, out=np.ones(levels.shape), where=hi > lo)
        pos = below + frac
        fl = pos.astype(int)
        fr = np.repeat(pos - fl, self.link_count, axis=1)
        cell = np.repeat(fl * curves.shape[1], self.link_count, axis=1) + self._cols
        base = curves.take(cell)
        read = base + fr * (curves.take(cell + curves.shape[1]) - base)
        return np.maximum(read[0] - read[1], 0.0)

    @staticmethod
    def _resolve(amounts: np.ndarray, supplies: np.ndarray, rounds: np.ndarray) -> np.ndarray:
        """Reduction factors per (junction, approach) of padded slot amounts.

        `amounts` is (junction, approach, out-slot), `supplies` (junction,
        out-slot) and nonnegative, and `rounds` (round, junction).  In each
        round r, every junction j with `rounds[r, j]` and an out-slot over its
        supply scales all contributors of its most violated slot to fit it
        (FIFO: one factor per approach).
        """
        theta = np.ones(amounts.shape[:2])
        tol = 1e-12 * np.maximum(supplies, 1.0) + 1e-15
        totals = amounts.sum(axis=1)  # theta * amounts, theta all ones
        for fires in rounds:
            mask = totals - supplies > tol
            fire = mask.any(axis=1) & fires
            if not fire.any():
                break
            rows = np.arange(amounts.shape[0])
            with np.errstate(divide="ignore", invalid="ignore"):
                # an over-full slot's total is positive: over a zero supply,
                # its ratio is inf and its scale 0
                j = np.where(mask, totals / supplies, 0.0).argmax(axis=1)
                scale = (supplies / totals)[rows, j]
                theta = np.where(fire[:, None] & (amounts[rows, :, j] > 0),
                                 theta * scale[:, None], theta)
            totals = (theta[:, :, None] * amounts).sum(axis=1)
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
