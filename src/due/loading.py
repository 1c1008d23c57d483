"""Path-based dynamic network loading.

Links carry cumulative entering/exiting vehicle counts sampled at the grid
boundaries.  Per step, each link offers a sending flow (demand) and a
receiving flow (supply) derived from time-lagged reads of the opposite
boundary curve; junctions resolve the competing flows with a first-in
first-out diverge (one scalar reduction factor per incoming approach) and a
demand-proportional merge.  The junction rule needs only each vehicle's next
link, so a link's vehicles are tracked per remaining route (the nodes of the
paths' suffix trie), not per path.  Origins hold point queues, one per first
link of the paths, on a link's two curves, in rows after the links'.  Path travel
times come from composing exit-time functions along the path, origin queue first.

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

# Count thresholds of the loading, absolute in vehicles or relative to a count
# of at least one vehicle.  One ulp of a count is 1.8e-15 at 8 vehicles, so
# above that EPS_ZERO tells only exact zeros apart (ROADMAP item 22).
# vehicles: a link that sends no more reads an empty interval of its entry
# curves, and an origin queue that holds or offers no more is empty, so that
# rounding dust left by the step's subtractions moves nothing
EPS_ZERO = 1e-15
# relative: a junction's out-slot is over its supply only by more than this
# share of max(supply, 1) plus EPS_ZERO, so rounding in the sums of flows a
# round has already scaled to fit does not fire another round
EPS_SUPPLY = 1e-12
# relative: a link's per-node composition, read off the entry curves, is scaled
# to its sending flow only if the two differ by more than this share of
# max(sending, 1), beyond the rounding of the reads
EPS_COMPOSITION = 1e-9
# vehicles: count dust tolerated when inverting a cumulative curve (probing)
EPS_COUNT = 1e-9

DEFAULT_BUFFER_FACTOR = 2.0


# --------------------------------------------------------------------------
# loading engine


def _first_at(hist: np.ndarray, levels: np.ndarray, start: int) -> np.ndarray:
    """Per row of the nondecreasing `hist` and level, the first column from
    `start` on where the row reaches the level; the last column if none."""
    above = hist[:, start:] >= levels[..., None]
    above[..., -1] = True
    return above.argmax(axis=-1) + start


class _Engine:
    """Precomputed index structure for loading one network on one grid.

    The (link, remaining route) nodes of the paths' suffix trie are laid
    out in CSR order, link-major, so that per-link and per-(link, out-slot)
    sums are segmented sums.  Every node of the network is a junction; its
    approaches (incoming links that carry paths, then its origin queues)
    and its out-slots (outgoing links) index padded (node, approach,
    out-slot) arrays, so that one step resolves all junctions at once.
    """

    def __init__(self, net: Network, grid: TimeGrid, buffer: float | None):
        self.net = net
        self.grid = grid
        dt = grid.dt
        min_dt, binding = net.min_cfl_dt()
        if dt > min_dt * (1 + 1e-12):
            raise ConfigurationError(
                f"loading step dt={dt:.6g} violates the wave-speed condition on link "
                f"{binding!r}; need dt <= {min_dt:.6g}"
            )
        if buffer is None:
            buffer = DEFAULT_BUFFER_FACTOR * net.longest_free_flow_time()
        self.buffer = buffer
        self.steps = grid.num_intervals + int(math.ceil(buffer / dt - 1e-12))
        self.grid_ext = TimeGrid(grid.t0, grid.t0 + self.steps * dt, self.steps)
        self.boundaries = self.grid_ext.boundaries()
        self.widths = np.diff(self.boundaries)  # of the steps, for probing

        self.link_ids = list(net.links)
        self.index_of = {lid: i for i, lid in enumerate(self.link_ids)}
        links = [net.links[lid] for lid in self.link_ids]
        E = len(links)
        self.capacity = np.array([l.capacity for l in links])
        self.storage = np.array([l.storage for l in links])
        self.lag_v = np.array([l.free_flow_time / dt for l in links])
        self.lag_w = np.array([l.length / l.w / dt for l in links])
        self.big_m = 10.0 * max(l.capacity for l in links)
        node_of = {n: i for i, n in enumerate(net.nodes)}
        self.tail = np.array([node_of[l.tail] for l in links])
        self.head = np.array([node_of[l.head] for l in links])

        # flat hop positions, path by path, from the table checked with the network
        table = net.table
        P = self.num_paths = net.num_paths
        hop_link, first, end = table.links, table.start[:-1], table.start[1:]
        lengths = end - first
        # origin point queues, one per first link of the paths (its tail is
        # their origin), in the order of node id, then link; a queue probes
        # as a link that takes no time
        rank = np.searchsorted(sorted(net.nodes), [l.tail for l in links])
        keys, self.queue_of_path = np.unique(rank[hop_link[first]] * E + hop_link[first],
                                             return_inverse=True)
        self.queue_link, Q = keys % E, keys.size
        self.ff_time = np.r_[[l.free_flow_time for l in links], np.zeros(Q)]

        # the probe schedule runs on the prefix trie: a path's exit time after
        # its h-th link depends only on its origin queue and its first h links.
        # The distinct (queue, link prefix) nodes get ids after the queues, by
        # (hop, link, parent); their parents are queues or nodes one hop shorter
        deepest = self.queue_of_path.copy()  # each path's deepest node so far
        n = Q
        span = Q + hop_link.size  # above every id
        keys, rows = [], np.arange(P)
        for h in range(int(lengths.max())):
            rows = rows[lengths[rows] > h]  # the paths with an h-th hop
            k, inv = np.unique((h * E + hop_link[first[rows] + h]) * span + deepest[rows],
                               return_inverse=True)
            deepest[rows] = n + inv
            n += k.size
            keys.append(k)
        group, parent = np.divmod(np.concatenate(keys), span)  # of the ids Q..n-1
        # probe rows: path r's deepest node is row r (a node that ends several
        # paths is probed once for each, and its children read any of those
        # equal rows), the other ids follow, queues first, then a spare row
        row = np.full(n, -1)
        row[deepest] = np.arange(P)
        other = np.flatnonzero(row < 0)
        row[other] = P + np.arange(other.size)
        spare = P + other.size
        inner = other[other >= Q]
        node = np.concatenate((deepest, inner)) - Q  # the node of each probed row
        order = np.argsort(group[node], kind="stable")
        node = node[order]
        probed = np.concatenate((np.arange(P), row[inner]))[order]
        parents = row[parent[node]]
        lo = np.flatnonzero(np.diff(group[node], prepend=-1)).tolist()
        # (curve row, rows, parents' rows) per group: each queue, from the
        # spare row (the departure starts), then each (hop, link), by hop
        self.probe_groups = [(E + q, row[q:q + 1], np.array([spare])) for q in range(Q)]
        self.probe_groups += [(int(group[node[a]] % E), probed[a:b], parents[a:b])
                              for a, b in zip(lo, lo[1:] + [node.size])]
        self.num_probe_rows = spare + 1

        # stepping runs on the suffix trie: downstream of a link, a vehicle's
        # way depends only on its remaining route, so the state is held per
        # (link, remaining route) node.  Ids come depth by depth from the
        # paths' ends, each node keyed by its link and successor (-1 at the end)
        H = hop_link.size
        node_of_hop = np.empty(H, dtype=int)
        n, keys, rows = 0, [], np.arange(P)
        for d in range(int(lengths.max())):
            rows = rows[lengths[rows] > d]  # the paths with a hop d hops before their end
            at = end[rows] - 1 - d
            nxt = node_of_hop[at + 1] if d else -1
            k, inv = np.unique(hop_link[at] * (H + 1) + nxt + 1, return_inverse=True)
            node_of_hop[at] = n + inv
            n += k.size
            keys.append(k)
        node_link, node_succ = np.divmod(np.concatenate(keys), H + 1)
        node_succ -= 1

        # padded (node, approach, out-slot) layout of the junctions: in link
        # id order, each link is the next out-slot of its tail and, if it
        # carries paths, the next approach of its head; origin queues follow
        J = len(node_of)
        self.link_count = np.bincount(node_link, minlength=E)  # suffix nodes per link
        slot = np.zeros(E, dtype=int)
        app_of_link = np.zeros(E, dtype=int)
        n_app = np.zeros(J, dtype=int)
        n_out = np.zeros(J, dtype=int)
        for e in sorted(range(E), key=self.link_ids.__getitem__):
            slot[e] = n_out[self.tail[e]]
            n_out[self.tail[e]] += 1
            if self.link_count[e]:
                app_of_link[e] = n_app[self.head[e]]
                n_app[self.head[e]] += 1
        queue_node = self.tail[self.queue_link]
        app_of_queue = np.zeros(Q, dtype=int)
        for qi, j in enumerate(queue_node):
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
        self.queue_app = queue_node * A + app_of_queue
        self.queue_seg = self.queue_app * S + slot[self.queue_link]

        # suffix nodes in CSR order, segmented by (link, out-slot): link-major,
        # then the out-slot of the next link (0: the paths end here), then id
        key = np.where(node_succ >= 0, slot[node_link[node_succ]] + 1, 0)
        # the keys made unique by the id: any sort is the stable one
        order = np.argsort((node_link * (S + 1) + key) * n + np.arange(n))
        pos = np.full(n + 1, n)  # each id's position; n for the successor -1
        pos[order] = np.arange(n)
        self.link_of = node_link[order]
        key = key[order]
        # the node that each of a step's exits per node and releases per path
        # enters: its successor (the spare bin n where paths end), then each
        # path's first node
        self.into = np.concatenate((pos[node_succ[order]], pos[node_of_hop[first]]))
        self.end_node = np.flatnonzero(key == 0)  # one per link that ends paths
        self.link_start = np.flatnonzero(np.r_[True, np.diff(self.link_of) != 0])
        self.link_used = self.link_of[self.link_start]
        # a step's per-link sums of entries, then of exits, in n_up and n_down
        self.sum_rows = np.concatenate((self.link_used, E + Q + self.link_used))
        self.sum_starts = np.concatenate((self.link_start, n + self.link_start))
        self.seg_start = np.flatnonzero(
            np.r_[True, (np.diff(self.link_of) != 0) | (np.diff(key) != 0)])
        # each segment's (approach, out-slot) bin; ending segments go to the
        # extra bin J*A*S
        at = self.seg_start
        self.seg_bin = np.where(key[at] > 0, self.link_app[self.link_of[at]] * S + key[at] - 1,
                                J * A * S)
        self._cols = np.arange(n)
        self._links = np.arange(E)

    # -- stepping ----------------------------------------------------------

    def run(self, rates: np.ndarray) -> "LoadingResult":
        """Load (path, interval) departure rates that are finite: a validated
        profile's rates, each column clamped at zero where a step reads it."""
        if rates.shape != (self.num_paths, self.grid.num_intervals):
            raise ValidationError(
                f"rate matrix shape {rates.shape} does not match "
                f"({self.num_paths}, {self.grid.num_intervals})"
            )

        E = len(self.link_ids)
        T = self.steps
        dt = self.grid.dt
        K = self.grid.num_intervals
        P = self.num_paths
        Q = self.queue_link.size
        N = self.link_of.size
        J, A, S = self.shape
        link_of, qop = self.link_of, self.queue_of_path
        floor_at, next_at, frac, now_at = self._read_schedule()
        cap = np.tile(self.capacity * dt, 2)

        # the boundary curves: link entries, queue arrivals, link exits, queue
        # releases; n_up and n_down are the links' rows
        counts = np.zeros((2 * (E + Q), T + 1))
        n_up, n_down = counts[:E], counts[E + Q:2 * E + Q]
        # time-major entries per suffix node from step `start` on; rows not
        # yet written are zero
        p_up = np.zeros((self._window_rows(), N))
        start = 0
        queued = np.zeros(P)  # the content of each path's origin queue
        no_arrivals = np.zeros(P)
        # sending and receiving flows, then a zero supply for padded out-slots
        limits = np.zeros(2 * E + 1)
        both, sending, receiving = limits[:-1], limits[:E], limits[E:-1]
        levels = np.empty((3, E))  # entry levels hi and lo = n_down[:, k], then n_up[:, k]
        hi, lo, up = levels
        now = levels[1:].reshape(-1)  # column k of the curves opposite the reads
        amounts = np.zeros(J * A * S + 1)  # the last bin takes the ending paths
        slots = amounts[:-1].reshape(J, A, S)
        flows = np.empty(2 * N + P)  # entries and exits per node, releases per path
        entered, moved, rel_p = flows[:N], flows[N:2 * N], flows[2 * N:]
        column = np.zeros(2 * (E + Q))  # one step's increments of counts
        exited = np.zeros(self.end_node.size)

        drained = None
        for k in range(T):
            if k >= K and self._drained(n_up, n_down, queued, k, floor_at[k, :E]):
                # every later step would copy column k: copy it and stop
                counts[:, k + 1:] = counts[:, k:k + 1]
                drained = k
                break
            if k + 1 - start == len(p_up):
                start, p_up = self._compact(p_up, start, k, n_up, levels[1:].min(axis=0))
            r = k - start  # the row of step k
            # sending and receiving flows, integrated over the step (vehicles):
            # the lagged reads, less column k of the opposite curve
            base = counts.take(floor_at[k])
            np.add(base, frac[k] * (counts.take(next_at[k]) - base), out=both)
            receiving += self.storage
            counts.take(now_at[k], out=now, mode="clip")  # in range: unbuffered
            both -= now
            np.maximum(both, 0.0, out=both)
            np.minimum(both, cap, out=both)

            # per-node share of each link's next sending vehicles to exit: the
            # entry curves read at the count levels [n_down, n_down + sending]
            # (FIFO: exit order equals entry order); a link that sends no more
            # than EPS_ZERO reads an empty interval
            np.minimum(lo + sending, up, out=hi)
            np.copyto(hi, lo, where=sending <= EPS_ZERO)
            comp = self._entries_between(p_up, start, n_up[:, : k + 1], levels[:2])
            total = np.zeros(E)  # per link
            total[self.link_used] = np.add.reduceat(comp, self.link_start)
            fix = (total > 0) & (np.abs(total - sending) > EPS_COMPOSITION * np.maximum(1.0, sending))
            if fix.any():
                comp *= np.repeat(np.divide(sending, total, out=np.ones(E), where=fix),
                                  self.link_count)
            amounts[self.seg_bin] = np.add.reduceat(comp, self.seg_start)

            # origin queues: a backed-up queue sends big M, an empty one its
            # inflow, either capped by its content
            arr_in = np.maximum(rates[:, k], 0.0) * dt if k < K else no_arrivals
            avail = queued + arr_in
            total_avail = np.bincount(qop, avail, Q)
            arr_sum = column[E:E + Q] = np.bincount(qop, arr_in, Q)
            live = total_avail > EPS_ZERO
            d_rate = np.where(np.bincount(qop, queued, Q) > 0, self.big_m, arr_sum / dt)
            want = np.where(live, np.minimum(d_rate * dt, total_avail), 0.0)
            amounts[self.queue_seg] = want

            theta = self._resolve(slots, limits.take(self.supply_at), self.rounds).ravel()
            np.multiply(np.repeat(theta.take(self.link_app), self.link_count), comp, out=moved)
            released = np.multiply(theta.take(self.queue_app), want, out=column[2 * E + Q:])
            share = np.divide(released, total_avail, out=np.zeros(Q), where=live)
            np.multiply(avail, share.take(qop), out=rel_p)
            np.subtract(avail, rel_p, out=queued)
            entered[:] = np.bincount(self.into, flows[N:], N + 1)[:N]
            np.add(p_up[r], entered, out=p_up[r + 1])
            column[self.sum_rows] = np.add.reduceat(flows[:2 * N], self.sum_starts)
            np.add(counts[:, k], column, out=counts[:, k + 1])
            exited += moved.take(self.end_node)

        return LoadingResult(
            engine=self,
            n_up=counts[:E + Q],
            n_down=counts[E + Q:],
            p_up=p_up,
            queued=queued,
            exited_by_link=np.bincount(link_of[self.end_node], exited, E),
            drained_step=drained,
            first_step=start,
        )

    def _read_schedule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per step k and link row of the raveled counts (n_up, then n_down): the
        floor column of the read at k + 1 - lag (lag_v, lag_w), the next (the
        last at most), the fraction between, and column k of the opposite curve:
        the per-step operations vectorised over k, bitwise the same.  Column 0
        holds zeros, so a read before it needs no mask: 0 + 0 * x is +0.0.
        """
        E, Q, T = len(self.link_ids), self.queue_link.size, self.steps
        lag = np.concatenate((self.lag_v, self.lag_w))
        pos = np.maximum(np.arange(1, T + 1)[:, None] - lag, 0.0)
        fl = np.floor(pos).astype(int)
        row = np.r_[:E, E + Q:2 * E + Q] * (T + 1)
        opposite = np.concatenate((row[E:], row[:E])) + np.arange(T)[:, None]
        return fl + row, np.minimum(fl + 1, T) + row, pos - fl, opposite

    def _drained(self, n_up, n_down, queued, k, floor_at) -> bool:
        """Whether step k, after the departures, moves nothing: no origin queue
        is above the release threshold, every link is empty, and every entry
        curve is flat (it never decreases: two ends suffice) from the floor
        column of its sending read (at `floor_at` in the raveled `n_up`)
        through column k.  Then every later column equals column k bit for bit."""
        up = n_up[:, k]
        if not (up <= n_down[:, k]).all():
            return False
        if not (np.bincount(self.queue_of_path, queued, self.queue_link.size) <= EPS_ZERO).all():
            return False
        return bool((n_up.take(floor_at) == up).all())

    def _window_rows(self) -> int:
        """The first window height, 4 * (longest lag + 2) rows: compactions stay rare."""
        return min(4 * (int(math.ceil(self.lag_v.max())) + 2), self.steps + 1)

    def _compact(self, window, start, k, n_up, low) -> tuple[int, np.ndarray]:
        """Before step k writes past the window: the start step and window with
        the rows a later step can read, through row k, moved to the front and
        zeros after them, in twice the height (up to the horizon) if they fill
        more than half of it.  A later level is at least `low`, the lower of
        n_down and n_up at step k - 1, as neither decreases, so its FIFO
        inversion reads no column before `at - 1` of it; or only column `at`
        if it is the count there (the fraction is 1, or `at` is 0), as it
        would read any later column while the link's count and curves stay the same."""
        at = _first_at(n_up[:, :k], low, start)
        same = n_up[:, start + 1:k + 1] == n_up[:, start:k]
        same[self.link_used] &= np.logical_and.reduceat(
            window[1:k + 1 - start] == window[:k - start], self.link_start, axis=1).T
        moved = np.c_[~same & (np.arange(start + 1, k + 1) > at[:, None]), np.ones(len(at), bool)]
        need = np.where(low == n_up[self._links, at], moved.argmax(axis=1) + start, at - 1)
        keep = max(int(need.min()), start)
        live = window[keep - start:k + 1 - start]
        if 2 * len(live) > len(window):
            window = np.empty((min(2 * len(window), self.steps + 1 - keep), window.shape[1]))
        window[:len(live)] = live
        window[len(live):] = 0.0
        return keep, window

    def _entries_between(self, curves: np.ndarray, start: int, hist: np.ndarray,
                         levels: np.ndarray) -> np.ndarray:
        """Each suffix node's entries between its link's two count `levels`
        (higher first), from the time-major `curves` of steps `start` on, read
        at the steps where the nondecreasing n_up rows `hist` reach them:
        between the columns at - 1 and at, for at the left searchsorted index
        from `start` (the values read are those from column 0: see _compact)
        capped at the last column.  At column 0 both ends are column 0: -1 + 1.0."""
        at = _first_at(hist, levels, start)
        below = at - 1
        lo, hi = hist[self._links, np.maximum(below, 0)], hist[self._links, at]
        frac = np.divide(levels - lo, hi - lo, out=np.ones(levels.shape), where=hi > lo)
        pos = below + frac
        fl = pos.astype(int)
        fr = np.repeat(pos - fl, self.link_count, axis=1)
        cell = np.repeat((fl - start) * curves.shape[1], self.link_count, axis=1) + self._cols
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
        tol = EPS_SUPPLY * np.maximum(supplies, 1.0) + EPS_ZERO
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
    """Boundary curves, per-node entry curves and origin-queue content of one
    loading: the state on which the tests audit its invariants (`audit_loading`)."""

    engine: _Engine
    n_up: np.ndarray  # (link, then origin queue; step): entries, or arrivals at a queue
    n_down: np.ndarray  # as n_up: exits, or releases from a queue
    p_up: np.ndarray  # (step - first_step, suffix node): entries per (link, remaining route)
    queued: np.ndarray  # (path,): content of the path's origin queue where stepping stopped
    exited_by_link: np.ndarray  # vehicles that ended their trips at each link's exit
    drained_step: int | None = None  # where stepping stopped; None: the full horizon
    first_step: int = 0  # the step of the first kept row; rows past the last step are 0

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
        np.clip(idx, 1, down.size - 1, out=idx)
        below = idx - 1
        lo, hi = down[below], down[idx]
        frac = np.divide(levels - lo, hi - lo, out=np.zeros(levels.shape), where=hi > lo)
        np.minimum(frac, 1.0, out=frac)
        raw = bt[below] + frac * self.engine.widths[below]
        raw[levels <= down[0] + EPS_COUNT] = bt[0]
        return np.maximum(times + floor, raw, out=raw), unfinished

    def path_delays(self) -> np.ndarray:
        """Travel time per (path, departure interval) on the departure grid.

        Probes the engine's prefix trie into one stacked array of exit times,
        each group of nodes once, from its parents' rows: the origin queues
        from the spare last row, which holds the departure starts, then each
        (hop, link) group.  Each row is probed on its own, so a path takes its
        last node's exit times bit for bit; as path r's last node is row r,
        the delays are the first rows, in place.
        A failure passes from parent to child: an unfinished trip is reported
        for the lowest path row that has one, at its earliest failing hop and
        that hop's first failing interval.
        """
        eng = self.engine
        starts = eng.grid.starts()
        exits = np.empty((eng.num_probe_rows, starts.size))
        exits[-1] = starts
        first_bad = np.full(eng.num_probe_rows, -1)  # first failing interval per row
        for e, rows, parents in eng.probe_groups:
            exits[rows], unfinished = self._probe_exit(
                self.n_up[e], self.n_down[e], exits[parents], eng.ff_time[e])
            bad = first_bad[parents]
            if unfinished.any():  # keep each node's earliest failing hop
                hit = unfinished.any(axis=1) & (bad < 0)
                bad[hit] = unfinished[hit].argmax(axis=1)
            first_bad[rows] = bad
        failed = np.flatnonzero(first_bad[:eng.num_paths] >= 0)
        if failed.size:
            r = int(failed[0])
            raise UnfinishedTripError(eng.net.path_ids[r], int(first_bad[r]))
        delays = exits[:eng.num_paths]
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
) -> LoadingResult:
    """Load the departure profile through the network."""
    grid = grid or h.grid
    if grid != h.grid:
        raise ValidationError("profile grid differs from the loading grid")
    if np.any(h.rates < 0):
        raise ValidationError("departure rates must be nonnegative for loading")
    engine = _Engine(net, grid, buffer)
    return engine.run(h.rates)


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
    out = delays + grid.starts()  # the lateness, then the effective delay, in place
    out -= tau[:, None]
    np.maximum(out, 0.0, out=out)
    out *= gamma
    out += delays
    return DelayProfile(grid, out)
