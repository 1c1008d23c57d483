"""Independent reference computations used across the test suite.

These deliberately avoid the code paths they check: the projection oracle
enumerates KKT candidates instead of running the cumulative threshold scan,
and the small-instance variant enumerates every support subset outright.
The junction reference is written over (demands, supplies, split matrix)
rather than over the engine's per-approach slot amounts.  The path-delay
reference probes one path at a time, link by link, instead of each shared
path prefix once; the reference loader steps junction by junction instead of
all at once, and the
reference projection loops over the O-D blocks one at a time instead of
projecting the stacked blocks of a chunk together.  The lagged reads
interpolate each step on its own instead of from the engine's precomputed
read schedule, and the suffix-trie layout comes from route tuples and
Python's stable sort instead of numpy's sort of keys made unique; there
and in the reference loader, each node's approaches and out-slots come from
the link records, not from the engine's arrays.  The
loading audit reads only a result's stored curves, none of the step's own
arrays.  The monotonicity checks sample random pairs of profiles.  The
reference iterations write each update of fb, fbf and ifbf as one plain
expression of the paper's formula, with their own step rule and schedule
reads, instead of the solver's in-place update rules and tabulated schedules.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from due.errors import UnfinishedTripError
from due.loading import LoadingResult
from due.solvers import parse_schedule
from due.space import PathFlowProfile, norm


def qp_simplex_projection_active_set(y: np.ndarray, total: float) -> np.ndarray:
    """Solve min ||x - y||^2 s.t. x >= 0, sum(x) = total by checking the KKT
    system on every sorted-prefix support.

    For each candidate support size s (taken from the descending sort of y),
    the equality multiplier is fixed by the mass constraint; the candidate is
    accepted only if it satisfies primal feasibility on the support and dual
    feasibility off it.  Exactly one support size passes (up to ties).
    """
    n = y.size
    order = np.argsort(-y)
    u = y[order]
    for s in range(n, 0, -1):
        theta = (u[:s].sum() - total) / s
        x_support = u[:s] - theta
        if x_support[-1] < 0:
            continue
        if s < n and u[s] - theta > 1e-15 * max(1.0, abs(theta)):
            continue
        x = np.zeros(n)
        x[order[:s]] = x_support
        return x
    raise AssertionError("no KKT-consistent support found")


def qp_simplex_projection_subsets(y: np.ndarray, total: float) -> np.ndarray:
    """Same QP solved by full enumeration of 2^n - 1 supports (small n only)."""
    n = y.size
    best = None
    best_val = np.inf
    for r in range(1, n + 1):
        for support in itertools.combinations(range(n), r):
            idx = list(support)
            theta = (y[idx].sum() - total) / r
            x = np.zeros(n)
            x[idx] = y[idx] - theta
            if np.any(x[idx] < -1e-12):
                continue
            val = np.sum((x - y) ** 2)
            if val < best_val - 1e-15:
                best_val = val
                best = x
    assert best is not None
    return best


def project_feasible_by_block(rates: np.ndarray, dt: float, trips, paths_by_od) -> np.ndarray:
    """Feasible-set projection with one sort-based simplex projection per O-D
    block, in a Python loop over the trip table.

    Each block is flattened in (path, interval) order, sorted ascending and
    reversed, and shifted by the threshold of its last supported index.  It
    does the same arithmetic as `due.space.project_feasible`, so the two agree
    bit for bit.
    """
    out = np.array(rates, dtype=float)
    for od, q in trips.demands.items():
        rows = np.asarray(paths_by_od[od], dtype=int)
        y = out[rows].ravel()
        u = np.sort(y)[::-1]
        shifted = np.cumsum(u) - q / dt
        support = np.nonzero(u * np.arange(1, y.size + 1) > shifted)[0]
        rho = support[-1] + 1
        theta = shifted[rho - 1] / rho
        out[rows] = np.maximum(y - theta, 0.0).reshape(len(rows), -1)
    return out


def reference_iterates(op, config, h0: PathFlowProfile, trips, paths_by_od
                       ) -> tuple[list[tuple], np.ndarray]:
    """`config.max_iterations` iterations of fb, fbf or ifbf from the update
    formulas, and the final profile.

    Each record is (n, tau, alpha, beta, residual, energy, operator_calls),
    the fields of `due.metrics.IterationRecord`.  The schedules are read with
    `ScheduleSpec.raw` from index 0, so they must be admissible there; the
    projection is `project_feasible_by_block`.  Norms of flows are
    `due.space.norm` and norms of delay differences are square roots of
    summed squares, the reductions that `due.solvers` uses, so the records can
    agree bit for bit.  With ||x|| = norm(x) and P the projection:

      fb    y = P(h - tau A(h)); residual ||h - y||; h <- y
      fbf   y = P(h - tau A(h)), z = y + tau (A(h) - A(y)),
            h <- (1 - alpha_n - beta_n) h + beta_n z; residual ||h - y||
      ifbf  w = (1 - beta_n) (h + alpha_n (h - h_prev)), y = P(w - tau A(w)),
            h <- (1 - lambda) w + lambda (y + tau (A(w) - A(y))); residual
            ||w - y||; alpha_{n+1} = min(alpha, eps_{n+1} / ||h_{n+1} - h_n||)

    where fbf and ifbf shrink the step by Tseng's rule, tau <- min(tau, mu
    ||x - y|| / ||A(x) - A(y)||) at their forward points x, and keep tau when
    ||A(x) - A(y)|| <= 1e-14 ||A(x)||.  energy is ||h_{n+1} - h_n|| / ||h_n||.
    """
    grid, dt = h0.grid, h0.grid.dt
    calls = op.eval_count

    def delays(x):
        nonlocal calls
        calls += 1
        return op.evaluate(PathFlowProfile(grid, x)).delays

    def project(x):
        return project_feasible_by_block(x, dt, trips, paths_by_od)

    def schedule(spec, n, low, high):
        value = parse_schedule(spec).raw(n)
        assert low < value < high, f"schedule {spec} leaves ({low}, {high}) at index {n}"
        return value

    def step_rule(tau, x, y, ax, ay):
        gap = math.sqrt(float(np.sum((ax - ay) ** 2)) * dt)
        if gap <= 1e-14 * math.sqrt(float(np.sum(ax ** 2)) * dt):
            return tau
        return min(tau, config.mu * norm(x - y, dt) / gap)

    def energy(step, h):
        return step / norm(h, dt) if norm(h, dt) != 0.0 else math.nan

    records = []
    h = h_prev = np.array(h0.rates)
    tau, alpha = config.tau0, config.alpha
    if config.algorithm == "fb" and config.tau_fixed is not None:
        tau = config.tau_fixed
    for n in range(config.max_iterations):
        if config.algorithm == "fb":
            y = project(h - tau * delays(h))
            record = (n, tau, math.nan, math.nan, norm(h - y, dt), energy(norm(y - h, dt), h))
            h_next = y
        elif config.algorithm == "fbf":
            a_n = schedule(config.alpha_schedule, n, 0.0, 1.0)
            b_n = schedule(config.beta_schedule, n, 0.0, 1.0 - a_n)
            ah = delays(h)
            y = project(h - tau * ah)
            ay = delays(y)
            h_next = (1.0 - a_n - b_n) * h + b_n * (y + tau * (ah - ay))
            record = (n, tau, a_n, b_n, norm(h - y, dt), energy(norm(h_next - h, dt), h))
            tau = step_rule(tau, h, y, ah, ay)
        else:
            b_n = schedule(config.beta_schedule, n, 0.0, 1.0)
            w = (1.0 - b_n) * (h + alpha * (h - h_prev))
            aw = delays(w)
            y = project(w - tau * aw)
            ay = delays(y)
            h_next = (1.0 - config.lam) * w + config.lam * (y + tau * (aw - ay))
            step = norm(h_next - h, dt)
            record = (n, tau, alpha, b_n, norm(w - y, dt), energy(step, h))
            tau = step_rule(tau, w, y, aw, ay)
            eps_next = schedule(config.eps_schedule, n + 1, 0.0, math.inf)
            alpha = config.alpha if step == 0.0 else min(config.alpha, eps_next / step)
        records.append(record + (calls,))
        h_prev, h = h, h_next
    return records, (h if config.algorithm == "fb" else project(h))


def brute_force_inner(f_rates: np.ndarray, g_rates: np.ndarray, dt: float) -> float:
    """Triple-loop summation of the discretized scalar product."""
    acc = 0.0
    for p in range(f_rates.shape[0]):
        for k in range(f_rates.shape[1]):
            acc += f_rates[p, k] * g_rates[p, k] * dt
    return acc


def junction_flows(
    demands: np.ndarray, supplies: np.ndarray, split: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve boundary flows at one junction.

    demands: sending flows of the m incoming approaches.
    supplies: receiving flows of the n outgoing links (may contain inf).
    split: m x n row-stochastic turning fractions for rows with demand.

    Each incoming approach keeps a single reduction factor (FIFO across its
    turning movements); binding outgoing supplies are relaxed by scaling all
    their contributors proportionally, most violated first.  Returns the
    approach outflows and the outgoing inflows.
    """
    d = np.asarray(demands, dtype=float)
    s = np.asarray(supplies, dtype=float)
    w = np.atleast_2d(np.asarray(split, dtype=float))
    m, n = w.shape
    theta = np.ones(m)
    for _ in range(n + 1):
        totals = (theta * d) @ w
        over = totals - s
        mask = over > 1e-12 * np.maximum(s, 1.0)
        if not np.any(mask):
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(mask, np.where(s > 0, totals / s, np.inf), 0.0)
        j = int(np.argmax(ratios))
        scale = s[j] / totals[j] if totals[j] > 0 else 0.0
        theta[w[:, j] > 0] *= scale
    f_out = theta * d
    return f_out, f_out @ w


def total_exited(res) -> float:
    """Vehicles that finished their trips in a `LoadingResult`."""
    return float(res.exited_by_link.sum())


def audit_loading(res: LoadingResult) -> dict[str, float]:
    """The worst violation of each loading invariant, read off the stored
    curves of an engine's `LoadingResult` after the fact; a value at or
    below zero, up to rounding, means the invariant holds.

    - `monotone`: the largest decrease of `n_up` and `n_down` (the links'
      rows and the origin queues') and of the kept rows of `p_up`.
    - `occupancy`: the largest excess of n_up - n_down over storage or below 0.
    - `flow_bounds`: the largest excess of a step's realized entries or
      exits (the steps of n_up and n_down) over capacity * dt.
    - `path_split`: the largest |sum of p_up over a link's suffix nodes -
      n_up|, on the kept rows from `first_step` through the last step.
    - `junction_conservation`: per node and step, the vehicles that end
      their trips there (what enters from links and origin queues, less what
      enters the outgoing links), relative to max(1, what enters): the
      largest of its negative part, its size where no path ends, and the miss
      of its sum over the steps against `exited_by_link` summed over the
      links into the node, relative to max(1, the total entering).
    """
    eng, net = res.engine, res.engine.net
    E = len(eng.link_ids)
    node_of = {n: j for j, n in enumerate(net.nodes)}
    head = [node_of[net.links[lid].head] for lid in eng.link_ids]
    tail = [node_of[net.links[lid].tail] for lid in eng.link_ids]
    d_up, d_down = np.diff(res.n_up[:E]), np.diff(res.n_down[:E])
    cap = eng.capacity[:, None] * eng.grid.dt
    occ = res.n_up[:E] - res.n_down[:E]
    last = eng.steps if res.drained_step is None else res.drained_step
    kept = res.p_up[:last + 1 - res.first_step]
    by_link = np.zeros((kept.shape[1], len(eng.link_ids)))
    by_link[np.arange(kept.shape[1]), eng.link_of] = 1.0

    inflow = np.zeros((len(node_of), eng.steps))
    np.add.at(inflow, head, d_down)
    np.add.at(inflow, [tail[e] for e in eng.queue_link], np.diff(res.n_down[E:]))
    ending = inflow.copy()
    np.subtract.at(ending, tail, d_up)
    rel = ending / np.maximum(1.0, inflow)
    ends_here = np.zeros(len(node_of), dtype=bool)
    ends_here[[node_of[net.links[p.links[-1]].head] for p in net.paths]] = True
    exited = np.zeros(len(node_of))
    np.add.at(exited, head, res.exited_by_link)
    miss = np.abs(ending.sum(axis=1) - exited) / np.maximum(1.0, inflow.sum(axis=1))

    def worst(*parts):
        return max(float(np.max(x, initial=-np.inf)) for x in parts)

    return {
        "monotone": worst(-np.diff(res.n_up), -np.diff(res.n_down), -np.diff(kept, axis=0)),
        "occupancy": worst(occ - eng.storage[:, None], -occ),
        "flow_bounds": worst(d_up - cap, d_down - cap),
        "path_split": worst(np.abs(kept @ by_link - res.n_up[:E, res.first_step:last + 1].T)),
        "junction_conservation": worst(-rel, np.abs(rel[~ends_here]), miss),
    }


def probe_link_exit(res, link_idx: int, times: np.ndarray, path_id=None,
                    intervals=None) -> np.ndarray:
    """Exit times from link `link_idx` of probes entering it at `times`.

    Rides the aggregate boundary curves and never undercuts free flow.  An
    unfinished probe raises, naming `path_id` and its entry in `intervals`.
    """
    exits, unfinished = res._probe_exit(res.n_up[link_idx], res.n_down[link_idx], times,
                                        res.engine.ff_time[link_idx])
    if np.any(unfinished):
        bad = int(np.argmax(unfinished))
        raise UnfinishedTripError(path_id, None if intervals is None else int(intervals[bad]))
    return exits


def path_delays_by_path(res) -> np.ndarray:
    """Path delays of a `LoadingResult`, probed one path at a time.

    Each path rides its origin queue's curves (the rows after the links') and
    then `probe_link_exit` link by link.  The first path row with an
    unfinished probe raises, at its first failing hop.
    """
    eng = res.engine
    starts = eng.grid.starts()
    intervals = np.arange(starts.size)
    out = np.empty((eng.num_paths, starts.size))
    for r, path in enumerate(eng.net.paths):
        q = len(eng.link_ids) + eng.queue_of_path[r]
        s, unfinished = res._probe_exit(res.n_up[q], res.n_down[q], starts, 0.0)
        if np.any(unfinished):
            raise UnfinishedTripError(path.id, int(np.argmax(unfinished)))
        for lid in path.links:
            s = probe_link_exit(res, eng.index_of[lid], s, path.id, intervals)
        out[r] = s - starts
    return out


def interp_rowwise(curves: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Row e of `curves` at the fractional column pos[e], masked to zero before 0."""
    p = np.clip(pos, 0.0, None)
    fl = np.floor(p).astype(int)
    fr = p - fl
    idx = np.arange(curves.shape[0])
    base = curves[idx, fl]
    out = base + fr * (curves[idx, np.minimum(fl + 1, curves.shape[1] - 1)] - base)
    out[pos < 0] = 0.0
    return out


def invert_index(values: np.ndarray, level: float) -> float:
    """Fractional index at which the nondecreasing `values` reach `level`,
    from the left searchsorted index capped at the last entry."""
    idx = int(np.searchsorted(values, level, side="left"))
    if idx <= 0:
        return 0.0
    idx = min(idx, values.size - 1)
    lo, hi = values[idx - 1], values[idx]
    return float(idx) if hi <= lo else idx - 1 + (level - lo) / (hi - lo)


def links_at_nodes(net) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Per node, the ids of its incoming and of its outgoing links, each in id
    order, read off the link records: the node's approaches (those that carry
    paths) and out-slots are numbered in that order."""
    incoming: dict[str, list[str]] = {n: [] for n in net.nodes}
    outgoing: dict[str, list[str]] = {n: [] for n in net.nodes}
    for lid in sorted(net.links):
        incoming[net.links[lid].head].append(lid)
        outgoing[net.links[lid].tail].append(lid)
    return incoming, outgoing


def csr_layout(engine):
    """The engine's suffix-trie arrays, rebuilt from route tuples with
    Python's stable sort.

    A suffix node is a path's link with the rest of its route: the tuple of
    links from that hop to the path's end.  Ids go to the nodes by the length
    of that tuple, then by link, then by the id of the node after (none
    first).  The nodes are sorted by link, then by the out-slot of their
    next link plus one (0 where the paths end), ties by id.  Returns
    `link_of`; `into`, the node that a step's exits per node, then releases
    per path, enter (N, a spare bin, for the exits where paths end);
    `end_node` (the nodes where paths end), `seg_start` and `seg_bin` (per
    (link, out-slot) segment, its (approach, out-slot) bin, or J*A*S for
    ending paths).
    """
    net, (J, A, S) = engine.net, engine.shape
    incoming, outgoing = links_at_nodes(net)
    slot = {lid: s for out in outgoing.values() for s, lid in enumerate(out)}
    routes = {p.links[h:] for p in net.paths for h in range(len(p.links))}
    used = {rt[0] for rt in routes}
    app = {engine.index_of[lid]: j * A + a for j, ins in enumerate(incoming.values())
           for a, lid in enumerate(e for e in ins if e in used)}
    ids = {(): -1}
    for length in range(1, max(map(len, routes)) + 1):
        level = [rt for rt in routes if len(rt) == length]
        for rt in sorted(level, key=lambda rt: (engine.index_of[rt[0]], ids[rt[1:]])):
            ids[rt] = len(ids) - 1

    def sort_key(route):
        return engine.index_of[route[0]], slot[route[1]] + 1 if len(route) > 1 else 0

    nodes = sorted(routes, key=lambda rt: (*sort_key(rt), ids[rt]))
    N = len(nodes)
    col = {route: c for c, route in enumerate(nodes)}
    into = [col[route[1:]] if len(route) > 1 else N for route in nodes]
    into += [col[p.links] for p in net.paths]
    link_of = [engine.index_of[route[0]] for route in nodes]
    end_node = [c for c, route in enumerate(nodes) if len(route) == 1]
    seg_start = [c for c in range(N) if c == 0 or sort_key(nodes[c]) != sort_key(nodes[c - 1])]
    seg_bin = [app[e] * S + s - 1 if s else J * A * S
               for e, s in (sort_key(nodes[c]) for c in seg_start)]
    return tuple(np.array(x, dtype=int) for x in (link_of, into, end_node, seg_start, seg_bin))


def reference_loading(engine, rates: np.ndarray):
    """Load `rates` junction by junction and approach by approach.

    The engine's stepping resolves all junctions at once over flat arrays;
    this loop walks every junction, then every approach of it, and gathers
    each approach's per-path exit composition from its own searchsorted
    inversion of the link's entry curve: its state is per (link, path), not
    per suffix node.  Its origin queues, one per first link of the paths, come
    from the paths, in the order of origin node id, then link.  Returns a
    `LoadingResult` on `engine`, whose boundary curves hold the links' rows,
    then the queues', and whose per-path entry curves are per-link lists.
    """
    net = engine.net
    E, T, dt, K = len(engine.link_ids), engine.steps, engine.grid.dt, engine.grid.num_intervals
    index_of = engine.index_of
    paths = net.paths
    firsts = np.array([index_of[p.links[0]] for p in paths])
    queues = [(node, e, np.flatnonzero(firsts == e))
              for node, e in sorted({(net.links[p.links[0]].tail, e)
                                     for p, e in zip(paths, firsts.tolist())})]
    rows_by_link: list[list[int]] = [[] for _ in range(E)]
    next_link: dict[tuple[int, int], int] = {}
    for r, p in enumerate(paths):
        seq = [index_of[e] for e in p.links]
        for pos, e in enumerate(seq):
            rows_by_link[e].append(r)
            next_link[(e, r)] = seq[pos + 1] if pos + 1 < len(seq) else -1
    rows = [np.array(r, dtype=int) for r in rows_by_link]
    local_of = [{r: i for i, r in enumerate(rws)} for rws in rows]

    # per junction: out-links, and per incoming approach the (src, dst)
    # positions of its paths per out-slot plus those that end here
    junctions = {}
    incoming, outgoing = links_at_nodes(net)
    for node in net.nodes:
        out_idx = [index_of[e] for e in outgoing[node]]
        slot_of = {e: s for s, e in enumerate(out_idx)}
        approaches = []
        for e in (index_of[e] for e in incoming[node]):
            if rows[e].size == 0:
                continue
            nxt = np.array([slot_of.get(next_link[(e, r)], -1) for r in rows[e]])
            per_slot = []
            for s, jl in enumerate(out_idx):
                src = np.nonzero(nxt == s)[0]
                per_slot.append((src, np.array([local_of[jl][rows[e][i]] for i in src], dtype=int)))
            approaches.append((e, per_slot, np.nonzero(nxt == -1)[0]))
        junctions[node] = (out_idx, approaches, [])
    for qi, (node, _e, _members) in enumerate(queues):
        junctions[node][2].append(qi)
    queue_slot = [junctions[node][0].index(e) for node, e, _members in queues]
    queue_dst = [np.array([local_of[e][r] for r in members], dtype=int)
                 for _node, e, members in queues]

    def eval_paths(p_up_e, pos):
        fl = int(pos)
        fr = pos - fl
        if fr == 0.0 or fl + 1 >= p_up_e.shape[1]:
            return p_up_e[:, fl].copy()
        return p_up_e[:, fl] + fr * (p_up_e[:, fl + 1] - p_up_e[:, fl])

    def exit_composition(e, k, amount):
        values = n_up[e, : k + 1]
        lo = n_down[e, k]
        pos_lo = invert_index(values, lo)
        pos_hi = invert_index(values, min(lo + amount, values[-1]))
        comp = np.maximum(eval_paths(p_up[e], pos_hi) - eval_paths(p_up[e], pos_lo), 0.0)
        total = comp.sum()
        if total > 0 and abs(total - amount) > 1e-9 * max(1.0, amount):
            comp *= amount / total
        return comp

    def resolve(slot_amounts, supplies):
        theta = np.ones(slot_amounts.shape[0])
        real = slot_amounts[:, 1:]
        for _ in range(supplies.size + 1):
            totals = theta @ real
            mask = totals - supplies > 1e-12 * np.maximum(supplies, 1.0) + 1e-15
            if not np.any(mask):
                break
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(mask, np.where(supplies > 0, totals / supplies, np.inf), 0.0)
            j = int(np.argmax(ratio))
            scale = supplies[j] / totals[j] if totals[j] > 0 and supplies[j] > 0 else 0.0
            theta[real[:, j] > 0] *= scale
        return theta

    n_up = np.zeros((E, T + 1))
    n_down = np.zeros((E, T + 1))
    p_up = [np.zeros((r.size, T + 1)) for r in rows]
    Q = len(queues)
    q_arr = np.zeros((Q, T + 1))
    q_rel = np.zeros((Q, T + 1))
    q_now = [np.zeros(members.size) for _node, _e, members in queues]
    exited = np.zeros(E)
    cap = engine.capacity * dt
    for k in range(T):
        d_veh = np.clip(interp_rowwise(n_up, k + 1 - engine.lag_v) - n_down[:, k], 0.0, cap)
        s_veh = np.clip(interp_rowwise(n_down, k + 1 - engine.lag_w) + engine.storage
                        - n_up[:, k], 0.0, cap)
        up_inc = np.zeros(E)
        down_inc = np.zeros(E)
        pu_inc = [np.zeros(r.size) for r in rows]
        for out_idx, approaches, at_node in junctions.values():
            payloads, slot_amounts = [], []
            for e, per_slot, sink_src in approaches:
                if d_veh[e] <= 1e-15:
                    continue
                comp = exit_composition(e, k, d_veh[e])
                amounts = np.zeros(len(out_idx) + 1)
                amounts[0] = comp[sink_src].sum()
                for s, (src, _dst) in enumerate(per_slot):
                    if src.size:
                        amounts[s + 1] = comp[src].sum()
                payloads.append(("link", e, comp, (per_slot, sink_src)))
                slot_amounts.append(amounts)
            for qi in at_node:
                members = queues[qi][2]
                arr_in = rates[members, k] * dt if k < K else np.zeros(members.size)
                avail = q_now[qi] + arr_in
                total_avail = float(avail.sum())
                q_arr[qi, k + 1] = q_arr[qi, k] + arr_in.sum()
                if total_avail <= 1e-15:
                    q_now[qi] = avail
                    q_rel[qi, k + 1] = q_rel[qi, k]
                    continue
                # a backed-up queue sends big M, an empty one its inflow
                d_rate = engine.big_m if q_now[qi].sum() > 0 else float(arr_in.sum()) / dt
                want = min(d_rate * dt, total_avail)
                amounts = np.zeros(len(out_idx) + 1)
                amounts[queue_slot[qi] + 1] = want
                payloads.append(("queue", qi, avail, want))
                slot_amounts.append(amounts)
            if not payloads:
                continue
            theta = resolve(np.array(slot_amounts), np.array([s_veh[e] for e in out_idx]))
            for (kind, key, data, extra), th in zip(payloads, theta):
                if kind == "queue" and th <= 0:
                    q_now[key] = data
                    q_rel[key, k + 1] = q_rel[key, k]
                elif kind == "link" and th > 0:
                    e, (per_slot, sink_src) = key, extra
                    moved = th * data
                    down_inc[e] += moved.sum()
                    for jl, (src, dst) in zip(out_idx, per_slot):
                        if src.size:
                            pu_inc[jl][dst] += moved[src]
                            up_inc[jl] += moved[src].sum()
                    exited[e] += moved[sink_src].sum()
                elif kind == "queue":
                    qi, avail, want = key, data, extra
                    e = queues[qi][1]
                    released = th * want
                    rel_p = avail * (released / avail.sum())
                    q_now[qi] = avail - rel_p
                    q_rel[qi, k + 1] = q_rel[qi, k] + released
                    pu_inc[e][queue_dst[qi]] += rel_p
                    up_inc[e] += released
        n_up[:, k + 1] = n_up[:, k] + up_inc
        n_down[:, k + 1] = n_down[:, k] + down_inc
        for e in range(E):
            p_up[e][:, k + 1] = p_up[e][:, k] + pu_inc[e]
    queued = np.zeros(engine.num_paths)
    for (_node, _e, members), now in zip(queues, q_now):
        queued[members] = now
    return LoadingResult(engine=engine, n_up=np.vstack((n_up, q_arr)),
                         n_down=np.vstack((n_down, q_rel)), p_up=p_up, queued=queued,
                         exited_by_link=exited)


def monotonicity_violation_witness(
    vi, radius: float = 3.0, samples: int = 2000, seed: int = 0
) -> tuple[PathFlowProfile, PathFlowProfile, float] | None:
    """Search for x, y with <A(x) - A(y), x - y> < 0; None if not found.

    Random pairs are drawn from a ball around the feasible region.  The
    returned witness certifies that the operator is not monotone.
    """
    rng = np.random.default_rng(seed)
    op = vi.operator
    shape = (vi.num_paths, vi.grid.num_intervals)
    best = None
    best_val = 0.0
    for _ in range(samples):
        # monotonicity is a whole-space property: sample the symmetric box
        x = PathFlowProfile(vi.grid, rng.uniform(-radius, radius, size=shape))
        y = PathFlowProfile(vi.grid, rng.uniform(-radius, radius, size=shape))
        ax = op._compute(x).delays
        ay = op._compute(y).delays
        val = float(((ax - ay) * (x.rates - y.rates)).sum()) * vi.grid.dt
        if val < best_val:
            best_val = val
            best = (x, y, val)
    return best


def pseudo_monotone_audit(
    vi, pairs: int = 10_000, radius: float = 3.0, seed: int = 1
) -> float:
    """Sampling check of pseudo-monotonicity over a symmetric box.

    Over random pairs with <A(x), y - x> >= 0, returns the most negative
    observed <A(y), y - x> (zero if the property held everywhere).
    """
    rng = np.random.default_rng(seed)
    op = vi.operator
    shape = (vi.num_paths, vi.grid.num_intervals)
    worst = 0.0
    for _ in range(pairs):
        x = PathFlowProfile(vi.grid, rng.uniform(-radius, radius, size=shape))
        y = PathFlowProfile(vi.grid, rng.uniform(-radius, radius, size=shape))
        ax = op._compute(x).delays
        fwd = float((ax * (y.rates - x.rates)).sum()) * vi.grid.dt
        if fwd < 0:
            continue
        ay = op._compute(y).delays
        rev = float((ay * (y.rates - x.rates)).sum()) * vi.grid.dt
        worst = min(worst, rev)
    return worst
