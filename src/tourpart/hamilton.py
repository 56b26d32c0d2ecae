"""Hamiltonian x->y path search in tournaments.

Exact subset dynamic programming up to ``exact_threshold`` vertices; above
that an insertion heuristic with randomized restarts, falling back to a
budgeted backtracking search with reachability pruning.  An "infeasible"
verdict is only ever produced by an exact argument; running out of budget is
reported as "unknown" instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .core import Verdict, bfs_shortest_path


@dataclass
class PathSearch:
    status: Verdict
    path: list | None = None

    def __bool__(self):
        return self.status == Verdict.FOUND


def _bit_masks(G):
    """Out- and in-neighbourhoods of every vertex of G as integer bitmasks."""
    def masks(rows):
        return [sum(1 << u for u in np.flatnonzero(row).tolist()) for row in rows]
    return masks(G.adj), masks(G.radj)


def _mask_reach(out, start, within):
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            nxt |= out[v]
        nxt &= within & ~seen
        seen |= nxt
        frontier = nxt
    return seen


def _dp_exact(G, x, y):
    n = G.n
    out, inn = _bit_masks(G)
    full = (1 << n) - 1
    dp = [0] * (1 << n)
    dp[1 << x] = 1 << x
    xbit = 1 << x
    for S in range(1 << n):
        ends = dp[S]
        if not ends or not S & xbit:
            continue
        free = full & ~S
        while ends:
            v = (ends & -ends).bit_length() - 1
            ends &= ends - 1
            ext = out[v] & free
            while ext:
                u = (ext & -ext).bit_length() - 1
                ext &= ext - 1
                dp[S | (1 << u)] |= 1 << u
    if not dp[full] & (1 << y):
        return PathSearch(Verdict.INFEASIBLE)
    path = [y]
    S = full
    cur = y
    while S != xbit:
        prev = S & ~(1 << cur)
        cands = dp[prev] & inn[cur]
        cur = (cands & -cands).bit_length() - 1
        path.append(cur)
        S = prev
    path.reverse()
    return PathSearch(Verdict.FOUND, path)


def _try_insertions(out, path, remaining, rng):
    """Grow a fixed-endpoint path by single and pair insertions."""
    progress = True
    while remaining and progress:
        progress = False
        pool = sorted(remaining)
        rng.shuffle(pool)
        for u in pool:
            spot = None
            for i in range(len(path) - 1):
                if out[path[i]] >> u & 1 and out[u] >> path[i + 1] & 1:
                    spot = i
                    break
            if spot is not None:
                path.insert(spot + 1, u)
                remaining.discard(u)
                progress = True
        if progress or not remaining:
            continue
        # pair insertion: place u->w between consecutive path vertices
        pool = sorted(remaining)
        for u in pool:
            done = False
            for w in pool:
                if w == u or not out[u] >> w & 1:
                    continue
                for i in range(len(path) - 1):
                    if out[path[i]] >> u & 1 and out[w] >> path[i + 1] & 1:
                        path[i + 1:i + 1] = [u, w]
                        remaining.discard(u)
                        remaining.discard(w)
                        progress = True
                        done = True
                        break
                if done:
                    break
            if done:
                break
    return not remaining


def _dfs(out, inn, x, y, n, budget, rng):
    """Backtracking search with bitmask reachability pruning."""
    full = (1 << n) - 1
    ybit = 1 << y
    nodes = [budget]

    def feasible(e, R):
        # every unvisited vertex must be enterable and leavable
        f = R
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            if not inn[v] & ((R & ~(1 << v)) | (1 << e)):
                return False
            if v != y and not out[v] & (R & ~(1 << v)):
                return False
        reach = _mask_reach(out, e, R)
        return reach & R == R

    def rec(e, R, acc):
        if nodes[0] <= 0:
            return None
        nodes[0] -= 1
        if R == ybit:
            if out[e] >> y & 1:
                return acc + [y]
            return None
        cands = []
        c = out[e] & R & ~ybit
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            cands.append(v)
        # fewest onward moves first; seeded jitter breaks ties across restarts
        cands.sort(key=lambda v: (bin(out[v] & R).count("1"), rng.random()))
        for v in cands:
            R2 = R & ~(1 << v)
            if not feasible(v, R2):
                continue
            got = rec(v, R2, acc + [v])
            if got is not None:
                return got
        return None

    R0 = full & ~(1 << x)
    if not feasible(x, R0):
        return None, nodes[0]
    return rec(x, R0, [x]), nodes[0]


def hamiltonian_path(T, x, y, exact_threshold=14, budget=200_000, restarts=24, seed=0):
    """Hamiltonian path from x to y, exact below ``exact_threshold`` vertices.

    Above the threshold the insertion heuristic runs under seeded restarts
    with the backtracking search as fallback; exhausting ``budget`` yields
    status "unknown", never a claim of nonexistence.
    """
    if x == y:
        raise ValueError("endpoints must differ")
    n = T.n
    if n <= exact_threshold:
        return _dp_exact(T, x, y)

    out, inn = _bit_masks(T)
    full = (1 << n) - 1
    # exact nonexistence proofs: every vertex must be reachable from x and
    # must reach y
    if _mask_reach(out, x, full) != full:
        return PathSearch(Verdict.INFEASIBLE)
    if _mask_reach(inn, y, full) != full:
        return PathSearch(Verdict.INFEASIBLE)

    rng = random.Random(seed)
    base = bfs_shortest_path(T.adj, x, y)
    left = budget
    for attempt in range(restarts):
        if base is not None:
            path = list(base)
            remaining = set(range(n)) - set(path)
            if _try_insertions(out, path, remaining, rng):
                return PathSearch(Verdict.FOUND, path)
        slice_budget = max(1, left // max(1, restarts - attempt))
        got, slice_left = _dfs(out, inn, x, y, n, slice_budget, rng)
        left -= slice_budget - slice_left
        if got is not None:
            return PathSearch(Verdict.FOUND, got)
        if left <= 0:
            break
    return PathSearch(Verdict.UNKNOWN)
