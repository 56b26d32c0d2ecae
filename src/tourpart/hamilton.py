"""Hamiltonian x->y path search in tournaments.

Exact subset dynamic programming up to ``EXACT_THRESHOLD`` vertices; above
that an insertion heuristic with randomized restarts, falling back to a
budgeted backtracking search with reachability pruning.  An "infeasible"
verdict is only ever produced by an exact argument; running out of budget is
reported as "unknown" instead.

Every search reads the tournament as ``core``'s int bitsets: ``row_bits``
turns the graph's cached packed out- and in-rows into ints, and
``bit_reach`` does the reachability pruning.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import Verdict, _bits, _check_ids, bfs_shortest_path, bit_reach, row_bits


@dataclass
class PathSearch:
    status: Verdict
    path: list | None = None


def _dp_exact(G, x, y):
    n = G.n
    out, inn = row_bits(G.packed), row_bits(G.rpacked)
    full = (1 << n) - 1
    dp = [0] * (1 << n)
    dp[1 << x] = 1 << x
    xbit = 1 << x
    for S in range(1 << n):
        ends = dp[S]
        if not ends or not S & xbit:
            continue
        free = full & ~S
        for v in _bits(ends):
            ext = out[v] & free
            while ext:
                low = ext & -ext
                dp[S | low] |= low
                ext ^= low
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


def _spot(out, path, first, last):
    """Insert ``first``, or the arc first->last, at the first i with arcs
    path[i]->first and last->path[i + 1]; whether there was such an i."""
    tail = out[last]
    for i in range(len(path) - 1):
        if out[path[i]] >> first & 1 and tail >> path[i + 1] & 1:
            path.insert(i + 1, first)
            if last != first:
                path.insert(i + 2, last)
            return True
    return False


def _try_insertions(out, path, remaining, rng):
    """Grow a fixed-endpoint path by single insertions in shuffled order, and
    by the first pair u->w in id order when a round places no single vertex."""
    while remaining:
        pool = sorted(remaining)
        rng.shuffle(pool)
        placed = [u for u in pool if _spot(out, path, u, u)]
        if not placed:
            pool.sort()
            placed = next(([u, w] for u in pool for w in pool
                           if w != u and out[u] >> w & 1 and _spot(out, path, u, w)), None)
            if placed is None:
                break
        remaining.difference_update(placed)
    return not remaining


def _feasible(out, inn, y, e, R):
    """The pruning test of a path from e through every vertex of the set R,
    ending at y in R: each vertex of R has an arc in from e or from R, each
    but y an arc out into R, and e reaches all of R inside R.  A failure
    proves that no such path exists."""
    ebit = 1 << e
    for v in _bits(R):
        rest = R ^ 1 << v
        if not inn[v] & (rest | ebit) or v != y and not out[v] & rest:
            return False
    return bit_reach(out, e, R) & R == R


def _dfs(out, inn, x, y, n, budget, rng):
    """Backtracking search with bitmask reachability pruning, from a root
    that passes ``_feasible``."""
    full = (1 << n) - 1
    ybit = 1 << y
    nodes = [budget]

    def rec(e, R, acc):
        if nodes[0] <= 0:
            return None
        nodes[0] -= 1
        if R == ybit:
            # _feasible(..., e, R) has seen the arc e -> y
            return acc + [y]
        # fewest onward moves first; seeded jitter breaks ties across restarts
        cands = sorted(_bits(out[e] & R & ~ybit),
                       key=lambda v: ((out[v] & R).bit_count(), rng.random()))
        for v in cands:
            R2 = R & ~(1 << v)
            if not _feasible(out, inn, y, v, R2):
                continue
            got = rec(v, R2, acc + [v])
            if got is not None:
                return got
        return None

    return rec(x, full & ~(1 << x), [x]), nodes[0]


EXACT_THRESHOLD = 14
RESTARTS = 24
HAM_BUDGET = 300_000  # search nodes over all restarts, past which the verdict is "unknown"


def hamiltonian_path(T, x, y, budget=HAM_BUDGET, seed=0):
    """Hamiltonian path from x to y, exact up to ``EXACT_THRESHOLD`` vertices.

    Above the threshold the insertion heuristic runs under seeded restarts
    with the backtracking search as fallback; exhausting ``budget`` yields
    status "unknown", never a claim of nonexistence.  A backtracking slice
    that runs out of branches within its budget has searched every path,
    and proves that none exists.
    """
    _check_ids(T, (x, y))
    if x == y:
        raise ValueError("endpoints must differ")
    n = T.n
    if n <= EXACT_THRESHOLD:
        return _dp_exact(T, x, y)

    out, inn = row_bits(T.packed), row_bits(T.rpacked)
    full = (1 << n) - 1
    # exact nonexistence proofs: every vertex must reach y, and the
    # backtracking's pruning test at its root, whose last line is that x
    # reaches every vertex
    if bit_reach(inn, y, full) != full:
        return PathSearch(Verdict.INFEASIBLE)
    if not _feasible(out, inn, y, x, full & ~(1 << x)):
        return PathSearch(Verdict.INFEASIBLE)

    rng = random.Random(seed)
    base = bfs_shortest_path(T, x, y)
    left = budget
    for attempt in range(RESTARTS):
        path = list(base)  # every vertex reaches y (proved above), x too
        remaining = set(range(n)) - set(path)
        if _try_insertions(out, path, remaining, rng):
            return PathSearch(Verdict.FOUND, path)
        slice_budget = max(1, left // max(1, RESTARTS - attempt))
        got, slice_left = _dfs(out, inn, x, y, n, slice_budget, rng)
        if got is not None:
            return PathSearch(Verdict.FOUND, got)
        if slice_left:
            # the pruning is exact, so a slice that ran out of branches
            # before budget searched every path: none exists
            return PathSearch(Verdict.INFEASIBLE)
        left -= slice_budget
        if left <= 0:
            break
    return PathSearch(Verdict.UNKNOWN)
