"""Strong connectivity certification, minimum separators and disjoint paths.

Vertex cuts are computed by unit-vertex-capacity max-flow in the usual
vertex-split network (v_in -> v_out with capacity 1, original arcs
uncapped).  A pair (x, y) joined by the direct edge x->y can never be
separated by deleting other vertices, so such pairs impose no constraint on
strong connectivity and are skipped everywhere.

Every whole-graph question is one sweep (S. Even, "An algorithm for
determining whether the connectivity of a graph is at least k", 1975).
``sweep(G, ceiling, stop)`` keeps a running best, which starts at the
minimum semi-degree, capped by n - 1 and by ``ceiling``, and caps every
flow.  It does not inspect all n^2 ordered pairs: if a set F separates x
from y, then for any vertex u outside F, F separates u from y or x from u.
Among the first |F| + 1 vertices one lies outside F, so once the pairs
incident to the first ``best`` vertices are swept and none fell below
``best``, no cut smaller than ``best`` exists.  The sweep therefore visits
the pairs at vertex u only while u < best, skips those whose other end
v < u was visited before (a flow capped at an earlier, larger best already
bounds them by the running best), and ends with min(kappa, ceiling).  With
a ``stop`` level it returns at the first pair whose flow falls below
``stop``: ``certify(G, k)`` is ``sweep(G, k, k)``, and
``vertex_connectivity(G)`` is ``sweep(G).level``.

Most swept pairs need no flow at all.  Paths x->w->y through distinct
middles w are internally disjoint, so a pair with at least ``best`` common
middles (the 2-path count, the popcount of out(x) & in(y)) cannot lower
``best`` and is settled on the spot.  Flows start from those 2-paths, add
greedy 3-paths x->a->b->y through unused vertices, and stop as soon as the
value reaches the cap (Even & Tarjan, "Network flow and testing graph
connectivity", 1975).  The same greedy, counting paths without building any
flow state, screens each pair in one pass; when it falls short, one more
greedy round counts 4-paths x->a->m->c->y from the first steps a that found
no 3-path, through vertices m no counted path uses, to the last steps c the
3-paths left free.  In a crossing digraph T[A, B], which is bipartite, a
pair on one side has only paths of even length, and this round settles it.
Any set of internally disjoint x->y paths bounds the flow from below, so a
pair whose short paths reach ``best`` is settled without a flow, and every
answer is the one the flows give.  ``_pair_value`` is the one home of this
count-before-flow rule: the sweep, ``TargetFlow.safe`` and the partition
search's repair moves all ask it for a pair's capped value.

Strong connectivity needs no separate test past the degree screen.  When G
is not strong, the lowest vertex fails to reach some vertex v or to be
reached from it, and that pair has no 2-path, no arc and no short path, so
at ``best`` >= 2 the sweep flows it at rank 0, unless an earlier pair
stopped the sweep, and the flow is 0.  At a ``best`` of 1, where no pair
is swept, two reach sweeps from the lowest vertex decide; at ``stop`` <= 1
they alone decide a cap min(n - 1, ``ceiling``) of 1, as a strong graph on
n >= 2 vertices has semi-degree >= 1, so ``certify(G, 1)`` gathers no rows.

The vertices already swept are witnesses as well.  At rank r every pair
with one end among the first r swept vertices has a cut of at least
``best``, since ``best`` only falls.  A set F with |F| < ``best`` that
separates x from y therefore holds every swept w, or x->w->y would survive
in G - F, and one interior vertex of each internally disjoint x->y path
that avoids the swept vertices.  So a pair is settled when r plus its
middles outside the swept vertices, or r plus the short paths the screen
finds around them, reaches ``best``; a swept middle leaves the count but
counts once as a swept vertex, so this settles all the plain count does.
Hall's condition (P. Hall, "On representatives of subsets", 1935)
settles most of the pairs left, from counts the sweep already takes.  At
rank r, with u its vertex, let B be out(u) minus the swept vertices, s0 =
``best`` - r when the rank's first pair is tested, and "later" the
vertices past u.  A later vertex a outside B is good, in G1, when it has at
least s0 in-neighbours in B; that is a's own forward middle count, so G1 is
the later vertices outside B whose count the rank does not list.  A pair
(u, v) with no arc u->v, c < s middles and need s = ``best`` - r <= s0 is
settled when c + |in(v) & G1| >= s.  Its paths are the c 2-paths
u->w->v and, for each good a->v in turn, u->b->a->v through a b in B that
is neither a middle nor taken: a has s0 >= s in-neighbours in B, at most c
are middles and fewer than s - c are taken.  A listed v has fewer than s0
middles, so it is never in G1 (and, with no arc u->v, never in B), and no
path repeats a vertex, 2-cycles or not.  When a pair of the rank fails
that, G2 is the listed vertices w with at least s0 in-neighbours in G1, and
the pair is settled when c + |in(v) & G2| >= s, by paths u->b->a->w->v:
each w takes an unused a of its s0 in G1, and each a an unused b; B, G1
and the listed vertices are disjoint, so again no path repeats a vertex.
A backward pair (v, u) is the mirror image, on out- and in-rows swapped.
Only a pair that fails both counts reaches the screen or a flow, and the
flow of a settled pair, capped at ``best``, could only have returned
``best``, so every answer is unchanged.

The middle counts are ``core.counts_in``, one batch per chunk of ranks, on
at most one n x W count of G's packed words, or ``_CHUNK`` words.  A batch
lists the pairs with v past u's rank below the ``best`` it began with (it
only falls); rank by rank, each is tested on Python ints against the
current ``best``, so the pairs screened and flowed, and their order, are
those of a count per rank.  A Hall count reads the rows of a rank's listed
vertices as ints (core's ``_IntRows``, each row once) only when its G1 is
not empty, and the flow handle is built for the first pair past every
count.  In a masked sweep the ranks are those of ``within``.

A batch costs about 40 numpy calls, 70-90 us, however few pairs it counts,
and an int count well under a microsecond a pair.  So a host of one-word
rows (G.n <= 64) builds its handle first and takes the degree screen from
its int rows; when the best x n pairs of G.n-bit rows hold at most
``_INT_BITS`` bits, each rank counts its middles on those ints against the
current ``best`` and lists the batch's pairs in the batch's order.  Wider
hosts and larger sweeps keep the batch.  Either lister hands each rank's
listed pairs to one loop that runs the Hall counts, the screen and the
flow.

A flow that stops short of its cap is maximum, and the kernel then reports
the residual cut: the vertices whose in-copy is reachable from x in the
residual network and whose out-copy is not, the same for every maximum
flow (the source side of the minimum cut closest to x), so the cut depends
neither on the order of the paths nor on the cap.  Every cap stays at or
above ``stop`` until the sweep stops, and the pairs that one cap rule
settles and another flows have at least ``stop`` middles, so the stopping
pair, its value and its cut do not depend on ``ceiling``.

The kernel works on Python-int bitsets, since the networks it certifies are
small (tens of vertices) and numpy's per-call overhead would outweigh the
arithmetic.  A restricted graph G[within] reaches it as the host G plus a
vertex mask: a ``VertexFlow(G, packed_set(within))`` handle holds each
packed out-row of G, ANDed with the packed mask, as an int (bit v of
``out[u]`` is the arc u->v), and each packed in-row likewise (bit u of
``inn[v]``).  Ids stay G's: every tie breaks toward the lowest id, as in a
copy of G[within], so each answer is the copy's, with no id map.  The split
network is never built: the flow state is the successor list ``flow`` (bit
v of ``flow[u]`` is one unit on u->v; every vertex but x has at most one),
the predecessor list ``pred`` of the vertices that pass a unit, and the
bitset ``carries`` of those vertices, whose arcs v_in -> v_out are used.
The residual search keeps only its out-copy frontiers, level by level; the
parent of an in-copy is the lowest-index tail in its frontier with an arc
to it, or the vertex itself over its reversed split arc when no arc reached
it, and the parent of an out-copy follows from the flow, so every
augmenting path, flow, path decomposition and cut is that of a
level-synchronous BFS with lowest-index parents.

A safety network, ``TargetFlow(G, targets, within)``, is the handle plus
one sink, vertex n, fed by the targets in ``within``; its source is the
vertex checked.  ``disjoint_routes`` drops the arc x->y from a handle.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    Verdict,
    _CHUNK,
    _IntRows,
    _bits,
    _check_ids,
    bit_reach,
    counts_in,
    pack_ints,
    packed_set,
    path_family_fault,
    reachable_mask,
    row_bits,
    vertex_mask,
)


class BudgetExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# the flow kernel on the implicit vertex-split network


def maximum_flow(net, x, y, cap=None):
    """Internally disjoint x->y paths in the digraph of the ``VertexFlow``
    handle ``net`` (arc x->y absent).

    Returns ``(value, flow, cut)``.  ``flow`` holds one unit per arc u->v on
    a path, as bit v of ``flow[u]``; ``value`` is the number of paths, at
    most ``cap``.  ``cut`` is the residual minimum vertex cut when the flow
    is maximum below ``cap``, and None when the flow reached ``cap``.
    """
    flow, pred, carries = _short_paths(net, x, y, cap)
    return _augmented(net, x, y, cap, flow, pred, carries)


def _short_paths(net, x, y, cap):
    """Warm start: the 2-paths x->w->y, lowest w first, then greedy 3-paths
    x->a->b->y through unused vertices in ascending a, each taking the
    lowest b, at most ``cap`` paths in all.  Returns the flow state
    ``(flow, pred, carries)``."""
    out, into_y = net.out, net.inn[y]
    flow = [0] * len(out)
    pred = [-1] * len(out)
    carries = value = 0
    sink = 1 << y
    mids = out[x] & into_y
    while mids and value != cap:
        w = mids & -mids
        mids ^= w
        flow[w.bit_length() - 1] = sink
        pred[w.bit_length() - 1] = x
        carries |= w
        value += 1
    flow[x] = carries
    if value == cap:
        return flow, pred, carries
    # every common middle is used, so the a and b candidates are disjoint
    into_y &= ~carries
    firsts = out[x] & ~carries
    while firsts:
        a = firsts & -firsts
        firsts ^= a
        b = out[a.bit_length() - 1] & into_y
        if b:
            b &= -b
            i, j = a.bit_length() - 1, b.bit_length() - 1
            flow[x] |= a
            flow[i], flow[j] = b, sink
            pred[i], pred[j] = x, i
            carries |= a | b
            into_y ^= b
            value += 1
            if value == cap:
                break
    return flow, pred, carries


def _short_paths_reach(net, x, y, need, spare=0):
    """Whether ``need`` internally disjoint x->y paths are found without a
    flow (arc x->y absent): the 2-paths and greedy 3-paths of the warm start
    of ``maximum_flow(net, x, y, need)``, counted only, then, when those
    fall short, greedy 4-paths (``_four_paths_reach``).

    ``spare`` is a bitset of vertices other than x and y that every x-y
    cut below ``need`` contains; each counts once, and the paths are
    counted around them."""
    out = net.out
    rest, free_ends = out[x] & ~spare, net.inn[y] & ~spare
    mids = rest & free_ends
    short = need - spare.bit_count() - mids.bit_count()
    if short <= 0:
        return True
    # the a and b candidates are disjoint, as in the warm start
    rest, free_ends, idle = rest ^ mids, free_ends ^ mids, 0
    while rest:
        a = rest & -rest
        rest ^= a
        b = out[a.bit_length() - 1] & free_ends
        if b:
            free_ends ^= b & -b
            short -= 1
            if not short:
                return True
        else:
            idle |= a
    # x's out-neighbours not idle and y's in-neighbours not free are taken
    used = spare | (out[x] ^ idle) | (net.inn[y] ^ free_ends) | 1 << x | 1 << y
    return _four_paths_reach(out, idle, free_ends, used, short)


def _four_paths_reach(out, idle, free_ends, used, short):
    """Whether ``short`` more paths x->a->m->c->y are found after the 3-path
    round of ``_short_paths_reach``: a runs over ``idle``, the first steps
    that round left without a path, c over ``free_ends``, the last steps it
    left free, and m over the vertices outside ``used`` (x, y, the spares,
    the 2-path middles and the steps taken).  An idle a reaches no free c
    in one arc, so it is never a middle; each takes, lowest ids first, a
    middle m that no counted path uses and a free c after it."""
    while idle:
        a = idle & -idle
        idle ^= a
        ms = out[a.bit_length() - 1] & ~used
        while ms:
            m = ms & -ms
            ms ^= m
            c = out[m.bit_length() - 1] & free_ends
            if c:
                c &= -c
                free_ends ^= c
                used |= a | m | c
                short -= 1
                if not short:
                    return True
                break
    return False


def _pair_value(net, x, y, cap, spare=0):
    """``(value, cut)`` of ``maximum_flow(net, x, y, cap)``, or, with no flow,
    ``(cap, None)``, what that flow would return, when the short paths of
    ``_short_paths_reach`` (around ``spare``) reach ``cap``."""
    if _short_paths_reach(net, x, y, cap, spare):
        return cap, None
    value, _, cut = maximum_flow(net, x, y, cap)
    return value, cut


def _augmented(net, x, y, cap, flow, pred, carries):
    """Augment a valid flow until it reaches ``cap`` or is maximum."""
    value = flow[x].bit_count()
    while value != cap:
        levels, seen_in, seen_out = _residual_search(net, pred, carries, x, y)
        if not seen_in >> y & 1:
            return value, flow, frozenset(_bits(seen_in & ~seen_out))
        carries = _augment(net, flow, pred, carries, levels, x, y)
        value += 1
    return value, flow, None


def _residual_search(net, pred, carries, x, y):
    """Level-synchronous BFS from x_out in the residual split network.

    Levels alternate between out-copies and in-copies; ``levels[j]`` is the
    j-th frontier of out-copies, and the in-copies of level j are the heads
    of its original arcs (uncapped) plus, over reversed split arcs, its
    carriers that no arc reached.  The search returns as soon as y_in is
    reached, with ``(levels, seen_in, seen_out)``.
    """
    out = net.out
    levels = []
    seen_in = 0
    seen_out = frontier = 1 << x
    while True:
        levels.append(frontier)
        # out-copies -> in-copies
        heads = 0
        tails = frontier
        while tails:
            low = tails & -tails
            heads |= out[low.bit_length() - 1]
            tails ^= low
        frontier = (heads | frontier & carries) & ~seen_in
        seen_in |= frontier
        if seen_in >> y & 1 or not frontier:
            break
        # in-copies -> out-copies: reversed flow arcs, unused split arcs
        undo = 0
        carriers = frontier & carries
        while carriers:
            low = carriers & -carriers
            undo |= 1 << pred[low.bit_length() - 1]  # its one flow arc in
            carriers ^= low
        frontier = (undo | frontier & ~carries) & ~seen_out
        seen_out |= frontier
        if not frontier:
            break
    return levels, seen_in, seen_out


def _augment(net, flow, pred, carries, levels, x, y):
    """Push one unit back from y_in to x_out along the BFS parents; returns
    the new ``carries``.

    v_in reached from the out-copies ``levels[j]`` has as parent the lowest
    of them with an arc to v, or v itself over its reversed split arc; u_out
    has as parent a carrier's one flow successor (a reversed flow arc), and
    otherwise u itself (the split arc).  The parents are those of the BFS,
    so they are read off the flow as the search saw it.
    """
    out = net.out
    v = y
    for tails in reversed(levels):  # at v_in
        u = v
        while tails:
            low = tails & -tails
            if out[low.bit_length() - 1] >> v & 1:
                u = low.bit_length() - 1
                break
            tails ^= low
        w = flow[u].bit_length() - 1 if carries >> u & 1 else u  # parent of u_out
        if u == v:
            carries &= ~(1 << v)
        else:
            flow[u] |= 1 << v
            pred[v] = u
        if u == x:  # at the source x_out, the parent of every level-0 head
            break
        if w == u:
            carries |= 1 << u
        else:
            flow[u] &= ~(1 << w)
        v = w
    return carries


def _flow_paths(flow, x, y):
    """Decompose a flow into its x->y paths, in order of first step."""
    paths = []
    for w in _bits(flow[x]):
        path = [x, w]
        while w != y:
            w = flow[w].bit_length() - 1
            path.append(w)
        paths.append(path)
    return paths


class VertexFlow:
    """Per-graph handle on the flow kernel; queries differ only in (x, y).

    ``out[u]`` and ``inn[v]`` are the rows of the digraph G's ``packed`` and
    ``rpacked`` as ints, ANDed with ``mask = packed_set(within)`` when one is
    given: the out-neighbourhood of u and the in-neighbourhood of v inside
    G[within], in G's ids."""

    def __init__(self, G, mask=None):
        self.out = row_bits(G.packed if mask is None else G.packed & mask)
        self.inn = row_bits(G.rpacked if mask is None else G.rpacked & mask)

    def paths_and_cut(self, x, y, cap=None):
        """(value, paths, cut) of a flow capped at ``cap``; the cut is None
        when the value reached ``cap``."""
        value, flow, cut = maximum_flow(self, x, y, cap)
        return value, _flow_paths(flow, x, y), cut


@dataclass(frozen=True)
class Certificate:
    """The answer of ``sweep``: ``status`` is found when G is strongly
    ``stop``-connected and infeasible when it is not, and ``level`` is
    min(kappa(G), ceiling), or an upper bound on it when the sweep stopped
    early.  When a swept pair fails, ``pair`` is that pair, ``level`` its
    flow value (below ``stop``) and ``cut`` the residual cut of ``level``
    vertices separating it.  A graph failing the size or degree screen
    carries no pair, nor does one whose degree screen gives 1 and that
    fails the strong-connectivity check; a graph that is not strong past a
    degree screen of 2 fails at a swept pair with no path, or at an earlier
    one below ``stop``."""

    status: Verdict
    pair: tuple | None = None
    cut: frozenset | None = None
    level: int = 0


def _middle_counts(outs, ins, lo, rests):
    """The 2-path counts u->w->v and v->w->u through the w of ``rests[i]``,
    u at rank lo + i and v at every rank past lo, as two 2-d int32 arrays."""
    return [counts_in(lasts[lo + 1:], (firsts[lo:lo + len(rests)] & rests)[:, None])
            for firsts, lasts in ((outs, ins), (ins, outs))]


# The most bits (best x n pairs of G.n-bit rows) a sweep counts on ints; an
# int count costs a quarter more past one 30-bit digit.  On random
# tournaments at n = 30-64 the int counts took 0.62-0.99 of the batch's time
# per sweep up to 10,000 bits, 0.87-1.06 at 10,800-12,800, 1.04+ from 14,400.
_INT_BITS = 10_000


def sweep(G, ceiling=None, stop=0, within=None):
    """min(kappa(G[within]), ceiling) as ``level`` by Even's sweep (no cap
    when ``ceiling`` is None; all of G when ``within`` is None, and
    otherwise a bool mask of length n), stopping at the first pair whose
    flow falls below ``stop``; see the module docstring.  The vertices of
    ``within`` are swept in ascending id, and pairs and cuts are G's ids."""
    if stop < 0 or (ceiling is not None and ceiling < 0):
        raise ValueError("k must be nonnegative")
    if within is None:
        order, ids, mask = range(G.n), None, None
    elif isinstance(within, np.ndarray) and within.dtype == bool and within.shape == (G.n,):
        ids, mask = np.flatnonzero(within), packed_set(within)
        order = ids.tolist()
    else:
        raise ValueError(f"within must be a bool mask of length {G.n}")
    n = len(order)
    best = max(0, min(n - 1, n if ceiling is None else ceiling))  # the cap
    net = packed_rows = None
    if best > 1 or (best == 1 and stop > 1):
        # the bitset of ``within``; the degree screen, on the handle's ints
        # when the rows are one word, else on the packed rows of ``within``
        full = (1 << G.n) - 1 if mask is None else row_bits(mask)
        if G.n <= 64:
            net = VertexFlow(G, mask)
            best = min(best, *(min(rows[u].bit_count() for u in order)
                               for rows in (net.out, net.inn)))
        else:
            packed_rows = _sweep_rows(G, ids, mask)
            best = min(best, *(int(counts_in(rows).min()) for rows in packed_rows))
    # the reach check alone decides a best of 1 (module docstring)
    if best == 1 and stop <= 1 and not all(
            np.count_nonzero(reachable_mask(H, order[0], within)) == n
            for H in (G, G.reverse())):
        best = 0
    if best < stop:
        return Certificate(Verdict.INFEASIBLE, level=best)
    if best < 2:  # the screens above decide a best of 0 or 1
        return Certificate(Verdict.FOUND if n > stop else Verdict.INFEASIBLE, level=best)
    # the rows a Hall count reads: the handle's, or G's read on demand
    ends = (net.inn, net.out) if net is not None else (_IntRows(G.rpacked, full),
                                                       _IntRows(G.packed, full))

    # Each lister yields, in rank order and against the current best, the rank
    # with its vertex u, the swept vertices ``spare`` before it, the pairs
    # ``listed`` as (v, c, d), in rank order, for (u, v) (d 0) and (v, u) (d 1)
    # that no arc joins and whose middle count c falls below the need, and
    # ``low[d]``, B and those v (module docstring).
    def int_ranks():
        out, inn = net.out, net.inn
        for rank, u in enumerate(order):
            if rank >= best:
                return
            spare = full & ((1 << u) - 1)
            firsts, lasts, need = out[u] & ~spare, inn[u] & ~spare, best - rank
            listed, low = [], [firsts, lasts]
            for v in order[rank + 1:]:
                if (c := (firsts & inn[v]).bit_count()) < need and not firsts >> v & 1:
                    listed.append((v, c, 0))
                    low[0] |= 1 << v
                if (c := (lasts & out[v]).bit_count()) < need and not lasts >> v & 1:
                    listed.append((v, c, 1))
                    low[1] |= 1 << v
            if listed:
                yield rank, u, spare, low, listed

    def batched_ranks():
        outs, ins = packed_rows or _sweep_rows(G, ids, mask)
        width, lo = G.packed.shape[1], 0
        while lo < best:
            # one batch for ranks lo..hi-1: at most one n x width count, or _CHUNK words
            later = n - lo - 1
            hi = min(best, lo + max(1, max(G.n * width, _CHUNK) // (later * width)))
            spares = [full & ((1 << u) - 1) for u in order[lo:hi]]
            fwd, back = _middle_counts(outs, ins, lo, pack_ints([full ^ s for s in spares], G.n))
            # best only falls, so this lists a superset of the pairs to visit
            below = np.minimum(fwd, back) < np.arange(best - lo, best - hi, -1)[:, None]
            for i in range(1, hi - lo):  # a v at or below the rank was visited, or is u
                below[i, :i] = False
            rows, cols = below.nonzero()
            pairs = zip(rows.tolist(), (cols + (lo + 1)).tolist(),
                        fwd[below].tolist(), back[below].tolist())
            for i, group in itertools.groupby(pairs, key=operator.itemgetter(0)):
                rank = lo + i
                if rank >= best:
                    return
                u, spare, need = order[rank], spares[i], best - rank
                firsts, lasts = ends[1][u] & ~spare, ends[0][u] & ~spare  # B both ways
                listed, low = [], [firsts, lasts]
                for _, j, u_v, v_u in group:
                    v = order[j]
                    if u_v < need and not firsts >> v & 1:
                        listed.append((v, u_v, 0))
                        low[0] |= 1 << v
                    if v_u < need and not lasts >> v & 1:
                        listed.append((v, v_u, 1))
                        low[1] |= 1 << v
                yield rank, u, spare, low, listed
            lo = hi

    few = net is not None and best * n * G.n <= _INT_BITS
    for rank, u, spare, low, listed in int_ranks() if few else batched_ranks():
        # ``ends[d][v]`` is v's in-row forward, its out-row backward; G1 is
        # the later vertices outside low[d], G2 (built at the first pair
        # G1 leaves) the listed vertices with s0 ends in G1
        s0, later = best - rank, full ^ spare ^ 1 << u
        goods = [later & ~low[0], later & ~low[1]]
        ones = [(ends[d][v] & goods[d]).bit_count() if goods[d] else 0 for v, _, d in listed]
        seconds = None
        for (v, c, d), h in zip(listed, ones):
            if c + h >= best - rank:
                continue
            if seconds is None:
                seconds = [0, 0]
                for (w, _, e), g in zip(listed, ones):
                    if g >= s0:
                        seconds[e] |= 1 << w
            if seconds[d] and c + (ends[d][v] & seconds[d]).bit_count() >= best - rank:
                continue
            if net is None:  # the first pair past every count
                net = VertexFlow(G, mask)
            x, y = (v, u) if d else (u, v)
            # capped at best, the pair's value is the new best
            best, cut = _pair_value(net, x, y, best, spare)
            if best < stop:
                return Certificate(Verdict.INFEASIBLE, (x, y), cut, best)
    return Certificate(Verdict.FOUND if n > stop else Verdict.INFEASIBLE, level=best)


def _sweep_rows(G, ids, mask):
    """The packed out- and in-rows of ``within`` in sweep order, masked."""
    return (G.packed, G.rpacked) if mask is None else (G.packed[ids] & mask, G.rpacked[ids] & mask)


def certify(G, k):
    """Certify G at level k: strongly k-connected per the |G| > k definition."""
    return sweep(G, k, k)


def is_strongly_k_connected(G, k):
    """Exact strong k-connectivity test per the |G| > k definition."""
    return certify(G, k).status == Verdict.FOUND


def vertex_connectivity(G):
    """Largest k for which G is strongly k-connected (0 when not strong)."""
    return sweep(G).level


@dataclass
class SeparatorCertificate:
    """A minimum vertex cut for an ordered pair plus a matching maximum
    family of internally disjoint paths (Menger equality checked on every
    construction)."""

    pair: tuple
    separator: frozenset
    paths: list


def min_separator(G, x, y):
    _check_ids(G, (x, y))
    if x == y:
        raise ValueError("endpoints must differ")
    if G.has_edge(x, y):
        raise ValueError("pair joined by a direct edge has no vertex cut")
    value, paths, cut = VertexFlow(G).paths_and_cut(x, y)
    cert = SeparatorCertificate((x, y), cut, paths)
    _assert_menger(G, x, y, cert, value)
    return cert


def _assert_menger(G, x, y, cert, value):
    assert len(cert.separator) == len(cert.paths) == value, \
        f"Menger equality violated for {(x, y)}: cut {len(cert.separator)}, paths {len(cert.paths)}"
    assert x not in cert.separator and y not in cert.separator
    fault = path_family_fault(G, [(x, y)] * value, cert.paths)
    assert not fault, fault
    allowed = ~vertex_mask(G.n, cert.separator)
    assert not reachable_mask(G, x, allowed)[y], \
        "claimed separator does not cut"


# ---------------------------------------------------------------------------
# safety flow: can at most k-1 deletions cut v off from a target set?


class TargetFlow:
    """``safe(v, k)``: whether no set F (|F| <= k-1, v not in F) cuts every
    path from v to the targets outside F in G[within], the targets and
    ``within`` being masks; F may hold targets.  The network is
    ``VertexFlow(G, packed_set(within))`` plus one sink, vertex n, fed by
    every target in ``within``; it does not depend on the source v, so one
    handle serves every v in ``within``, built on first need."""

    def __init__(self, G, targets, within):
        self.G, self.within = G, within
        self.hit = targets & within
        self.net = None

    def safe(self, v, k):
        if self.hit[v]:
            return True
        if not self.hit.any():
            return False
        sink = self.G.n
        if self.net is None:
            self.net = net = VertexFlow(self.G, packed_set(self.within))
            feed = 0
            for t in np.flatnonzero(self.hit).tolist():
                net.out[t] |= 1 << sink
                feed |= 1 << t
            net.out.append(0)
            net.inn.append(feed)
        return _pair_value(self.net, v, sink, k)[0] >= k


# ---------------------------------------------------------------------------
# disjoint path systems


@dataclass
class LinkageResult:
    status: Verdict
    paths: list | None = None
    reason: str = ""            # the cause when there are no paths


_NO_LINKAGE = "no internally disjoint paths for these pairs"


def disjoint_routes(T, x, y, allowed):
    """A maximum family of internally disjoint x->y paths of T, each with
    its interior in the vertex mask ``allowed``; the arc x->y is left out,
    so every path has an interior."""
    net = VertexFlow(T, packed_set(allowed | vertex_mask(T.n, (x, y))))
    net.out[x] &= ~(1 << y)
    net.inn[y] &= ~(1 << x)
    return net.paths_and_cut(x, y)[1]


def find_disjoint_paths(T, pairs, budget=500_000):
    """Exact linkage solver: for each terminal pair (x, y) of ``pairs`` an
    x->y path, the interiors pairwise disjoint and clear of every terminal,
    so 2k distinct terminals get vertex-disjoint paths.

    A request that repeats one pair asks for that many distinct paths
    between the same terminals; it reduces to max-flow and is solved
    exactly that way.  Everything else runs a backtracking search over
    simple paths on int bitsets, trying out-neighbours in ascending id
    order and pruning by reachability; exhausting ``budget`` is reported as
    "unknown", exhausting the search space as "infeasible".
    """
    if not pairs:
        raise ValueError("request has no pairs")
    for x, y in pairs:
        _check_ids(T, (x, y))
        if x == y:
            raise ValueError("terminal pair with equal endpoints")
    if len(set(pairs)) == 1:
        x, y = pairs[0]
        routes = disjoint_routes(T, x, y, np.ones(T.n, dtype=bool))
        # the direct edge is one more internally disjoint path, taken once
        chosen = ([[x, y]] if T.has_edge(x, y) else []) + sorted(routes, key=len)
        if len(chosen) < len(pairs):
            return LinkageResult(Verdict.INFEASIBLE, reason=_NO_LINKAGE)
        chosen = chosen[:len(pairs)]
        _check_linkage(T, pairs, chosen)
        return LinkageResult(Verdict.FOUND, chosen)

    out = row_bits(T.packed)
    base = (1 << T.n) - 1  # vertices usable as interiors: all but the terminals
    for x, y in pairs:
        base &= ~(1 << x | 1 << y)
    counter = [budget]
    paths: list = []

    def feasible_rest(i, used):
        # ``used``: the interiors of the paths before pair i
        return all(bit_reach(out, x, base & ~used | 1 << y) >> y & 1 for x, y in pairs[i:])

    def dfs_pair(i, used):
        if i == len(pairs):
            return True
        x, y = pairs[i]

        def extend(v, visited, acc):
            counter[0] -= 1
            if counter[0] <= 0:
                raise BudgetExceeded
            if out[v] >> y & 1:
                cand = acc + [y]
                # interiors are disjoint, so only a bare edge of a repeated
                # terminal pair can come up twice; it is taken once
                if cand not in paths:
                    paths.append(cand)
                    marked = used
                    for u in acc[1:]:
                        marked |= 1 << u
                    if feasible_rest(i + 1, marked) and dfs_pair(i + 1, marked):
                        return True
                    paths.pop()
            free = base & ~used & ~visited
            for w in _bits(out[v] & free):
                if not bit_reach(out, w, free | 1 << y) >> y & 1:
                    continue
                if extend(w, visited | 1 << w, acc + [w]):
                    return True
            return False

        return extend(x, 1 << x, [x])

    try:
        if not (feasible_rest(0, 0) and dfs_pair(0, 0)):
            return LinkageResult(Verdict.INFEASIBLE, reason=_NO_LINKAGE)
    except BudgetExceeded:
        return LinkageResult(Verdict.UNKNOWN, reason="search budget exhausted")
    result = [list(p) for p in paths]
    _check_linkage(T, pairs, result)
    return LinkageResult(Verdict.FOUND, result)


def _check_linkage(T, pairs, paths):
    fault = path_family_fault(T, pairs, paths, {u for p in pairs for u in p})
    assert not fault, fault
    assert len(set(map(tuple, paths))) == len(paths), "paths must be distinct"


def is_k_linked(T, k):
    """Exhaustive linkedness check for small tournaments.

    Returns the verdict found when every endpoint tuple links, infeasible
    when one cannot (or n < 2k), unknown when one exhausted the budget of
    ``find_disjoint_paths``.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = T.n
    if n < 2 * k:
        return Verdict.INFEASIBLE
    verdict = Verdict.FOUND
    for combo in itertools.permutations(range(n), 2 * k):
        pairs = [(combo[2 * i], combo[2 * i + 1]) for i in range(k)]
        if any(pairs[i] >= pairs[i + 1] for i in range(k - 1)):
            continue  # unordered between pairs: keep one representative
        res = find_disjoint_paths(T, pairs)
        if res.status == Verdict.INFEASIBLE:
            return Verdict.INFEASIBLE
        if res.status == Verdict.UNKNOWN:
            verdict = Verdict.UNKNOWN
    return verdict
