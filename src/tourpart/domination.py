"""Greedy domination machinery.

Every tournament has an in-dominating set of at most ceil(log2 n) vertices:
repeatedly take a minimum out-degree vertex of the shrinking common
out-neighbourhood.  Building on the same halving idea, ``out_dominating_structure``
grows a short transitive chain ending at a prescribed vertex whose tail
out-dominates everything outside a small exception set.  All selections
break ties toward the lowest vertex id so runs are reproducible.

The chain structures and the core sets are built on the host tournament
restricted by a boolean ``alive`` mask, the subtournament T[alive], without
copying it: they come back in the host's vertex ids.  An in-structure is
the mirrored out-structure: the out-structure of ``T.reverse()`` (T's two
packed matrices swapped) with its chain read backwards.  It is built and
checked in that frame, so the construction and its audit are written once,
for out-structures.  The out-structures descend through rows of
``rpacked`` (in-neighbourhoods), and the out-dominating sets run the
in-dominating greedy on ``rpacked``.  Every shrinking pool is one packed
row over the host's vertices, as ``pack_rows`` lays it out, together with
its ids: a step ANDs it with the packed row of the vertex it takes and
unpacks the ids once (a waiting vertex loses its bit and its id), and they
serve the next step's count and the exception set.  The degrees inside a
pool, which every step ranks, are ``core.counts_in`` over the pool's ids,
which gathers the host's rows in blocks: no step cuts a submatrix out of
the host or builds a |pool| x W temporary, and the taken vertex's degree is
the next pool's size, so no pool is counted twice.  A build packs its alive
set once and hands it to the structure audit, ``_check_structure``, which
reads the alive set, the anchor's row and the members' rows (at most c) as
ints in one ``row_bits`` call.  It recounts the anchor's degree from T,
reads the chain's transitivity off the members' rows, and requires the
alive set, less the taken vertices and the OR of the cover's rows, to be
empty.  An anchor of too low a degree raises ``AnchorDegreeError``, which
carries the degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import _check_ids, counts_in, drop_vertex, packed_set, row_bits, unpack_rows, vertex_mask


class AnchorDegreeError(ValueError):
    """The anchor v of a structure has fewer than 2^(c-1) neighbours to
    descend through, on ``side`` "in" for an out-structure and "out" for an
    in-structure; ``degree`` is how many it has."""

    def __init__(self, side, v, degree, c):
        super().__init__(f"{side}-degree {degree} of vertex {v} is below 2^(c-1) = {2 ** (c - 1)}")
        self.degree = degree


@dataclass(frozen=True)
class DominatingStructure:
    """A transitive chain A with one free end whose remainder dominates
    everything outside ``exceptions``.

    mode "out": chain runs source ``tip`` -> ... -> sink ``anchor`` and
    A \\ {tip} out-dominates V \\ (A | exceptions).  mode "in" is the mirror
    image: source ``anchor``, sink ``tip``, in-domination.  An in-structure of
    T is the out-structure of ``T.reverse()`` with ``order`` reversed, and it
    is checked in that frame.
    """

    mode: str
    anchor: int
    order: tuple
    tip: int
    exceptions: frozenset
    cap: int
    shrink_trace: tuple

    @property
    def members(self):
        return frozenset(self.order)

    @property
    def cover(self):
        """The chain minus its free end: the part that actually dominates."""
        return frozenset(self.order) - {self.tip}


def greedy_in_dominating_set(T):
    """In-dominating set of size at most ceil(log2 n) (at least one vertex)."""
    return _greedy_dominating(T.packed, np.ones(T.n, dtype=bool))


def greedy_out_dominating_set(T):
    """Out-dominating mirror of ``greedy_in_dominating_set``."""
    return _greedy_dominating(T.rpacked, np.ones(T.n, dtype=bool))


def _pool_ids(pool, n):
    """The vertices of the packed row ``pool`` over 0..n-1, ascending."""
    return unpack_rows(pool, n).nonzero()[0]


def _greedy_dominating(packed, alive):
    """In-dominating set of T[alive] read off ``packed``, T's packed rows;
    the out-dominating set when they are the transpose's.  Each step takes
    the lowest-id vertex of minimum out-degree inside the shrinking common
    out-neighbourhood."""
    ids = np.flatnonzero(alive)
    n = len(ids)
    pool = packed_set(alive)
    chosen = []
    while len(ids):
        x = int(ids[counts_in(packed, pool, ids).argmin()])
        chosen.append(x)
        pool &= packed[x]
        ids = _pool_ids(pool, alive.size)
    S = sorted(chosen)
    assert len(S) <= max(1, math.ceil(math.log2(n))) if n > 1 else True
    in_s = vertex_mask(alive.size, S)
    hits = packed[alive & ~in_s] & packed_set(in_s)
    assert hits.any(axis=1).all(), "a vertex does not reach the dominating set"
    return set(S)


def out_dominating_structure(T, v, c, alive=None):
    """Chain A with sink ``v`` such that A minus its source out-dominates
    all but an exception set E with |E| * 2^(c-2) <= d^-(v), inside the
    subtournament T[alive] (default: all of T).

    Follows the halving construction: keep intersecting in-neighbourhoods
    of chain vertices, always descending to a low in-degree vertex of the
    current exception pool, with a one-vertex waiting slot for the case
    where the pool has a dominant source.  The in-neighbourhoods are the
    rows of ``rpacked``, read off the host.  Vertex ids stay T's, and since
    T[alive] keeps their order every lowest-id tie-break agrees with a run
    on a relabelled copy of T[alive].  ``alive`` is packed once, and each
    pool's size is counted once, into ``shrink_trace``.
    """
    _check_ids(T, (v,))
    if c < 2:
        raise ValueError("chain cap c must be at least 2")
    alive = np.ones(T.n, dtype=bool) if alive is None else alive
    if not alive[v]:
        raise ValueError(f"vertex {v} is not alive")
    rows = T.rpacked
    live = packed_set(alive)
    pool = rows[v] & live  # common in-neighbourhood of the chain, minus waiting
    ids = _pool_ids(pool, T.n)
    degree = len(ids)
    if degree < 2 ** (c - 1):
        raise AnchorDegreeError("in", v, degree, c)

    chain = [v]
    waiting = None
    trace = [degree]  # the pool's size after each step

    while True:
        size = trace[-1]
        assert size == len(ids) and size * (1 << (len(chain) - 1)) <= degree, \
            "halving invariant broken"
        if size << (c - 2) <= degree:
            if waiting is None:
                assert size > 0
                tip, ids = int(ids[0]), ids[1:]
            else:
                tip = waiting
            struct = DominatingStructure(
                mode="out", anchor=v, order=(tip, *chain[::-1]), tip=tip,
                exceptions=frozenset(ids.tolist()), cap=c, shrink_trace=tuple(trace))
            _check_structure(T, struct, live)
            return struct

        assert size >= 2
        indeg = counts_in(rows, pool, ids)
        j = int(indeg.argmin())
        if indeg[j] == 0 and waiting is None:
            waiting = int(ids[j])
            drop_vertex(pool, waiting)
            ids = np.delete(ids, j)
            indeg = counts_in(rows, pool, ids)
            j = int(indeg.argmin())
        nxt = int(ids[j])
        chain.append(nxt)
        pool &= rows[nxt]  # a row holds no loop, so nxt leaves the pool
        ids = _pool_ids(pool, T.n)
        trace.append(int(indeg[j]))  # nxt's degree in the pool is the new pool's size
        if len(chain) >= c:
            raise AssertionError("construction failed to exit within the chain cap")


def in_dominating_structure(T, v, c, alive=None):
    """Mirror structure: chain with source ``v`` whose tail in-dominates,
    the out-structure of ``T.reverse()`` read backwards."""
    try:
        s = out_dominating_structure(T.reverse(), v, c, alive)
    except AnchorDegreeError as exc:  # the reversal's in-degree is T's out-degree
        raise AnchorDegreeError("out", v, exc.degree, c) from None
    return replace(s, mode="in", order=s.order[::-1])


def _check_structure(T, s, live):
    """Full invariant scan of ``s`` as a structure of T[alive], ``live``
    the packed alive set; raises AssertionError on any violation.  An
    in-structure is checked as the out-structure it mirrors, in
    ``T.reverse()``.  The audit counts the anchor's in-degree in T[alive]
    itself, from its row of T, so a miscount in the builder does not pass
    it.  It runs on Python-int bitsets: the taken vertices, and the alive
    set, the anchor's row and the members' rows (at most c) from one
    ``row_bits`` call.  T[A] is transitive when its degrees are 0..|A|-1,
    and they order it."""
    if s.mode == "in":
        T, s = T.reverse(), replace(s, mode="out", order=s.order[::-1])
    A = s.members
    ids = sorted(A)
    alive, anchor, *bits = row_bits(np.vstack([live, T.rpacked[s.anchor], T.packed[ids]]))
    degree = (anchor & alive).bit_count()
    assert 2 <= len(A) <= s.cap
    assert s.anchor in A and s.tip in A
    assert not A & s.exceptions
    taken = sum(1 << v for v in A | s.exceptions)  # disjoint, so the sum is the union
    assert not taken & ~alive, "structure uses a vertex outside T[alive]"
    inside = sum(1 << v for v in ids)
    degs = [(row & inside).bit_count() for row in bits]  # in T[A]
    assert sorted(degs) == list(range(len(ids))), "chain is not transitive"
    order = [v for _, v in sorted(zip(degs, ids), reverse=True)]
    assert tuple(order) == s.order
    assert s.order[0] == s.tip and s.order[-1] == s.anchor
    assert len(s.exceptions) << (s.cap - 2) <= degree, "exception set too large"
    covered = 0
    for v, row in zip(ids, bits):
        if v != s.tip:
            covered |= row
    assert not alive & ~taken & ~covered, "domination fails outside the exception set"
    for i, size in enumerate(s.shrink_trace):
        assert size * (1 << i) <= degree, "recorded pool sizes violate halving"


@dataclass(frozen=True)
class CoreSet:
    """A small set Z giving every outside vertex k out- and k in-neighbours
    inside Z.  ``degenerate`` marks the small-n fallback Z = V."""

    vertices: frozenset
    k: int
    degenerate: bool

    def __len__(self):
        return len(self.vertices)


def core_set(T, k, alive=None):
    """Union of k in-dominating and k out-dominating sets, peeled greedily,
    inside the subtournament T[alive] (default: all of T); host ids."""
    alive = np.ones(T.n, dtype=bool) if alive is None else alive
    n = int(alive.sum())
    if n < 4:
        raise ValueError("core_set needs at least 4 vertices")
    if k < 1:
        raise ValueError("k must be positive")
    if n < 3 * k * math.log2(n):
        return CoreSet(frozenset(np.flatnonzero(alive).tolist()), k, True)

    def peel(packed):
        taken = []
        remaining = alive.copy()
        for _ in range(k):
            chosen = _greedy_dominating(packed, remaining)
            taken.append(chosen)
            remaining[list(chosen)] = False
        return taken

    Z = frozenset().union(*peel(T.packed), *peel(T.rpacked))
    result = CoreSet(Z, k, False)
    assert len(Z) <= 3 * k * math.log2(n) + 1e-9
    _check_core(T, result, alive)
    return result


def _check_core(T, cs, alive):
    """Every vertex of T[alive] outside Z has k out- and k in-neighbours in Z."""
    in_z = vertex_mask(T.n, cs.vertices)
    for rows in (T.packed, T.rpacked):
        assert (counts_in(rows[alive & ~in_z], packed_set(in_z)) >= cs.k).all(), \
            "core-set degree clause violated"
