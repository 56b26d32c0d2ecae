"""Two-colorings and the four safety predicates.

A colored vertex is safe when no deletion of at most k-1 other vertices can
cut it off from the bulk of the tournament in any of four senses: along
monochromatic paths forwards or backwards, and along color-alternating
paths forwards or backwards.  Each sense is one rule, "v reaches its
targets inside its group of the graph", on one of four graphs: the
tournament T, its reverse, the crossing digraph X of the coloring (ALPHA
against the rest, so under the mask of colored vertices X keeps exactly
the color-changing arcs) and its reverse.  X is T's packed rows masked by
the packed opposite side.

Most vertices are settled by counting, with no graph built (Menger's fan
argument): a target is its own path, and a vertex with arcs into k
distinct targets has k internally disjoint paths to them, of which k-1
deletions cut at most k-1.  One batched popcount per sense reads each
requested vertex's row of the sense's graph (T's rows, or for X those rows
ANDed with the targets of the opposite color) against the packed targets.
It is the 2-path count that ``TargetFlow.safe`` itself takes first (Even
and Tarjan, SIAM J. Comput. 1975), so the answers are the same.  Only a
vertex with fewer than k such arcs goes on to the exact check.  That
reduces to a vertex-capacity flow against a super-target: a scan builds
that network once per sense, as a ``connectivity.TargetFlow`` handle on
the sense's graph under its group mask, which every vertex of the group
shares.  For k = 1 safety is plain reachability, and the check is one BFS
sweep per sense backwards from the targets, along the in-rows of the
sense's graph.  Neither path builds an n x n temporary.

Safety never degrades as the coloring grows: colors never change and, with
fixed reserved and exception sets, each sense's group, targets and
color-changing arcs among colored vertices only grow.  So a pipeline audit
checks only the vertices colored since the last audit passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connectivity import TargetFlow
from .core import (
    _check_ids,
    _crossing_graph,
    _id_array,
    counts_in,
    pack_rows,
    packed_set,
    reachable_mask,
    vertex_mask,
)

ALPHA = 0
BETA = 1
UNCOLORED = -1


class Coloring:
    """Partial two-coloring; vertices can be colored once and never change."""

    def __init__(self, n):
        self.n = n
        self.labels = np.full(n, UNCOLORED, dtype=np.int8)

    def assign(self, vertices, color):
        if color not in (ALPHA, BETA):
            raise ValueError("color must be ALPHA or BETA")
        ids = np.sort(_id_array(vertices))  # a repeated id is harmless; only a clash is deduped
        if ids.size == 0:
            return
        _check_ids(self, (int(ids[0]), int(ids[-1])))
        clash = self.labels[ids] != UNCOLORED
        if clash.any():
            raise ValueError(f"vertices already colored: {np.unique(ids[clash]).tolist()[:5]}")
        self.labels[ids] = color

    def of(self, v):
        return int(self.labels[v])

    def is_colored(self, v):
        return self.labels[v] != UNCOLORED

    def colored_mask(self):
        return self.labels != UNCOLORED

    def uncolored_mask(self):
        return self.labels == UNCOLORED

    def mask(self, color):
        return self.labels == color

    def colored_count(self):
        return int((self.labels != UNCOLORED).sum())


@dataclass
class SafetyContext:
    """Everything the safety predicates look at: the reserved structure
    vertices, the out/in exception pools, the current coloring and k."""

    T: object
    reserved: frozenset
    out_exceptions: frozenset
    in_exceptions: frozenset
    coloring: Coloring
    k: int

    def masks(self):
        n = self.T.n
        return (vertex_mask(n, self.reserved), vertex_mask(n, self.out_exceptions),
                vertex_mask(n, self.in_exceptions))


def _senses(ctx):
    """The four predicates as (column, group, targets): a vertex v of
    ``group`` is safe in the sense of table column ``column`` when no k-1
    vertices other than v cut every path v -> targets inside
    ``_sense_graphs(ctx)[column]`` under the mask ``group``.  The senses of
    columns 0 and 1 come once per color; the group of columns 2 and 3 is
    every colored vertex."""
    lab = ctx.coloring.labels
    resv, exc_out, exc_in = ctx.masks()
    senses = []
    for column, group in ((0, lab == ALPHA), (0, lab == BETA), (2, lab != UNCOLORED)):
        senses.append((column, group, group & ~resv & ~exc_in))
        senses.append((column + 1, group, group & ~resv & ~exc_out))
    return senses


def _sense_graphs(ctx):
    """The graph of each table column: T, its reverse, the crossing digraph
    X of the coloring (ALPHA against the rest) and its reverse."""
    T = ctx.T
    X = _crossing_graph(T, ctx.coloring.labels == ALPHA)
    return T, T.reverse(), X, X.reverse()


def _requested(ctx, vertices):
    """The mask of ``vertices`` (default: every colored vertex); an uncolored one raises."""
    colored = ctx.coloring.labels != UNCOLORED
    want = colored if vertices is None else vertex_mask(ctx.T.n, vertices)
    for v in np.flatnonzero(want & ~colored)[:1].tolist():
        raise ValueError(f"vertex {v} is uncolored")
    return want


def _screened(ctx, want):
    """(column, ask, left, safe) of each sense whose group meets ``want``:
    every vertex of the mask ``ask``, the requested vertices of the group,
    is safe in that sense but for the ids ``left`` that the count screen
    (module docstring) leaves, whose answers are the bool array ``safe``.
    The sense graphs are built only once a sense leaves a vertex."""
    T, k = ctx.T, ctx.k
    alpha = ctx.coloring.labels == ALPHA
    graphs = None
    for column, group, targets in _senses(ctx):
        ask = group & want
        if not ask.any():
            continue
        ids = np.flatnonzero(ask & ~targets)
        rows = (T.packed, T.rpacked)[column % 2][ids]
        if column < 2:
            hits = packed_set(targets)
        else:  # X's row of v is T's row masked by the side v is not on
            sides = pack_rows(np.stack([targets & alpha, targets & ~alpha]))
            hits = sides[alpha[ids].astype(np.intp)]
        left = ids[counts_in(rows, hits) < k]
        if left.size == 0:
            yield column, ask, left, np.ones(0, dtype=bool)
            continue
        graphs = graphs or _sense_graphs(ctx)
        if k == 1:
            reached = reachable_mask(graphs[column].reverse(), np.flatnonzero(targets), group)
            yield column, ask, left, reached[left]
        else:
            sense = TargetFlow(graphs[column], targets, group)
            yield column, ask, left, np.array([sense.safe(v, k) for v in left.tolist()], dtype=bool)


def safety_scan(ctx, vertices=None):
    """Safety reports for many vertices at once (default: every colored one).

    The count screen settles most requested vertices of each sense in one
    batched popcount; the few it leaves go to one reach sweep per sense at
    k = 1 and to the sense's shared flow network at larger k.  Returns an
    (n, 4) boolean table whose rows are meaningful for the requested
    vertices only.
    """
    table = np.zeros((ctx.T.n, 4), dtype=bool)
    for column, ask, left, safe in _screened(ctx, _requested(ctx, vertices)):
        table[ask, column] = True
        table[left, column] = safe
    return table


def all_colored_safe(ctx, vertices=None):
    """True iff every requested (default: every colored) vertex is safe: the
    senses are settled one by one, up to the first that leaves an unsafe
    vertex, with no table."""
    return all(safe.all() for *_, safe in _screened(ctx, _requested(ctx, vertices)))
