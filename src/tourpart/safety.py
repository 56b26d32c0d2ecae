"""Two-colorings and the four safety predicates.

A colored vertex is safe when no deletion of at most k-1 other vertices can
cut it off from the bulk of the tournament in any of four senses: along
monochromatic paths forwards or backwards, and along color-alternating
paths forwards or backwards.  The exact check reduces to a vertex-capacity
flow against a super-target (``connectivity.safe_flow``); for k = 1 safety
is plain reachability and a whole-coloring scan runs as eight BFS sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connectivity import safe_flow
from .core import Digraph, reachable_mask, vertex_mask

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
        ids = np.asarray(sorted({int(v) for v in vertices}), dtype=np.int64)
        if ids.size == 0:
            return
        if (self.labels[ids] != UNCOLORED).any():
            clash = ids[self.labels[ids] != UNCOLORED]
            raise ValueError(f"vertices already colored: {clash.tolist()[:5]}")
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

    def copy(self):
        c = Coloring(self.n)
        c.labels = self.labels.copy()
        return c


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


@dataclass
class SafetyReport:
    forwards: bool
    backwards: bool
    alt_forwards: bool
    alt_backwards: bool

    @property
    def safe(self):
        return self.forwards and self.backwards and self.alt_forwards and self.alt_backwards


def _cross_digraph(T, labels):
    colored = labels != UNCOLORED
    cross = (labels[:, None] != labels[None, :]) & colored[:, None] & colored[None, :]
    return Digraph(T.adj & cross)


def is_safe(ctx, v):
    """Evaluate all four safety predicates for one colored vertex."""
    lab = ctx.coloring.labels
    if lab[v] == UNCOLORED:
        raise ValueError(f"vertex {v} is uncolored")
    T, k = ctx.T, ctx.k
    resv, exc_out, exc_in = ctx.masks()
    gamma = lab == lab[v]
    own = np.flatnonzero(gamma).tolist()
    w_fwd = np.flatnonzero(gamma & ~resv & ~exc_in).tolist()
    w_bwd = np.flatnonzero(gamma & ~resv & ~exc_out).tolist()
    fwd = safe_flow(T, v, w_fwd, k, "forward", own)
    bwd = safe_flow(T, v, w_bwd, k, "backward", own)
    colored = lab != UNCOLORED
    cids = np.flatnonzero(colored).tolist()
    cross = _cross_digraph(T, lab)
    w_afwd = np.flatnonzero(colored & ~resv & ~exc_in).tolist()
    w_abwd = np.flatnonzero(colored & ~resv & ~exc_out).tolist()
    afwd = safe_flow(cross, v, w_afwd, k, "forward", cids)
    abwd = safe_flow(cross, v, w_abwd, k, "backward", cids)
    return SafetyReport(fwd, bwd, afwd, abwd)


def safety_scan(ctx, vertices=None):
    """Safety reports for many vertices at once.

    For k = 1 each predicate is a single reachability sweep, so the whole
    coloring is scanned with eight BFS passes; for larger k this falls back
    to per-vertex flow checks.  Returns an (n, 4) boolean table whose rows
    are meaningful for colored vertices only.
    """
    T = ctx.T
    n = T.n
    lab = ctx.coloring.labels
    table = np.zeros((n, 4), dtype=bool)
    if ctx.k > 1:
        ids = vertices if vertices is not None else np.flatnonzero(lab != UNCOLORED)
        for v in ids:
            rep = is_safe(ctx, int(v))
            table[v] = (rep.forwards, rep.backwards, rep.alt_forwards, rep.alt_backwards)
        return table

    adj = T.adj
    resv, exc_out, exc_in = ctx.masks()
    for gamma in (ALPHA, BETA):
        gmask = lab == gamma
        if not gmask.any():
            continue
        w_fwd = gmask & ~resv & ~exc_in
        ok = reachable_mask(adj.T, np.flatnonzero(w_fwd), gmask)
        table[gmask, 0] = ok[gmask]
        w_bwd = gmask & ~resv & ~exc_out
        ok = reachable_mask(adj, np.flatnonzero(w_bwd), gmask)
        table[gmask, 1] = ok[gmask]
    colored = lab != UNCOLORED
    cross = adj & (lab[:, None] != lab[None, :]) & colored[:, None] & colored[None, :]
    w_afwd = colored & ~resv & ~exc_in
    ok = reachable_mask(cross.T, np.flatnonzero(w_afwd), colored)
    table[colored, 2] = ok[colored]
    w_abwd = colored & ~resv & ~exc_out
    ok = reachable_mask(cross, np.flatnonzero(w_abwd), colored)
    table[colored, 3] = ok[colored]
    return table


def all_colored_safe(ctx, vertices=None):
    """True iff every requested (default: every colored) vertex is safe."""
    lab = ctx.coloring.labels
    table = safety_scan(ctx, vertices)
    sel = lab != UNCOLORED if vertices is None else vertex_mask(ctx.T.n, vertices)
    return bool(table[sel].all())
