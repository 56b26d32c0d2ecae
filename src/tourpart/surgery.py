"""Non-separating removals: path deletion, prescribed subdivisions and
spanning linkages.

Each operation measures whether the connectivity hypothesis backing its
guarantee actually holds on the given instance.  When it does, the promised
property of the remainder is asserted outright; when it does not, the
operation still runs, verifies what it produced, and flags the result as
best-effort.  Shortest paths drive everything: a BFS-shortest path can have
no forward long-range chord, so it is automatically backwards-transitive,
and that fact is asserted on every path returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connectivity import is_strongly_k_connected
from .core import (Digraph, Verdict, _check_ids, bfs_shortest_path, is_backwards_transitive,
                   path_family_fault, tournament_from_pair_bits, vertex_mask)
from .hamilton import hamiltonian_path


class NoPath(Exception):
    """No directed path exists under the requested avoidance constraints."""


class _Remainder:
    """An answer whose ``status`` is its remainder's: found when the
    remainder is strongly k-connected, infeasible when it is not."""

    @property
    def remainder_ok(self):
        return self.status == Verdict.FOUND


@dataclass
class CarveResult(_Remainder):
    path: list
    remainder: object  # Tournament
    index_map: list
    theorem_backed: bool
    status: Verdict
    level: int


def remove_nonseparating_path(T, x, y, avoid=(), k=1, keep=()):
    """Delete a shortest x->y path (minus ``keep``) without destroying
    strong k-connectivity.

    The guarantee holds whenever T is strongly (k + |avoid| + 4)-connected;
    that hypothesis is measured, and the remainder's strong k-connectivity
    is verified either way.
    """
    avoid = sorted({int(u) for u in avoid})
    keep = {int(u) for u in keep}
    if not keep <= {x, y}:
        raise ValueError("keep must be a subset of the endpoints")
    if x in avoid or y in avoid:
        raise ValueError("endpoints may not be avoided")
    _check_ids(T, [x, y, *avoid])
    # lowest-id tie-breaks; bfs_shortest_path raises for x == y
    path = bfs_shortest_path(T, x, y, ~vertex_mask(T.n, avoid))
    if path is None:
        raise NoPath(f"no {x}->{y} path avoiding {avoid}")
    assert is_backwards_transitive(T, path), "shortest path has a forward chord"
    level = k + len(avoid) + 4
    backed = is_strongly_k_connected(T, level)
    removed = set(path) - keep
    remainder, index_map, status = _remainder(T, [v for v in range(T.n) if v not in removed], k, backed)
    return CarveResult(path, remainder, index_map, backed, status, level)


def _remainder(T, survivors, k, backed):
    """T[survivors], its map of new ids to T's, and its status: found when
    it is strongly k-connected, which is asserted when the hypothesis held
    (``backed``), else infeasible, which the exact sweep proves.  With no
    survivors it is the empty tournament, which is never strongly
    k-connected."""
    remainder, index_map = (T.subtournament(survivors) if survivors
                            else (tournament_from_pair_bits(0, ()), []))
    # through is_strongly_k_connected, the call the bench traces as a certificate
    status = Verdict.FOUND if is_strongly_k_connected(remainder, k) else Verdict.INFEASIBLE
    if backed:
        assert status == Verdict.FOUND, "guaranteed remainder failed its connectivity check"
    return remainder, index_map, status


@dataclass
class SubdivisionSpec:
    """A pattern digraph together with the tournament vertices that must
    play its branch vertices (``branches[h]`` hosts pattern vertex h)."""

    pattern: Digraph
    branches: list

    def validate(self, n):
        if len(self.branches) != self.pattern.n:
            raise ValueError("one branch vertex required per pattern vertex")
        if len(set(self.branches)) != len(self.branches):
            raise ValueError("branch vertices must be distinct")
        for v in self.branches:
            if not 0 <= v < n:
                raise ValueError("branch vertex out of range")


@dataclass
class Subdivision(_Remainder):
    branches: list
    edge_paths: dict
    remainder: object
    index_map: list
    theorem_backed: bool
    status: Verdict
    level: int


def nonseparating_subdivision(T, spec, k):
    """Embed a subdivision of the pattern on prescribed branch vertices so
    that deleting it leaves a strongly k-connected tournament.

    Edges are carved one at a time as shortest paths avoiding the other
    branch vertices and all earlier interiors; the guarantee needs T to be
    strongly (k + m(d+2))-connected, which is measured.
    """
    spec.validate(T.n)
    d = spec.pattern.n
    edges = sorted(spec.pattern.edges())
    m = len(edges)
    level = k + m * (d + 2)
    backed = m >= 1 and is_strongly_k_connected(T, level)
    branch_set = set(spec.branches)
    alive = np.ones(T.n, dtype=bool)
    edge_paths = {}
    for hu, hv in edges:
        x, y = spec.branches[hu], spec.branches[hv]
        path = bfs_shortest_path(T, x, y, alive & ~vertex_mask(T.n, branch_set - {x, y}))
        if path is None:
            raise NoPath(f"no path for pattern edge {hu}->{hv} ({x}->{y})")
        edge_paths[(hu, hv)] = path
        for v in path[1:-1]:
            alive[v] = False
    survivors = [v for v in range(T.n) if alive[v] and v not in branch_set]
    remainder, index_map, status = _remainder(T, survivors, k, backed)
    sub = Subdivision(list(spec.branches), edge_paths, remainder, index_map, backed, status, level)
    check_subdivision(T, spec, sub)
    return sub


def check_subdivision(T, spec, sub):
    """Invariant scan: one path per pattern edge, endpoint placement,
    disjoint interiors away from the branch vertices,
    backwards-transitivity."""
    edges = sorted(spec.pattern.edges())
    assert sorted(sub.edge_paths) == edges, "paths do not match the pattern edges"
    paths = [sub.edge_paths[e] for e in edges]
    fault = path_family_fault(T, [(spec.branches[hu], spec.branches[hv]) for hu, hv in edges],
                              paths, set(spec.branches))
    assert not fault, fault
    assert all(is_backwards_transitive(T, path) for path in paths)


@dataclass
class SpanningLinkage:
    status: Verdict
    paths: list | None
    theorem_backed: bool
    reason: str = ""            # the proof when infeasible, the cause when unknown


def spanning_linkage(T, pairs, seed=0):
    """Internally disjoint x_i -> y_i paths whose vertex sets cover V(T).

    Pairs are processed last to first: carve a shortest path for the final
    pair avoiding the earlier terminals, recurse on what is left, and close
    with a Hamiltonian path for the first pair.  Guaranteed when T is
    strongly (k^2+3k)-connected (measured).  "infeasible" is only reported
    when proven on the untouched tournament; construction dead-ends and
    Hamiltonian budget exhaustion surface as "unknown".
    """
    pairs = [(int(x), int(y)) for x, y in pairs]
    k = len(pairs)
    if k == 0:
        raise ValueError("at least one pair required")
    _check_ids(T, [v for p in pairs for v in p])
    for x, y in pairs:
        if x == y:
            raise ValueError("pair endpoints must differ")
    if len(set(pairs)) != len(pairs):
        raise ValueError("pairs must be distinct")
    backed = is_strongly_k_connected(T, k * k + 3 * k)
    alive = np.ones(T.n, dtype=bool)
    paths = [None] * k
    for idx in range(k - 1, 0, -1):
        x, y = pairs[idx]
        earlier = {v for p in pairs[:idx] for v in p}
        shared = earlier & {x, y}
        path = bfs_shortest_path(T, x, y, alive & ~vertex_mask(T.n, earlier - shared))
        if path is None:
            if alive.all():
                return SpanningLinkage(Verdict.INFEASIBLE, None, backed,
                                       f"pair {idx}: no admissible {x}->{y} path exists")
            return SpanningLinkage(Verdict.UNKNOWN, None, backed,
                                   f"pair {idx}: carve order dead-ended")
        assert is_backwards_transitive(T, path)
        paths[idx] = path
        for v in set(path) - shared:
            alive[v] = False

    x, y = pairs[0]
    ids = sorted(np.flatnonzero(alive).tolist())
    sub, index_map = T.subtournament(ids)
    back = {g: i for i, g in enumerate(index_map)}
    res = hamiltonian_path(sub, back[x], back[y], seed=seed)
    if res.status == Verdict.UNKNOWN:
        return SpanningLinkage(Verdict.UNKNOWN, None, backed, "pair 0: Hamiltonian budget exhausted")
    if res.status == Verdict.INFEASIBLE:
        if len(ids) == T.n:
            return SpanningLinkage(Verdict.INFEASIBLE, None, backed,
                                   "pair 0: no spanning path exists")
        return SpanningLinkage(Verdict.UNKNOWN, None, backed,
                               "pair 0: no Hamiltonian close for this carve order")
    paths[0] = [index_map[v] for v in res.path]
    check_spanning_linkage(T, pairs, paths)
    return SpanningLinkage(Verdict.FOUND, paths, backed)


def check_spanning_linkage(T, pairs, paths):
    """Exact cover and disjoint-interior scan for a spanning linkage: interiors
    miss every terminal, so only terminals may lie on two paths."""
    fault = path_family_fault(T, pairs, paths, {v for p in pairs for v in p})
    assert not fault, fault
    assert set().union(*paths) == set(range(T.n)), "paths do not cover the tournament"
