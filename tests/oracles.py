"""Independent brute-force oracles the fast implementations are tested against.

Everything down to the last section enumerates: deletion sets, permutations,
simple paths.  None of it shares code with the flow/greedy implementations
under test.  The last section holds the helpers only tests call: second
builders of graphs the library builds one way, per-vertex safety flows
that skip the scan's count screen, and the structure audit on a bool mask.
"""

import itertools

import numpy as np

from tourpart.connectivity import TargetFlow
from tourpart.core import Digraph, Tournament, packed_set
from tourpart.domination import _check_structure
from tourpart.safety import _sense_graphs, _senses


def all_tournaments(n):
    """Every tournament on n labeled vertices (2^C(n,2) of them)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        adj = np.zeros((n, n), dtype=bool)
        for (i, j), b in zip(pairs, bits):
            if b:
                adj[i, j] = True
            else:
                adj[j, i] = True
        yield Tournament(adj)


def triu_tournament(n, bits):
    """The tournament with the row-major pair bits ``bits``, scattered
    through ``np.triu_indices`` and checked by ``Tournament(adj)``."""
    adj = np.zeros((n, n), dtype=bool)
    iu, jv = np.triu_indices(n, 1)
    adj[iu, jv] = bits
    adj[jv, iu] = ~np.asarray(bits, dtype=bool)
    return Tournament(adj)


def triu_random_tournament(n, seed):
    """``random_tournament(n, seed)`` built the ``triu_indices`` way: one
    draw of the n(n-1)/2 pair bits from PCG64."""
    rng = np.random.default_rng(seed)
    return triu_tournament(n, rng.integers(0, 2, size=n * (n - 1) // 2, dtype=np.uint8) == 1)


def residue_tournament(q):
    """The Paley tournament from its definition, pair by pair: i -> j iff
    j - i is a nonzero square mod q."""
    squares = {x * x % q for x in range(1, q)}
    adj = np.zeros((q, q), dtype=bool)
    for i in range(q):
        for j in range(q):
            adj[i, j] = i != j and (j - i) % q in squares
    return Tournament(adj)


def triu_compact_text(T):
    """The compact-format line of T, one pair bit at a time."""
    iu, jv = np.triu_indices(T.n, 1)
    s = "".join("1" if b else "0" for b in T.adj[iu, jv].tolist())
    return f"{T.n} {len(s)} {s}\n"


def closure(adj):
    """Boolean reachability closure (including self-reachability)."""
    n = adj.shape[0]
    reach = adj | np.eye(n, dtype=bool)
    for _ in range(max(1, n.bit_length())):
        nxt = reach | (reach @ reach)
        if (nxt == reach).all():
            break
        reach = nxt
    return reach


def reach_by_hand(adj, sources, ok):
    """The vertices of the mask ``ok`` reachable from the sources in ``ok``
    along the bool matrix ``adj``, as a set, by a plain stack search."""
    seen = {s for s in np.atleast_1d(sources).tolist() if ok[s]}
    stack = list(seen)
    while stack:
        for w in np.flatnonzero(adj[stack.pop()] & ok).tolist():
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def path_exists(adj, x, y, removed=()):
    n = adj.shape[0]
    keep = np.ones(n, dtype=bool)
    for v in removed:
        keep[v] = False
    sub = adj & keep[:, None] & keep[None, :]
    return bool(closure(sub)[x, y])


def brute_strong_k(G, k):
    """Definition check: |G| > k and no F with |F| < k separates any pair."""
    n = G.n
    if n <= k:
        return False
    for size in range(k):
        for F in itertools.combinations(range(n), size):
            keep = [v for v in range(n) if v not in F]
            sub = G.adj[np.ix_(keep, keep)]
            if not closure(sub).all():
                return False
    return True


def brute_vertex_connectivity(G):
    k = 0
    while brute_strong_k(G, k + 1):
        k += 1
    return k


def brute_min_cut(G, x, y):
    """Smallest F avoiding x,y that kills every x->y path (None if the
    direct edge makes the pair uncuttable)."""
    if G.adj[x, y]:
        return None
    others = [v for v in range(G.n) if v not in (x, y)]
    for size in range(len(others) + 1):
        for F in itertools.combinations(others, size):
            if not path_exists(G.adj, x, y, F):
                return set(F)
    return None


def brute_hamiltonian_path(T, x, y):
    n = T.n
    rest = [v for v in range(n) if v not in (x, y)]
    for mid in itertools.permutations(rest):
        cand = [x, *mid, y]
        if all(T.adj[u, v] for u, v in zip(cand, cand[1:])):
            return list(cand)
    return None


def is_hamiltonian_path(adj, path, x, y):
    """True iff ``path`` runs from x to y through every vertex of ``adj``
    once, along its arcs."""
    return (sorted(path) == list(range(len(adj))) and path[0] == x and path[-1] == y
            and all(adj[u, v] for u, v in zip(path, path[1:])))


def all_simple_paths(adj, x, y, banned=frozenset()):
    """Every simple x->y path avoiding ``banned`` interiors."""
    n = adj.shape[0]
    out = [np.flatnonzero(adj[v]).tolist() for v in range(n)]
    results = []

    def rec(v, acc):
        for w in out[v]:
            if w == y:
                results.append(acc + [y])
            elif w not in acc and w not in banned:
                rec(w, acc + [w])

    rec(x, [x])
    return results


def brute_linkage(T, pairs):
    """Exhaustive internally-disjoint linkage search (tiny n only)."""
    terminals = {u for p in pairs for u in p}
    per_pair = [all_simple_paths(T.adj, x, y, terminals) for x, y in pairs]
    for combo in itertools.product(*per_pair):
        ok = True
        seen = set()
        for p in combo:
            inner = set(p[1:-1])
            if inner & seen:
                ok = False
                break
            seen |= inner
        if ok and len(set(map(tuple, combo))) == len(combo):
            return [list(p) for p in combo]
    return None


def brute_fully_disjoint(T, pairs):
    per_pair = []
    terminals = {u for p in pairs for u in p}
    for x, y in pairs:
        banned = terminals - {x, y}
        per_pair.append(all_simple_paths(T.adj, x, y, banned))
    for combo in itertools.product(*per_pair):
        allv = [v for p in combo for v in p]
        if len(set(allv)) == len(allv):
            return [list(p) for p in combo]
    return None


def brute_safe(T, v, coloring_labels, reserved, exc_out, exc_in, k, variant):
    """F-enumeration for one safety predicate.

    variant: 'f' monochromatic-forwards, 'b' backwards, 'af'/'ab' alternating.
    """
    n = T.n
    lab = coloring_labels
    gamma = lab[v]
    assert gamma != -1
    if variant in ("f", "b"):
        members = {u for u in range(n) if lab[u] == gamma}
        adj = T.adj
    else:
        members = {u for u in range(n) if lab[u] != -1}
        colored = lab != -1
        adj = T.adj & (lab[:, None] != lab[None, :]) & colored[:, None] & colored[None, :]
    blockers = exc_in if variant in ("f", "af") else exc_out
    target_base = members - set(reserved) - set(blockers)
    others = [u for u in range(n) if u != v]
    for size in range(k):
        for F in itertools.combinations(others, size):
            Fs = set(F)
            targets = target_base - Fs
            if v in targets:
                continue
            live = members - Fs
            sub_ids = sorted(live)
            pos = {u: i for i, u in enumerate(sub_ids)}
            if v not in pos:
                return False  # v's own class was cut away entirely
            sub = adj[np.ix_(sub_ids, sub_ids)]
            reach = closure(sub)
            src = pos[v]
            if variant in ("f", "af"):
                ok = any(reach[src, pos[t]] for t in targets if t in pos)
            else:
                ok = any(reach[pos[t], src] for t in targets if t in pos)
            if not ok:
                return False
    return True


def pool_degrees_by_hand(adj, pool):
    """For each vertex u of the bool mask ``pool``, ascending, how many
    vertices of the pool the bool row ``adj[u]`` holds, one vertex at a time."""
    members = np.flatnonzero(pool).tolist()
    return [sum(1 for w in members if adj[u, w]) for u in members]


# ---------------------------------------------------------------------------
# test-side helpers: the structure audit, second builders and per-vertex flows


def check_structure(T, s, alive=None):
    """The library's full invariant scan of the dominating structure ``s``
    as a structure of T[alive] (default: all of T), on the bool mask
    ``alive``; raises AssertionError on any violation."""
    _check_structure(T, s, packed_set(np.ones(T.n, dtype=bool) if alive is None else alive))


def _checked_ids(G, vertices):
    """``vertices`` as sorted distinct ints; ValueError for an id of no vertex."""
    ids = sorted({int(v) for v in vertices})
    for v in ids[:1] + ids[-1:]:
        if not 0 <= v < G.n:
            raise ValueError(f"vertex {v} out of range 0..{G.n - 1}")
    return ids


def bipartite_subdigraph(T, side_a, side_b):
    """The T-arcs between the disjoint nonempty sets A and B, relabelled to
    0..m-1 over sorted(A | B), with the map of new ids back to T ids.  Built
    from ``T.adj`` by the checked constructor: a second builder of the graph
    ``core._crossing_graph`` masks from T's packed rows."""
    A, B = {int(v) for v in side_a}, {int(v) for v in side_b}
    if not A or not B:
        raise ValueError("both sides must be nonempty")
    if A & B:
        raise ValueError("sides overlap")
    ids = _checked_ids(T, A | B)
    in_a = np.isin(ids, list(A))
    return Digraph(T.adj[np.ix_(ids, ids)] & (in_a[:, None] != in_a[None, :])), ids


def transitive_order(T, vertices):
    """Source-to-sink order of T[vertices] when it is transitive, else None:
    a tournament is transitive exactly when its out-degrees are 0..m-1, and
    the order is then unique."""
    ids = _checked_ids(T, vertices)
    if not ids:
        raise ValueError("empty vertex set")
    degs = T.adj[np.ix_(ids, ids)].sum(axis=1)
    if sorted(degs.tolist()) != list(range(len(ids))):
        return None
    return [ids[i] for i in np.argsort(-degs, kind="stable")]


def safe_flow(G, v, targets, k, direction="forward", restrict=None):
    """True iff no set F (|F| <= k-1, v not in F) destroys every directed
    path from v to targets\\F (forward) or from targets\\F to v (backward)
    inside G[restrict], by one ``TargetFlow``.  F may intersect the target
    set."""
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be forward or backward")
    targets = list(targets)
    restrict = None if restrict is None else list(restrict)
    _checked_ids(G, [v, *targets, *(restrict or ())])
    within = np.ones(G.n, dtype=bool) if restrict is None else np.isin(np.arange(G.n), restrict)
    if not within[v]:
        raise ValueError("v must belong to the restriction set")
    # a backward check runs forwards on the reverse
    graph = G if direction == "forward" else G.reverse()
    return TargetFlow(graph, np.isin(np.arange(G.n), targets), within).safe(v, k)


SENSES = ("forwards", "backwards", "alt_forwards", "alt_backwards")  # safety_scan's columns


def target_flows(ctx):
    """Per safety sense, (column, group, its ``TargetFlow``): one flow
    network for the group, shared by every vertex of it."""
    graphs = _sense_graphs(ctx)
    return [(column, group, TargetFlow(graphs[column], targets, group))
            for column, group, targets in _senses(ctx)]


def flow_row(flows, v, k):
    """The four safety predicates of the colored vertex v in ``SENSES``
    order, each by its sense's flow, with no count screen."""
    row = [None] * 4
    for column, group, sense in flows:
        if group[v]:
            row[column] = sense.safe(v, k)
    if None in row:
        raise ValueError(f"vertex {v} is uncolored")
    return row
