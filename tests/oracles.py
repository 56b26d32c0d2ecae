"""Independent brute-force oracles the fast implementations are tested against.

Everything here enumerates: deletion sets, permutations, simple paths.  None
of it shares code with the flow/greedy implementations under test.
"""

import itertools

import numpy as np

from tourpart.core import Tournament


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


def all_simple_paths(adj, x, y, banned=frozenset(), max_len=None):
    """Every simple x->y path avoiding ``banned`` interiors."""
    n = adj.shape[0]
    out = [np.flatnonzero(adj[v]).tolist() for v in range(n)]
    results = []

    def rec(v, acc):
        if max_len is not None and len(acc) - 1 > max_len:
            return
        for w in out[v]:
            if w == y:
                results.append(acc + [y])
            elif w not in acc and w not in banned:
                rec(w, acc + [w])

    rec(x, [x])
    return results


def brute_linkage(T, pairs, forbidden=frozenset(), parity=None, max_length=None):
    """Exhaustive internally-disjoint linkage search (tiny n only)."""
    terminals = {u for p in pairs for u in p}
    banned = set(forbidden) | terminals
    per_pair = []
    for i, (x, y) in enumerate(pairs):
        cap = None if max_length is None else max_length[i]
        cands = all_simple_paths(T.adj, x, y, banned, cap)
        if parity is not None and parity[i] is not None:
            cands = [p for p in cands if (len(p) - 1) % 2 == parity[i]]
        if max_length is not None and max_length[i] is not None:
            cands = [p for p in cands if len(p) - 1 <= max_length[i]]
        per_pair.append(cands)
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
