"""Tournaments, digraphs, directed paths and their basic structure queries.

A graph on n vertices is its adjacency packed 64 vertices per ``uint64``
word, twice: bit v % 64 of word v // 64 of row u of ``packed`` is the arc
u->v, and ``rpacked`` holds the transpose the same way, so its row v is the
in-neighbourhood of v.  The two are the whole graph and its one
representation; ``pack_rows`` is the one packer and ``unpack_rows`` its
inverse.  A checked constructor packs a bool matrix; a tournament's
``rpacked`` is the complement of ``packed`` off the diagonal, taken on
words.  A tournament has a second constructor, from its pair bits (one
bit per pair i < j, row-major, set when i->j), which are a tournament by
construction and so are not checked; it takes them, and ``_pair_blocks``
reads them back, one block of 64 rows at a time, with no n x n temporary.
``reverse`` swaps the two, and a subgraph unpacks only the rows of its
vertices.  Graphs are immutable after construction so they can be shared
freely between concurrent workers.

Vertices are the integers 0..n-1.  Results name vertex sets as Python sets
and lists, graph routines take restrictions (``alive``, ``within``,
``allowed``) as bool masks of length n, the numpy counts take packed sets
(``packed_set``), and the exact searches, the flow kernel, the Hall counts
and the grant waves take ints, bit v for vertex v (``row_bits``).  The
packed rows are the one bitset input of every loop, and only this module
reads a packed word: ``counts_in`` is the one row count, ``row_bits`` the
one int-row reader (``_IntRows`` reads on demand, ``pack_ints`` packs ints
back), and ``drop_vertex`` clears a vertex of a packed set.  ``adj``
unpacks the bool matrix on each read for callers outside the library.  The
crossing digraph of a split of all of T is T's packed rows masked by the
packed opposite side, with no n x n bool temporary.

The search layer at the end of this module has one routine per job.  One
BFS body serves both path searches: ``bfs_shortest_path`` runs it with one
state per vertex and ``bfs_parity_path`` with two, (v, depth % 2).  Each
level is one packed row, the OR of the previous level's rows ANDed with
the states of its parity not yet seen, so every state of a level was first
seen on that level.  Parents are found only on the walk back from y: the
parent of w is the lowest-id vertex of the previous level with an arc to
w.  ``reachable_mask`` is the one reachability sweep; like the path
searches it takes the graph, and each level ORs the frontier's ``packed``
rows.  The exact searches (Hamiltonian paths, linkages, the flow kernel)
read packed rows as Python-int bitsets from ``row_bits`` and reach with
``bit_reach``.

Every family of internally disjoint paths the library returns or audits
is checked by one routine, ``path_family_fault``; no module but this one
calls ``is_path``.
"""

from __future__ import annotations

from enum import StrEnum

import numpy as np


class Verdict(StrEnum):
    """Outcome of an exact search: a witness was found, none exists (proven),
    or the budget ran out first."""

    FOUND = "found"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"

    def __bool__(self):
        raise TypeError("a Verdict has no truth value; compare it with a member")


class Digraph:
    """A loopless digraph on vertices 0..n-1 with at most one copy of each arc."""

    def __init__(self, adj):
        adj = _square_loopless(adj)
        self._hold(pack_rows(adj), pack_rows(adj.T))

    def _hold(self, packed, rpacked):
        self.n = packed.shape[0]
        self.packed = _frozen(packed)
        self.rpacked = _frozen(rpacked)

    @classmethod
    def _derived(cls, packed, rpacked):
        """Wrap the packed rows of a graph and of its transpose read-only,
        without copying or validating them: for rows cut out of, or masked
        from, a graph that already passed the checks of ``cls``."""
        graph = cls.__new__(cls)
        graph._hold(packed, rpacked)
        return graph

    @property
    def adj(self):
        """The orientation matrix, ``adj[u, v]`` the arc u->v: read-only,
        C-contiguous and unpacked from ``packed`` on every read."""
        return _frozen(unpack_rows(self.packed, self.n))

    def has_edge(self, u, v):
        u, v = int(u), int(v)
        # a word index alone would read a padding bit, or wrap a negative id
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IndexError(f"arc {u}->{v} outside 0..{self.n - 1}")
        return bool(int(self.packed[u, v >> 6]) >> (v & 63) & 1)

    def out_degrees(self):
        return counts_in(self.packed)

    def in_degrees(self):
        return counts_in(self.rpacked)

    def reverse(self):
        """The graph with every arc flipped (an involution): the two packed
        matrices swapped, nothing copied."""
        return type(self)._derived(self.rpacked, self.packed)

    def edges(self):
        return [(u, v) for u, heads in _arc_rows(self) for v in heads]


class Tournament(Digraph):
    """A complete oriented graph: exactly one direction per vertex pair."""

    def __init__(self, adj):
        adj = _square_loopless(adj)
        if np.count_nonzero(adj == adj.T) != adj.shape[0]:  # only the diagonal agrees
            raise ValueError("not a tournament: some pair is unoriented or doubly oriented")
        self._hold(*_tournament_rows(pack_rows(adj)))

    def subtournament(self, vertices):
        """Restriction to ``vertices``; returns (sub, index_map) with
        ``index_map[new_id] = old_id`` in ascending old-id order."""
        ids = sorted(set(int(v) for v in vertices))
        if not ids:
            raise ValueError("subtournament needs at least one vertex")
        if ids[0] < 0 or ids[-1] >= self.n:
            raise ValueError("vertex id out of range")
        return Tournament._derived(*_tournament_rows(pack_rows(_cut(self.rpacked, ids)))), ids


def _square_loopless(adj):
    adj = np.asarray(adj, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if adj.shape[0] and adj.diagonal().any():
        raise ValueError("self-loops are not allowed")
    return adj


_BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)  # bit i of a packed word
_CHUNK = 1 << 15  # words per gathered block of a count, the bound of a sweep's batch


def _tournament_rows(packed):
    """``packed`` and ``rpacked`` of the tournament ``packed``: its transpose
    is its complement off the diagonal, taken on the packed words."""
    n = packed.shape[0]
    rpacked = ~packed
    if n % 64:
        rpacked[:, -1] &= _BIT[n % 64] - np.uint64(1)
    v = np.arange(n)
    rpacked[v, v >> 6] ^= _BIT[v & 63]
    return packed, rpacked


def _cut(rows, ids):
    """Row-major ``m[ids][:, ids].T``, m the bool matrix of the packed rows
    ``rows``, unpacking only the rows of ``ids`` (an |ids| x n temporary,
    not n x n).  numpy lays a gather along the second axis out
    column-major, so the gather read transposed is already row-major; cut
    from ``rpacked``, it is the subgraph's own matrix."""
    return unpack_rows(rows[ids], rows.shape[0])[:, ids].T


def _check_ids(G, ids):
    """Raise ValueError unless every id in ``ids`` names a vertex of G."""
    for v in ids:
        if not 0 <= v < G.n:
            raise ValueError(f"vertex {v} out of range 0..{G.n - 1}")


def _frozen(m):
    """``m`` made read-only in place."""
    m.setflags(write=False)
    return m


def pack_rows(m):
    """The rows of the boolean matrix ``m`` packed 64 columns per word: a
    C-contiguous ``uint64`` matrix whose word v // 64 of row u holds
    ``m[u, v]`` at bit v % 64.  Bits past the last column are zero.  A
    strided ``m``, such as a transpose, is copied row-major first:
    ``np.packbits`` reads it several times slower than the copy costs."""
    rows, cols = m.shape
    words = np.zeros((rows, (cols + 63) // 64 * 8), dtype=np.uint8)
    words[:, :(cols + 7) // 8] = np.packbits(np.ascontiguousarray(m), axis=1, bitorder="little")
    return words.view("<u8")


def unpack_rows(packed, n):
    """The inverse of ``pack_rows`` for n columns: the boolean rows, or the
    one boolean row when ``packed`` is a single packed row."""
    return np.unpackbits(packed.view(np.uint8), axis=-1, count=n, bitorder="little").view(bool)


def _arc_rows(G):
    """Each vertex u of the graph G with the heads v of its arcs u->v,
    ascending, read one packed row at a time: a writer holds one row of
    heads, not a tuple per arc."""
    for u, row in enumerate(G.packed):
        yield u, unpack_rows(row, G.n).nonzero()[0].tolist()


def row_bits(m):
    """Row u of the boolean matrix ``m``, or of the packed rows ``m``, as the
    int whose bit v is ``m[u, v]``; a single row, boolean or packed, as its
    int.  A one-word row is that word's value; any other row takes one
    ``int.from_bytes``."""
    if m.ndim == 1:
        return int.from_bytes((m if m.dtype == np.uint64 else packed_set(m)).tobytes(), "little")
    packed = m if m.dtype == np.uint64 else pack_rows(m)
    if packed.shape[1] == 1:
        return packed[:, 0].tolist()
    data = packed.tobytes()
    width = len(data) // m.shape[0] if m.shape[0] else 0
    if width == 0:
        return [0] * m.shape[0]
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


class _IntRows(dict):
    """``row_bits`` on demand, each row read once: ``rows[k]`` is packed row
    k of ``packed`` as an int, ANDed with the int ``mask``."""

    def __init__(self, packed, mask):
        self.packed, self.mask = packed, mask

    def __missing__(self, k):
        self[k] = row = row_bits(self.packed[k]) & self.mask
        return row


def pack_ints(values, n):
    """The ints ``values`` as packed rows over n columns: the inverse of
    ``row_bits`` for ints below 2^n."""
    width = 8 * ((n + 63) // 64)
    data = b"".join(v.to_bytes(width, "little") for v in values)
    return np.frombuffer(data, "<u8").reshape(-1, width // 8)


def packed_set(mask):
    """The boolean vertex mask ``mask`` as one packed row."""
    return pack_rows(mask[None])[0]


def drop_vertex(row, v):
    """Clear vertex v from the packed row ``row`` in place."""
    row[v >> 6] &= ~_BIT[v & 63]


def counts_in(rows, within=None, ids=None):
    """How many vertices of the packed set ``within`` (of all, when None)
    each of the packed rows ``rows``, or the one packed row, holds: int32,
    signed so ``k - counts`` cannot wrap.  With ``ids`` and a ``within`` it
    counts ``rows[ids]``, gathered and ANDed in blocks of at most ``_CHUNK``
    words.  ``einsum`` sums hundreds of rows up to 2x faster, but costs a
    microsecond more a call below about 128 rows, and no workload gained."""
    if ids is None:
        words = rows if within is None else rows & within
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int32)
    step = max(1, _CHUNK // rows.shape[1])
    counts = np.empty(len(ids), dtype=np.int32)
    for lo in range(0, len(ids), step):
        block = rows[ids[lo:lo + step]]
        block &= within
        counts[lo:lo + step] = counts_in(block)
        del block  # freed before the next gather, so one block is held at a time
    return counts


def _id_array(vertices):
    """``vertices`` as an intp array of ids: an integer array as it is, any
    other iterable of ints (a list, set, range or generator) element by
    element."""
    if isinstance(vertices, np.ndarray) and vertices.dtype.kind in "iu":
        return vertices.astype(np.intp, copy=False)
    return np.fromiter(vertices, dtype=np.intp)


def vertex_mask(n, vertices):
    """Boolean mask over 0..n-1 that is true exactly on ``vertices``."""
    mask = np.zeros(n, dtype=bool)
    mask[_id_array(vertices)] = True
    return mask


def digraph_from_edges(n, edges):
    """The digraph on n vertices with the arcs ``edges``, (u, v) for u->v."""
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {u}->{v}: vertex out of range 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop {u}->{v}")
        adj[u, v] = True
    return Digraph(adj)


def _pair_count(n, lo, hi):
    """How many pair bits rows lo..hi-1 of an n-vertex tournament hold."""
    return (hi * (2 * n - 1 - hi) - lo * (2 * n - 1 - lo)) // 2


def _tournament_from_blocks(n, block_bits):
    """The tournament on n vertices whose row-major pair bits of rows
    lo..hi-1 are ``block_bits(lo, hi)``, called once per block of 64 rows,
    in order.  Row slices put a block's bits in its upper triangle; its
    lower one is the block's column word of rows 0..hi-1, transposed and
    complemented.  No n x n temporary is made."""
    packed = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    for lo in range(0, n, 64):
        hi, word = min(lo + 64, n), lo >> 6
        tile, bits = np.zeros((hi - lo, n - lo), dtype=bool), block_bits(lo, hi)
        for r, row in enumerate(tile):  # row lo + r from column lo on
            start = _pair_count(n, lo, lo + r)
            row[r + 1:] = bits[start:start + n - lo - r - 1]
        packed[lo:hi, word:] = pack_rows(tile)
        lower = ~unpack_rows(packed[:hi, word:word + 1], 64)[:, :hi - lo].T
        lower[:, lo:] = np.tril(lower[:, lo:], -1)
        packed[lo:hi, :word + 1] |= pack_rows(lower)
    return Tournament._derived(*_tournament_rows(packed))


def tournament_from_pair_bits(n, bits):
    """The tournament on n vertices whose pair i < j runs i->j exactly when
    its bit is set, the n(n-1)/2 pairs in row-major order.  Such bits are
    always a tournament, so nothing is validated."""
    bits = np.asarray(bits, dtype=bool)
    if bits.shape != (n * (n - 1) // 2,):
        raise ValueError(f"expected {n * (n - 1) // 2} pair bits, got {bits.size}")
    return _tournament_from_blocks(
        n, lambda lo, hi: bits[_pair_count(n, 0, lo):_pair_count(n, 0, hi)])


def _pair_blocks(T):
    """The pair bits of each block of 64 rows of the tournament T in turn,
    read off ``T.packed``: what ``_tournament_from_blocks`` was given."""
    for lo in range(0, T.n, 64):
        rows = unpack_rows(T.packed[lo:lo + 64, lo >> 6:], T.n - lo)
        yield np.concatenate([row[r + 1:] for r, row in enumerate(rows)])


def pair_bits(T):
    """The row-major pair bits of the tournament T: the inverse of
    ``tournament_from_pair_bits``."""
    return np.concatenate([np.zeros(0, dtype=bool), *_pair_blocks(T)])


def _crossing_graph(T, in_a):
    """The crossing digraph of the split of all of T with side mask ``in_a``:
    T's packed rows, each masked by the packed side its vertex is not on."""
    side = pack_rows(np.stack([in_a, ~in_a]))[in_a.astype(np.intp)]
    return Digraph._derived(T.packed & side, T.rpacked & side)


def is_path(G, vertices):
    """True iff ``vertices`` is a nonempty directed simple path in G."""
    if len(vertices) == 0:
        return False
    if len(set(vertices)) != len(vertices):
        return False
    return all(G.has_edge(u, v) for u, v in zip(vertices, vertices[1:]))


def path_family_fault(G, pairs, paths, avoid=()):
    """"" when ``paths[i]`` is a simple ``pairs[i][0]`` -> ``pairs[i][1]``
    path of G for every i and the interiors are pairwise disjoint and miss
    the set ``avoid``; otherwise the first fault found, in words."""
    if len(paths) != len(pairs):
        return f"{len(paths)} paths for {len(pairs)} pairs"
    owner = {}
    for i, ((x, y), p) in enumerate(zip(pairs, paths)):
        if not is_path(G, p):
            return f"path {i} is not a simple path of the graph"
        if p[0] != x or p[-1] != y:
            return f"path {i} runs {p[0]}->{p[-1]}, not {x}->{y}"
        for v in p[1:-1]:
            if v in avoid:
                return f"path {i} has the avoided vertex {v} inside"
            if (j := owner.setdefault(v, i)) != i:
                return f"paths {j} and {i} share the interior vertex {v}"
    return ""


def is_backwards_transitive(T, path):
    """True iff every long-range pair on the path (positions >= 2 apart) is
    joined by an edge running from the later vertex back to the earlier one."""
    if not is_path(T, path):
        raise ValueError("not a path in the host graph")
    m = len(path)
    for j in range(m):
        for i in range(j + 2, m):
            if not T.has_edge(path[i], path[j]):
                return False
    return True


# ---------------------------------------------------------------------------
# the search layer (shared by the surgery, linkage and partition layers)

def reachable_mask(G, sources, allowed=None):
    """Boolean mask of vertices reachable from ``sources`` in the graph ``G``
    inside ``allowed``; pass ``G.reverse()`` to sweep backwards.

    Each level ORs the frontier's ``packed`` rows and unpacks them; the
    sweep ends once no allowed vertex is left unreached.  ``sources`` is a
    vertex id or an index array; sources outside ``allowed`` are ignored.
    Reachability includes the sources themselves.
    """
    rows = G.packed
    n = rows.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[sources] = True
    left = np.ones(n, dtype=bool) if allowed is None else allowed.copy()
    seen &= left
    left ^= seen  # allowed and not yet reached
    frontier = np.flatnonzero(seen)
    while frontier.size and left.any():
        heads = np.bitwise_or.reduce(rows[frontier], axis=0)
        frontier = np.flatnonzero(unpack_rows(heads, n) & left)
        seen[frontier] = True
        left[frontier] = False
    return seen


def _bits(m):
    """The set bits of the int ``m``, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def bit_reach(out, start, within):
    """Bitset of the vertices reachable from ``start`` along the bitset rows
    ``out`` (from ``row_bits``) through vertices of the bitset ``within``;
    ``start`` itself is always included."""
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= out[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def _open_mask(G, x, y, allowed):
    """The vertices a path search from x to y may use: ``allowed`` (all when
    None) plus both endpoints, as a fresh mask."""
    if x == y:
        raise ValueError("endpoints must differ")
    ok = np.ones(G.n, dtype=bool) if allowed is None else allowed.copy()
    ok[x] = ok[y] = True
    return ok


def _bfs_walk(rows, x, y, ok, layers, want=0, min_length=1, max_length=None):
    """Walk from x to the state (y, ``want``) along BFS parents, or None.

    The states are the vertices of ``ok`` in ``layers`` copies: with one,
    a walk is a shortest path; with two, the state (v, q) is reached by
    walks of length parity q, so a walk can repeat a vertex at opposite
    parities.  Level d is one packed row: the OR of level d - 1's rows,
    ANDed with the states of parity d % layers not yet seen.  On the walk
    back from y, each state takes the lowest-id vertex of the previous level
    with an arc to it.  y is not entered before depth ``min_length``, and no
    walk is longer than ``max_length``.
    """
    n = rows.shape[0]
    free = np.tile(ok, (layers, 1))
    free[0, x] = False
    free = pack_rows(free)
    word, shift = y >> 6, y & 63
    levels, reached = [np.array([x])], False
    while not reached:
        depth = len(levels) - 1
        if max_length is not None and depth >= max_length:
            return None
        q = (depth + 1) % layers
        unseen = free[q]
        level = np.bitwise_or.reduce(rows[levels[-1]], axis=0)
        level &= unseen
        if depth + 1 < min_length:
            level[word] &= ~_BIT[shift]
        unseen ^= level
        ids = unpack_rows(level, n).nonzero()[0]
        if ids.size == 0:
            return None
        levels.append(ids)
        reached = q == want and int(level[word]) >> shift & 1
    walk = [y]
    for level in reversed(levels[:-1]):
        w = walk[-1]
        walk.append(int(level[(rows[level, w >> 6] & _BIT[w & 63]).argmax()]))
    walk.reverse()
    return walk


def bfs_shortest_path(G, x, y, allowed=None, min_length=1, max_length=None):
    """Lexicographically smallest BFS-shortest x->y path in the graph G, or
    None.

    Ties between candidate parents are broken toward the lowest vertex id,
    which keeps every caller deterministic.  ``allowed`` restricts the
    vertices the path may use; x and y are always permitted.  With
    ``min_length=2`` the direct edge x->y is not taken (paths must have
    a nonempty interior).  The search stops at depth ``max_length``: a
    shortest path longer than that is reported as None.
    """
    return _bfs_walk(G.packed, x, y, _open_mask(G, x, y, allowed), 1,
                     min_length=min_length, max_length=max_length)


PARITY_RETRIES = 8


def bfs_parity_path(G, x, y, parity, allowed=None, max_length=None):
    """Short simple x->y path in the graph G whose edge count has the
    requested parity.

    BFS over G's packed rows on the parity-doubled graph with
    deterministic lowest-id parents.  A shortest parity walk can revisit a
    vertex at opposite parities; such vertices are banned and the search
    retried, at most ``PARITY_RETRIES`` times, so a None result does not
    prove absence.  Callers audit what they build from this.
    """
    ok = _open_mask(G, x, y, allowed)
    for _ in range(PARITY_RETRIES):
        walk = _bfs_walk(G.packed, x, y, ok, 2, parity % 2, max_length=max_length)
        if walk is None or len(set(walk)) == len(walk):
            return walk
        ok[min(v for v in walk if walk.count(v) > 1)] = False
    return None
