"""Tournaments, digraphs, directed paths and their basic structure queries.

A tournament on n vertices is stored as a dense boolean orientation matrix
``adj`` with ``adj[u, v]`` true iff the edge u->v is present.  Vertices are
the integers 0..n-1 throughout; every named vertex set is a plain Python
set over that id space.  Graphs are immutable after construction so they
can be shared freely between concurrent workers.

Each graph also keeps its transpose ``radj`` as a second row-major matrix,
built once on first use: row v of ``radj`` is the in-neighbourhood of v.
Rows of numpy's strided transpose view are slow to read, so every reader of
in-neighbourhoods (backward BFS sweeps, in-degrees, the mirror halves of
the dominating and safety rules) reads ``radj`` instead.

Both matrices also come packed, 64 vertices per ``uint64`` word, as
``packed`` and ``rpacked``: built once on first use by ``pack_rows``, the
one packer, and swapped by ``reverse`` like the transposes.  The packed rows
are the one bitset input of every hot loop: reachability sweeps OR them,
neighbour counts inside a vertex set are popcounts of rows ANDed with the
packed set (``counts_in`` over ``packed_set``), grant waves AND one row with
a free set, and the flow kernel reads them as Python ints.

A graph may also be built from its packed rows alone, ``adj`` and ``radj``
then being unpacked only if something reads them.  The crossing digraph of
a split of all of T is one: T's packed rows masked by the packed opposite
side, with no n x n bool temporary.

The search layer at the end of this module has one routine per job.  One
BFS body serves both path searches: ``bfs_shortest_path`` runs it with one
state per vertex and ``bfs_parity_path`` with two, (v, depth % 2), and both
break ties toward the lowest-id parent.  ``reachable_mask`` is the one
reachability sweep, over packed rows only: a bool matrix would be read as
words, so it is refused.  The exact searches (Hamiltonian paths, linkages,
the flow kernel) read packed rows as Python-int bitsets from ``row_bits``
and reach with ``bit_reach``.
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


class Digraph:
    """A loopless digraph on vertices 0..n-1 with at most one copy of each arc."""

    def __init__(self, adj):
        adj = np.asarray(adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if adj.shape[0] and adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        self._wrap(adj.copy())

    def _wrap(self, adj, radj=None, packed=None, rpacked=None):
        self._adj = _frozen(adj)
        self._radj = _frozen(radj)
        self._packed = _frozen(packed)
        self._rpacked = _frozen(rpacked)
        self.n = (adj if adj is not None else packed).shape[0]

    @classmethod
    def _derived(cls, adj, radj=None, packed=None, rpacked=None):
        """Wrap ``adj`` read-only without copying or validating it; ``radj``,
        when given, must be its transpose in row-major order, and
        ``packed`` and ``rpacked`` the two as ``pack_rows`` made them.
        ``adj`` may be None when ``packed`` and ``rpacked`` are both given:
        the graph then holds packed rows alone and unpacks its bool
        matrices on first use.

        For fresh matrices cut out of a graph that already passed the
        checks of ``cls``, such as a principal submatrix of a tournament."""
        graph = cls.__new__(cls)
        graph._wrap(adj, radj, packed, rpacked)
        return graph

    @property
    def adj(self):
        """The orientation matrix, read-only and C-contiguous: ``adj[u, v]``
        is the arc u->v.  A graph built from packed rows alone unpacks it on
        first use and keeps it."""
        if self._adj is None:
            self._adj = _frozen(unpack_rows(self._packed, self.n))
        return self._adj

    @property
    def radj(self):
        """The transpose of ``adj``, read-only and C-contiguous, built on
        first use and kept: row v holds the in-neighbourhood of v."""
        if self._radj is None:
            self._radj = _frozen(self._transpose() if self._adj is not None
                                 else unpack_rows(self._rpacked, self.n))
        return self._radj

    @property
    def packed(self):
        """``pack_rows(adj)``, read-only, built on first use and kept."""
        if self._packed is None:
            self._packed = _frozen(pack_rows(self.adj))
        return self._packed

    @property
    def rpacked(self):
        """``pack_rows(radj)``, read-only, built on first use and kept: row v
        holds the in-neighbourhood of v."""
        if self._rpacked is None:
            self._rpacked = _frozen(pack_rows(self.radj))
        return self._rpacked

    def _transpose(self):
        return np.ascontiguousarray(self.adj.T)

    def has_edge(self, u, v):
        return bool(self.adj[u, v])

    def out_degrees(self):
        return np.bitwise_count(self.packed).sum(axis=1, dtype=np.intp)

    def in_degrees(self):
        return np.bitwise_count(self.rpacked).sum(axis=1, dtype=np.intp)

    def out_neighbors(self, v):
        return np.flatnonzero(self.adj[v])

    def reverse(self):
        """The graph with every arc flipped (an involution); nothing is unpacked."""
        radj = self.radj if self._adj is not None else self._radj
        return type(self)._derived(radj, self._adj, self._rpacked, self._packed)

    def edges(self):
        us, vs = np.nonzero(self.adj)
        return list(zip(us.tolist(), vs.tolist()))

    def edge_count(self):
        return int(self.adj.sum())

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, m={self.edge_count()})"


class Tournament(Digraph):
    """A complete oriented graph: exactly one direction per vertex pair."""

    def __init__(self, adj):
        super().__init__(adj)
        n = self.n
        if n > 1:
            both = self.adj ^ self.adj.T
            both[np.diag_indices(n)] = True
            if not both.all():
                raise ValueError("not a tournament: some pair is unoriented or doubly oriented")

    def _transpose(self):
        # a tournament's transpose is its complement off the diagonal, which
        # numpy builds row-major far faster than it copies a strided view
        radj = ~self.adj
        np.fill_diagonal(radj, False)
        return radj

    def out_degree(self, v):
        return int(self.adj[v].sum())

    def in_degree(self, v):
        return int(self.radj[v].sum())

    def subtournament(self, vertices):
        """Restriction to ``vertices``; returns (sub, index_map) with
        ``index_map[new_id] = old_id`` in ascending old-id order."""
        ids = sorted(set(int(v) for v in vertices))
        if not ids:
            raise ValueError("subtournament needs at least one vertex")
        if ids[0] < 0 or ids[-1] >= self.n:
            raise ValueError("vertex id out of range")
        return Tournament._derived(_principal_submatrix(self.radj, ids)), ids


def _principal_submatrix(radj, ids):
    """A row-major copy of ``adj[ids][:, ids]``, cut from the transpose
    ``radj`` of ``adj``.  numpy lays a gather along the second axis out
    column-major, so the submatrix of the transpose, read transposed, is
    already row-major: one copy, not two."""
    return np.ascontiguousarray(radj[ids][:, ids].T)


def _check_ids(G, ids):
    """Raise ValueError unless every id in ``ids`` names a vertex of G."""
    for v in ids:
        if not 0 <= v < G.n:
            raise ValueError(f"vertex {v} out of range 0..{G.n - 1}")


def _frozen(m):
    """``m`` made read-only in place (None passes through)."""
    if m is not None:
        m.setflags(write=False)
    return m


def pack_rows(m):
    """The rows of the boolean matrix ``m`` packed 64 columns per word: a
    C-contiguous ``uint64`` matrix whose word v // 64 of row u holds
    ``m[u, v]`` at bit v % 64.  Bits past the last column are zero."""
    rows, cols = m.shape
    words = np.zeros((rows, (cols + 63) // 64 * 8), dtype=np.uint8)
    words[:, :(cols + 7) // 8] = np.packbits(m, axis=1, bitorder="little")
    return words.view("<u8")


def unpack_rows(packed, n):
    """The inverse of ``pack_rows`` for n columns: the boolean rows, or the
    one boolean row when ``packed`` is a single packed row."""
    return np.unpackbits(packed.view(np.uint8), axis=-1, count=n, bitorder="little").view(bool)


def row_bits(m):
    """Row u of the boolean matrix ``m``, or of the packed rows ``m`` that
    ``pack_rows`` made, as the int whose bit v is ``m[u, v]``: one
    ``int.from_bytes`` per packed row."""
    data = (m if m.dtype == np.uint64 else pack_rows(m)).tobytes()
    width = len(data) // m.shape[0] if m.shape[0] else 0
    if width == 0:
        return [0] * m.shape[0]
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


def packed_set(mask):
    """The boolean vertex mask ``mask`` as one packed row."""
    return pack_rows(mask[None])[0]


def counts_in(rows, within):
    """For each of the packed rows ``rows`` (or for the one packed row), how
    many vertices of the packed set ``within`` it holds, as intp: a bare
    popcount sum is unsigned, and ``k - counts`` would wrap."""
    return np.bitwise_count(rows & within).sum(axis=-1, dtype=np.intp)


def vertex_mask(n, vertices):
    """Boolean mask over 0..n-1 that is true exactly on ``vertices``."""
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(vertices, dtype=np.intp)] = True
    return mask


def tournament_from_edges(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = True
    return Tournament(adj)


def digraph_from_edges(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop {u}->{v}")
        adj[u, v] = True
    return Digraph(adj)


def reverse(T):
    return T.reverse()


def subtournament(T, vertices):
    return T.subtournament(vertices)


def bipartite_subdigraph(T, side_a, side_b):
    """Digraph keeping only the T-edges that cross between ``side_a`` and
    ``side_b``.  Vertices are relabelled to 0..m-1 over sorted(A | B); the
    second return value maps new ids back to T ids.  When A | B covers all
    of T the map is the identity and the digraph holds packed rows alone:
    T's packed rows, each masked by the packed side opposite its vertex."""
    A = set(int(v) for v in side_a)
    B = set(int(v) for v in side_b)
    if not A or not B:
        raise ValueError("both sides must be nonempty")
    if A & B:
        raise ValueError("sides overlap")
    ids = sorted(A | B)
    if ids[0] < 0 or ids[-1] >= T.n:
        raise ValueError("vertex id out of range")
    in_a = vertex_mask(T.n, A)[ids]
    if len(ids) == T.n:
        return _crossing_graph(T, in_a), ids
    sub = _principal_submatrix(T.radj, ids)
    sub &= in_a[:, None] != in_a[None, :]
    return Digraph._derived(sub), ids


def _crossing_graph(T, in_a):
    """The crossing digraph of the split of all of T with side mask ``in_a``:
    T's packed rows, each masked by the packed side its vertex is not on."""
    side = pack_rows(np.stack([in_a, ~in_a]))[in_a.astype(np.intp)]
    return Digraph._derived(None, packed=T.packed & side, rpacked=T.rpacked & side)


def is_path(G, vertices):
    """True iff ``vertices`` is a nonempty directed simple path in G."""
    if len(vertices) == 0:
        return False
    if len(set(vertices)) != len(vertices):
        return False
    return all(G.has_edge(u, v) for u, v in zip(vertices, vertices[1:]))


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


def transitive_order(T, vertices):
    """Source-to-sink order of T[vertices] when transitive, else None.

    A tournament is transitive exactly when its out-degree sequence is a
    permutation of 0..m-1; the order is then unique.
    """
    ids = sorted(set(int(v) for v in vertices))
    if not ids:
        raise ValueError("empty vertex set")
    _check_ids(T, (ids[0], ids[-1]))
    degs = counts_in(T.packed[ids], packed_set(vertex_mask(T.n, ids)))
    m = len(ids)
    if sorted(degs.tolist()) != list(range(m)):
        return None
    order = [ids[i] for i in np.argsort(-degs, kind="stable")]
    return order


# ---------------------------------------------------------------------------
# the search layer (shared by the surgery, linkage and partition layers)

def reachable_mask(rows, sources, allowed=None):
    """Boolean mask of vertices reachable from ``sources`` inside ``allowed``.

    ``rows`` are a graph's packed rows, as ``pack_rows`` made them (its
    ``packed``, or ``rpacked`` to sweep backwards); each level ORs the
    frontier's words and unpacks them.  Any other dtype raises TypeError.
    ``sources`` is a vertex id or an index array; sources outside ``allowed``
    are ignored.  Reachability includes the sources themselves.
    """
    if rows.dtype != np.uint64:
        raise TypeError(f"reachable_mask sweeps packed uint64 rows, not {rows.dtype}")
    n = rows.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[sources] = True
    if allowed is not None:
        seen &= allowed
    frontier = seen.copy()
    while frontier.any():
        nxt = unpack_rows(np.bitwise_or.reduce(rows[frontier], axis=0), n)
        if allowed is not None:
            nxt &= allowed
        nxt &= ~seen
        seen |= nxt
        frontier = nxt
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


def _open_mask(adj, x, y, allowed):
    """The vertices a path search from x to y may use: ``allowed`` (all when
    None) plus both endpoints, as a fresh mask."""
    if x == y:
        raise ValueError("endpoints must differ")
    ok = np.ones(adj.shape[0], dtype=bool) if allowed is None else allowed.copy()
    ok[x] = ok[y] = True
    return ok


def _bfs_walk(adj, x, y, ok, layers, want=0, min_length=1, max_length=None):
    """Walk from x to the state (y, ``want``) along BFS parents, or None.

    The states are the vertices of ``ok`` in ``layers`` copies: with one,
    a walk is a shortest path; with two, the state (v, q) is reached by
    walks of length parity q, so a walk can repeat a vertex at opposite
    parities.  Each new state takes the lowest-id parent on the previous
    level.  y is not entered before depth ``min_length``, and no walk is
    longer than ``max_length``.
    """
    n = adj.shape[0]
    seen = np.zeros((layers, n), dtype=bool)
    parent = np.full((layers, n), -1, dtype=np.intp)
    seen[0, x] = True
    frontier = np.array([x])
    depth = 0
    while not seen[want, y]:
        if max_length is not None and depth >= max_length:
            return None
        q = (depth + 1) % layers
        rows = adj[frontier]
        reach = rows.any(axis=0) & ok & ~seen[q]
        if depth + 1 < min_length:
            reach[y] = False
        new = np.flatnonzero(reach)
        if new.size == 0:
            return None
        # the frontier is id-sorted, so argmax picks the lowest-id parent
        parent[q, new] = frontier[rows[:, new].argmax(axis=0)]
        seen[q, new] = True
        depth += 1
        frontier = new
    walk = [y]
    q = want
    while walk[-1] != x or q:
        walk.append(int(parent[q, walk[-1]]))
        q = (q - 1) % layers
    walk.reverse()
    return walk


def bfs_shortest_path(adj, x, y, allowed=None, min_length=1):
    """Lexicographically smallest BFS-shortest x->y path, or None.

    Ties between candidate parents are broken toward the lowest vertex id,
    which keeps every caller deterministic.  ``allowed`` restricts the
    vertices the path may use; x and y are always permitted.  With
    ``min_length=2`` the direct edge x->y is not taken (paths must have a
    nonempty interior).
    """
    return _bfs_walk(adj, x, y, _open_mask(adj, x, y, allowed), 1, min_length=min_length)


PARITY_RETRIES = 8


def bfs_parity_path(adj, x, y, parity, allowed=None, max_length=None):
    """Short simple x->y path whose edge count has the requested parity.

    BFS on the parity-doubled graph with deterministic lowest-id parents.
    A shortest parity walk can revisit a vertex at opposite parities; such
    vertices are banned and the search retried, at most ``PARITY_RETRIES``
    times, so a None result does not prove absence.  Callers audit what
    they build from this.
    """
    ok = _open_mask(adj, x, y, allowed)
    for _ in range(PARITY_RETRIES):
        walk = _bfs_walk(adj, x, y, ok, 2, parity % 2, max_length=max_length)
        if walk is None or len(set(walk)) == len(walk):
            return walk
        ok[min(v for v in walk if walk.count(v) > 1)] = False
    return None
