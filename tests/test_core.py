import hashlib
import random

import numpy as np
import pytest

from oracles import (
    all_tournaments,
    bipartite_subdigraph,
    brute_hamiltonian_path,
    is_hamiltonian_path,
    reach_by_hand,
    transitive_order,
)
from tourpart import core, hamilton
from tourpart.connectivity import certify
from tourpart.core import (
    Digraph,
    Tournament,
    _IntRows,
    _crossing_graph,
    bfs_parity_path,
    bfs_shortest_path,
    counts_in,
    digraph_from_edges,
    drop_vertex,
    is_backwards_transitive,
    is_path,
    pack_ints,
    pack_rows,
    packed_set,
    path_family_fault,
    reachable_mask,
    row_bits,
    vertex_mask,
)
from tourpart.generators import random_tournament, transitive_tournament
from tourpart.hamilton import hamiltonian_path


def test_tournament_validation():
    bad = np.zeros((3, 3), dtype=bool)
    bad[0, 1] = True  # pair {1,2} unoriented
    with pytest.raises(ValueError):
        Tournament(bad)
    bad2 = np.zeros((2, 2), dtype=bool)
    bad2[0, 1] = bad2[1, 0] = True
    with pytest.raises(ValueError):
        Tournament(bad2)
    # an id outside 0..n-1 is named, not wrapped to another vertex or left
    # to an IndexError
    with pytest.raises(ValueError, match="2->-3"):
        digraph_from_edges(3, [(0, 1), (1, 2), (2, -3)])
    with pytest.raises(ValueError, match="0->3"):
        digraph_from_edges(3, [(0, 3)])


def test_degree_sum_is_pair_count(rand):
    for n in (5, 12, 37):
        T = rand(n, n)
        assert int(T.out_degrees().sum()) == n * (n - 1) // 2


def test_reverse_c3(c3):
    r = c3.reverse()
    assert r.has_edge(1, 0) and r.has_edge(2, 1) and r.has_edge(0, 2)
    # an id outside 0..n-1 names no arc: not a padding bit, not a wrapped id
    for u, v in ((0, 3), (3, 0), (-1, 0), (0, -1)):
        with pytest.raises(IndexError, match="outside"):
            r.has_edge(u, v)


def test_reverse_transitive_swaps_source_and_sink():
    T = transitive_tournament(6)
    r = T.reverse()
    assert transitive_order(r, range(6)) == [5, 4, 3, 2, 1, 0]


def test_reverse_is_involution(rand):
    for seed in range(100):
        T = rand(20, seed)
        assert (T.reverse().reverse().adj == T.adj).all()
        assert (T.reverse().out_degrees() == T.in_degrees()).all()


def test_subtournament_examples(c3, paley7):
    sub, ids = c3.subtournament([0, 1])
    assert ids == [0, 1] and sub.has_edge(0, 1)
    sub, ids = c3.subtournament(range(3))
    assert (sub.adj == c3.adj).all()
    sub, ids = paley7.subtournament([1, 2, 4])
    assert sub.n == 3
    for a, u in enumerate(ids):
        for b, v in enumerate(ids):
            if a != b:
                assert sub.has_edge(a, b) == paley7.has_edge(u, v)
    with pytest.raises(ValueError):
        c3.subtournament([])


def test_bipartite_subdigraph_examples(c3, rand):
    D, ids = bipartite_subdigraph(c3, [0], [1, 2])
    assert ids == [0, 1, 2]
    assert set(D.edges()) == {(0, 1), (2, 0)}
    for seed in range(5):
        T = rand(10, seed)
        A, B = set(range(4)), set(range(4, 10))
        D, ids = bipartite_subdigraph(T, A, B)
        assert len(D.edges()) == len(A) * len(B)
        # brute-force edge listing
        expected = {(u, v) for u in range(10) for v in range(10)
                    if T.has_edge(u, v) and ((u in A) != (v in A))}
        assert {(ids[u], ids[v]) for u, v in D.edges()} == expected
    with pytest.raises(ValueError):
        bipartite_subdigraph(c3, [0, 1], [1, 2])
    with pytest.raises(ValueError):
        bipartite_subdigraph(c3, [], [1])


def test_derived_graphs_are_read_only_and_pass_the_checked_constructors(rand):
    # subtournament, reverse and the crossing digraph skip the constructor
    # checks; what they return must still pass them
    rng = np.random.default_rng(11)
    for seed in range(30):
        n = int(rng.integers(2, 40))
        T = rand(n, seed)
        ids = sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist())
        sub, sub_ids = T.subtournament(ids)
        side = rng.permutation(n) < max(1, n // 3)
        cross = _crossing_graph(T, side)
        for G, checked in ((sub, Tournament), (T.reverse(), Tournament), (cross, Digraph)):
            assert type(G) is checked and not G.adj.flags.writeable
            with pytest.raises(ValueError):
                G.adj[0, 0] = True
            assert (checked(G.adj).adj == G.adj).all()
        assert sub_ids == ids and (sub.adj == T.adj[np.ix_(ids, ids)]).all()
        assert (T.reverse().adj == T.adj.T).all()
        crossing = side[:, None] != side[None, :]
        assert (cross.adj == (T.adj & crossing)).all()


def test_every_graph_keeps_its_transpose_row_major(rand):
    T = rand(30, 4)
    D = Digraph(T.adj & (np.arange(30) % 3 == 0)[:, None])
    sub, _ = T.subtournament(range(0, 30, 2))
    cross = _crossing_graph(T, np.arange(30) < 11)
    for G in (T, D, sub, cross, T.reverse(), sub.reverse()):
        # the packed rows and their transpose are the whole graph
        assert set(vars(G)) == {"n", "packed", "rpacked"}
        assert G.adj.flags.c_contiguous and G.rpacked.flags.c_contiguous
        assert not G.adj.flags.writeable and not G.rpacked.flags.writeable
        assert (G.rpacked == pack_rows(G.adj.T)).all()
        assert (G.in_degrees() == G.adj.sum(axis=0)).all()
        assert (G.out_degrees() == G.adj.sum(axis=1)).all()
    # reversal swaps the two packed matrices, so a double reversal shares T's
    R = T.reverse()
    assert R.packed is T.rpacked and R.rpacked is T.packed
    assert R.reverse().packed is T.packed and R.reverse().rpacked is T.rpacked


def test_every_graph_keeps_its_rows_packed(rand):
    T = rand(70, 4)
    sub, _ = T.subtournament(range(0, 70, 2))
    cross = _crossing_graph(T, np.arange(70) % 4 == 1)
    for G in (T, sub, cross, T.reverse()):
        for packed, m in ((G.packed, G.adj), (G.rpacked, G.adj.T)):
            assert packed.dtype == np.uint64 and packed.flags.c_contiguous
            assert not packed.flags.writeable
            assert (packed == pack_rows(m)).all()
        assert G.packed is G.packed and G.rpacked is G.rpacked  # built once
    # reversal swaps the packed rows too
    R = T.reverse()
    assert R.packed is T.rpacked and R.rpacked is T.packed


def test_crossing_graphs_match_the_masked_host(rand):
    # the library's one builder masks T's packed rows; the oracle masks the
    # bool matrix and packs it by the checked constructor
    T = rand(150, 6)
    side = np.random.default_rng(6).random(150) < 0.4
    G = _crossing_graph(T, side)
    want = T.adj & (side[:, None] != side[None, :])
    assert set(vars(G)) == {"n", "packed", "rpacked"}
    for got, m in ((G.packed, want), (G.rpacked, want.T), (G.adj, want)):
        assert got.flags.c_contiguous and not got.flags.writeable
        assert (got == (pack_rows(m) if got.dtype == np.uint64 else m)).all()
    D, ids = bipartite_subdigraph(T, np.flatnonzero(side), np.flatnonzero(~side))
    assert ids == list(range(150)) and (D.packed == G.packed).all()


def test_a_packed_only_graph_is_swept_without_unpacking(rand):
    T = rand(200, 2)
    side = np.arange(200) % 3 == 0
    G = _crossing_graph(T, side)
    assert certify(G, 2).status == certify(Digraph(T.adj & (side[:, None] != side[None, :])), 2).status
    assert set(vars(G)) == {"n", "packed", "rpacked"}


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_degrees_are_the_row_sums(n):
    T = random_tournament(n, n)
    adj = T.adj & (np.arange(n) % 4 != 1)[None, :]
    D = Digraph(adj)
    packed_only = Digraph._derived(pack_rows(adj), pack_rows(adj.T))
    for G, m in ((T, T.adj), (T.reverse(), T.adj.T), (D, adj), (packed_only, adj)):
        for got, want in ((G.out_degrees(), m.sum(axis=1)), (G.in_degrees(), m.sum(axis=0))):
            assert got.dtype == np.int32 and (got == want).all()


@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (40, 40), (2, 70_000)])
def test_counts_in_match_a_plain_sum(shape):
    rng = np.random.default_rng(shape[1])
    m = rng.random(shape) < 0.5
    within = rng.random(shape[1]) < 0.5
    got = counts_in(pack_rows(m), packed_set(within))
    assert got.dtype == np.int32 and (got == (m & within).sum(axis=1)).all()
    # signed: a deficit k - count goes negative instead of wrapping
    assert ((1 - got) == 1 - (m & within).sum(axis=1)).all()
    full = counts_in(pack_rows(m.T), packed_set(np.ones(shape[0], dtype=bool)))
    assert (full == m.sum(axis=0)).all()


def test_vertex_mask_reads_every_kind_of_id_collection_alike():
    # integer arrays index the mask directly; other iterables go element by
    # element; both read a negative id from the end, as numpy indexing does
    ids = [5, 0, 63, 64, 5, 99, -1]
    want = np.zeros(100, dtype=bool)
    want[[0, 5, 63, 64, 99]] = True
    kinds = [list, tuple, set, frozenset, iter, lambda vs: (v for v in vs),
             np.array, lambda vs: np.array(vs, dtype=np.int32)]
    for kind in kinds:
        assert np.array_equal(vertex_mask(100, kind(ids)), want)
    nonneg = [v for v in ids if v >= 0]
    for kind in (lambda vs: np.array(vs, dtype=np.uint16), lambda vs: np.array(vs, dtype=np.uint64)):
        assert np.array_equal(vertex_mask(100, kind(nonneg)), want)
    assert np.array_equal(vertex_mask(100, range(0, 100, 7)), np.arange(100) % 7 == 0)
    for empty in ([], set(), range(0), np.array([], dtype=np.intp), np.array([], dtype=float)):
        assert not vertex_mask(100, empty).any()


@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (8, 8), (9, 9), (64, 64), (65, 65),
                                   (2, 70_000), (2, 2), (5, 40), (5, 63), (3, 128),
                                   (0, 40), (0, 65)])
def test_row_bits_match_the_matrix(shape):
    m = np.random.default_rng(shape[1]).random(shape) < 0.5
    rows = row_bits(m)
    assert len(rows) == shape[0]
    for u, row in enumerate(rows):
        assert row >> shape[1] == 0
        assert [row >> v & 1 == 1 for v in range(shape[1])] == m[u].tolist()
    packed = pack_rows(m)
    assert packed.shape == (shape[0], (shape[1] + 63) // 64)
    assert row_bits(packed) == rows
    # one-word rows are read as words, wider ones by bytes: both are ints
    assert rows == [int.from_bytes(row.tobytes(), "little") for row in packed]
    assert all(type(row) is int for row in rows)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_single_rows_and_gathered_counts_match_the_bool_matrix(monkeypatch, n):
    # a single row, bool or packed, reads as its matrix row's int; ints pack
    # back to the rows; a count over ids, in any blocks, is a bool-matrix sum
    rng = np.random.default_rng(n)
    m = rng.random((n, n)) < 0.5
    within = rng.random(n) < 0.5
    packed, ints = pack_rows(m), row_bits(m)
    assert [row_bits(row) for row in packed] == [row_bits(row) for row in m] == ints
    mask = sum(1 << v for v in np.flatnonzero(within).tolist())
    assert row_bits(within) == row_bits(packed_set(within)) == mask
    assert np.array_equal(pack_ints(ints, n), packed)
    lazy = _IntRows(packed, mask)
    assert [lazy[u] for u in reversed(range(n))] == [row & mask for row in reversed(ints)]
    ids = rng.permutation(n)[:max(1, n // 2)]
    for chunk in (1, 3, 1 << 15):
        monkeypatch.setattr(core, "_CHUNK", chunk)
        got = counts_in(packed, packed_set(within), ids)
        assert got.dtype == np.int32 and got.tolist() == (m & within)[ids].sum(axis=1).tolist()
    assert counts_in(packed).tolist() == m.sum(axis=1).tolist()
    assert counts_in(packed[0], packed_set(within)) == (m[0] & within).sum()
    row = packed_set(within)
    for v in np.flatnonzero(within).tolist():
        drop_vertex(row, v)
        mask ^= 1 << v
        assert row_bits(row) == mask
    assert not row.any()


@pytest.mark.parametrize("call, reason", [
    (lambda: random_tournament(5, 0).subtournament([0, 5]), "vertex id out of range"),
    (lambda: Digraph(np.zeros((2, 3), dtype=bool)), "adjacency matrix must be square"),
    (lambda: Digraph(np.eye(3, dtype=bool)), "self-loops are not allowed"),
    (lambda: digraph_from_edges(3, [(0, 1), (1, 1)]), "self-loop 1->1"),
    (lambda: bfs_shortest_path(random_tournament(5, 0), 2, 2), "endpoints must differ"),
])
def test_core_input_checks_reject_through_their_public_callers(call, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        call()


def test_backwards_transitive(c3):
    assert is_backwards_transitive(c3, [0, 1, 2])  # needs edge 2->0, present
    assert is_backwards_transitive(c3, [0, 1])  # vacuous
    with pytest.raises(ValueError):
        is_backwards_transitive(c3, [0, 2])  # not a path


def test_bfs_shortest_paths_are_backwards_transitive(rand):
    rng = np.random.default_rng(0)
    for trial in range(100):
        T = rand(30, trial)
        x, y = rng.integers(0, 30, 2)
        if x == y:
            continue
        p = bfs_shortest_path(T, int(x), int(y))
        if p is not None:
            assert is_backwards_transitive(T, p)


@pytest.mark.parametrize("sources", [4, np.array([4, 11, 0])])
def test_reachable_mask_matches_a_search_by_hand(sources):
    # vertex 0 lies outside ``allowed``, so as a source it is ignored there
    rng = np.random.default_rng(1)
    adj = rng.random((16, 16)) < 0.12
    np.fill_diagonal(adj, False)
    allowed = rng.random(16) < 0.7
    allowed[[4, 11]], allowed[0] = True, False
    for ok in (np.ones(16, dtype=bool), allowed):
        got = reachable_mask(Digraph(adj), sources, None if ok.all() else ok)
        assert set(np.flatnonzero(got).tolist()) == reach_by_hand(adj, sources, ok)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200, 1500])
def test_packed_reach_matches_the_bool_sweep(n):
    # sparse rows take several levels; word boundaries at 64.  A source set
    # of most of ``allowed`` leaves few vertices to reach on its first level
    rng = np.random.default_rng(n)
    for density in (2.5 / n, 0.5):
        adj = rng.random((n, n)) < density
        np.fill_diagonal(adj, False)
        allowed = rng.random(n) < 0.7
        G = Digraph(adj)
        for ok in (None, allowed):
            ids = np.flatnonzero(np.ones(n, dtype=bool) if ok is None else ok)
            most = rng.permutation(ids)[:max(1, 9 * len(ids) // 10)] if len(ids) else 0
            for sources in (0, n - 1, rng.choice(n, min(n, 3), replace=False), most):
                want = reach_by_hand(adj, sources, np.ones(n, dtype=bool) if ok is None else ok)
                got = reachable_mask(G, sources, ok)
                assert set(np.flatnonzero(got).tolist()) == want


def test_path_family_fault_names_each_fault(t4):
    pairs = [(0, 3), (0, 3)]
    assert path_family_fault(t4, pairs, [[0, 1, 3], [0, 2, 3]]) == ""
    assert path_family_fault(t4, pairs, [[0, 1, 3], [0, 2, 3]], avoid={0, 3}) == ""
    faults = {
        "1 paths for 2 pairs": ([[0, 1, 3]], ()),
        "path 1 is not a simple path": ([[0, 1, 3], [0, 2, 1, 3]], ()),  # 2->1 is no arc
        "path 0 runs 0->2, not 0->3": ([[0, 1, 2], [0, 3]], ()),
        "path 0 is not a simple path": ([[0, 1, 1, 3], [0, 3]], ()),
        "paths 0 and 1 share the interior vertex 1": ([[0, 1, 3], [0, 1, 2, 3]], ()),
        "path 1 has the avoided vertex 2 inside": ([[0, 1, 3], [0, 2, 3]], {2}),
    }
    for reason, (paths, avoid) in faults.items():
        assert path_family_fault(t4, pairs, paths, avoid).startswith(reason)


def test_transitive_order(t4, c3):
    assert transitive_order(t4, range(4)) == [0, 1, 2, 3]
    assert transitive_order(c3, range(3)) is None
    assert transitive_order(t4, [3, 1]) == [1, 3]


@pytest.mark.parametrize("bad", [[-1, 0], [0, 12]])
def test_transitive_order_rejects_ids_outside_the_graph(bad):
    # a negative id would wrap to vertex n-1 and be reported as -1
    with pytest.raises(ValueError, match="out of range"):
        transitive_order(random_tournament(12, 1), bad)


def test_parity_bfs(c3):
    even = bfs_parity_path(c3, 0, 2, 0)
    assert even == [0, 1, 2]
    odd = bfs_parity_path(c3, 0, 1, 1)
    assert odd == [0, 1]


def _search_graphs():
    """Tournaments and sparse digraphs, each with a fixed ``allowed`` mask."""
    graphs = [random_tournament(n, 70 + n).adj for n in (6, 9, 13, 20, 31)]
    for s in range(10):
        n = 8 + 2 * s
        adj = np.random.default_rng(500 + s).random((n, n)) < (0.15 if s % 2 else 0.3)
        np.fill_diagonal(adj, False)
        graphs.append(adj)
    return [(adj, np.random.default_rng(adj.shape[0]).random(adj.shape[0]) < 0.7) for adj in graphs]


# recorded with the two BFS bodies (shortest and parity) the one body replaced
BFS_DIGEST = "40e2bef435d4d49b3635541cd7196311bb84a91f5c46919b68e066c3f969d441"


def test_bfs_paths_are_pinned():
    # the lowest-id parent of every BFS level fixes each path; a search that
    # keeps another parent moves the digest
    digest = hashlib.sha256()
    for adj, mask in _search_graphs():
        n, G = adj.shape[0], Digraph(adj)
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y][::3]
        for allowed in (None, mask):
            for x, y in pairs:
                answer = [bfs_shortest_path(G, x, y, allowed, m) for m in (1, 2)]
                answer += [bfs_parity_path(G, x, y, parity, allowed, max_length=L)
                           for parity in (0, 1) for L in (None, 3, 4)]
                digest.update(repr(answer).encode())
    assert digest.hexdigest() == BFS_DIGEST


# ---------------------------------------------------------------------------
# Hamiltonian search


def test_hamiltonian_transitive(t4):
    res = hamiltonian_path(t4, 0, 3)
    assert res.status == "found" and res.path == [0, 1, 2, 3]
    assert hamiltonian_path(t4, 3, 0).status == "infeasible"


def test_hamiltonian_paley_all_pairs(paley7):
    import itertools

    for x, y in itertools.permutations(range(7), 2):
        res = hamiltonian_path(paley7, x, y)
        assert res.status == "found"
        assert is_path(paley7, res.path) and len(res.path) == 7
        assert res.path[0] == x and res.path[-1] == y


def test_hamiltonian_exact_agrees_with_permutation_search():
    count = 0
    for T in all_tournaments(5):
        count += 1
        if count > 200:
            break
        for x, y in ((0, 4), (2, 1)):
            got = hamiltonian_path(T, x, y)
            want = brute_hamiltonian_path(T, x, y)
            assert (got.status == "found") == (want is not None)
            if got.status == "found":
                assert is_path(T, got.path) and len(got.path) == T.n
    for n in (7, 8):
        for seed in range(20):
            T = random_tournament(n, seed)
            got = hamiltonian_path(T, 0, n - 1)
            want = brute_hamiltonian_path(T, 0, n - 1)
            assert (got.status == "found") == (want is not None)


def test_hamiltonian_heuristic_above_threshold(rand):
    T = rand(40, 7)
    res = hamiltonian_path(T, 3, 11, seed=2)
    assert res.status == "found"
    assert is_path(T, res.path) and len(res.path) == 40


def test_hamiltonian_unreachable_proof_above_threshold():
    T = transitive_tournament(30)
    assert hamiltonian_path(T, 5, 0).status == "infeasible"


def _near_transitive(n, flips, seed):
    """The transitive tournament on n vertices with ``flips`` random arcs
    reversed: few Hamiltonian paths, so the insertions stall."""
    rng = np.random.default_rng(seed)
    adj = transitive_tournament(n).adj.copy()
    for _ in range(flips):
        u, v = rng.choice(n, 2, replace=False)
        adj[u, v], adj[v, u] = adj[v, u], adj[u, v]
    return Tournament(adj)


def _counted_dfs(monkeypatch):
    """Wrap ``hamilton._dfs``; each call appends (its budget, the budget it left)."""
    calls, dfs = [], hamilton._dfs

    def counting(*args):
        got, left = dfs(*args)
        calls.append((args[5], left))
        return got, left

    monkeypatch.setattr(hamilton, "_dfs", counting)
    return calls


def test_hamiltonian_pair_insertion():
    # neither 1 nor 2 fits alone between 0 and 3; the pair 1 -> 2 does
    T = Tournament(digraph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 1), (2, 0), (0, 3)]).adj)
    path = [0, 3]
    assert hamilton._try_insertions(row_bits(T.packed), path, {1, 2}, random.Random(0))
    assert path == [0, 1, 2, 3]


def test_hamiltonian_backtracking_finishes_what_insertions_leave(monkeypatch):
    T = _near_transitive(18, 16, 0)
    calls = _counted_dfs(monkeypatch)
    res = hamiltonian_path(T, 9, 0, budget=2000)
    assert res.status == "found" and is_hamiltonian_path(T.adj, res.path, 9, 0)
    assert len(calls) == 1 and calls[0][1] > 0


def test_hamiltonian_budget_runs_out_in_slices(monkeypatch):
    # no path exists (the exact DP says so), and the backtracking spends the
    # whole budget over its restarts without deciding that
    T = _near_transitive(16, 2, 27)
    assert hamilton._dp_exact(T, 8, 0).status == "infeasible"
    calls = _counted_dfs(monkeypatch)
    res = hamiltonian_path(T, 8, 0, budget=2000)
    assert res.status == "unknown"
    assert len(calls) == hamilton.RESTARTS and calls[-1][1] == 0
    assert sum(budget - left for budget, left in calls) == 2000


def test_hamiltonian_backtracking_root_check(monkeypatch):
    # the reach proofs pass, but the backtracking's pruning test at the
    # root rules a path out, as the exact DP confirms; it runs once, before
    # any restart, where 24 restarts once answered "unknown"
    T = _near_transitive(16, 2, 27)
    assert hamilton._dp_exact(T, 15, 0).status == "infeasible"
    calls = _counted_dfs(monkeypatch)
    assert hamiltonian_path(T, 15, 0, budget=2000).status == "infeasible"
    assert calls == []


def test_hamiltonian_proof_that_a_vertex_cannot_reach_y(monkeypatch):
    # x = 0 reaches everything in a transitive tournament, but only 0..4
    # reach y = 5
    calls = _counted_dfs(monkeypatch)
    assert hamiltonian_path(transitive_tournament(20), 0, 5).status == "infeasible"
    assert calls == []


def test_hamiltonian_rejects_equal_endpoints(t4):
    with pytest.raises(ValueError):
        hamiltonian_path(t4, 1, 1)


@pytest.mark.parametrize("n", [12, 20])
@pytest.mark.parametrize("x, y", [(-1, 0), (0, -1), (0, 25), (25, 0)])
def test_hamiltonian_rejects_ids_outside_the_graph(n, x, y):
    # n=12 runs the exact DP, n=20 the heuristic; neither may answer
    # "infeasible" for a vertex that does not exist
    with pytest.raises(ValueError, match="out of range"):
        hamiltonian_path(random_tournament(n, 1), x, y)
