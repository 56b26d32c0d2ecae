from types import SimpleNamespace

import numpy as np
import pytest

from tourpart import (
    NoPath,
    SubdivisionSpec,
    digraph_from_edges,
    is_strongly_k_connected,
    nonseparating_subdivision,
    remove_nonseparating_path,
    spanning_linkage,
)
from tourpart import surgery
from tourpart.core import Tournament, Verdict, is_backwards_transitive
from tourpart.generators import random_tournament, transitive_tournament
from tourpart.hamilton import PathSearch
from tourpart.surgery import check_spanning_linkage, check_subdivision


def test_shortest_path_examples(c3, t4):
    # the carve's BFS-shortest path, lowest-id tie-breaks
    assert remove_nonseparating_path(c3, 0, 2, keep=(0, 2)).path == [0, 1, 2]
    assert remove_nonseparating_path(t4, 0, 3).path == [0, 3]
    with pytest.raises(NoPath, match=r"no 0->2 path avoiding \[1\]"):
        remove_nonseparating_path(c3, 0, 2, {1})
    with pytest.raises(ValueError, match="endpoints may not be avoided"):
        remove_nonseparating_path(c3, 0, 2, {0})
    with pytest.raises(ValueError, match="endpoints must differ"):
        remove_nonseparating_path(c3, 1, 1)


@pytest.mark.parametrize("x, y, forbidden", [(0, 3, ()), (-1, 2, ()), (0, 2, (3,)),
                                             (0, 2, (-1,))])
def test_shortest_path_rejects_foreign_ids(c3, x, y, forbidden):
    with pytest.raises(ValueError, match="out of range"):
        remove_nonseparating_path(c3, x, y, forbidden)


def test_carve_keep_semantics(t4):
    res = remove_nonseparating_path(t4, 0, 3, keep=(0, 3))
    assert res.path == [0, 3]
    assert res.remainder.n == 4  # direct edge, endpoints kept: nothing removed
    res = remove_nonseparating_path(t4, 0, 3, keep=())
    assert res.remainder.n == 2 and res.index_map == [1, 2]
    with pytest.raises(ValueError):
        remove_nonseparating_path(t4, 0, 3, keep=(1,))


def test_a_removal_that_leaves_no_vertex_is_infeasible(c3):
    # the empty remainder is not strongly k-connected, so the answer is
    # infeasible, not an input error
    res = remove_nonseparating_path(c3, 0, 2, keep=())
    assert res.path == [0, 1, 2] and res.remainder.n == 0 and res.index_map == []
    assert res.status == Verdict.INFEASIBLE and not res.remainder_ok
    H = digraph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
    sub = nonseparating_subdivision(c3, SubdivisionSpec(H, [0, 1, 2]), 1)
    assert sub.remainder.n == 0 and sub.status == Verdict.INFEASIBLE


def test_carve_no_path_is_an_error(c3):
    with pytest.raises(NoPath):
        remove_nonseparating_path(c3, 0, 2, avoid=(1,))


@pytest.mark.parametrize("avoid", [(0,), (1, 3)])
def test_carve_rejects_an_avoided_endpoint(t4, avoid):
    with pytest.raises(ValueError, match="endpoints may not be avoided"):
        remove_nonseparating_path(t4, 0, 3, avoid=avoid)


def test_carve_short_path_guarantee(rand):
    # a path of length <= 2 with endpoints kept removes at most one vertex
    for seed in range(5):
        T = rand(30, seed)
        res = remove_nonseparating_path(T, 0, 1, k=1, keep=(0, 1))
        assert len(res.path) - 1 <= 2
        assert T.n - res.remainder.n <= 1


def test_carve_theorem_backed_trials(rand):
    k, d = 2, 2
    done = 0
    for seed in range(12):
        T = rand(60, seed)
        if not is_strongly_k_connected(T, k + d + 4):
            continue
        res = remove_nonseparating_path(T, 0, 1, avoid=(2, 3), k=k)
        assert res.theorem_backed and res.remainder_ok
        assert is_backwards_transitive(T, res.path)
        done += 1
    assert done >= 8


def test_carve_best_effort_flagging():
    T = transitive_tournament(12)
    res = remove_nonseparating_path(T, 0, 11, k=1, keep=(0, 11))
    assert not res.theorem_backed
    assert not res.remainder_ok  # transitive remainders are never strongly connected


def test_subdivision_single_edge_reduces_to_carve(rand):
    T = rand(60, 3)
    H = digraph_from_edges(2, [(0, 1)])
    spec = SubdivisionSpec(H, [5, 9])
    sub = nonseparating_subdivision(T, spec, 2)
    carve = remove_nonseparating_path(T, 5, 9, avoid=(), k=2, keep=(5, 9))
    assert sub.edge_paths[(0, 1)] == carve.path
    assert sub.remainder_ok


def test_subdivision_triangle(rand):
    H = digraph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
    done = 0
    for seed in range(6):
        T = rand(80, seed)
        if not is_strongly_k_connected(T, 1 + 3 * 5):
            continue
        spec = SubdivisionSpec(H, [10, 20, 30])
        sub = nonseparating_subdivision(T, spec, 1)  # invariant scan runs inside
        assert sub.theorem_backed and sub.remainder_ok
        interiors = [set(p[1:-1]) for p in sub.edge_paths.values()]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not interiors[i] & interiors[j]
        done += 1
    assert done >= 4


def test_subdivision_validation(rand):
    T = rand(20, 0)
    H = digraph_from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        SubdivisionSpec(H, [3, 3]).validate(T.n)
    with pytest.raises(ValueError):
        SubdivisionSpec(H, [3]).validate(T.n)
    with pytest.raises(ValueError):
        SubdivisionSpec(H, [3, 99]).validate(T.n)


def test_subdivision_edge_without_a_path_is_an_error():
    # the pattern arc 0 -> 1 maps backwards onto 5 -> 2: no path in T
    T = transitive_tournament(8)
    spec = SubdivisionSpec(digraph_from_edges(2, [(0, 1)]), [5, 2])
    with pytest.raises(NoPath, match=r"pattern edge 0->1 \(5->2\)"):
        nonseparating_subdivision(T, spec, 1)


def test_spanning_single_pair_transitive(t4):
    res = spanning_linkage(t4, [(0, 3)])
    assert res.status == "found"
    assert res.paths == [[0, 1, 2, 3]]


def test_spanning_single_pair_random_trials(rand):
    found = 0
    for seed in range(10):
        T = rand(20, seed)
        if not is_strongly_k_connected(T, 4):
            continue
        rng = np.random.default_rng(seed)
        x, y = rng.choice(20, 2, replace=False)
        res = spanning_linkage(T, [(int(x), int(y))], seed=seed)
        if res.status == "found":
            check_spanning_linkage(T, [(int(x), int(y))], res.paths)
            found += 1
    assert found >= 8


def test_spanning_two_pairs(rand):
    done = 0
    for seed in range(8):
        T = rand(40, seed)
        if not is_strongly_k_connected(T, 10):
            continue
        pairs = [(0, 1), (2, 3)]
        res = spanning_linkage(T, pairs, seed=seed)
        assert res.status == "found" and res.theorem_backed
        covered = set(v for p in res.paths for v in p)
        assert covered == set(range(40))
        done += 1
    assert done >= 5


def test_spanning_shared_terminals(rand):
    # the same vertex may serve two pairs as an endpoint
    for seed in range(6):
        T = rand(30, seed)
        if not is_strongly_k_connected(T, 10):
            continue
        pairs = [(0, 1), (1, 2)]
        res = spanning_linkage(T, pairs, seed=seed)
        if res.status == "found":
            check_spanning_linkage(T, pairs, res.paths)
            return
    pytest.skip("no qualifying instance in the sample")


def test_family_scans_reject_a_missing_cover_or_a_shared_interior():
    T = transitive_tournament(5)
    pairs = [(0, 4), (1, 4)]
    check_spanning_linkage(T, pairs, [[0, 2, 3, 4], [1, 4]])
    with pytest.raises(AssertionError, match="do not cover"):
        check_spanning_linkage(T, pairs, [[0, 3, 4], [1, 4]])
    with pytest.raises(AssertionError, match="share the interior vertex 2"):
        check_spanning_linkage(T, pairs, [[0, 2, 3, 4], [1, 2, 4]])
    spec = SubdivisionSpec(digraph_from_edges(3, [(0, 1), (0, 2)]), [0, 4, 3])
    check_subdivision(T, spec, SimpleNamespace(edge_paths={(0, 1): [0, 4], (0, 2): [0, 3]}))
    with pytest.raises(AssertionError, match="pattern edges"):
        check_subdivision(T, spec, SimpleNamespace(edge_paths={(0, 1): [0, 4]}))
    with pytest.raises(AssertionError, match="share the interior vertex 1"):
        check_subdivision(T, spec, SimpleNamespace(edge_paths={(0, 1): [0, 1, 4],
                                                               (0, 2): [0, 1, 3]}))


def test_spanning_infeasible_on_transitive():
    # at k = 1 the close runs on all of T, where no path runs 3 -> 0
    T = transitive_tournament(10)
    res = spanning_linkage(T, [(3, 0)])
    assert (res.status, res.paths) == ("infeasible", None)
    assert res.reason == "pair 0: no spanning path exists"


def test_spanning_validation(t4):
    with pytest.raises(ValueError, match="at least one pair required"):
        spanning_linkage(t4, [])
    with pytest.raises(ValueError):
        spanning_linkage(t4, [(0, 0)])
    with pytest.raises(ValueError):
        spanning_linkage(t4, [(0, 1), (0, 1)])
    for pairs in ([(0, 4)], [(-1, 2)], [(0, 1), (2, 9)]):
        with pytest.raises(ValueError, match="out of range"):
            spanning_linkage(t4, pairs)


def _transitive_with_flips(n, flips):
    """The transitive tournament on n vertices (i -> j for i < j) with the
    arc of each pair in ``flips`` reversed."""
    adj = transitive_tournament(n).adj.copy()
    for u, v in flips:
        adj[u, v], adj[v, u] = False, True
    return Tournament(adj)


def test_spanning_carve_without_a_path_in_the_untouched_t_is_infeasible(t4):
    # the first carve runs on all of T, so a missing path is a proof
    res = spanning_linkage(t4, [(0, 1), (3, 2)])
    assert (res.status, res.paths) == ("infeasible", None)
    assert res.reason == "pair 1: no admissible 3->2 path exists"


def test_spanning_carve_dead_end_is_unknown():
    # pair 2's shortest path 4 -> 3 -> 6 takes vertex 3, which every path
    # 5 -> 2 needs (5's other out-neighbour is 6); T itself has 5 -> 3 -> 2
    T = _transitive_with_flips(7, [(3, 5), (2, 3), (3, 4), (4, 6)])
    assert remove_nonseparating_path(T, 5, 2, {0, 1}).path == [5, 3, 2]
    res = spanning_linkage(T, [(0, 1), (5, 2), (4, 6)])
    assert (res.status, res.paths) == ("unknown", None)
    assert res.reason == "pair 1: carve order dead-ended"


def test_spanning_close_after_a_carve_is_unknown(t4):
    # carving 1 -> 2 leaves {0, 3}, where 3 -> 0 has no Hamiltonian path;
    # the close ran on a carved remainder, so its failure proves nothing of T
    res = spanning_linkage(t4, [(3, 0), (1, 2)])
    assert (res.status, res.paths) == ("unknown", None)
    assert res.reason == "pair 0: no Hamiltonian close for this carve order"


def test_spanning_close_whose_search_runs_out_of_branches_is_infeasible():
    # y's one in-neighbour is w, whose one in-neighbour is x, so every x -> y
    # path is x, w, y; T is strong and has more vertices than the exact DP
    # takes, and the backtracking's exact pruning runs out of branches long
    # before its budget, which proves that no spanning path exists
    n, (x, w, y) = 16, (0, 1, 2)
    adj = np.zeros((n, n), dtype=bool)
    adj[3:, 3:] = random_tournament(n - 3, 5).adj
    adj[[x, w, y], [w, y, x]] = True
    adj[[w, y], 3:] = True
    adj[3:, x] = True
    T = Tournament(adj)
    assert is_strongly_k_connected(T, 1)
    res = spanning_linkage(T, [(x, y)])
    assert (res.status, res.paths) == ("infeasible", None)
    assert res.reason == "pair 0: no spanning path exists"


def test_spanning_close_whose_budget_runs_out_is_unknown(monkeypatch):
    # a close that spends its budget without an answer proves nothing
    monkeypatch.setattr(surgery, "hamiltonian_path",
                        lambda *args, **kwargs: PathSearch(Verdict.UNKNOWN))
    res = spanning_linkage(random_tournament(20, 1), [(0, 1)])
    assert (res.status, res.paths) == ("unknown", None)
    assert res.reason == "pair 0: Hamiltonian budget exhausted"
