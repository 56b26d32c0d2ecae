"""The flow kernel against brute-force cuts and a second flow implementation.

``maximum_flow`` warm-starts from short paths and augments the rest; the
cold start below augments from the empty flow, so every augmenting-path
case (reversed flow arcs, reversed split arcs) is reached too.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

from oracles import bipartite_subdigraph, brute_min_cut, path_exists
from tourpart import connectivity
from tourpart.connectivity import (
    VertexFlow,
    _augmented,
    _flow_paths,
    _short_paths,
    _short_paths_reach,
    maximum_flow,
    vertex_connectivity,
)
from tourpart.core import Digraph
from tourpart.generators import random_tournament

CAPS = (None, 1, 2, 3)


def _cold(net, x, y, cap):
    """Augment from the empty flow state: no arcs, no predecessors, no
    carriers."""
    n = len(net.out)
    return _augmented(net, x, y, cap, [0] * n, [-1] * n, 0)


def _tournaments(count):
    return [random_tournament(5 + s % 4, s).adj for s in range(count)]


def _crossing_digraphs(count):
    graphs = []
    for s in range(count):
        n = 6 + s % 3
        side = np.random.default_rng(s).permutation(n)
        graphs.append(bipartite_subdigraph(random_tournament(n, 100 + s),
                                           side[: n // 2], side[n // 2:])[0].adj)
    return graphs


def _safety_networks(count):
    """Restricted tournaments plus one appended sink fed by a target set,
    the network ``safe_flow`` runs on; the source is vertex 0."""
    nets = []
    for s in range(count):
        rng = np.random.default_rng(s)
        m = 6 + s % 3
        net = np.zeros((m + 1, m + 1), dtype=bool)
        net[:m, :m] = random_tournament(m, 200 + s).adj
        targets = rng.choice(np.arange(1, m), int(rng.integers(2, m)), replace=False)
        net[targets, m] = True
        net[0, m] = False
        nets.append(net)
    return nets


def _pairs(adj):
    n = adj.shape[0]
    return [(x, y) for x, y in itertools.permutations(range(n), 2) if not adj[x, y]]


def _check_pair(adj, x, y, want):
    """Warm and cold runs at every cap against the brute-force cut size."""
    checks = 0
    net = VertexFlow(Digraph(adj))
    for cap in CAPS:
        runs = [maximum_flow(net, x, y, cap), _cold(net, x, y, cap)]
        expect = want if cap is None else min(cap, want)
        for value, flow, cut in runs:
            assert value == expect, (x, y, cap)
            paths = _flow_paths(flow, x, y)
            assert len(paths) == value
            inner = [v for p in paths for v in p[1:-1]]
            assert len(inner) == len(set(inner))
            assert all(adj[a, b] for p in paths for a, b in zip(p, p[1:]))
            if cap is not None and value == cap:
                assert cut is None
            else:
                assert len(cut) == want and x not in cut and y not in cut
                assert not path_exists(adj, x, y, cut)
            checks += 1
        assert runs[0][2] == runs[1][2], "warm and cold starts found different cuts"
    return checks


@pytest.mark.parametrize("family, graphs", [
    ("tournaments", _tournaments(40)),
    ("crossing digraphs", _crossing_digraphs(30)),
])
def test_capped_value_and_cut_match_brute_force(family, graphs):
    checks = 0
    for adj in graphs:
        for x, y in _pairs(adj):
            checks += _check_pair(adj, x, y, len(brute_min_cut(Digraph(adj), x, y)))
    assert checks >= 5000, family


def test_safety_networks_match_brute_force():
    checks = 0
    for net in _safety_networks(300):
        sink = net.shape[0] - 1
        checks += _check_pair(net, 0, sink, len(brute_min_cut(Digraph(net), 0, sink)))
    assert checks >= 2000


def test_warm_start_settles_direct_targets_without_augmenting(monkeypatch):
    def no_search(*args):
        raise AssertionError("the warm start should have reached the cap")

    monkeypatch.setattr(connectivity, "_residual_search", no_search)
    for net in _safety_networks(20):
        sink = net.shape[0] - 1
        direct = np.flatnonzero(net[0] & net[:, sink])
        value, flow, cut = maximum_flow(VertexFlow(Digraph(net)), 0, sink, len(direct))
        assert value == len(direct) and cut is None
        assert sorted(p[1] for p in _flow_paths(flow, 0, sink)) == direct.tolist()


def test_short_path_screen_settles_only_pairs_that_reach_the_cap():
    # a pair the screen settles has a minimum cut of at least the cap, and
    # the screen settles every pair whose warm start reaches the cap; its
    # 4-path round settles more, such as same-side pairs of a crossing
    # digraph, which have no 3-path
    settled = crossing_gain = 0
    cases = [(False, adj, _pairs(adj)) for adj in _tournaments(40)]
    cases += [(True, adj, _pairs(adj)) for adj in _crossing_digraphs(30)]
    cases += [(False, net, [(0, net.shape[0] - 1)]) for net in _safety_networks(100)]
    for crossing, adj, pairs in cases:
        net = VertexFlow(Digraph(adj))
        for x, y in pairs:
            cut = len(brute_min_cut(Digraph(adj), x, y))
            for cap in (1, 2, 3, 4):
                reach = _short_paths_reach(net, x, y, cap)
                warm = _short_paths(net, x, y, cap)[0][x].bit_count() == cap
                assert reach or not warm, (adj.tolist(), x, y, cap)
                assert not reach or cut >= cap, (adj.tolist(), x, y, cap)
                settled += reach
                crossing_gain += crossing and reach and not warm
    assert settled >= 2000 and crossing_gain > 0


def _cut_sizes(adj):
    """The brute-force minimum cut of every ordered pair, inf for an arc."""
    G = Digraph(adj)
    return {(x, y): math.inf if adj[x, y] else len(brute_min_cut(G, x, y))
            for x, y in itertools.permutations(range(adj.shape[0]), 2)}


def test_short_path_screen_counts_spare_witnesses_soundly():
    # a w that no cut below the cap separates from y, nor x from w, lies
    # in every x-y cut below the cap, or x->w->y would survive it; such w
    # count once each, and the short paths are counted around them
    rng = np.random.default_rng(17)
    settled = by_spares = 0
    for adj in _tournaments(40) + _crossing_digraphs(30):
        cuts = _cut_sizes(adj)
        net = VertexFlow(Digraph(adj))
        for x, y in _pairs(adj):
            for cap in (1, 2, 3, 4):
                witnesses = [w for w in range(adj.shape[0]) if w not in (x, y)
                             and cuts[x, w] >= cap and cuts[w, y] >= cap]
                # every witness, then two random halves of them
                for keep in (1, 0.5, 0.5):
                    spare = sum(1 << w for w in witnesses if rng.random() < keep)
                    if _short_paths_reach(net, x, y, cap, spare):
                        assert cuts[x, y] >= cap, (adj.tolist(), x, y, cap, spare)
                        settled += 1
                        by_spares += not _short_paths_reach(net, x, y, cap)
    # most pairs that once needed their spares (308 here before the 4-path
    # round) are now settled by 4-paths alone
    assert settled >= 5000 and by_spares >= 47


def _sparse_digraphs(count):
    graphs = []
    for s in range(count):
        n = 8 + s % 5
        adj = np.random.default_rng(300 + s).random((n, n)) < 0.3
        np.fill_diagonal(adj, False)
        graphs.append(adj)
    return graphs


# recorded with the dense numpy kernel this bitset kernel replaced
FLOW_DIGEST = "ea645d465a7c266f3eb22e6a7837cc7116af5a09a9282f41437683ff358cf7b3"


def test_flows_are_pinned():
    # value, paths and residual cut of every non-arc pair at every cap: the
    # 2-paths, greedy 3-paths and lowest-tail BFS parents fix each of them
    graphs = (_tournaments(40) + [random_tournament(n, n).adj for n in (16, 24, 32)]
              + _crossing_digraphs(30) + _sparse_digraphs(30))
    cases = [(adj, _pairs(adj)) for adj in graphs]
    cases += [(net, [(0, net.shape[0] - 1)]) for net in _safety_networks(100)]
    digest = hashlib.sha256()
    for adj, pairs in cases:
        net = VertexFlow(Digraph(adj))
        for x, y in pairs:
            for cap in (None, 1, 2, 3, 5):
                value, flow, cut = maximum_flow(net, x, y, cap)
                answer = (value, _flow_paths(flow, x, y), None if cut is None else sorted(cut))
                digest.update(repr(answer).encode())
    assert digest.hexdigest() == FLOW_DIGEST


SCREEN_DIGEST = "4f6c987d7406118a49303153d6a7860e285078063d59357125aebc9078ac218b"


def test_screens_are_pinned():
    # the screen's answer on every non-arc pair at caps 1 to 6, with no
    # spare and with every other witness spare (w with cuts x-w and w-y of
    # at least the cap); the sweep digests cover only the sweep's screens,
    # not those of safety networks
    graphs = (_tournaments(40) + [random_tournament(n, n).adj for n in (16, 24, 32)]
              + _crossing_digraphs(30))
    for n in (16, 24, 32):
        side = np.random.default_rng(n).permutation(n)
        graphs.append(bipartite_subdigraph(random_tournament(n, 500 + n),
                                           side[: n // 2], side[n // 2:])[0].adj)
    cases = [(adj, _pairs(adj)) for adj in graphs]
    cases += [(net, [(0, net.shape[0] - 1)]) for net in _safety_networks(100)]
    digest = hashlib.sha256()
    for adj, pairs in cases:
        n = adj.shape[0]
        net = VertexFlow(Digraph(adj))
        cuts = [[math.inf if x == y or adj[x, y] else maximum_flow(net, x, y)[0]
                 for y in range(n)] for x in range(n)]
        for x, y in pairs:
            for cap in range(1, 7):
                witnesses = [w for w in range(n) if w not in (x, y)
                             and cuts[x][w] >= cap and cuts[w][y] >= cap]
                for spare in (0, sum(1 << w for w in witnesses[::2])):
                    digest.update(b"1" if _short_paths_reach(net, x, y, cap, spare) else b"0")
    assert digest.hexdigest() == SCREEN_DIGEST


def _min_local_connectivity(adj):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import (
        build_auxiliary_node_connectivity,
        local_node_connectivity,
    )
    from networkx.algorithms.flow import build_residual_network

    n = adj.shape[0]
    G = nx.DiGraph()
    G.add_nodes_from(range(n))
    G.add_edges_from(zip(*(a.tolist() for a in np.nonzero(adj))))
    aux = build_auxiliary_node_connectivity(G)
    residual = build_residual_network(aux, "capacity")
    return min(local_node_connectivity(G, x, y, auxiliary=aux, residual=residual)
               for x, y in _pairs(adj))


@pytest.mark.parametrize("n", [20, 28, 36, 44])
def test_vertex_connectivity_matches_networkx_on_tournaments(n):
    # nx.node_connectivity is not used: it returns 5 for random_tournament(17, 5),
    # whose connectivity is 4; the per-pair minimum is exact
    T = random_tournament(n, n)
    assert vertex_connectivity(T) == _min_local_connectivity(T.adj)


@pytest.mark.parametrize("n", [20, 40, 60])
def test_vertex_connectivity_matches_networkx_on_crossing_digraphs(n):
    T = random_tournament(n, n + 1)
    side = np.random.default_rng(n).permutation(n)
    D, _ = bipartite_subdigraph(T, side[: n // 2], side[n // 2:])
    assert vertex_connectivity(D) == _min_local_connectivity(D.adj)
