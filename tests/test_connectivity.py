import dataclasses
import hashlib
import importlib
import itertools
import tracemalloc

import numpy as np
import pytest

from oracles import (
    bipartite_subdigraph,
    brute_fully_disjoint,
    brute_linkage,
    brute_min_cut,
    brute_safe,
    brute_strong_k,
    brute_vertex_connectivity,
    flow_row,
    reach_by_hand,
    safe_flow,
    target_flows,
)
from tourpart import (
    find_disjoint_paths,
    is_k_linked,
    is_strongly_k_connected,
    min_separator,
    vertex_connectivity,
)
from tourpart import connectivity, core
from tourpart.connectivity import Certificate, VertexFlow, sweep
from tourpart.core import Digraph, Tournament, Verdict, _crossing_graph
from tourpart.generators import paley_tournament, random_tournament, transitive_tournament
from tourpart.hamilton import PathSearch
from tourpart.partition import PartitionResult, search_partition
from tourpart.safety import UNCOLORED, Coloring, SafetyContext
from tourpart.surgery import CarveResult, SpanningLinkage, Subdivision
from test_golden import _planted


def test_examples(c3, t4, paley7):
    assert is_strongly_k_connected(c3, 1)
    assert not is_strongly_k_connected(t4, 1)
    assert is_strongly_k_connected(paley7, 3)
    assert not is_strongly_k_connected(paley7, 4)
    assert vertex_connectivity(t4) == 0
    assert vertex_connectivity(c3) == 1
    assert vertex_connectivity(paley7) == 3


def _record_pairs(monkeypatch):
    """The (x, y) of every short-path screen and every flow the sweep
    makes, as ("screen" | "flow", x, y)."""
    calls = []

    def recording(name, fn):
        def wrapped(net, x, y, *args):
            calls.append((name, x, y))
            return fn(net, x, y, *args)
        return wrapped

    monkeypatch.setattr(connectivity, "maximum_flow",
                        recording("flow", connectivity.maximum_flow))
    monkeypatch.setattr(connectivity, "_short_paths_reach",
                        recording("screen", connectivity._short_paths_reach))
    return calls


def test_kappa_sweeps_only_the_first_kappa_vertices(paley7, monkeypatch):
    # Even's bound: once the pairs at the first kappa vertices are swept,
    # kappa is known; Paley-7 has kappa 3, and the short paths of every pair
    # it visits reach 3, so none takes a flow (15 did before the screen)
    calls = _record_pairs(monkeypatch)
    assert vertex_connectivity(paley7) == 3
    assert calls and all({x, y} & {0, 1, 2} for _, x, y in calls)
    assert [c for c in calls if c[0] == "flow"] == []


@pytest.mark.parametrize("n, seed, k", [(80, 2000, 16), (60, 0, 8), (40, 1000, 10)])
def test_yes_instances_certify_without_a_flow(n, seed, k, monkeypatch):
    # the surgery workload's measured hypotheses: short paths settle every
    # pair (154, 6 and 181 flows before the screen)
    calls = _record_pairs(monkeypatch)
    assert is_strongly_k_connected(random_tournament(n, seed), k)
    assert [c for c in calls if c[0] == "flow"] == []


def test_small_size_clause():
    T = transitive_tournament(2)
    assert not is_strongly_k_connected(T, 2)  # |T| > k fails
    assert is_strongly_k_connected(random_tournament(1, 0), 0)


def test_matches_brute_force_on_randoms():
    for seed in range(40):
        n = 5 + seed % 4
        T = random_tournament(n, seed)
        for k in (1, 2, 3):
            assert is_strongly_k_connected(T, k) == brute_strong_k(T, k), (seed, k)
        assert vertex_connectivity(T) == brute_vertex_connectivity(T)


def test_monotone_in_k(rand):
    for seed in range(10):
        T = rand(16, seed)
        kappa = vertex_connectivity(T)
        for k in range(1, kappa + 3):
            assert is_strongly_k_connected(T, k) == (k <= kappa)


def test_works_on_bipartite_digraphs(rand):
    T = rand(12, 3)
    D, _ = bipartite_subdigraph(T, range(6), range(6, 12))
    kappa = vertex_connectivity(D)
    assert is_strongly_k_connected(D, kappa) if kappa else True
    assert not is_strongly_k_connected(D, kappa + 1)
    assert brute_vertex_connectivity(D) == kappa


def _outside_middles(n, seed):
    """A tournament on 2n vertices and the mask of its first n: inside, two
    vertices cut X from Y (every X-Y arc runs Y -> X), and each of the n
    outside vertices is beaten by X and beats Y, so every X-Y pair has n
    2-paths through vertices outside the mask."""
    rng = np.random.default_rng(seed)
    adj = random_tournament(2 * n, seed).adj.copy()
    part = np.concatenate([rng.permutation(np.repeat([0, 1, 2], [n // 2, n - 2 - n // 2, 2])),
                           np.full(n, 3)])
    for a, b in ((1, 0), (0, 3), (3, 1)):
        adj[np.ix_(part == a, part == b)] = True
        adj[np.ix_(part == b, part == a)] = False
    return Tournament(adj), part != 3


def _masked_and_copied(count):
    """(host graph, vertex mask, copy of the restricted graph, its id map):
    random tournaments, half of them with a planted weak spot, under random
    masks, crossing digraphs of random splits read under a mask of the
    vertices on either side, and weak spots with middles outside the mask."""
    rng = np.random.default_rng(15)
    cases = []
    for n in (30, 34, 38):
        T, mask = _outside_middles(n, n)
        cases.append((T, mask, *T.subtournament(np.flatnonzero(mask))))
    for s in range(count):
        n = int(rng.integers(8, 41))
        T = _planted(n, 1 + s % 4, 1500 + s) if s % 2 else random_tournament(n, 1500 + s)
        mask = rng.random(n) < rng.uniform(0.4, 0.95)
        mask[rng.choice(n, 2, replace=False)] = True
        cases.append((T, mask, *T.subtournament(np.flatnonzero(mask))))
        in_a = rng.random(n) < 0.5
        sides = np.flatnonzero(mask & in_a), np.flatnonzero(mask & ~in_a)
        if len(sides[0]) and len(sides[1]):
            cases.append((_crossing_graph(T, in_a), mask, *bipartite_subdigraph(T, *sides)))
    return cases


def test_masked_sweeps_and_flows_match_the_copied_subgraph():
    # the copy path the flow layer used to take is the reference: a masked
    # sweep or flow in host ids is the copy's, mapped through its id map
    failing = flows = 0
    rng = np.random.default_rng(16)
    for G, mask, sub, ids in _masked_and_copied(60):
        kappa = sweep(sub).level
        for k in {1, 2, kappa, kappa + 1}:
            for ceiling, stop in ((None, 0), (k, k), (None, k)):
                want = sweep(sub, ceiling, stop)
                if want.pair is not None:  # a stopping pair always has its cut
                    want = dataclasses.replace(want, pair=tuple(ids[v] for v in want.pair),
                                               cut=frozenset(ids[v] for v in want.cut))
                    failing += 1
                assert sweep(G, ceiling, stop, within=mask) == want, (k, ceiling, stop)
        host, copy = VertexFlow(G, core.packed_set(mask)), VertexFlow(sub)
        pairs = [(x, y) for x, y in itertools.permutations(range(sub.n), 2) if not sub.adj[x, y]]
        for i in rng.permutation(len(pairs))[:12]:
            x, y = pairs[i]
            for cap in (None, 1, 2, 3):
                value, paths, cut = copy.paths_and_cut(x, y, cap)
                want = (value, [[ids[v] for v in p] for p in paths],
                        None if cut is None else frozenset(ids[v] for v in cut))
                assert host.paths_and_cut(ids[x], ids[y], cap) == want
                flows += 1
    assert failing >= 20 and flows >= 5000


@pytest.mark.parametrize("within", [
    np.zeros(9, dtype=bool),        # too short
    np.ones(11, dtype=bool),        # too long
    [True] * 10,                    # not an array
    np.ones(10, dtype=np.intp),     # not bool
    np.ones((10, 1), dtype=bool),   # not one row
])
def test_sweep_rejects_a_bad_vertex_mask(within):
    with pytest.raises(ValueError, match="bool mask of length 10"):
        sweep(random_tournament(10, 1), within=within)


def _differential_cases(count):
    """(graph, vertex mask or None) at n = 8..60: random tournaments and
    planted weak spots, alternately, and the crossing digraph of a random
    split of each, every graph whole and under a random mask."""
    rng = np.random.default_rng(18)
    cases = []
    for s in range(count):
        n = int(rng.integers(8, 61))
        T = _planted(n, 1 + s % 4, 1800 + s) if s % 2 else random_tournament(n, 1800 + s)
        in_a = rng.random(n) < 0.5
        mask = rng.random(n) < rng.uniform(0.4, 0.95)
        for G in (T, _crossing_graph(T, in_a)):
            cases += [(G, None), (G, mask)]
    return cases


def test_screens_change_no_certificate(monkeypatch):
    # with both screens off, every non-arc pair the sweep visits takes a
    # flow; a screen settles only pairs whose flow would reach best, so the
    # flows that lower best, the stopping pair, its value and its cut agree
    runs = []
    for G, mask in _differential_cases(32):
        kappa = sweep(G, within=mask).level
        for k in sorted({1, 2, kappa, kappa + 1}):
            runs += [(G, ceiling, stop, mask) for ceiling, stop in ((None, 0), (k, k), (None, k))]
    screened = [sweep(*run) for run in runs]
    # every sweep takes the numpy batch, whose middle counts are zeroed here
    monkeypatch.setattr(connectivity, "_INT_BITS", 0)
    monkeypatch.setattr(connectivity, "_short_paths_reach", lambda *args: False)
    monkeypatch.setattr(connectivity, "_middle_counts", lambda outs, ins, lo, rests:
                        (np.zeros((len(rests), len(outs) - lo - 1), dtype=np.intp),) * 2)
    assert [sweep(*run) for run in runs] == screened
    assert sum(cert.pair is not None for cert in screened) >= 30


def _count_path_cases():
    """(graph, vertex mask or None): random tournaments and planted weak
    spots at n = 6..64, alternately, each whole and by its two sides of a
    random split, and the crossing digraph of that split; and the two
    sides of one host past one packed word."""
    rng = np.random.default_rng(31)
    cases = []
    for s, n in enumerate((6, 7, 9, 11, 13, 16, 20, 24, 28, 33, 37, 42, 46, 50, 55, 60, 64)):
        T = random_tournament(n, 3100 + s) if s % 2 else _planted(n, 1 + s % 4, 3100 + s)
        in_a = rng.permutation(n) < n // 2
        cases += [(T, None), (T, in_a), (T, ~in_a), (_crossing_graph(T, in_a), None)]
    T, in_a = random_tournament(90, 3190), rng.permutation(90) < 45
    return cases + [(T, in_a), (T, ~in_a)]


def test_int_counts_and_the_numpy_batch_visit_the_same_pairs(monkeypatch):
    # a sweep counts its middles on the handle's ints or in the numpy
    # batch; either way it returns the same certificate after the same
    # ordered screens and flows
    runs = []
    for G, mask in _count_path_cases():
        kappa = sweep(G, within=mask).level
        for k in sorted({1, 2, kappa, kappa + 1}):
            runs += [(G, ceiling, stop, mask) for ceiling, stop in ((None, 0), (k, k), (None, k))]
    calls = _record_pairs(monkeypatch)
    widths = []  # the row width of each batch
    counts = connectivity._middle_counts
    monkeypatch.setattr(connectivity, "_middle_counts",
                        lambda outs, *args: widths.append(outs.shape[1]) or counts(outs, *args))
    answers, batched = {}, {}
    for bits in (0, 10 ** 9):
        monkeypatch.setattr(connectivity, "_INT_BITS", bits)
        calls.clear()
        widths.clear()
        answers[bits] = [sweep(*run) for run in runs], list(calls)
        batched[bits] = sorted(set(widths)), len(widths)
    assert answers[0] == answers[10 ** 9]
    # at a bound of 0 every sweep batches, at a huge one only the host
    # past one word does
    assert batched[0][0] == [1, 2] and batched[10 ** 9][0] == [2]
    assert batched[0][1] > 100
    assert sum(cert.pair is not None for cert in answers[0][0]) >= 20
    assert sum(kind == "flow" for kind, *_ in answers[0][1]) >= 50


def test_the_bench_shapes_keep_their_count_path(monkeypatch):
    # the three sweeps of each of the search bench's nine splits count
    # their middles on ints, and surgery's hypothesis certifies, at
    # 16,000 to 28,800 bits or on two-word rows, take the numpy batch
    batches = []
    counts = connectivity._middle_counts
    monkeypatch.setattr(connectivity, "_middle_counts",
                        lambda *args: batches.append(len(args[0])) or counts(*args))
    for i in range(9):
        assert search_partition(random_tournament(40, 31415 + i), 2, seed=i).verified
    assert batches == []
    for s in range(3):
        for n, seed, k in ((60, s, 8), (40, 1000 + s, 10), (80, 2000 + s, 16)):
            batches.clear()
            assert connectivity.certify(random_tournament(n, seed), k).status == Verdict.FOUND and batches, (n, seed)


def test_no_result_type_has_a_truth_value():
    # a result holds a verdict, and a verdict has no truth value
    results = (Certificate, connectivity.LinkageResult, PathSearch, PartitionResult, CarveResult,
               Subdivision, SpanningLinkage)
    assert not [cls for cls in results if "__bool__" in vars(cls)]


def _one_way_joins(count):
    """Digraphs that are not strong but have minimum semi-degree at least
    2: two tournaments of minimum semi-degree 2 with every arc between them
    (or, in every other graph, a random half of those arcs) running from
    the first to the second, under a random relabelling."""
    rng = np.random.default_rng(19)
    graphs, seed = [], 1900
    while len(graphs) < count:
        blocks = []
        while len(blocks) < 2:
            T = random_tournament(int(rng.integers(5, 8)), seed)
            seed += 1
            if min(T.out_degrees().min(), T.in_degrees().min()) >= 2:
                blocks.append(T.adj)
        a, b = blocks
        n = len(a) + len(b)
        adj = np.zeros((n, n), dtype=bool)
        adj[:len(a), :len(a)], adj[len(a):, len(a):] = a, b
        adj[:len(a), len(a):] = rng.random((len(a), len(b))) < (0.5 if len(graphs) % 2 else 1)
        order = rng.permutation(n)
        graphs.append(adj[np.ix_(order, order)])
    return graphs


def test_strong_check_at_degree_one_only_matches_brute_force():
    # past a degree screen of 2 the rank loop meets a pair with no path in
    # a graph that is not strong, so only a screen of 1 takes the reach
    # check; each graph also runs masked inside a host whose three extra
    # vertices have arcs both ways to every vertex, so the host is strong
    rng = np.random.default_rng(20)
    joins = _one_way_joins(16)
    sparse = []
    for s in range(24):
        n = 8 + s % 5
        adj = np.random.default_rng(2000 + s).random((n, n)) < 0.25 + 0.02 * s
        np.fill_diagonal(adj, False)
        sparse.append(adj)
    named = 0
    for adj in joins + sparse:
        n = len(adj)
        G = Digraph(adj)
        ids = np.sort(rng.choice(n + 3, n, replace=False))
        host = np.ones((n + 3, n + 3), dtype=bool)
        host[np.ix_(ids, ids)] = adj
        np.fill_diagonal(host, False)
        within = np.isin(np.arange(n + 3), ids)
        kappa = brute_vertex_connectivity(G)
        for H, mask, labels in ((G, None, range(n)), (Digraph(host), within, ids.tolist())):
            to_G = {v: i for i, v in enumerate(labels)}
            assert sweep(H, within=mask).level == kappa
            for stop in (0, 1, 2, 3):
                for ceiling in (None, stop):
                    cert = sweep(H, ceiling, stop, mask)
                    assert (cert.status == Verdict.FOUND) == brute_strong_k(G, stop), (adj.tolist(), stop, mask)
                    if cert.pair is None:
                        continue
                    x, y = (to_G[v] for v in cert.pair)
                    assert len(brute_min_cut(G, x, y)) == cert.level == len(cert.cut)
                    named += stop >= 1 and kappa == 0
    # a ceiling of 1 caps the degree screen at 1, where the reach check
    # fails a join with no pair; every other run of a join at stop 1 or 2
    # names one, whole and masked
    assert named >= len(joins) * 3 * 2


def test_level_one_sweeps_match_the_oracles():
    # a cap min(n - 1, ceiling) of 1 at stop <= 1 is decided by the two
    # reach sweeps alone, with no degree screen; at stop 2 the screen gives
    # the level, and past a screen of 2 the sweep's pairs and cuts are
    # minimum ones.  Small tournaments, transitive ones and sparse digraphs
    # with vertices of in- or out-degree 0, and joins that are not strong
    # past a degree screen of 2, whole and masked
    rng = np.random.default_rng(22)
    graphs = _one_way_joins(6)
    for s in range(60):
        n = 1 + s % 8
        if s % 3 == 0:
            adj = random_tournament(n, 2200 + s).adj
        elif s % 3 == 1:
            adj = rng.random((n, n)) < rng.uniform(0.1, 0.5)
            np.fill_diagonal(adj, False)
        else:
            T = transitive_tournament(n) if s % 6 == 2 else random_tournament(n, s)
            adj = T.adj.copy()
            adj[:, int(rng.integers(n))] = False  # a vertex of in-degree 0
        graphs.append(adj)
    seen = {"reach": 0, "screen": 0, "pair": 0, "deg0": 0}
    for adj in graphs:
        n = len(adj)
        G = Digraph(adj)
        for mask in (None, rng.random(n) < 0.75):
            keep = np.arange(n) if mask is None else np.flatnonzero(mask)
            m, sub_adj = len(keep), adj[np.ix_(keep, keep)]
            everyone = np.ones(m, dtype=bool)
            strong = m > 0 and all(len(reach_by_hand(a, 0, everyone)) == m
                                   for a in (sub_adj, sub_adj.T))
            mindeg = int(min(sub_adj.sum(0).min(), sub_adj.sum(1).min())) if m > 1 else 0
            seen["deg0"] += m > 1 and mindeg == 0
            for ceiling in (None, 0, 1, 2):
                cap = max(0, min(m - 1, m if ceiling is None else ceiling))
                screen = min(cap, mindeg)
                for stop in (0, 1, 2):
                    cert = sweep(G, ceiling, stop, mask)
                    if m and (ceiling is None or ceiling >= stop):
                        assert (cert.status == Verdict.FOUND) == brute_strong_k(Digraph(sub_adj), stop)
                    if screen < stop:
                        assert cert == Certificate(Verdict.INFEASIBLE, level=screen)
                        seen["screen"] += screen == 1
                    elif screen <= 1:
                        level = screen if strong else 0
                        found = level >= stop and m > stop
                        assert cert == Certificate(Verdict.FOUND if found else Verdict.INFEASIBLE,
                                                   level=level)
                        seen["reach"] += screen == 1
                    elif cert.status == Verdict.FOUND:
                        kappa = brute_vertex_connectivity(Digraph(sub_adj))
                        assert cert == Certificate(Verdict.FOUND, level=min(cap, kappa))
                    else:
                        x, y = (int(np.searchsorted(keep, v)) for v in cert.pair)
                        cut = brute_min_cut(Digraph(sub_adj), x, y)
                        assert cert.level == len(cert.cut) == len(cut) < stop
                        seen["pair"] += 1
    assert min(seen.values()) >= 10, seen


def test_swept_vertices_settle_most_pairs(monkeypatch):
    # every cut below best holds the vertices already swept: kappa of
    # random_tournament(200, 1) screened 12,879 pairs without them; the
    # 2- and 3-paths settle every pair, so the 4-path round never runs
    calls = _record_pairs(monkeypatch)

    def no_round(*args):
        raise AssertionError("the 2- and 3-paths should have settled the pair")

    monkeypatch.setattr(connectivity, "_four_paths_reach", no_round)
    assert vertex_connectivity(random_tournament(200, 1)) == 81
    assert [c for c in calls if c[0] == "flow"] == []
    assert len(calls) <= 7500


def _hall_cases(count):
    """(graph, vertex mask or None) at n = 8..40: a random tournament whole
    and under a random mask, the crossing digraph of a random split of it,
    and a random digraph with 2-cycles."""
    rng = np.random.default_rng(38)
    cases = []
    for s in range(count):
        n = int(rng.integers(8, 41))
        T = random_tournament(n, 3800 + s)
        adj = rng.random((n, n)) < rng.uniform(0.55, 0.85)
        np.fill_diagonal(adj, False)
        cases += [(T, None), (T, rng.random(n) < 0.75),
                  (_crossing_graph(T, rng.random(n) < 0.5), None), (Digraph(adj), None)]
    return cases


def test_pairs_the_counts_settle_have_their_paths(monkeypatch):
    # every pair at a rank below the final level that no arc joins and that
    # reached neither a screen nor a flow has level - rank internally
    # disjoint paths in G minus the vertices swept before its rank: its
    # middles there, or failing those, by networkx.  The pairs whose
    # middles fall short were settled by a Hall count (module docstring)
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import (
        build_auxiliary_node_connectivity,
        local_node_connectivity,
    )

    calls = _record_pairs(monkeypatch)
    by_hall = 0
    for G, mask in _hall_cases(16):
        calls.clear()
        level = sweep(G, within=mask).level
        visited = {(x, y) for _, x, y in calls}
        order = list(range(G.n)) if mask is None else np.flatnonzero(mask).tolist()
        adj = G.adj
        for rank, u in enumerate(order[:level]):
            rest = order[rank:]  # G minus the swept vertices
            H = nx.DiGraph()
            H.add_nodes_from(rest)
            H.add_edges_from((a, b) for a in rest for b in rest if adj[a, b])
            aux = build_auxiliary_node_connectivity(H)
            for v in order[rank + 1:]:
                for x, y in ((u, v), (v, u)):
                    if adj[x, y] or (x, y) in visited:
                        continue
                    need = level - rank
                    if np.count_nonzero(adj[x, rest] & adj[rest, y]) >= need:
                        continue
                    by_hall += 1
                    assert local_node_connectivity(H, x, y, auxiliary=aux, cutoff=need) >= need, \
                        (G.adj.tolist(), mask, x, y, rank)
    assert by_hall >= 500


def test_middles_are_counted_once_per_chunk_of_ranks(monkeypatch):
    # a small graph takes the middle counts of all its ranks in one batch,
    # not one numpy count per rank; a wider one splits them into chunks of
    # at most one n x W count each, or 2^15 words
    chunks = []
    counts = connectivity._middle_counts

    def recording(outs, ins, lo, rests):
        chunks.append((lo, len(rests), len(outs) - lo - 1, outs.shape[1]))
        return counts(outs, ins, lo, rests)

    monkeypatch.setattr(connectivity, "_middle_counts", recording)
    monkeypatch.setattr(connectivity, "_INT_BITS", 0)  # no sweep counts on ints
    kappa = vertex_connectivity(random_tournament(40, 1))
    assert kappa > 1 and len(chunks) == 1
    assert chunks[0][0] == 0 and chunks[0][1] >= kappa
    chunks.clear()
    assert vertex_connectivity(random_tournament(200, 1)) == 81
    rows = [r for _, r, _, _ in chunks]
    assert len(chunks) > 1 and sum(rows) >= 81
    assert [lo for lo, *_ in chunks] == list(itertools.accumulate([0] + rows[:-1]))
    assert all(r * later * width <= max(200 * width, 2 ** 15) for _, r, later, width in chunks)


def test_a_chunk_of_ranks_adds_at_most_one_count_to_the_peak():
    # half of random_tournament(1500, 3), 24 words a row: with a count per
    # rank the sweep peaked at 1,566,370 bytes under tracemalloc (numpy
    # 2.4); a chunk of ranks may add one n x W count of uint64 words
    T = random_tournament(1500, 3)
    half = np.random.default_rng(0).random(1500) < 0.5
    sweep(T, 2, 2, half)
    tracemalloc.start()
    try:
        assert sweep(T, 2, 2, half).status == Verdict.FOUND
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_566_370 + 1500 * T.packed.shape[1] * 8


def test_the_flow_handle_is_built_only_for_a_pair_past_its_count(monkeypatch):
    # the middle counts settle every pair of the half-masked n = 1500 sweep,
    # whose handle took most of its time when the sweep built it up front
    builds = []
    init = VertexFlow.__init__
    monkeypatch.setattr(VertexFlow, "__init__",
                        lambda self, *args: builds.append(args) or init(self, *args))
    T = random_tournament(1500, 3)
    half = np.random.default_rng(0).random(1500) < 0.5
    assert sweep(T, 2, 2, half).status == Verdict.FOUND and builds == []
    # so do the Hall counts at level 40 of a half-masked n = 400 sweep; at
    # level 50 a sweep that screens a pair builds one handle, on the
    # sweep's packed mask
    T, half = random_tournament(400, 3), half[:400]
    assert sweep(T, 40, 40, half).status == Verdict.FOUND and builds == []
    assert sweep(T, 50, 50, half).status == Verdict.FOUND
    assert len(builds) == 1 and np.array_equal(builds[0][1], core.packed_set(half))


def test_criterion_nine_searches_take_few_flows(monkeypatch):
    # the verifier sweeps of nine criterion-9 searches took 467 flows
    # before the swept vertices counted toward every cut and 184 before the
    # 4-path round settled the same-side pairs of each crossing digraph;
    # the reach sweeps were 108 before the sweep kept them for a degree
    # screen of 1, and 54 while the repair screen ran on every fresh split;
    # each split now certifies at its first three sweeps, so none is screened.
    # The Hall counts leave 220 pairs to the short-path screen (1,282 before)
    counts = {"maximum_flow": 0, "reachable_mask": 0, "sweep": 0, "_screen_score": 0,
              "_short_paths_reach": 0}

    def counting(fn):
        def wrapped(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapped

    partition = importlib.import_module("tourpart.partition")
    for fn, modules in ((connectivity.maximum_flow, (connectivity,)),
                        (connectivity._short_paths_reach, (connectivity,)),
                        (core.reachable_mask, (core, connectivity, partition)),
                        (partition.sweep, (partition,)),
                        (partition._screen_score, (partition,))):
        for module in modules:
            monkeypatch.setattr(module, fn.__name__, counting(fn))
    for i in range(9):
        assert search_partition(random_tournament(40, 31415 + i), 2, seed=i).verified
    assert counts == {"maximum_flow": 0, "reachable_mask": 0, "sweep": 27, "_screen_score": 0,
                      "_short_paths_reach": 220}


def test_min_separator_examples(c3, t4):
    cert = min_separator(c3, 0, 2)
    assert cert.separator == frozenset({1})
    assert cert.paths == [[0, 1, 2]]
    cert = min_separator(t4, 3, 0)
    assert cert.separator == frozenset() and cert.paths == []


def test_min_separator_rejects_adjacent_and_equal(c3):
    with pytest.raises(ValueError):
        min_separator(c3, 0, 1)  # direct edge
    with pytest.raises(ValueError):
        min_separator(c3, 2, 2)


@pytest.mark.parametrize("x, y", [(-12, 3), (3, -1), (12, 3), (3, 99)])
def test_min_separator_rejects_foreign_ids(x, y):
    # a negative id would name the vertex n + id of the network
    with pytest.raises(ValueError, match="out of range"):
        min_separator(random_tournament(12, 1), x, y)


def test_menger_equality_against_exhaustive_cuts(paley7, rand):
    graphs = [paley7] + [rand(7, s) for s in range(10)]
    for T in graphs:
        for x in range(T.n):
            for y in range(T.n):
                if x == y or T.has_edge(x, y):
                    continue
                cert = min_separator(T, x, y)  # Menger equality asserted inside
                want = brute_min_cut(T, x, y)
                assert len(cert.separator) == len(want)


def test_paley_forward_nonedges_need_three(paley7):
    for x in range(7):
        for y in range(7):
            if x != y and not paley7.has_edge(x, y):
                assert len(min_separator(paley7, x, y).separator) >= 3


# ---------------------------------------------------------------------------
# safety flow


def test_safe_flow_membership_short_circuit(c3):
    assert safe_flow(c3, 0, {0, 2}, 5)


def test_safe_flow_k1_is_reachability(t4):
    assert safe_flow(t4, 0, {3}, 1)
    assert not safe_flow(t4, 3, {0}, 1)


def test_deleting_the_whole_target_set_defeats_safety(t4):
    # F may intersect the target set, so one target vertex cannot survive k=2
    assert safe_flow(t4, 0, {3}, 1)
    assert not safe_flow(t4, 0, {3}, 2)


def test_safe_flow_respects_restriction(t4):
    assert safe_flow(t4, 0, {1, 2, 3}, 2)
    assert safe_flow(t4, 0, {1, 2, 3}, 2, restrict=[0, 1, 3])
    assert not safe_flow(t4, 0, {1, 2, 3}, 2, restrict=[0, 1])
    with pytest.raises(ValueError):
        safe_flow(t4, 2, {3}, 1, restrict=[0, 3])


@pytest.mark.parametrize("v, targets, restrict", [
    (-1, [0, 1], None), (12, [0, 1], None),
    (2, [0, -1], None), (2, [0, 12], None),
    (2, [0, 1], [2, 0, 1, -3]), (2, [0, 1], [2, 0, 1, 12]),
])
def test_safe_flow_rejects_foreign_ids(v, targets, restrict):
    with pytest.raises(ValueError, match="out of range"):
        safe_flow(random_tournament(12, 1), v, targets, 2, restrict=restrict)


def test_safe_flow_direction(t4):
    assert safe_flow(t4, 3, {0}, 1, direction="backward")
    assert not safe_flow(t4, 0, {3}, 1, direction="backward")


def _random_context(n, seed):
    rng = np.random.default_rng(seed)
    T = random_tournament(n, seed)
    labels = rng.integers(0, 2, n).astype(np.int8)
    labels[rng.random(n) < 0.2] = UNCOLORED
    reserved = set(int(v) for v in rng.choice(n, 2, replace=False))
    exc_out = {int(rng.integers(0, n))}
    exc_in = {int(rng.integers(0, n))}
    return T, labels, reserved, exc_out, exc_in


def test_safe_flow_agrees_with_deletion_enumeration():
    checked = 0
    for seed in range(25):
        T, labels, reserved, exc_out, exc_in = _random_context(10 + seed % 3, seed)
        col = Coloring(T.n)
        col.labels = labels.copy()
        for k in (1, 2, 3):
            ctx = SafetyContext(T, frozenset(reserved), frozenset(exc_out),
                                frozenset(exc_in), col, k)
            vs = [v for v in range(T.n) if labels[v] != UNCOLORED][:3]
            flows = target_flows(ctx)
            for v in vs:
                for got, tag in zip(flow_row(flows, v, k), ("f", "b", "af", "ab")):
                    want = brute_safe(T, v, labels, reserved, exc_out, exc_in, k, tag)
                    assert got == want, (seed, k, v, tag)
                    checked += 1
    assert checked > 500


# ---------------------------------------------------------------------------
# disjoint path systems


def test_linkage_examples(t4, c3):
    assert find_disjoint_paths(t4, [(0, 3)]).paths == [[0, 3]]
    assert find_disjoint_paths(t4, [(3, 0)]).status == "infeasible"
    assert find_disjoint_paths(c3, [(0, 2)]).paths == [[0, 1, 2]]


def test_linkage_request_validation(t4):
    with pytest.raises(ValueError, match="equal endpoints"):
        find_disjoint_paths(t4, [(0, 0)])
    with pytest.raises(ValueError, match="no pairs"):
        find_disjoint_paths(t4, [])
    for bad in (-1, 4):
        # -1 would wrap to vertex 3, and 4 names no vertex
        with pytest.raises(ValueError, match="out of range"):
            find_disjoint_paths(t4, [(0, bad)])
    T = random_tournament(20, 1)
    for bad in (-1, 25):
        with pytest.raises(ValueError, match="out of range"):
            find_disjoint_paths(T, [(0, 1), (2, bad)])


def _linkage_requests(n):
    """Requests on n >= 7 vertices: distinct terminals, and repeated ones."""
    return [
        [(0, 1), (2, 3)],
        [(1, 0), (3, 2), (4, 5)],
        [(n - 1, 0), (1, n - 2)],
        [(0, 1), (0, 2)],
        [(0, 6), (6, 0)],
    ]


# recorded over these five requests with the search that still took a
# forbidden vertex set, before that option was deleted
LINKAGE_DIGEST = "84d522e0f29e412ed3c0df9b3c1e13025b4922671f8ed742f2ce1cb4601e39a7"


def test_linkages_are_pinned():
    # the DFS tries out-neighbours in ascending id order, so the first
    # linkage found, and the budget it runs out at, fix each answer
    graphs = [random_tournament(n, 90 + n) for n in (7, 8, 9, 10, 12, 14, 16)]
    for s in range(8):
        n = 8 + s
        adj = np.random.default_rng(700 + s).random((n, n)) < 0.35
        np.fill_diagonal(adj, False)
        graphs.append(Digraph(adj))
    digest = hashlib.sha256()
    for G in graphs:
        for pairs in _linkage_requests(G.n):
            for budget in (3, 50, 500_000):
                res = find_disjoint_paths(G, pairs, budget=budget)
                digest.update(repr((str(res.status), res.paths)).encode())
    assert digest.hexdigest() == LINKAGE_DIGEST


def test_linkage_budget_exhaustion_is_distinct(rand):
    T = rand(14, 0)
    pairs = [(0, 1), (2, 3), (4, 5)]
    res = find_disjoint_paths(T, pairs, budget=3)
    assert (res.status, res.paths, res.reason) == ("unknown", None, "search budget exhausted")


def test_linkage_agrees_with_exhaustive_enumeration(rand):
    for seed in range(12):
        T = rand(6, seed)
        for pairs in [[(0, 1), (2, 3)], [(1, 0), (3, 2)], [(0, 5), (1, 4)]]:
            got = find_disjoint_paths(T, pairs)
            want = brute_fully_disjoint(T, pairs)
            assert (got.status == "found") == (want is not None), (seed, pairs)
        got = find_disjoint_paths(T, [(0, 1), (0, 2)])
        want = brute_linkage(T, [(0, 1), (0, 2)])
        assert (got.status == "found") == (want is not None)


def test_identical_pair_bundles_via_flow(paley7):
    res = find_disjoint_paths(paley7, [(0, 3)] * 3)
    assert (res.status, res.reason) == ("found", "")
    inner = [frozenset(p[1:-1]) for p in res.paths]
    assert len(set(map(tuple, res.paths))) == 3
    for a, b in itertools.combinations(inner, 2):
        assert not a & b
    res = find_disjoint_paths(paley7, [(0, 3)] * 5)
    # only 3 internally disjoint routes exist
    assert (res.status, res.reason) == ("infeasible", "no internally disjoint paths for these pairs")


def test_is_k_linked_examples(c3, t4, paley7):
    assert is_k_linked(c3, 2) == Verdict.INFEASIBLE  # |T| >= 2k clause
    assert is_k_linked(c3, 1) == Verdict.FOUND
    assert is_k_linked(t4, 1) == Verdict.INFEASIBLE
    assert is_k_linked(paley7, 1) == Verdict.FOUND


def test_paley11_is_2_linked(monkeypatch):
    # every one of its two-pair tuples links, each linkage checked as it is
    # found; a tuple is asked once, in one order of its two pairs
    calls = []
    check = connectivity._check_linkage
    monkeypatch.setattr(connectivity, "_check_linkage",
                        lambda T, pairs, paths: calls.append(pairs) or check(T, pairs, paths))
    assert is_k_linked(paley_tournament(11), 2) == Verdict.FOUND
    assert len(calls) == 11 * 10 * 9 * 8 // 2 == 3960
    assert all(pairs[0] < pairs[1] for pairs in calls)


def test_a_verdict_has_no_truth_value(c3):
    # every verdict is a non-empty string, so a truth test would hold for
    # infeasible and unknown too; it raises, and comparing still works
    for verdict in Verdict:
        with pytest.raises(TypeError, match="compare it with a member"):
            bool(verdict)
    with pytest.raises(TypeError):
        if is_k_linked(c3, 2):
            pass
    assert is_k_linked(c3, 2) == "infeasible" and f"{Verdict.UNKNOWN}" == "unknown"


def test_linkedness_equivalence_with_repeated_endpoint_requests(rand):
    # linked tournaments satisfy every internally-disjoint request, even with
    # shared endpoints; non-linked ones fail some fully disjoint tuple
    rng = np.random.default_rng(1)
    for seed in range(6):
        T = rand(6, seed)
        if is_k_linked(T, 2) == Verdict.FOUND:
            for _ in range(10):
                xs = rng.integers(0, 6, 4).tolist()
                pairs = [(xs[0], xs[1]), (xs[2], xs[3])]
                if any(x == y for x, y in pairs):
                    continue
                if len(set(pairs)) < 2:
                    continue
                res = find_disjoint_paths(T, pairs)
                assert res.status == "found", (seed, pairs)
        else:
            found_bad = False
            for combo in itertools.permutations(range(6), 4):
                pairs = [(combo[0], combo[1]), (combo[2], combo[3])]
                if brute_fully_disjoint(T, pairs) is None:
                    found_bad = True
                    break
            assert found_bad


def test_high_connectivity_linkedness_one_way(rand):
    # one-way check of the sufficient condition: nothing at desk scale is
    # strongly 452k-connected, so the implication holds vacuously; never
    # assert the converse
    for seed in range(5):
        T = rand(10, seed)
        if vertex_connectivity(T) >= 452:
            assert is_k_linked(T, 1) == Verdict.FOUND
