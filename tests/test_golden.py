"""Golden digests of the partitions and connectivities the library returns,
and the checks that let certification change without moving them.

The digests were recorded before certification was consolidated into
``connectivity.certify``; a change that moves any returned partition or
reported connectivity changes them.
"""

import hashlib
import importlib
import itertools
import json
from dataclasses import replace

import numpy as np

from oracles import (
    SENSES,
    all_tournaments,
    bipartite_subdigraph,
    brute_strong_k,
    flow_row,
    reach_by_hand,
    target_flows,
)
from tourpart.connectivity import certify, sweep, vertex_connectivity
from tourpart.core import Tournament, Verdict, reachable_mask
from tourpart.domination import in_dominating_structure, out_dominating_structure
from tourpart.generators import random_tournament, transitive_tournament
from tourpart.partition import search_partition, verify_partition
from tourpart.pipeline import (
    PipelineParams,
    PipelineState,
    _audit_bundles,
    _build_bundles,
    _color_bundles,
    _normalize,
    _place_hubs,
    _shortcut_bundles,
    build_dominating_family,
    run_pipeline,
)
from tourpart.safety import ALPHA, BETA, UNCOLORED, Coloring, SafetyContext, safety_scan
from test_pipeline import _bundle_state, _planted_instance, _strict_state

pipeline_module = importlib.import_module("tourpart.pipeline")


SEARCH_DIGEST = "d356b400ca5aa1aa"
PIPELINE_DIGEST = "ad6b9700c68789b2"
SPLIT_DIGEST = "980bc7bc62d361d7"
REPAIR_DIGEST = "26f3927b3f490fb6"
FAMILY_DIGEST = "f0ad5af5eb075d74"
# recorded while the halving pool and the structure check still read bool rows
STRUCTURE_DIGEST = "9795b4eb33da15d0"
BUNDLE_DIGEST = "29d9e4ed9b6753d1"
OTHER_CLASSES_DIGEST = "5c59e80646d1ae5e"
SAFETY_DIGEST = "38dc838f183b05f2"
# recorded while the pipeline and the k = 1 scan still read bool rows
REACH_SAFETY_DIGEST = "4505c49d523c7569"
COLORING_DIGEST = "584ef32f50d3bd6b"


def _digest(results):
    # a search that finds no split counts as None, the shape it had when the
    # digests were recorded
    rows = [None if r.v1 == [] else [r.v1, r.verified, list(r.connectivity),
                                     r.connectivity_exact]
            for r in results]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def test_search_partitions_are_pinned():
    # criterion 9's draws
    results = [search_partition(random_tournament(40, 31415 + i), 2, seed=i)
               for i in range(50)]
    assert _digest(results) == SEARCH_DIGEST


def _planted(n, f, seed):
    """A random tournament with a planted weak spot: every edge between two
    halves X and Y of all but f vertices runs Y -> X, so the f others cut
    each x in X from each y in Y."""
    rng = np.random.default_rng(seed)
    adj = random_tournament(n, seed).adj.copy()
    half = (n - f) // 2
    part = rng.permutation(np.repeat([0, 1, 2], [half, n - f - half, f]))
    X, Y = part == 0, part == 1
    adj[np.ix_(Y, X)] = True
    adj[np.ix_(X, Y)] = False
    return Tournament(adj)


def test_search_repairs_are_pinned(monkeypatch):
    # splits that pass the degree and reachability screens but fail a flow,
    # so the search repairs around witness cuts (and gives up when f < 4);
    # a rejected split sweeps each graph at most once and stops at its
    # witness (1,274 flows; 1,466 before the swept vertices counted toward
    # every cut, and sweeping every graph in full cost 25,615).  A fresh
    # split is swept before it is screened: that took 199 -> 363 sweeps and
    # 4,646 -> 4,645 screens, the one saved on a split that certified at once
    flows = []
    calls = {"sweep": 0, "_screen_score": 0}
    connectivity = importlib.import_module("tourpart.connectivity")
    partition = importlib.import_module("tourpart.partition")
    flow = connectivity.maximum_flow

    def counting(*args):
        flows.append(args[1:3])
        return flow(*args)

    def tallying(fn):
        def wrapped(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(connectivity, "maximum_flow", counting)
    for fn in (partition.sweep, partition._screen_score):
        monkeypatch.setattr(partition, fn.__name__, tallying(fn))
    results = [search_partition(_planted(40, f, seed), 2, seed=seed, budget=150)
               for f in (2, 4, 5) for seed in range(3)]
    assert _digest(results) == REPAIR_DIGEST
    assert len(flows) <= 1400
    assert calls == {"sweep": 363, "_screen_score": 4645}


def _strong_by_hand(adj, ok):
    """Whether the digraph ``adj`` restricted to ``ok`` is strongly connected:
    one vertex of ``ok`` reaches all of it along the arcs and against them."""
    v, want = int(np.flatnonzero(ok)[0]), set(np.flatnonzero(ok).tolist())
    return reach_by_hand(adj, v, ok) == want == reach_by_hand(adj.T, v, ok)


def test_pipeline_verdicts_are_pinned():
    # relaxed runs keep T's own family (the digest moved when they stopped
    # normalizing), so each split is also checked by hand: T[V1], T[V2] and
    # the crossing digraph are strongly connected
    results = []
    for i in range(1, 6):
        T = random_tournament(1500, 5000 + i)
        state = run_pipeline(T, 1, PipelineParams.relaxed(1), seed=i)
        results.append(verify_partition(T, *state.partition_sets(), 1))
        side, adj = state.coloring.labels == ALPHA, T.adj
        cross = adj & (side[:, None] != side[None, :])
        assert _strong_by_hand(adj, side) and _strong_by_hand(adj, ~side)
        assert _strong_by_hand(cross, np.ones(T.n, dtype=bool))
    assert _digest(results) == PIPELINE_DIGEST


def test_dominating_families_are_pinned(monkeypatch):
    # every family a strict run builds on the benchmark's five instances, the
    # reversed one too when the normalization takes the reversal branch;
    # strict params never pass the feasibility gate at this n, so the
    # normalization runs on a strict-flagged state directly
    built = []

    def recording(state):
        build(state)
        built.append(state)

    build = pipeline_module.build_dominating_family
    monkeypatch.setattr(pipeline_module, "build_dominating_family", recording)
    strict = replace(PipelineParams.relaxed(1), strict=True)
    rows = []
    for i in range(1, 6):
        built.clear()
        state = PipelineState(random_tournament(1500, 5000 + i), 1, strict)
        pipeline_module.build_dominating_family(state)
        final = _normalize(state)
        rows.append([[state.flipped, state is final,
                      [[s.mode, s.anchor, list(s.order), s.tip, sorted(s.exceptions),
                        list(s.shrink_trace)]
                       for s in state.out_structs + state.in_structs]]
                     for state in built])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == FAMILY_DIGEST


def _structure_row(s):
    return [s.mode, s.anchor, list(s.order), s.tip, sorted(s.exceptions), list(s.shrink_trace)]


def test_dominating_structures_are_pinned():
    # the family of each of the benchmark's five instances and of its
    # reversal, then single structures of random T[alive] in both modes
    rows = []
    for i in range(1, 6):
        T = random_tournament(1500, 5000 + i)
        for G in (T, T.reverse()):
            state = PipelineState(G, 1, PipelineParams.relaxed(1))
            build_dominating_family(state)
            rows.append([_structure_row(s) for s in state.out_structs + state.in_structs])
    rng = np.random.default_rng(12)
    for j in range(20):
        n = int(rng.integers(60, 401))
        T = random_tournament(n, 7000 + j)
        alive = rng.random(n) < rng.uniform(0.5, 1.0)
        v = int(rng.choice(np.flatnonzero(alive)))
        for build, nbrs in ((out_dominating_structure, T.adj.T), (in_dominating_structure, T.adj)):
            degree = int((nbrs[v] & alive).sum())
            c = min(degree.bit_length(), int(rng.integers(2, 8)))
            rows.append([n, c, _structure_row(build(T, v, c, alive))])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == STRUCTURE_DIGEST


def test_pipeline_makes_no_tournament_copies(monkeypatch):
    # the dominating family reads masks of the host tournament, and the
    # strict normalization's reversal wraps its transpose without
    # re-validating it
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("subtournament", "__init__"):
        monkeypatch.setattr(Tournament, name, counting(name, getattr(Tournament, name)))
    T = random_tournament(1500, 5001)
    calls.clear()
    assert not run_pipeline(T, 1, PipelineParams.relaxed(1)).flipped
    flipped = _normalize(_strict_state(T))
    assert flipped.flipped and flipped.T.packed is T.rpacked  # the reversal branch
    assert calls == []


def _long_connector_digest(runs):
    """Run the bundle stages on planted instances, one (paths, index, color
    of b, color of a) per run; the digest of what each run colored and chose."""
    rows = []
    for paths, index, b_color, a_color in runs:
        T, b, a, _ = _planted_instance(paths, 21, early=550, late=230)
        state = _bundle_state(T, b, a, index, bundle_size=paths)
        state.coloring.assign([b], b_color)
        state.coloring.assign([a], a_color)
        for stage in (_build_bundles, _shortcut_bundles, _audit_bundles, _place_hubs,
                      _color_bundles):
            stage(state)
        rows.append([state.coloring.labels.tolist(),
                     {i: p for i, p in sorted(state.connectors.items())},
                     {i: list(s) for i, s in sorted(state.splices.items())},
                     sorted(state.hub_alpha), sorted(state.hub_beta),
                     sorted(state.hub_alpha_idx), sorted(state.hub_beta_idx),
                     sorted(state.bulk),
                     {i: ps for i, ps in sorted(state.bundles.items())}])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def test_long_connector_runs_are_pinned():
    # the planted instances are the only ones that reach the bundles, hubs
    # and splices: the alternating class (a two-way splice) and the
    # monochromatic class (a three-way splice)
    assert _long_connector_digest([(6, 2, ALPHA, ALPHA), (9, 0, ALPHA, ALPHA)]) == BUNDLE_DIGEST


def test_other_long_connector_classes_are_pinned():
    # ALT_AB and ALT_BA (tips of opposite colors) take a single bundle path
    # of the right parity; MONO_B (both tips beta) colors its splice and
    # scaffold with the colors of MONO_A swapped
    runs = [(6, 4, ALPHA, BETA), (6, 5, BETA, ALPHA), (9, 1, BETA, BETA)]
    assert _long_connector_digest(runs) == OTHER_CLASSES_DIGEST


def test_flow_safety_tables_are_pinned():
    # k >= 2: the scan's count screen, then the sense's flow for each vertex
    # it leaves; random partial colorings with reserved vertices and both
    # exception pools
    rows = []
    for seed in range(24):
        rng = np.random.default_rng(seed)
        n = 12 + seed % 5 * 6
        T = random_tournament(n, 900 + seed)
        col = Coloring(n)
        col.labels = rng.integers(0, 2, n).astype(np.int8)
        col.labels[rng.random(n) < 0.2] = UNCOLORED
        resv, exc_out, exc_in = (frozenset(rng.choice(n, n // d, replace=False).tolist())
                                 for d in (3, 4, 4))
        for k in (2, 3):
            ctx = SafetyContext(T, resv, exc_out, exc_in, col, k)
            colored = np.flatnonzero(col.labels != UNCOLORED)
            flows = target_flows(ctx)
            reports = [dict(zip(SENSES, flow_row(flows, int(v), k))) for v in colored[::3]]
            rows.append([safety_scan(ctx).tolist(), reports])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == SAFETY_DIGEST


def _layered(n, seed):
    """A transitive tournament with every pair at most three apart flipped
    at random, relabelled: reachability inside a sparse vertex set often
    fails, so the safety senses disagree."""
    rng = np.random.default_rng(seed)
    adj = transitive_tournament(n).adj.copy()
    i, j = np.triu_indices(n, 1)
    near = (j - i <= 3) & (rng.random(i.size) < 0.5)
    adj[i[near], j[near]] = False
    adj[j[near], i[near]] = True
    p = rng.permutation(n)
    return Tournament(adj[np.ix_(p, p)])


def test_reach_safety_tables_are_pinned():
    # k = 1: the scan's count screen, then a reach sweep for each sense that
    # leaves a vertex; partial colorings from sparse to nearly full, with
    # reserved vertices and both exception pools, up to the pipeline's n
    h = hashlib.sha256()
    for seed in range(24):
        rng = np.random.default_rng(seed)
        n = (60, 200, 700, 1500)[seed % 4]
        T = random_tournament(n, 1900 + seed) if seed % 3 == 0 else _layered(n, 1900 + seed)
        col = Coloring(n)
        col.labels = rng.integers(0, 2, n).astype(np.int8)
        col.labels[rng.random(n) < (0.9, 0.5, 0.1)[seed % 3]] = UNCOLORED
        resv, exc_out, exc_in = (frozenset(rng.choice(n, n // d, replace=False).tolist())
                                 for d in (3, 4, 4))
        h.update(safety_scan(SafetyContext(T, resv, exc_out, exc_in, col, 1)).tobytes())
    assert h.hexdigest()[:16] == REACH_SAFETY_DIGEST


def test_pipeline_colorings_are_pinned(monkeypatch):
    # the labels at every snapshot of the benchmark's five runs: which vertex
    # each grant colored, and with which color, in the order of the grants
    h = hashlib.sha256()

    def recording(state, name):
        h.update(name.encode())
        h.update(state.coloring.labels.tobytes())
        snapshot(state, name)

    snapshot = PipelineState.snapshot
    monkeypatch.setattr(PipelineState, "snapshot", recording)
    for i in range(1, 6):
        run_pipeline(random_tournament(1500, 5000 + i), 1, PipelineParams.relaxed(1))
    assert h.hexdigest()[:16] == COLORING_DIGEST


def test_random_splits_are_pinned(monkeypatch):
    # mostly failing splits: exact kappa below the threshold, and above it
    # the level sweep stepping down from k
    partition = importlib.import_module("tourpart.partition")
    results = []
    for i in range(12):
        T = random_tournament(30, 700 + i)
        rng = np.random.default_rng(i)
        in_v1 = rng.permutation(30) < 15
        v1, v2 = np.flatnonzero(in_v1), np.flatnonzero(~in_v1)
        for k in (1, 2, 4):
            results.append(verify_partition(T, v1, v2, k))
            with monkeypatch.context() as patch:
                patch.setattr(partition, "EXACT_THRESHOLD", 0)
                results.append(verify_partition(T, v1, v2, k))
    assert _digest(results) == SPLIT_DIGEST


# ---------------------------------------------------------------------------
# certify against the definition


def _funnel(n, seed):
    """A tournament on 7 to 9 vertices whose degrees pass the screens of
    certify but whose n - 6 vertices F cut X from Y: two 3-cycles X and Y,
    all edges X -> F -> Y -> X, then up to two random edge flips and a
    random relabelling."""
    rng = np.random.default_rng(seed)
    adj = random_tournament(n, seed).adj.copy()
    X, Y, F = [0, 1, 2], [3, 4, 5], list(range(6, n))
    for C in (X, Y):
        adj[np.ix_(C, C)] = np.roll(np.eye(3, dtype=bool), 1, axis=1)
    for S, R in ((Y, X), (X, F), (F, Y)):
        adj[np.ix_(S, R)] = True
        adj[np.ix_(R, S)] = False
    for _ in range(int(rng.integers(0, 3))):
        u, v = rng.choice(n, 2, replace=False)
        adj[u, v], adj[v, u] = adj[v, u], adj[u, v]
    p = rng.permutation(n)
    return Tournament(adj[np.ix_(p, p)])


def _small_graphs():
    """Tournaments and crossing digraphs on at most 9 vertices."""
    for n in range(1, 6):
        yield from all_tournaments(n)
    rng = np.random.default_rng(5)
    for n in range(6, 10):
        for seed in range(120):
            T = random_tournament(n, 100 * n + seed) if n == 6 else _funnel(n, seed)
            yield T
            side = rng.permutation(n) < n // 2
            yield bipartite_subdigraph(T, np.flatnonzero(side), np.flatnonzero(~side))[0]


def _failed_value(cert):
    """The flow value of a certificate's failing pair, which is its level;
    None when it names no pair."""
    return None if cert.pair is None else cert.level


def _assert_sweeps_agree(G, k, kappa, cert):
    """The uncapped sweep stops at certify's pair, value and cut, and the
    sweep capped at k reads min(kappa, k)."""
    stopped = sweep(G, None, k)
    assert (stopped.status, stopped.pair, _failed_value(stopped), stopped.cut) == \
        (cert.status, cert.pair, _failed_value(cert), cert.cut), (G.adj.tolist(), k)
    assert sweep(G, k).level == min(kappa, k)


SWEEP_DIGEST = "6c1d6d85a7e98554"


def _sweep_graphs():
    """Random tournaments on 10 to 80 vertices, planted weak spots and the
    crossing digraphs of random splits of both."""
    for n in range(10, 81, 10):
        rng = np.random.default_rng(n)
        for T in (random_tournament(n, n), random_tournament(n, 1000 + n),
                  _planted(n, 1 + n % 4, n)):
            yield T
            side = rng.permutation(n) < n // 2
            yield bipartite_subdigraph(T, np.flatnonzero(side), np.flatnonzero(~side))[0]


def test_sweeps_are_pinned():
    # the level, stopping pair, value and cut of every sweep mode, at levels
    # around kappa where the stopping sweeps fail
    h = hashlib.sha256()
    for G in _sweep_graphs():
        kappa = sweep(G).level
        for k in sorted({1, 2, kappa, kappa + 1}):
            for ceiling, stop in ((None, 0), (k, k), (None, k)):
                c = sweep(G, ceiling, stop)
                answer = (c.status == Verdict.FOUND, c.level, c.pair, _failed_value(c),
                          None if c.cut is None else sorted(c.cut))
                h.update(repr(answer).encode())
    assert h.hexdigest()[:16] == SWEEP_DIGEST


SWEEP_CALLS_DIGEST = "da68f954111cf6a6"


def test_sweep_work_is_pinned(monkeypatch):
    # the ordered screens and flows of the sweeps of test_sweeps_are_pinned:
    # a change to how pairs are filtered may not screen or flow another
    # pair, nor the same pairs in another order
    connectivity = importlib.import_module("tourpart.connectivity")
    calls = []

    def logging(kind, fn):
        def logged(net, x, y, *args):
            calls.append((kind, x, y))
            return fn(net, x, y, *args)
        return logged

    monkeypatch.setattr(connectivity, "_short_paths_reach",
                        logging("screen", connectivity._short_paths_reach))
    monkeypatch.setattr(connectivity, "maximum_flow", logging("flow", connectivity.maximum_flow))
    for G in _sweep_graphs():
        kappa = sweep(G).level
        for k in sorted({1, 2, kappa, kappa + 1}):
            for ceiling, stop in ((None, 0), (k, k), (None, k)):
                sweep(G, ceiling, stop)
    assert hashlib.sha256(repr(calls).encode()).hexdigest()[:16] == SWEEP_CALLS_DIGEST


def test_certify_agrees_with_the_definition_and_its_cuts_separate():
    witnessed = 0
    for G in _small_graphs():
        kappa = vertex_connectivity(G)
        for k in range(5):
            cert = certify(G, k)
            _assert_sweeps_agree(G, k, kappa, cert)
            assert (cert.status == Verdict.FOUND) == brute_strong_k(G, k) == (kappa >= k), (G.adj.tolist(), k)
            if cert.pair is None:
                continue
            x, y = cert.pair
            assert cert.status == Verdict.INFEASIBLE and not G.adj[x, y]
            assert len(cert.cut) == cert.level < k
            assert x not in cert.cut and y not in cert.cut
            allowed = np.ones(G.n, dtype=bool)
            allowed[list(cert.cut)] = False
            assert not reachable_mask(G, x, allowed)[y]
            witnessed += 1
    assert witnessed >= 50


def test_certify_matches_the_uncapped_sweep_on_planted_graphs():
    # weak spots of f vertices, in tournaments and in their split graphs
    failing = 0
    for n, f in itertools.product(range(20, 41, 5), range(1, 5)):
        T = _planted(n, f, n + f)
        in_v1 = np.random.default_rng(f).permutation(n) < n // 2
        v1, v2 = np.flatnonzero(in_v1), np.flatnonzero(~in_v1)
        for G in (T, T.subtournament(v1)[0], T.subtournament(v2)[0],
                  bipartite_subdigraph(T, v1, v2)[0]):
            kappa = vertex_connectivity(G)
            for k in range(1, 6):
                cert = certify(G, k)
                _assert_sweeps_agree(G, k, kappa, cert)
                failing += cert.pair is not None
    assert failing >= 30


def _count_sweeps(monkeypatch):
    """A list of the restricted graphs swept, as (graph, vertex mask),
    through the connectivity and the partition bindings of ``sweep``."""
    seen = []

    def counting(G, ceiling=None, stop=0, within=None):
        seen.append((G, within))
        return sweep(G, ceiling, stop, within)

    for module in ("connectivity", "partition"):
        monkeypatch.setattr(importlib.import_module(f"tourpart.{module}"), "sweep", counting)
    return seen


def test_verify_certifies_each_graph_once(monkeypatch):
    seen = _count_sweeps(monkeypatch)
    T = random_tournament(40, 31415)
    found = search_partition(T, 2, seed=0)
    assert found.verified
    for threshold in (150, 0):  # exact kappa, then one sweep capped at k
        seen.clear()
        monkeypatch.setattr(importlib.import_module("tourpart.partition"), "EXACT_THRESHOLD",
                            threshold)
        res = verify_partition(T, found.v1, found.v2, 2)
        assert res.verified and res.connectivity_exact == (threshold > 0)
        restricted = {(id(G), None if within is None else within.tobytes()) for G, within in seen}
        assert len(seen) == 3 and len(restricted) == 3


def test_search_certifies_a_successful_split_once(monkeypatch):
    # the first split of this draw that passes the screens certifies: one
    # sweep per graph proves it and reports its connectivity
    seen = _count_sweeps(monkeypatch)
    found = search_partition(random_tournament(40, 31415), 2, seed=0)
    assert found.verified
    assert len(seen) == 3
