import importlib
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import bipartite_subdigraph, brute_strong_k
from test_golden import _planted
from tourpart.core import Verdict
from tourpart.generators import random_tournament, transitive_tournament
from tourpart.partition import (
    _pair_flow,
    _screen_score,
    _sweep_split,
    format_partition,
    partition,
    search_partition,
    verify_partition,
)
from tourpart.pipeline import PipelineError, PipelineParams, run_pipeline


def test_verify_rejects_non_partitions(c3):
    with pytest.raises(ValueError):
        verify_partition(c3, [0, 1, 2], [], 1)
    with pytest.raises(ValueError):
        verify_partition(c3, [0, 1], [1, 2], 1)
    with pytest.raises(ValueError):
        verify_partition(c3, [0], [1], 1)


@pytest.mark.parametrize("v1, v2", [([-1, 0, 1, 2, 3, 4], [5, 6, 7, 8, 9, 10]),
                                    ([0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 12])])
def test_verify_rejects_ids_outside_the_graph(v1, v2):
    # -1 used to wrap to vertex 11, and 12 to be dropped for 11: a
    # certificate for a split the caller never gave
    T = random_tournament(12, 1)
    bad = v1[0] if v1[0] < 0 else v2[-1]
    with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
        verify_partition(T, v1, v2, 1)


def test_verify_small_cycle_fails_any_split(c3):
    for v in range(3):
        rest = [u for u in range(3) if u != v]
        assert not verify_partition(c3, [v], rest, 1).verified


def test_verify_agrees_with_brute_force(rand):
    rng = np.random.default_rng(0)
    for seed in range(12):
        T = rand(9, seed)
        v1 = sorted(int(v) for v in rng.choice(9, 4, replace=False))
        v2 = sorted(set(range(9)) - set(v1))
        for k in (1, 2):
            res = verify_partition(T, v1, v2, k)
            t1, _ = T.subtournament(v1)
            t2, _ = T.subtournament(v2)
            cross, _ = bipartite_subdigraph(T, v1, v2)
            want = all(brute_strong_k(g, k) for g in (t1, t2, cross))
            assert res.verified == want


def test_verify_reports_exact_connectivity(rand):
    T = rand(24, 3)
    res = verify_partition(T, range(12), range(12, 24), 1)
    assert res.connectivity_exact
    t1, _ = T.subtournament(range(12))
    from tourpart import vertex_connectivity

    assert res.connectivity[0] == vertex_connectivity(t1)


def test_search_small(rand):
    res = search_partition(rand(30, 2), 1, seed=0)
    assert res is not None and res.verified and res.mode == "search"


def test_search_k2(rand):
    got = 0
    for seed in range(6):
        res = search_partition(rand(40, 100 + seed), 2, seed=seed)
        if res is not None:
            assert res.verified
            got += 1
    assert got >= 5


def test_search_negative_control(monkeypatch):
    # transitive tournaments admit no strongly connected side at all; T is
    # not strong either, so the first rejected split ends the search
    partition_module = importlib.import_module("tourpart.partition")
    screens = []
    monkeypatch.setattr(partition_module, "_screen_score", lambda *args: screens.append(args) or 1)
    for seed in range(3):
        res = search_partition(transitive_tournament(40), 1, seed=seed, budget=120)
        assert res.status == Verdict.INFEASIBLE and res.v1 == res.v2 == []
        assert res.reason.startswith("T is not strongly 1-connected")
    assert screens == []


def test_a_split_below_the_degree_screen_names_no_witness():
    # V1 is vertex 0 and ten of its out-neighbours, so 0 has in-degree 0 in
    # T[V1]: the sweep stops at its degree screen, before any pair
    T = random_tournament(40, 1)
    in_v1 = np.zeros(T.n, dtype=bool)
    in_v1[0] = True
    in_v1[np.flatnonzero(T.adj[0])[:10]] = True
    assert _sweep_split(T, in_v1, 2, 2) == (None, None)


def test_every_rejection_without_a_witness_screens_positive(monkeypatch):
    # the search asserts this on every swept split; T's own certificate is
    # forced to pass here, so that the transitive searches sweep and screen
    # until their budget runs out instead of stopping at the first rejection
    partition_module = importlib.import_module("tourpart.partition")
    sweep_split = partition_module._sweep_split
    bare = []

    def recording(T, in_v1, k, stop):
        res, viol = sweep_split(T, in_v1, k, stop)
        if res is None and viol is None:
            bare.append((T, in_v1.copy(), k))
        return res, viol

    monkeypatch.setattr(partition_module, "_sweep_split", recording)
    monkeypatch.setattr(partition_module, "certify", lambda T, k: SimpleNamespace(status=Verdict.FOUND))
    searches = ([(_planted(40, 2, seed), 2, seed, 60) for seed in range(3)]
                + [(transitive_tournament(24), 1, seed, 40) for seed in range(3)])
    for T, k, seed, budget in searches:
        search_partition(T, k, seed=seed, budget=budget)
        assert bare and bare[-1][0] is T
    assert all(_screen_score(*args) > 0 for args in bare)


def test_a_crossing_arc_settles_its_pair_only_once_it_crosses():
    # x -> y is an arc of T, but while both sit in V1 the crossing digraph
    # lacks it and their crossing flow stays below k; once y moves to V2 the
    # arc joins them in the crossing digraph, and the pair constrains nothing
    T, k = random_tournament(12, 1), 4
    x = 0
    y = int(np.flatnonzero(T.adj[x])[0])
    in_v1 = np.arange(T.n) < T.n // 2
    in_v1[[x, y]] = True
    assert _pair_flow(T, in_v1, 2, (x, y), k) < k
    in_v1[y] = False
    assert _pair_flow(T, in_v1, 2, (x, y), k) == k


def test_search_size_precondition():
    with pytest.raises(ValueError):
        search_partition(transitive_tournament(5), 2, seed=0)
    with pytest.raises(ValueError, match="negative"):
        search_partition(random_tournament(12, 1), 1, seed=0, budget=-5)
    # no split was checked, so T's own certificate decides: it passes here
    res = search_partition(random_tournament(12, 1), 1, seed=0, budget=0)
    assert res.status == Verdict.UNKNOWN and res.reason == "no partition found within budget 0"


def test_partition_entry_modes(rand):
    T = rand(40, 7)
    res = partition(T, 2, mode="search", seed=1)
    assert res is not None and res.verified
    # auto with guaranteed constants falls through to search on desk instances
    res2 = partition(T, 2, mode="auto", seed=1)
    assert res2 is not None and res2.verified and res2.mode == "search"
    with pytest.raises(PipelineError):
        partition(T, 2, mode="pipeline", seed=1)
    with pytest.raises(ValueError):
        partition(T, 0, seed=1)
    with pytest.raises(ValueError):
        partition(T, 1, mode="bogus", seed=1)


def test_auto_mode_falls_back_when_the_pipeline_split_fails(monkeypatch, rand):
    # a pipeline that finishes but hands back a split the verifier rejects
    partition_module = importlib.import_module("tourpart.partition")

    def rejected_split(T, k, params, seed):
        return SimpleNamespace(partition_sets=lambda: ([0], list(range(1, T.n))), audits=[])

    monkeypatch.setattr(partition_module, "run_pipeline", rejected_split)
    T = rand(40, 7)
    assert not partition(T, 2, mode="pipeline", seed=1).verified
    res = partition(T, 2, mode="auto", seed=1)
    assert res is not None and res.verified and res.mode == "search"
    assert res.v1 == search_partition(T, 2, seed=1).v1


def test_a_rejected_pipeline_split_takes_a_proof_of_t(monkeypatch):
    # no real run hands back such a split: at k = 1 a T that is not strong
    # fails the connector stage, and delta0 < 2k fails the feasibility gate
    partition_module = importlib.import_module("tourpart.partition")

    def halves(T, k, params, seed):
        half = T.n // 2
        return SimpleNamespace(partition_sets=lambda: (list(range(half)), list(range(half, T.n))),
                               audits=[])

    monkeypatch.setattr(partition_module, "run_pipeline", halves)
    for T, k, verdict, reason in (
            (transitive_tournament(12), 1, "infeasible", "delta0(T) = 0 < 2"),
            (_planted(40, 1, 3), 2, "infeasible", "T is not strongly 2-connected"),
            (random_tournament(40, 3), 3, "unknown", "the split found failed verification")):
        res = partition(T, k, mode="pipeline", seed=0)
        assert (res.status, res.mode) == (verdict, "pipeline")
        assert res.reason.startswith(reason)


def test_pipeline_mode_end_to_end():
    T = random_tournament(1500, 3)
    params = replace(PipelineParams.relaxed(1), chain_cap=6)
    res = partition(T, 1, mode="pipeline", params=params, seed=0)
    assert res.verified and res.mode == "pipeline"
    assert res.audits and all(a.passed for a in res.audits)
    assert sorted(res.v1 + res.v2) == list(range(1500))


def test_verifying_a_large_split_allocates_no_n_by_n_temporary():
    # the crossing digraph of a 1500-vertex split is T's packed rows masked
    # by the packed opposite side; a bool n x n matrix alone is 2.1 MiB
    T = random_tournament(1500, 5001)
    state = run_pipeline(T, 1, PipelineParams.relaxed(1), seed=1)
    v1, v2 = state.partition_sets()
    tracemalloc.start()
    try:
        assert verify_partition(T, v1, v2, 1).verified
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_finished_pipeline_state_witnesses_partition():
    # the verifier must agree with what a finished run's audits promised
    T = random_tournament(1500, 4)
    params = replace(PipelineParams.relaxed(1), chain_cap=6)
    state = run_pipeline(T, 1, params, seed=0)
    assert all(a.passed for a in state.audits)
    v1, v2 = state.partition_sets()
    res = verify_partition(T, v1, v2, 1)
    assert res.verified
    # the six connector paths really join the chain tips and stay monochrome
    # or alternating per their class
    col = state.coloring
    for i in range(state.total):
        p = state.connectors[i]
        b, a = state.tips(i)
        assert p[0] == b and p[-1] == a


def test_result_serialization(rand):
    res = search_partition(rand(30, 5), 1, seed=3)
    text = format_partition(res)
    lines = text.splitlines()
    assert lines[0].startswith("V1: ") and lines[1].startswith("V2: ")
    assert any(line.startswith("verified: true") for line in lines)
    assert any(line.startswith("connectivity: ") for line in lines)
    assert any(line.startswith("mode: search") for line in lines)
    ids = sorted(int(t) for line in lines[:2] for t in line.split()[1:])
    assert ids == list(range(30))
