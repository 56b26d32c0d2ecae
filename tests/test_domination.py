import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from tourpart import (
    core_set,
    greedy_in_dominating_set,
    greedy_out_dominating_set,
    in_dominating_structure,
    out_dominating_structure,
)
from oracles import check_structure, pool_degrees_by_hand, transitive_order
from tourpart import core, domination
from tourpart.core import Tournament, counts_in, digraph_from_edges, pack_rows, packed_set
from tourpart.domination import AnchorDegreeError
from tourpart.generators import random_tournament, transitive_tournament
from tourpart.pipeline import PipelineParams, PipelineState, build_dominating_family


def test_greedy_sets_on_transitive():
    for n in (2, 7, 30):
        T = transitive_tournament(n)
        assert greedy_in_dominating_set(T) == {n - 1}
        assert greedy_out_dominating_set(T) == {0}


def test_greedy_set_on_cycle(c3):
    # no single vertex in-dominates both others (exhaustive singleton check)
    for v in range(3):
        others = [u for u in range(3) if u != v]
        assert not all(c3.has_edge(u, v) for u in others)
    assert len(greedy_in_dominating_set(c3)) == 2


def test_greedy_sets_random_sweep():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(8, 129))
        T = random_tournament(n, trial)
        S = greedy_in_dominating_set(T)
        assert len(S) <= math.ceil(math.log2(n))
        for u in set(range(n)) - S:
            assert any(T.has_edge(u, s) for s in S)
        S2 = greedy_out_dominating_set(T)
        assert len(S2) <= math.ceil(math.log2(n))
        for u in set(range(n)) - S2:
            assert any(T.has_edge(s, u) for s in S2)
        assert greedy_out_dominating_set(T) == greedy_in_dominating_set(T.reverse())


def test_structure_hand_trace_on_transitive(t4):
    s = out_dominating_structure(t4, 3, 2)
    # the pool {0,1,2} already meets the cap, so the chain closes immediately
    assert s.anchor == 3 and s.tip == 0
    assert s.order == (0, 3)
    assert s.exceptions == frozenset({1, 2})
    assert len(s.exceptions) <= t4.in_degrees()[3]


def test_structure_mirror_on_transitive(t4):
    s = in_dominating_structure(t4, 0, 2)
    assert s.anchor == 0 and s.order[0] == 0
    assert len(s.order) == 2 and len(s.exceptions) == 2


def test_structure_chain_is_valid_transitive_order(rand):
    for seed in range(20):
        T = rand(64, seed)
        v = seed % 64
        if T.in_degrees()[v] >= 2 ** 3:
            s = out_dominating_structure(T, v, 4)
            order = transitive_order(T, s.members)
            assert order == list(s.order)
            assert order[-1] == v  # anchor is the sink


def test_structure_invariants_random_sweep():
    rng = np.random.default_rng(7)
    done = 0
    while done < 80:
        n = int(rng.integers(32, 257))
        c = int(rng.integers(2, 8))
        seed = int(rng.integers(0, 10 ** 6))
        T = random_tournament(n, seed)
        v = int(rng.integers(0, n))
        if T.in_degrees()[v] < 2 ** (c - 1):
            continue
        s = out_dominating_structure(T, v, c)  # the structure audit runs inside
        # halving trace is exposed for instrumentation checks
        d = T.in_degrees()[v]
        for i, size in enumerate(s.shrink_trace):
            assert size * 2 ** i <= d
        done += 1


def test_structure_duality(rand):
    T = rand(80, 3)
    for v in (0, 17, 42):
        if T.out_degrees()[v] >= 8:
            a = in_dominating_structure(T, v, 4)
            b = out_dominating_structure(T.reverse(), v, 4)
            assert a.members == b.members and a.exceptions == b.exceptions


def test_structure_waiting_slot_branch():
    # v's in-neighbourhood {0..7} has a dominant source 0, forcing the
    # waiting-slot branch on the first descent
    n = 9
    v = 8
    edges = []
    for u in range(8):
        edges.append((u, v))
    for a in range(8):
        for b in range(a + 1, 8):
            edges.append((a, b))  # transitive inside the pool: 0 beats all
    T = Tournament(digraph_from_edges(n, edges).adj)
    s = out_dominating_structure(T, v, 3)
    check_structure(T, s)
    assert s.tip == 0  # the waiting vertex becomes the chain source


def test_structure_precondition_errors(t4):
    with pytest.raises(AnchorDegreeError, match="in-degree 3 of vertex 3") as err:
        out_dominating_structure(t4, 3, 4)  # needs in-degree >= 8
    assert err.value.degree == t4.in_degrees()[3] == 3
    with pytest.raises(AnchorDegreeError, match="out-degree 0 of vertex 3") as err:
        in_dominating_structure(t4, 3, 2)  # the sink has no out-neighbour
    assert err.value.degree == 0
    with pytest.raises(ValueError):
        out_dominating_structure(t4, 3, 1)


@pytest.mark.parametrize("build", [out_dominating_structure, in_dominating_structure])
@pytest.mark.parametrize("v", [-1, 40])
def test_structure_rejects_ids_outside_the_graph_before_any_work(monkeypatch, build, v):
    # -1 once ran the whole construction on vertex 39; 40 raised IndexError
    calls = []
    monkeypatch.setattr(domination, "_check_structure", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=f"vertex {v} out of range"):
        build(random_tournament(40, 1), v, 3)
    assert calls == []


@pytest.mark.parametrize("mode", ["out", "in"])
def test_check_structure_misses_no_undominated_vertex(mode):
    # every exception lies outside the cover's reach; dropping any one of
    # them, at any bit position of the packed rows, must fail the check
    T = random_tournament(300, 8)
    build = out_dominating_structure if mode == "out" else in_dominating_structure
    s = build(T, 5, 2)
    rows = T.adj if mode == "out" else T.adj.T
    assert len(s.exceptions) > 64
    for e in sorted(s.exceptions):
        assert not rows[sorted(s.cover), e].any()
        with pytest.raises(AssertionError, match="domination fails"):
            check_structure(T, dataclasses.replace(s, exceptions=s.exceptions - {e}))


@pytest.mark.parametrize("width", [1, 2, 24, 70])
def test_pool_degrees_match_a_plain_count(monkeypatch, width):
    # a step's pool degrees are core's row count over the pool's own ids:
    # blocks of one row, of three rows and of the whole pool count as one
    rng = np.random.default_rng(width)
    n = 64 * width - int(rng.integers(0, min(40, 64 * width - 2)))
    adj = rng.random((n, n)) < 0.5
    pool = rng.random(n) < min(0.9, 150 / n)
    ids = np.flatnonzero(pool)
    adj[ids[0]] = True  # a row holding the whole pool, and one holding none of it
    adj[ids[-1]] = False
    want = pool_degrees_by_hand(adj, pool)
    assert want[0] == len(ids) and want[-1] == 0
    for chunk in (1, width, 3 * width + 1, 1 << 15):
        monkeypatch.setattr(core, "_CHUNK", chunk)
        got = counts_in(pack_rows(adj), packed_set(pool), ids)
        assert got.dtype == np.int32 and got.tolist() == want


def test_pool_degrees_are_exact_past_two_bytes():
    # the widest row the pipeline gate admits at k = 3 (n = 70,920) holds more
    # bits than an int16 or a uint16 counts
    full = np.full((1, 1109), ~np.uint64(0))
    assert counts_in(full, full[0], np.zeros(1, dtype=np.intp)).tolist() == [70_976]


def _family(n, seed):
    state = PipelineState(random_tournament(n, seed), 1, PipelineParams.relaxed(1))
    build_dominating_family(state)
    return [(s.order, s.tip, s.exceptions, s.shrink_trace)
            for s in state.out_structs + state.in_structs]


def test_a_multi_chunk_family_matches_the_plain_kernel(monkeypatch):
    # at n = 3000 (47 words a row) each first step counts in two or three blocks
    family = _family(3000, 5001)
    assert all(trace[0] * 47 > core._CHUNK for *_, trace in family)
    monkeypatch.setattr(core, "_CHUNK", 1 << 62)  # every count in one block
    assert _family(3000, 5001) == family


def test_a_first_step_adds_at_most_one_block_to_the_peak():
    # the plain kernel's gather and AND took two |pool| x W word arrays,
    # 2 x 2,000 x 63 x 8 bytes for this first step; a block adds at most
    # _CHUNK words, their byte popcounts and numpy's cast buffer for the
    # int32 sum beside the degrees (numpy 2.4: 339,004 bytes in all)
    T = random_tournament(4000, 3)
    pool = T.rpacked[0].copy()
    ids = domination._pool_ids(pool, T.n)
    counts_in(T.rpacked, pool, ids)
    tracemalloc.start()
    try:
        degrees = counts_in(T.rpacked, pool, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ids) * T.rpacked.shape[1] > 3 * core._CHUNK
    assert peak <= 9 * core._CHUNK + 4 * np.getbufsize() + ids.nbytes
    assert degrees.tolist() == counts_in(T.rpacked[ids], pool).tolist()


def test_core_set_examples():
    T = transitive_tournament(16)
    cs = core_set(T, 1)
    assert 0 in cs.vertices and 15 in cs.vertices
    for v in set(range(16)) - cs.vertices:
        assert any(T.has_edge(v, z) for z in cs.vertices)
        assert any(T.has_edge(z, v) for z in cs.vertices)
    small = core_set(random_tournament(8, 0), 1)
    assert len(small) <= 3 * math.log2(8) + 1e-9 or small.degenerate


def test_core_set_random_sweep():
    for seed in range(20):
        T = random_tournament(256, seed)
        for k in (1, 2, 3):
            cs = core_set(T, k)  # domination clause scanned inside
            assert not cs.degenerate
            assert len(cs) <= 3 * k * math.log2(256) + 1e-9


def test_core_set_degenerate_small_instance():
    cs = core_set(random_tournament(5, 1), 3)  # 5 < 9*log2(5)
    assert cs.degenerate and cs.vertices == frozenset(range(5))


def test_core_set_preconditions():
    with pytest.raises(ValueError):
        core_set(random_tournament(3, 0), 1)
    with pytest.raises(ValueError):
        core_set(random_tournament(8, 0), 0)


def _on_copy(T, v, c, alive, mode):
    """Reference: the structure built on a copy of T[alive], mapped back to
    T's ids (the construction before it read masks of the host)."""
    sub, ids = T.subtournament(np.flatnonzero(alive))
    build = out_dominating_structure if mode == "out" else in_dominating_structure
    s = build(sub, ids.index(v), c)
    return (tuple(ids[j] for j in s.order), ids[s.tip],
            frozenset(ids[j] for j in s.exceptions), s.shrink_trace)


def _fields(s):
    return s.order, s.tip, s.exceptions, s.shrink_trace


def test_masked_structures_match_the_copy_construction():
    rng = np.random.default_rng(2024)
    done = 0
    while done < 60:
        n = int(rng.integers(40, 301))
        c = int(rng.integers(3, 6))
        T = random_tournament(n, int(rng.integers(0, 10 ** 6)))
        alive = rng.random(n) >= rng.uniform(0.0, 0.5)
        v = int(rng.choice(np.flatnonzero(alive)))
        if min((T.adj[:, v] & alive).sum(), (T.adj[v] & alive).sum()) < 2 ** (c - 1):
            continue
        out = out_dominating_structure(T, v, c, alive)
        inn = in_dominating_structure(T, v, c, alive)
        assert (out.mode, inn.mode) == ("out", "in") and out.anchor == inn.anchor == v
        assert _fields(out) == _on_copy(T, v, c, alive, "out")
        assert _fields(inn) == _on_copy(T, v, c, alive, "in")
        mirror = out_dominating_structure(T.reverse(), v, c, alive)
        assert _fields(inn) == (mirror.order[::-1], mirror.tip, mirror.exceptions,
                                mirror.shrink_trace)
        check_structure(T, out, alive)
        check_structure(T, inn, alive)
        done += 1


def test_masked_structure_rejects_what_lies_outside_the_mask(rand):
    T = rand(64, 5)
    alive = np.ones(64, dtype=bool)
    alive[::3] = False
    with pytest.raises(ValueError):
        out_dominating_structure(T, 0, 3, alive)  # vertex 0 is not alive
    s = out_dominating_structure(T, 1, 3, alive)
    check_structure(T, s, alive)
    shrunk = alive.copy()
    shrunk[sorted(s.members | s.exceptions)[0]] = False
    with pytest.raises(AssertionError):
        check_structure(T, s, shrunk)
