"""Acceptance suite: one timed, tolerance-pinned check per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines.
"""

import math
import time

import numpy as np

from oracles import all_tournaments, brute_safe, brute_strong_k
from tourpart import (
    SubdivisionSpec,
    Verdict,
    core_set,
    digraph_from_edges,
    is_strongly_k_connected,
    min_separator,
    nonseparating_subdivision,
    out_dominating_structure,
    remove_nonseparating_path,
    spanning_linkage,
)
from tourpart.core import is_backwards_transitive
from tourpart.generators import random_tournament, transitive_tournament
from tourpart.partition import search_partition, verify_partition
from tourpart.pipeline import PipelineError, PipelineParams, run_pipeline
from tourpart.safety import UNCOLORED, Coloring, SafetyContext, safety_scan


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_connectivity_oracle():
    """Exact agreement with deletion-set enumeration, n<=8, k<=3, <60s."""
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 6):
        for T in all_tournaments(n):
            for k in (1, 2, 3):
                assert is_strongly_k_connected(T, k) == brute_strong_k(T, k)
                checked += 1
    for n in (6, 7, 8):
        for seed in range(200):
            T = random_tournament(n, seed)
            for k in (1, 2, 3):
                assert is_strongly_k_connected(T, k) == brute_strong_k(T, k)
                checked += 1
    dt = time.perf_counter() - t0
    _report("criterion 1: connectivity oracle equivalence",
            dt < 60, f"{checked} comparisons in {dt:.1f}s")


def test_criterion_2_menger_equality():
    """Menger equality asserted on every separator query; zero violations."""
    queries = 0
    for seed in range(30):
        T = random_tournament(8, seed)
        for x in range(8):
            for y in range(8):
                if x != y and not T.has_edge(x, y):
                    min_separator(T, x, y)  # raises on any Menger violation
                    queries += 1
    _report("criterion 2: Menger equality on every min_separator call",
            True, f"{queries} certified queries")


def test_criterion_3_dominating_structures():
    """Chain-structure invariants on 500 random instances, <30s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    done = 0
    while done < 500:
        n = int(rng.integers(32, 257))
        c = int(rng.integers(2, 8))
        seed = int(rng.integers(0, 10 ** 9))
        T = random_tournament(n, seed)
        v = int(rng.integers(0, n))
        if T.in_degrees()[v] < 2 ** (c - 1):
            continue
        s = out_dominating_structure(T, v, c)  # full invariant scan inside
        d = T.in_degrees()[v]
        for i, size in enumerate(s.shrink_trace):
            assert size * 2 ** i <= d, "halving loop invariant violated"
        done += 1
    dt = time.perf_counter() - t0
    _report("criterion 3: dominating-structure invariants",
            dt < 30, f"500 instances in {dt:.1f}s")


def test_criterion_4_core_sets():
    """Core sets on 100 random n=256 tournaments, k in {1,2,3}."""
    rng = np.random.default_rng(7)
    for trial in range(100):
        T = random_tournament(256, int(rng.integers(0, 10 ** 9)))
        k = (trial % 3) + 1
        cs = core_set(T, k)  # size and degree clauses scanned inside
        assert len(cs) <= 3 * k * math.log2(256) + 1e-9
    _report("criterion 4: core-set bound and domination clause", True,
            "100 instances")


def test_criterion_5_path_deletion():
    """Theorem-backed path deletion: 100 qualified n=60 trials, <120s."""
    t0 = time.perf_counter()
    k, d = 2, 2
    done = 0
    seed = 0
    while done < 100:
        T = random_tournament(60, seed)
        seed += 1
        if not is_strongly_k_connected(T, k + d + 4):
            continue
        rng = np.random.default_rng(seed)
        x, y = (int(v) for v in rng.choice(60, 2, replace=False))
        avoid = [v for v in rng.choice(60, 6, replace=False)
                 if v not in (x, y)][:d]
        res = remove_nonseparating_path(T, x, y, avoid, k, keep=())
        assert res.theorem_backed, f"hypothesis not measured as held at seed {seed}"
        assert res.remainder_ok, f"remainder lost {k}-connectivity at seed {seed}"
        assert is_backwards_transitive(T, res.path)
        done += 1
    dt = time.perf_counter() - t0
    _report("criterion 5: non-separating path deletion", dt < 120,
            f"100/100 trials in {dt:.1f}s")


def test_criterion_6_spanning_linkage():
    """Spanning linkages at k=2 on 50 qualified n=40 tournaments, <300s."""
    t0 = time.perf_counter()
    found, unknown = 0, 0
    trials = 0
    seed = 0
    while trials < 50:
        T = random_tournament(40, 1000 + seed)
        seed += 1
        if not is_strongly_k_connected(T, 10):
            continue
        rng = np.random.default_rng(seed)
        picks = [int(v) for v in rng.choice(40, 4, replace=False)]
        pairs = [(picks[0], picks[1]), (picks[2], picks[3])]
        res = spanning_linkage(T, pairs, seed=seed)
        if res.status == "found":
            found += 1  # cover, disjoint interiors and endpoints scanned inside
        elif res.status == "unknown":
            unknown += 1
        trials += 1
    dt = time.perf_counter() - t0
    _report("criterion 6: spanning linkage k=2",
            found >= 48 and unknown <= 2 and dt < 300,
            f"{found}/50 found, {unknown} unknown, {dt:.1f}s")


def test_criterion_7_subdivision():
    """Triangle subdivisions at k=1 on 50 qualified n=80 tournaments, <300s."""
    t0 = time.perf_counter()
    H = digraph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
    done = 0
    seed = 0
    while done < 50:
        T = random_tournament(80, 2000 + seed)
        seed += 1
        if not is_strongly_k_connected(T, 1 + 3 * 5):
            continue
        rng = np.random.default_rng(seed)
        branches = [int(v) for v in rng.choice(80, 3, replace=False)]
        sub = nonseparating_subdivision(T, SubdivisionSpec(H, branches), 1)
        assert sub.remainder_ok, f"remainder not strongly connected at seed {seed}"
        done += 1
    dt = time.perf_counter() - t0
    _report("criterion 7: non-separating subdivisions", dt < 300,
            f"50/50 trials in {dt:.1f}s")


def test_criterion_8_safety_oracle():
    """safety_scan vs deletion enumeration, 50 random colored instances."""
    rng = np.random.default_rng(123)
    disagreements = 0
    comparisons = 0
    for trial in range(50):
        n = int(rng.integers(8, 13))
        T = random_tournament(n, int(rng.integers(0, 10 ** 9)))
        labels = rng.integers(0, 2, n).astype(np.int8)
        labels[rng.random(n) < 0.2] = UNCOLORED
        reserved = {int(v) for v in rng.choice(n, 2, replace=False)}
        exc_out = {int(rng.integers(0, n))}
        exc_in = {int(rng.integers(0, n))}
        k = (trial % 2) + 1
        col = Coloring(n)
        col.labels = labels.copy()
        ctx = SafetyContext(T, frozenset(reserved), frozenset(exc_out),
                            frozenset(exc_in), col, k)
        table = safety_scan(ctx)
        for v in range(n):
            if labels[v] == UNCOLORED:
                continue
            for got, tag in zip(table[v].tolist(), ("f", "b", "af", "ab")):
                want = brute_safe(T, v, labels, reserved, exc_out, exc_in, k, tag)
                comparisons += 1
                if got != want:
                    disagreements += 1
    _report("criterion 8: safety predicate oracle", disagreements == 0,
            f"{comparisons} comparisons, {disagreements} disagreements")


def test_criterion_9_search_partition():
    """Search mode: >=90% verified on 50 seeds at n=40 k=2; median <10s;
    transitive negative control 20/20."""
    times = []
    successes = 0
    for seed in range(50):
        T = random_tournament(40, 31415 + seed)
        t0 = time.perf_counter()
        res = search_partition(T, 2, seed=seed)
        times.append(time.perf_counter() - t0)
        if res.status == Verdict.FOUND:
            assert res.verified  # certified by the full verifier
            successes += 1
    median = sorted(times)[25]
    negatives_ok = 0
    T = transitive_tournament(40)
    for seed in range(20):
        if search_partition(T, 1, seed=seed, budget=120).status == Verdict.INFEASIBLE:
            negatives_ok += 1
    _report("criterion 9: end-to-end search partitions",
            successes >= 45 and median < 10 and negatives_ok == 20,
            f"{successes}/50 verified, median {median:.2f}s, "
            f"negative control {negatives_ok}/20")


def test_criterion_10_pipeline_stage_audits():
    """Relaxed pipeline, n=3000 k=1, 5 seeds: every run either passes all
    stage exit audits and verifies, or aborts with a precise diagnostic."""
    t0 = time.perf_counter()
    params = PipelineParams.relaxed(1)
    outcomes = []
    for seed in range(5):
        T = random_tournament(3000, 5000 + seed)
        try:
            state = run_pipeline(T, 1, params, seed=seed)
        except PipelineError as exc:
            # a precise stage diagnostic is an acceptable outcome; silent
            # failure or an unverified success is not
            assert exc.stage and exc.reason
            outcomes.append(f"seed {seed}: abort at {exc.stage}")
            continue
        assert all(a.passed for a in state.audits), "an exit audit failed silently"
        v1, v2 = state.partition_sets()
        res = verify_partition(T, v1, v2, 1)
        assert res.verified, "pipeline completed but the verifier rejected it"
        outcomes.append(f"seed {seed}: verified")
    dt = time.perf_counter() - t0
    _report("criterion 10: pipeline stage audits", len(outcomes) == 5,
            "; ".join(outcomes) + f"; {dt:.1f}s")
