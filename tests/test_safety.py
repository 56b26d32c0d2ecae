import tracemalloc

import numpy as np
import pytest

from oracles import brute_safe, flow_row, target_flows
from tourpart import connectivity
from tourpart import safety as safety_module
from tourpart.generators import random_tournament
from tourpart.pipeline import (
    PipelineParams,
    PipelineState,
    bootstrap_safety,
    build_dominating_family,
    color_reserved,
    run_pipeline,
)
from tourpart.safety import (
    ALPHA,
    BETA,
    UNCOLORED,
    Coloring,
    SafetyContext,
    all_colored_safe,
    safety_scan,
)


def test_coloring_is_monotone():
    col = Coloring(5)
    col.assign([0, 1], ALPHA)
    col.assign([2], BETA)
    with pytest.raises(ValueError):
        col.assign([1], BETA)
    assert col.of(0) == ALPHA and col.of(2) == BETA and col.of(4) == UNCOLORED
    assert col.colored_count() == 3


@pytest.mark.parametrize("bad", [-1, 5])
def test_coloring_rejects_ids_outside_the_graph(bad):
    # -1 used to color vertex 4, and 5 raised IndexError
    col = Coloring(5)
    with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
        col.assign([0, bad], ALPHA)
    assert col.colored_count() == 0


@pytest.mark.parametrize("kind", [list, set, tuple, iter, np.array,
                                  lambda vs: np.array(vs, dtype=np.uint32)])
def test_coloring_assign_errors_are_pinned(kind):
    # the same ids and errors whatever iterable of ids comes in, duplicates
    # and order ignored; a failed assign colors nothing
    col = Coloring(6)
    col.assign(kind([4, 1, 4, 1]), ALPHA)
    col.assign(kind([]), BETA)
    assert col.labels.tolist() == [-1, ALPHA, -1, -1, ALPHA, -1]
    with pytest.raises(ValueError, match=r"^vertices already colored: \[1, 4\]$"):
        col.assign(kind([5, 4, 1, 0, 4, 1]), BETA)
    with pytest.raises(ValueError, match=r"^vertex 7 out of range 0..5$"):
        col.assign(kind([7, 6, 0]), BETA)
    with pytest.raises(ValueError, match=r"^color must be ALPHA or BETA$"):
        col.assign(kind([0]), 2)
    assert col.labels.tolist() == [-1, ALPHA, -1, -1, ALPHA, -1]
    with pytest.raises(ValueError, match=r"^vertex -2 out of range 0..5$"):
        col.assign(np.array([9, -1, -2]), ALPHA)
    col.assign(kind([5, 0, 5]), BETA)
    assert col.labels.tolist() == [BETA, ALPHA, -1, -1, ALPHA, BETA]


def _context(T, labels, reserved=(), exc_out=(), exc_in=(), k=1):
    col = Coloring(T.n)
    col.labels = np.asarray(labels, dtype=np.int8)
    return SafetyContext(T, frozenset(reserved), frozenset(exc_out),
                         frozenset(exc_in), col, k)


def test_uncolored_vertex_rejected(c3):
    ctx = _context(c3, [ALPHA, UNCOLORED, BETA])
    with pytest.raises(ValueError):
        safety_scan(ctx, [1])
    # every k rejects a request for an uncolored vertex alike; k = 1 used to
    # read one as unsafe (an all-False row, or False)
    T = random_tournament(12, 1)
    labels = np.random.default_rng(1).integers(0, 2, 12)
    labels[[10, 11]] = UNCOLORED
    for k in (1, 2):
        ctx = _context(T, labels, {0}, {1}, {2}, k)
        for request in (lambda: safety_scan(ctx, [3, 11]),
                        lambda: all_colored_safe(ctx, [11, 3])):
            with pytest.raises(ValueError, match="vertex 11 is uncolored"):
                request()
        assert not safety_scan(ctx)[10:].any() and all_colored_safe(ctx) in (True, False)


def test_colored_outside_reserved_and_exceptions_is_safe(rand):
    # the length-0 escape: such a vertex is its own target in all four senses
    rng = np.random.default_rng(3)
    for seed in range(10):
        T = rand(14, seed)
        labels = rng.integers(0, 2, 14).astype(np.int8)
        reserved = {0, 1}
        exc_out = {2}
        exc_in = {3}
        for k in (1, 2):
            table = safety_scan(_context(T, labels, reserved, exc_out, exc_in, k))
            assert table[4:].all()


def test_forwards_safe_neighbour_rule(rand):
    # k safe out-neighbours of the same color make a vertex forwards-safe
    rng = np.random.default_rng(5)
    hits = 0
    for seed in range(12):
        T = rand(12, seed)
        labels = rng.integers(0, 2, 12).astype(np.int8)
        reserved = {0}
        exc_in = {1, 2}
        k = 2
        forwards = safety_scan(_context(T, labels, reserved, (), exc_in, k))[:, 0]
        for v in range(3, 12):
            nbrs = [int(u) for u in np.flatnonzero(T.adj[v])
                    if labels[u] == labels[v] and u not in reserved | exc_in]
            safe_nbrs = [u for u in nbrs if forwards[u]]
            if len(safe_nbrs) >= k:
                assert forwards[v]
                hits += 1
    assert hits > 10


def test_safety_never_degrades_as_coloring_grows(rand):
    # the incremental pipeline audit rests on this: with colors fixed once
    # given and the pools fixed, a vertex safe in a sense stays safe in it
    # as vertices of either color are added, at every k
    kept = gained = 0
    for seed in range(8):
        T = rand(12, seed)
        rng = np.random.default_rng(seed)
        order = rng.permutation(12)
        pools = ({int(order[0])}, {int(order[1]), int(order[5])}, {int(order[2]), int(order[8])})
        labels = np.full(12, UNCOLORED, dtype=np.int8)
        for k in (1, 2):
            before, prev = None, 0
            for grown in (5, 7, 9, 12):
                labels[order[prev:grown]] = rng.integers(0, 2, grown - prev)
                table = safety_scan(_context(T, labels, *pools, k))
                if before is not None:
                    old = order[:prev]
                    assert not (before[old] & ~table[old]).any(), (seed, k, grown)
                    kept += int(before[old].sum())
                    gained += int((table[old] & ~before[old]).sum())
                before, prev = table, grown
            labels[:] = UNCOLORED
    assert kept > 300 and gained > 20


def test_batch_scan_matches_per_vertex_flows(rand):
    rng = np.random.default_rng(11)
    for seed in range(8):
        T = rand(13, seed)
        labels = rng.integers(0, 2, 13).astype(np.int8)
        labels[rng.random(13) < 0.25] = UNCOLORED
        ctx = _context(T, labels, {4, 5}, {6}, {7}, 1)
        table, flows = safety_scan(ctx), target_flows(ctx)
        for v in range(13):
            if labels[v] == UNCOLORED:
                continue
            assert table[v].tolist() == flow_row(flows, v, 1)


def test_reach_scan_matches_the_flow_table_on_pipeline_states():
    # at n = 1500 the k = 1 scan settles the reserved and exception vertices
    # by their arcs into the targets, or by a sweep when they have none;
    # every colored vertex's row must match its per-vertex flows, which
    # decide a vertex outside the targets by flow rather than by reach
    by_flow = 0

    def check(ctx):
        nonlocal by_flow
        table, flows = safety_scan(ctx), target_flows(ctx)
        for v in np.flatnonzero(ctx.coloring.colored_mask()).tolist():
            assert table[v].tolist() == flow_row(flows, v, 1), v
            by_flow += sum(bool(group[v] and not sense.hit[v]) for _, group, sense in flows)
        return table

    T = random_tournament(1500, 5000)
    state = PipelineState(T, 1, PipelineParams.relaxed(1))
    build_dominating_family(state)
    color_reserved(state)
    assert not check(state.ctx()).any()  # the reserved vertices alone: no group has targets
    bootstrap_safety(state)
    check(state.ctx())
    final = run_pipeline(T, 1, PipelineParams.relaxed(1)).ctx()
    assert check(final)[final.coloring.colored_mask()].all()
    assert by_flow > 500


def test_scan_against_deletion_oracle_k2(rand):
    rng = np.random.default_rng(2)
    for seed in range(5):
        T = rand(11, seed)
        labels = rng.integers(0, 2, 11).astype(np.int8)
        ctx = _context(T, labels, {0}, {1}, {2}, 2)
        table = safety_scan(ctx)
        for v in range(3, 11):
            for col_idx, tag in enumerate(("f", "b", "af", "ab")):
                want = brute_safe(T, v, labels, {0}, {1}, {2}, 2, tag)
                assert table[v, col_idx] == want


def test_flow_scan_cuts_one_network_per_sense(monkeypatch):
    # the network of a sense depends on its group and targets, not on the
    # vertex; the per-vertex answers stay pinned by the deletion oracle above.
    # At k = 2 the count screen settles every vertex of this context, so k is
    # raised to 10, past the ~7 arcs a vertex has into its targets
    builds, flows = [], []
    init, safe = connectivity.VertexFlow.__init__, connectivity.TargetFlow.safe
    monkeypatch.setattr(connectivity.VertexFlow, "__init__",
                        lambda self, *args: builds.append(args) or init(self, *args))
    monkeypatch.setattr(connectivity.TargetFlow, "safe",
                        lambda self, v, k: flows.append(v) or safe(self, v, k))
    n = 60
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 2, n).astype(np.int8)
    ctx = _context(random_tournament(n, 4), labels, range(10), range(10, 20), range(20, 30), 10)
    table = safety_scan(ctx)
    assert table.any() and 0 < len(builds) <= 6 < len(flows)


def test_all_colored_safe_helper():
    # random k = 1 and k = 2 contexts with reserved and exception pools,
    # safe and unsafe: the helper answers as the table does, on the whole
    # coloring and on random subsets of it
    rng = np.random.default_rng(8)
    answers = {1: set(), 2: set()}
    for seed in range(24):
        n = int(rng.integers(8, 16))
        T = random_tournament(n, 800 + seed)
        labels = rng.integers(0, 2, n)
        labels[rng.random(n) < 0.3] = UNCOLORED
        colored = np.flatnonzero(labels != UNCOLORED)
        pools = [rng.choice(n, 2, replace=False).tolist() for _ in range(3)]
        for k in (1, 2):
            ctx = _context(T, labels, *pools, k)
            table = safety_scan(ctx)
            answers[k].add(all_colored_safe(ctx))
            assert all_colored_safe(ctx) == table[colored].all()
            for _ in range(4):
                vs = rng.choice(colored, int(rng.integers(1, colored.size + 1)), replace=False)
                sub = safety_scan(ctx, vs.tolist())
                assert (sub[vs] == table[vs]).all()
                answers[k].add(all_colored_safe(ctx, vs.tolist()))
                assert all_colored_safe(ctx, vs.tolist()) == sub[vs].all()
    assert answers == {1: {True, False}, 2: {True, False}}


def test_reach_scan_builds_no_square_temporaries():
    # the k = 1 scan sweeps the tournament's cached packed rows; at n = 1500
    # one bool n x n temporary alone would take 2.25 MB
    n = 1500
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, n)
    labels[rng.random(n) < 0.3] = UNCOLORED
    resv, exc_out, exc_in = (rng.choice(n, 60, replace=False) for _ in range(3))
    ctx = _context(random_tournament(n, 3), labels, resv, exc_out, exc_in)
    first = safety_scan(ctx)  # builds the graph's packed rows, kept for later scans
    tracemalloc.start()
    try:
        table = safety_scan(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (table == first).all()
    assert peak < 1.5e6, peak


def _arc_counts(ctx, v, column):
    """v's arcs, in the sense of table column ``column``, into its targets,
    into its group, into every vertex on the other side of X (the uncolored
    ones included) and into the targets regardless of color, one bool row
    at a time; the last two are meant for the crossing senses only."""
    T, lab = ctx.T, ctx.coloring.labels
    row = (T.adj if column % 2 == 0 else T.adj.T)[v]
    pools = [np.isin(np.arange(T.n), list(p)) for p in
             (ctx.reserved, ctx.in_exceptions if column % 2 == 0 else ctx.out_exceptions)]
    group = lab == lab[v] if column < 2 else lab != UNCOLORED
    targets = group & ~pools[0] & ~pools[1]
    side = lab != lab[v] if column >= 2 else np.ones(T.n, dtype=bool)
    return [int((row & m).sum()) for m in (targets & side, group & side, side, targets)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_count_screen_matches_the_deletion_oracle_and_flows(k, monkeypatch):
    # the screen settles a vertex with k arcs into its targets and sends every
    # other to a reach sweep (k = 1) or its sense's flow (k >= 2).  On random
    # contexts with reserved and exception pools the table matches the
    # deletion oracle at small n and per-vertex flows at n = 40.  The draws
    # hold vertices with exactly k arcs into their targets, and unsafe ones
    # that a screen counting the wrong set would pass: k - 1 arcs into the
    # targets, k into the group, and in the crossing senses k into the
    # other side with its uncolored vertices, or k into targets of either color
    fallback = []
    sweep, safe = safety_module.reachable_mask, connectivity.TargetFlow.safe
    monkeypatch.setattr(safety_module, "reachable_mask",
                        lambda *args: fallback.append(args) or sweep(*args))
    monkeypatch.setattr(connectivity.TargetFlow, "safe",
                        lambda self, v, k: fallback.append(v) or safe(self, v, k))
    rng = np.random.default_rng(30 + k)
    seen = dict.fromkeys(("exactly k", "k - 1", "group", "other side", "either color"), 0)
    fell_back = 0
    for draw in range(12):
        n = int(rng.integers(9, 13)) if draw < 8 else 40
        T = random_tournament(n, 7000 + 20 * k + draw)
        labels = rng.integers(0, 2, n)
        labels[rng.random(n) < 0.2] = UNCOLORED
        pools = [rng.choice(n, int(rng.integers(1, n // 3 + 1)), replace=False).tolist()
                 for _ in range(3)]
        ctx = _context(T, labels, *pools, k)
        calls = len(fallback)
        table = safety_scan(ctx)
        fell_back += len(fallback) > calls
        flows = target_flows(ctx)
        for v in np.flatnonzero(labels != UNCOLORED).tolist():
            if n < 40:
                want = [brute_safe(T, v, labels, *pools, k, tag) for tag in ("f", "b", "af", "ab")]
            else:
                want = flow_row(flows, v, k)
            assert table[v].tolist() == want, (draw, v)
            assert all_colored_safe(ctx, [v]) == all(want)
            for column in range(4):
                into, group, side, either = _arc_counts(ctx, v, column)
                seen["exactly k"] += into == k
                if not want[column]:
                    seen["k - 1"] += into == k - 1
                    seen["group"] += group >= k
                    seen["other side"] += column >= 2 and side >= k
                    seen["either color"] += column >= 2 and either >= k
    assert min(seen.values()) > 0 and fell_back, seen
