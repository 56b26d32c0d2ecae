"""Verified strongly connected two-partitions.

``verify_partition`` is the single gatekeeper: it re-checks, from scratch,
that both induced subtournaments and the crossing bipartite digraph are
strongly k-connected, with one connectivity sweep of each of the three
graphs.  No subgraph is copied: T[V1] and T[V2] are T swept under the side
masks, and T[V1, V2] is T's packed rows masked by the opposite side, so
witness pairs and cuts come back in T's ids.  ``search_partition`` hunts
for a partition by seeded random splits and repair moves, and returns only
splits that the same three sweeps certified.  ``partition`` wires the
constructive pipeline and the search together behind one entry point.

Each returns a ``PartitionResult`` whose ``status`` is found (a verified
split), infeasible (``reason`` names the proof) or unknown (``reason``
names the cause).  Two proofs rule out every split: delta0(T) < 2k, and T
not strongly k-connected, as T[V1, V2] spans T.  A split that fails
verification proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .connectivity import VertexFlow, _pair_value, certify, sweep
from .core import Verdict, _check_ids, _crossing_graph, counts_in, packed_set, reachable_mask, vertex_mask
from .pipeline import PipelineError, PipelineParams, run_pipeline


@dataclass
class PartitionResult:
    v1: list
    v2: list
    k: int
    status: Verdict
    connectivity: tuple         # (T[V1], T[V2], T[V1,V2])
    connectivity_exact: bool    # exact kappa values vs verified floor only
    mode: str = "given"
    seed: int | None = None
    params_fingerprint: str = "-"
    audits: list = field(default_factory=list)
    reason: str = ""            # the proof when infeasible, the cause when unknown

    @property
    def verified(self):
        return self.status == Verdict.FOUND


EXACT_THRESHOLD = 150
# the search's default budget of split checks, for the library and the CLI
SEARCH_BUDGET = 400


def _sweep_split(T, in_v1, k, stop):
    """Sweep T[V1], T[V2] and T[V1, V2] in order: exact kappa up to
    ``EXACT_THRESHOLD`` vertices, otherwise min(kappa, k).

    Returns ``(result, None)``; ``(None, witness)`` when a graph's sweep
    stops at a pair whose flow falls below ``stop``, the witness being
    (which, pair, value, cut), ``which`` 0, 1 or 2 for the three graphs in
    that order; or ``(None, None)`` when a graph fails the sweep's size,
    degree or reach screen, which names no pair.
    """
    levels = []
    for which, within in enumerate((in_v1, ~in_v1, None)):
        G = T if which < 2 else _crossing_graph(T, in_v1)
        exact = (T.n if within is None else int(within.sum())) <= EXACT_THRESHOLD
        cert = sweep(G, None if exact else k, stop, within)
        if cert.status != Verdict.FOUND:
            return None, None if cert.pair is None else (which, cert.pair, cert.level, cert.cut)
        levels.append((cert.level, exact))
    found = all(level >= k for level, _ in levels)
    return PartitionResult(
        np.flatnonzero(in_v1).tolist(), np.flatnonzero(~in_v1).tolist(), k,
        Verdict.FOUND if found else Verdict.UNKNOWN, tuple(level for level, _ in levels),
        all(exact for _, exact in levels),
        reason="" if found else "the split found failed verification"), None


def verify_partition(T, v1, v2, k):
    """Certify a partition: each side induces a strongly k-connected
    tournament and the crossing digraph is strongly k-connected too.

    Reports per-graph connectivity: exact up to ``EXACT_THRESHOLD``
    vertices, otherwise the largest level at most k that verifies.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    s1 = sorted({int(v) for v in v1})
    s2 = sorted({int(v) for v in v2})
    if not s1 or not s2:
        raise ValueError("both sides must be nonempty")
    _check_ids(T, (s1[0], s1[-1], s2[0], s2[-1]))
    if set(s1) & set(s2):
        raise ValueError("sides overlap")
    if len(s1) + len(s2) != T.n:
        raise ValueError("sides do not partition the vertex set")
    return _sweep_split(T, vertex_mask(T.n, s1), k, 0)[0]


def _degree_proof(T, k):
    """Why delta0(T) < 2k rules out every split, or "" when it does not."""
    d0 = int(min(T.out_degrees().min(), T.in_degrees().min()))
    return (f"delta0(T) = {d0} < {2 * k}, but every vertex needs {k} out- and {k} in-neighbours "
            f"in its own side and {k} of each across") if d0 < 2 * k else ""


def _certify_proof(T, k):
    """Why T itself rules out every split, or "" when it does not."""
    return "" if certify(T, k).status == Verdict.FOUND else (
        f"T is not strongly {k}-connected, so neither is T[V1, V2], which spans T")


def _unsplit(k, proof, reason, **run):
    """No split: infeasible naming ``proof`` if there is one, else unknown."""
    return PartitionResult([], [], k, Verdict.INFEASIBLE if proof else Verdict.UNKNOWN,
                           (), False, reason=proof or reason, **run)


def no_split(T, k, reason):
    """The verdict after a run without a split: infeasible with a proof, else ``reason``."""
    return _unsplit(k, _degree_proof(T, k) or _certify_proof(T, k), reason)


# ---------------------------------------------------------------------------
# randomized search with cut-repair moves


def _screen_score(T, in_v1, k):
    """Cheap badness score: degree deficits plus unreachable vertices.

    Every vertex, on either side, needs k out- and k in-neighbours in V1
    and in V2: in its own side for its T[Vi], across for T[V1, V2]."""
    side = packed_set(in_v1)
    out1, in1 = counts_in(T.packed, side), counts_in(T.rpacked, side)
    degrees = np.stack([out1, in1, T.out_degrees() - out1, T.in_degrees() - in1])
    score = int(np.maximum(0, k - degrees).sum())
    everyone = np.ones(T.n, dtype=bool)
    for G, mask in ((T, in_v1), (T, ~in_v1), (_crossing_graph(T, in_v1), everyone)):
        start = int(np.argmax(mask))
        for H in (G, G.reverse()):
            score += int((mask & ~reachable_mask(H, start, mask)).sum())
    return score


def _pair_flow(T, in_v1, which, pair, k):
    """Cut size of one witness pair in graph ``which`` of the current split,
    capped at k; a pair that left its graph, or that an arc of the graph
    joins, no longer constrains anything."""
    x, y = pair
    within = (in_v1, ~in_v1, None)[which]
    if within is not None and not (within[x] and within[y]):
        return k
    G = T if within is not None else _crossing_graph(T, in_v1)
    if G.has_edge(x, y):
        return k
    return _pair_value(VertexFlow(G, None if within is None else packed_set(within)), x, y, k)[0]


def search_partition(T, k, seed, budget=SEARCH_BUDGET):
    """Randomized balanced split plus greedy single-vertex repair moves.

    A fresh split is certified first.  Once the sweeps reject it, moves are
    scored by degree/reachability screens while those fail, then by the
    minimum-cut slack of the failing witness pair.  Dead ends trigger a
    restart.  The status is found with a certified split or, with empty
    sides, infeasible when T is not strongly k-connected (certified once,
    at the first rejection or, at budget 0, at the end), else unknown.
    """
    n = T.n
    if n < 2 * k + 2:
        raise ValueError(f"need at least {2 * k + 2} vertices for two strongly "
                         f"{k}-connected sides")
    if budget < 0:
        raise ValueError(f"search budget {budget} is negative")
    rng = np.random.default_rng(seed)
    run = {"mode": "search", "seed": seed, "params_fingerprint": f"search-{budget}"}
    checks = 0
    proof = None  # T's own certificate, taken at the first rejection
    while checks < budget:
        perm = rng.permutation(n)
        in_v1 = np.zeros(n, dtype=bool)
        in_v1[perm[:n // 2]] = True
        score = None  # a fresh split is swept before it is screened
        for _ in range(3 * n):
            checks += 1
            if checks > budget:
                break
            if not score:
                # one sweep per graph certifies the split, and a rejected split
                # stops at the pair that steers the repair
                res, viol = _sweep_split(T, in_v1, k, k)
                if res is not None:
                    return replace(res, **run)
                if proof is None and (proof := _certify_proof(T, k)):
                    return _unsplit(k, proof, "", **run)
                if score is None:
                    score = _screen_score(T, in_v1, k)
                assert viol is not None or score > 0, "a split passed the screen with no witness"
            # one move loop: the lowest-rated flip, if it beats the bar.  While
            # the split fails the screen a flip's rate is its screen score;
            # after that it is minus the witness pair's slack when the flip
            # passes the screen, and a flip that fails it rates above the bar
            if score > 0:
                pool, bar = sorted(set(map(int, rng.integers(0, n, size=12)))), score
            else:
                which, pair, value, cut = viol
                pool, bar = sorted(cut | set(map(int, rng.integers(0, n, size=8)))), -value
            best = None
            for v in pool:
                in_v1[v] = ~in_v1[v]
                if k < int(in_v1.sum()) < n - k:
                    rate = _screen_score(T, in_v1, k)
                    if not (rate or score):
                        rate = -_pair_flow(T, in_v1, which, pair, k)
                    if best is None or rate < best[0]:
                        best = (rate, v)
                in_v1[v] = ~in_v1[v]
            if best is None or best[0] >= bar:
                break
            score = max(best[0], 0)  # a slack move passed the screen
            in_v1[best[1]] = ~in_v1[best[1]]
    if proof is None:  # budget 0 swept no split
        proof = _certify_proof(T, k)
    return _unsplit(k, proof, f"no partition found within budget {budget}", **run)


# ---------------------------------------------------------------------------
# the entry point tying pipeline and search together


def partition(T, k, mode="auto", params=None, seed=0, search_budget=SEARCH_BUDGET):
    """Produce a verified partition, or the verdict that there is none.

    mode "pipeline": the constructive coloring pipeline (guaranteed constants
    by default).  A stage failure raises PipelineError with a diagnostic; a
    split that fails verification gets the verdict of ``no_split``.  mode
    "search": ``search_partition``.  mode "auto": the pipeline when its
    preconditions hold and its split verifies, the search otherwise.  Both
    answer delta0(T) < 2k with its proof before running either.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if mode not in ("auto", "pipeline", "search"):
        raise ValueError(f"unknown mode {mode!r}")
    if search_budget < 0:
        raise ValueError(f"search budget {search_budget} is negative")
    if mode != "pipeline" and (proof := _degree_proof(T, k)):
        return _unsplit(k, proof, "", mode=mode, seed=seed)
    params = params if params is not None else PipelineParams.guaranteed(k)

    def run_pipe():
        state = run_pipeline(T, k, params, seed)
        return replace(verify_partition(T, *state.partition_sets(), k), mode="pipeline",
                       seed=seed, params_fingerprint=params.fingerprint(), audits=state.audits)

    if mode == "pipeline":
        res = run_pipe()
        if not res.verified and (proof := _degree_proof(T, k) or _certify_proof(T, k)):
            res.status, res.reason = Verdict.INFEASIBLE, proof
        return res
    if mode == "auto":
        try:  # an infeasible instance raises PipelineError("feasibility", ...)
            res = run_pipe()
            if res.verified:
                return res
        except PipelineError:
            pass
    return search_partition(T, k, seed, budget=search_budget)


def format_partition(res):
    """Two id lines plus the verification block."""
    lines = [
        "V1: " + " ".join(map(str, res.v1)),
        "V2: " + " ".join(map(str, res.v2)),
        f"verified: {str(res.verified).lower()}",
        f"mode: {res.mode}",
        "connectivity: " + " ".join(map(str, res.connectivity)),
        f"connectivity_exact: {str(res.connectivity_exact).lower()}",
        f"params: {res.params_fingerprint}",
        f"seed: {res.seed}",
    ]
    return "\n".join(lines) + "\n"
