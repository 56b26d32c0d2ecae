"""The constructive two-coloring pipeline.

The pipeline colors every vertex alpha or beta through five stages:

1. pick the vertices of extreme degree and build, for each of six connector
   classes, dominating chain structures around them;
2. bootstrap safety for everything colored so far by greedily granting each
   vertex fresh in/out-neighbours of both colors;
3. join each in-chain tip b_i to its out-chain partner a_i by a connector
   path: short paths of the right length parity where they exist, otherwise
   spliced out of a bundle of long internally disjoint paths;
4. color the exception pools, grabbing fresh neighbours or falling back on
   the bulk middles of the long bundles;
5. color the rest alpha.

Every stage finishes with explicit exit audits (structure invariants,
counting caps, incremental safety audits).  A stage that cannot meet its
obligations raises ``PipelineError`` with a precise diagnostic; no silent
failures, and nothing is reported as a success unless the final partition
verifies.  Parameter values carry a ``strict`` flag: the full-strength
constants make a run theorem-backed but need astronomically dense
instances, and the relaxed values keep every audit while dropping the
a-priori guarantee.  Only strict runs normalize |exc_out| <= |exc_in|; the
verifier certifies relaxed runs, which skip it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .connectivity import disjoint_routes
from .core import (
    bfs_parity_path,
    bfs_shortest_path,
    counts_in,
    is_backwards_transitive,
    packed_set,
    path_family_fault,
    row_bits,
    unpack_rows,
    vertex_mask,
)
from .domination import (
    AnchorDegreeError,
    core_set,
    in_dominating_structure,
    out_dominating_structure,
)
from .safety import ALPHA, BETA, Coloring, SafetyContext, all_colored_safe

MONO_A, MONO_B, ALT_AA, ALT_BB, ALT_AB, ALT_BA = range(6)
# The paper's six connector classes of k connectors each, connector i in
# class i // k, by the colors of the tips (b_i, a_i) it joins: in MONO_A and
# MONO_B the two chains and the connector take one color; in the ALT classes
# the connector alternates, so its length has the parity of b_i != a_i, and
# each chain body takes the color its tip does not.
_TIPS = {MONO_A: (ALPHA, ALPHA), MONO_B: (BETA, BETA), ALT_AA: (ALPHA, ALPHA),
         ALT_BB: (BETA, BETA), ALT_AB: (ALPHA, BETA), ALT_BA: (BETA, ALPHA)}
_MONO_COLOR = {cls: _TIPS[cls][0] for cls in (MONO_A, MONO_B)}
_CLASS_PARITY = {cls: int(b != a) for cls, (b, a) in _TIPS.items() if cls not in _MONO_COLOR}


class PipelineError(Exception):
    """A stage could not meet its obligations; carries a precise diagnostic."""

    def __init__(self, stage, reason, kind="infeasible"):
        super().__init__(f"[{stage}] {reason}")
        self.stage = stage
        self.reason = reason
        self.kind = kind  # infeasible | budget


@dataclass(frozen=True)
class PipelineParams:
    """Tuning constants for one pipeline run.

    ``budget=None`` leaves the coloring budget to the per-vertex starvation
    checks; strict runs need a budget.  ``strict=True`` marks the
    full-strength constants; only such runs may claim a-priori guarantees.
    The run's k is the one given to ``run_pipeline``; what the construction
    fixes as a function of it, the k connector structures per class,
    ``short_cap`` and ``growth``, is not settable.
    """

    chain_cap: int      # dominating-chain length cap c
    bundle_size: int    # long connector bundle width
    budget: int | None  # coloring budget cap
    strict: bool = False

    @staticmethod
    def guaranteed(k):
        lg = math.log2(2 * k)
        return PipelineParams(
            chain_cap=math.ceil(math.log2(120 * k * k)) + 2,
            bundle_size=int(10 ** 5 * k ** 4 * lg),
            budget=int(5 * 10 ** 8 * k ** 6 * lg),
            strict=True,
        )

    @staticmethod
    def relaxed(k):
        """The guaranteed constants with bundles of 8, no coloring budget and
        no a-priori guarantee; ``dataclasses.replace`` sets any field."""
        return replace(PipelineParams.guaranteed(k), bundle_size=8, budget=None, strict=False)

    def fingerprint(self):
        text = ";".join(f"{k}={v}" for k, v in sorted(asdict(self).items()))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def short_cap(k):
    """10k+10: the most edges of a short connector, the fewest of a bundle path."""
    return 10 * k + 10


def growth(k):
    """9k^2: the most vertices a safe extension colors per group vertex."""
    return 9 * k * k


@dataclass
class StageAudit:
    stage: str
    passed: bool
    theorem_backed: bool
    info: dict = field(default_factory=dict)


def select_extremal_sets(T, k):
    """The 6k lowest in-degree vertices of the tournament T, then the 6k
    lowest out-degree vertices among the rest, plus the restricted degree
    minima outside each set.  Ties go to the lowest id (stable sorts of the
    ascending ids)."""
    count = 6 * k
    n = T.n
    if n < 2 * count:
        raise ValueError(f"need at least {2 * count} vertices, have {n}")
    din = T.in_degrees()
    dout = n - 1 - din  # every other vertex is an in- or an out-neighbour
    low_in = np.argsort(din, kind="stable")[:count]
    rest = np.ones(n, dtype=bool)
    rest[low_in] = False
    ids = np.flatnonzero(rest)
    low_out = ids[np.argsort(dout[ids], kind="stable")[:count]]
    dhat_in = int(din[rest].min())
    rest = np.ones(n, dtype=bool)
    rest[low_out] = False
    dhat_out = int(dout[rest].min())
    return low_in.tolist(), low_out.tolist(), dhat_in, dhat_out


class PipelineState:
    """All named sets of one pipeline run, plus the audit trail."""

    def __init__(self, T, k, params, flipped=False):
        self.T = T
        self.k = k
        self.params = params
        self.flipped = flipped
        self.coloring = Coloring(T.n)
        self.audited = np.zeros(T.n, dtype=bool)  # colored at the last passed safety audit
        self.audits = []
        self.low_in = []        # anchors of the out-structures (min in-degree)
        self.low_out = []       # anchors of the in-structures (min out-degree)
        self.dhat_in = None
        self.dhat_out = None
        self.out_structs = []
        self.in_structs = []
        self.reserved = set()        # all structure vertices
        self.exc_out = set()         # union of out-structure exception pools
        self.exc_in = set()
        self.snapshots = {}
        self.connectors = {}
        self.short_idx = []
        self.long_idx = []
        self.bundles = {}
        self.splices = {}
        self.bulk = set()            # long-bundle middles, colored alpha
        self.hub_alpha = set()
        self.hub_beta = set()
        self.hub_alpha_idx = set()
        self.hub_beta_idx = set()

    @property
    def total(self):
        return 6 * self.k

    def klass(self, i):
        return i // self.k

    def tips(self, i):
        """(b_i, a_i): start and end of the i-th connector path."""
        return self.in_structs[i].tip, self.out_structs[i].tip

    def anchors(self):
        return set(self.low_in) | set(self.low_out)

    def ctx(self):
        return SafetyContext(self.T, frozenset(self.reserved),
                             frozenset(self.exc_out), frozenset(self.exc_in),
                             self.coloring, self.k)

    def record(self, stage, info=None):
        """A passed stage, theorem-backed when the params are strict."""
        self.audits.append(StageAudit(stage, True, self.params.strict, info or {}))

    def fail(self, stage, reason, kind="infeasible"):
        """Record ``stage`` as failed for ``reason`` and raise PipelineError."""
        self.audits.append(StageAudit(stage, False, False, {"reason": reason}))
        raise PipelineError(stage, reason, kind)

    def require(self, stage, cond, reason, kind="infeasible"):
        if not cond:
            self.fail(stage, reason, kind)

    def require_safe(self, stage, reason):
        """Require every colored vertex safe; safety only grows with the
        coloring, so only those colored since the last passed audit are checked."""
        new = self.coloring.colored_mask() & ~self.audited
        self.require(stage, not new.any() or all_colored_safe(self.ctx(), np.flatnonzero(new)), reason)
        self.audited |= new

    def snapshot(self, name):
        self.snapshots[name] = self.coloring.colored_mask().copy()

    def partition_sets(self):
        lab = self.coloring.labels
        v1 = np.flatnonzero(lab == ALPHA).tolist()
        v2 = np.flatnonzero(lab == BETA).tolist()
        return v1, v2


# ---------------------------------------------------------------------------
# stage 1+2: extremal anchors and the dominating family


def build_dominating_family(state):
    T, params = state.T, state.params
    c = params.chain_cap
    stage = "dominating_family"
    state.low_in, state.low_out, state.dhat_in, state.dhat_out = \
        select_extremal_sets(T, state.k)
    anchors = state.anchors()
    used = set()

    def build_one(anchor, mode, index):
        protect = (anchors - {anchor}) | used
        build = out_dominating_structure if mode == "out" else in_dominating_structure
        try:
            return build(T, anchor, c, ~vertex_mask(T.n, protect))
        except AnchorDegreeError as exc:
            degree = exc.degree
        # outside the handler, so the PipelineError carries no builder error
        state.fail(stage, f"structure {index} ({mode}): degree {degree} below "
                   f"2^(c-1)={2 ** (c - 1)} after removing {len(protect)} protected vertices")

    for low, mode, structs in ((state.low_in, "out", state.out_structs),
                               (state.low_out, "in", state.in_structs)):
        for i, x in enumerate(low):
            s = build_one(x, mode, i)
            structs.append(s)
            used |= s.members

    state.reserved = set().union(*(s.members for s in state.out_structs + state.in_structs))
    state.exc_out = set().union(*(s.exceptions for s in state.out_structs))
    state.exc_in = set().union(*(s.exceptions for s in state.in_structs))
    _audit_family(state)


def _audit_family(state):
    """Exit audit of the dominating family against the host-wide bounds.

    The per-structure invariants live in ``domination._check_structure``,
    which every build runs on T[alive]: the chain has at most c vertices, is
    transitive in T, and its cover dominates alive & ~(members |
    exceptions).  There ``alive`` excludes every other anchor and every
    member of an earlier structure, so the chains are disjoint, and every
    member of the family is reserved, so the set this audit would test,
    ~reserved & ~exceptions, lies inside that checked set.  What is left
    here is each exception pool against delta-hat, the 20k record and its
    strict gate."""
    c, stage = state.params.chain_cap, "dominating_family"
    for structs, dhat, mode in ((state.out_structs, state.dhat_in, "out"),
                                (state.in_structs, state.dhat_out, "in")):
        for i, s in enumerate(structs):
            state.require(stage, len(s.exceptions) << (c - 2) <= dhat,
                          f"{mode}-chain {i} exception pool too large: {len(s.exceptions)}")
    k, unbalanced = state.k, len(state.exc_out) > len(state.exc_in)
    ratio_out = len(state.exc_out) * 20 * k <= state.dhat_in
    ratio_in = len(state.exc_in) * 20 * k <= state.dhat_out
    state.record(stage, info={
        "exc_out": len(state.exc_out), "exc_in": len(state.exc_in),
        "dhat_in": state.dhat_in, "dhat_out": state.dhat_out,
        "exc_out_within_20k_bound": ratio_out, "exc_in_within_20k_bound": ratio_in,
        **({"reversal": "skipped (relaxed)"} if unbalanced and not state.params.strict else {}),
    })
    if state.params.strict:
        state.require(stage, ratio_out and ratio_in,
                      "strict exception bounds (delta-hat / 20k) violated")


def color_reserved(state):
    """Color the structure vertices by the six-class connector layout: each
    tip takes its color in ``_TIPS``, and each chain body its tip's color in
    a monochromatic class and the other color in an alternating one."""
    picks = {ALPHA: [], BETA: []}
    for i in range(state.total):
        cls = state.klass(i)
        for s, tip in zip((state.in_structs[i], state.out_structs[i]), _TIPS[cls]):
            picks[tip].append(s.tip)
            picks[tip if cls in _MONO_COLOR else 1 - tip] += s.cover
    for color, vertices in picks.items():
        state.coloring.assign(vertices, color)
    # derive the active coloring budget; the a-priori inequality is a
    # sufficient condition, so it gates only runs that claim the guarantee,
    # while relaxed runs rely on the per-vertex starvation checks and record
    # the inequality's status honestly
    k = state.k
    slack = min(state.dhat_in - 5 * k * len(state.exc_out),
                state.dhat_out - 5 * k * (len(state.exc_out) + len(state.exc_in)))
    if state.params.strict:
        state.require("budget", slack >= state.params.budget,
                      f"degree slack {slack} cannot honor the strict budget "
                      f"{state.params.budget}")
    state.record("budget", info={"budget_cap": state.params.budget, "degree_slack": slack})


# ---------------------------------------------------------------------------
# the safe-extension subroutine shared by several stages


def extend_coloring_safely(state, group, protected=frozenset()):
    """Color fresh neighbours around ``group`` until everything in it is
    safe: two in-neighbours per group vertex, then two out-neighbours per
    vertex of the grown set, half alpha half beta (times k).

    Returns the set of newly colored vertices.  Raises when the coloring
    budget is exceeded or some vertex cannot find enough fresh neighbours.
    """
    stage = "safe_extension"
    T, k, col = state.T, state.k, state.coloring
    Z = sorted({int(v) for v in group})
    if not Z:
        return set()
    state.require(stage, not (set(Z) & state.anchors()),
                  "extension group may not contain extremal anchors")
    lab = col.labels
    state.require(stage, all(lab[z] != -1 for z in Z), "extension group must be colored")
    n = T.n
    nmask = vertex_mask(n, protected)
    exc_out_mask = vertex_mask(n, state.exc_out)
    exc_mask = exc_out_mask | vertex_mask(n, state.exc_in)
    colored_or_protected = int((col.colored_mask() | nmask).sum())
    cost = growth(k) * len(Z) + colored_or_protected
    cap = state.params.budget
    if cap is not None:
        state.require(stage, cost <= cap,
                      f"coloring budget exceeded: growth*|Z| + |C u N| = {cost} "
                      f"> {cap}", kind="budget")
    state.record(stage, info={"group": len(Z), "cost": cost, "cap": cap})
    # the in-wave serves Z, the out-wave serves Z and the in-wave
    grown, picks = set(), []
    for rows, side, banned in ((T.rpacked, "in", exc_out_mask), (T.packed, "out", exc_mask)):
        served, picks = Z + picks, []
        with _GrantWave(col, col.uncolored_mask() & ~nmask & ~banned, k) as wave:
            for z, row in zip(served, row_bits(rows[served])):
                cand = row & wave.free
                if cand.bit_count() < 2 * k:
                    state.fail(stage, f"vertex {z} is starving: {cand.bit_count()} fresh "
                               f"{side}-neighbours, needs {2 * k}", kind="budget")
                picks += wave.grant(cand)
        grown.update(picks)
    state.require(stage, len(set(Z) | grown) <= growth(k) * len(Z),
                  "extension grew beyond its cap")
    return grown


class _GrantWave:
    """One wave of grants: vertex after vertex takes the 2k lowest-id free
    vertices among its neighbours, k alpha then k beta.

    The free vertices are the bits of the int ``free``, so a vertex's
    candidates are its ``row_bits`` row ANDed with it.  Leaving the
    ``with`` block colors the wave's picks, one ``Coloring.assign`` per
    color, also when a check inside it raised: the coloring then holds every
    grant made before the failure."""

    def __init__(self, col, free, k):
        self.col, self.k = col, k
        self.free = row_bits(free)
        self.alpha, self.beta = [], []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.col.assign(self.alpha, ALPHA)
        self.col.assign(self.beta, BETA)
        return False

    def grant(self, cand):
        """Take the 2k lowest bits of the candidate set ``cand``; returns them."""
        picks = []
        for _ in range(2 * self.k):
            low = cand & -cand
            picks.append(low.bit_length() - 1)
            cand ^= low
            self.free ^= low
        self.alpha += picks[:self.k]
        self.beta += picks[self.k:]
        return picks


def bootstrap_safety(state):
    """Make everything colored so far safe: grant each extremal anchor 2k
    fresh in- and out-neighbours split between the colors, then run the safe
    extension over those plus the non-anchor structure vertices."""
    stage = "bootstrap"
    T, k, col = state.T, state.k, state.coloring
    fresh = []
    anchors = state.low_in + state.low_out
    with _GrantWave(col, col.uncolored_mask(), k) as wave:
        for v, *rows in zip(anchors, row_bits(T.rpacked[anchors]), row_bits(T.packed[anchors])):
            for row, side in zip(rows, ("in", "out")):
                cand = row & wave.free
                if cand.bit_count() < 2 * k:
                    state.fail(stage, f"anchor {v}: only {cand.bit_count()} uncolored "
                               f"{side}-neighbours", kind="budget")
                fresh += wave.grant(cand)
    group = set(fresh) | (state.reserved - state.anchors())
    extend_coloring_safely(state, group)
    state.snapshot("bootstrap")
    colored = col.colored_count()
    info = {"colored": colored, "group": len(group)}
    if state.params.strict:
        info["within_strict_cap"] = colored <= 1500 * k ** 4
        state.require(stage, info["within_strict_cap"], "bootstrap exceeded its strict cap")
    state.require_safe(stage, "bootstrap exit audit: some colored vertex is unsafe")
    state.record(stage, info=info)


# ---------------------------------------------------------------------------
# stage 3: connector paths


def _collect_short_connectors(state):
    """Greedy maximal system of short disjoint connector paths with the
    parity each class needs; multi-pass until no index improves."""
    T, col, L = state.T, state.coloring, short_cap(state.k)
    used = np.zeros(T.n, dtype=bool)
    found = {}
    progress = True
    while progress:
        progress = False
        for i in range(state.total):
            if i in found:
                continue
            b, a = state.tips(i)
            allowed = col.uncolored_mask() & ~used
            parity = _CLASS_PARITY.get(state.klass(i))
            p = (bfs_shortest_path(T, b, a, allowed, max_length=L) if parity is None
                 else bfs_parity_path(T, b, a, parity, allowed, max_length=L))
            if p is not None:
                found[i] = p
                for v in p[1:-1]:
                    used[v] = True
                progress = True
    return found


def find_connector_paths(state):
    """Build all 6r connector paths (stage 3) and color the bundle scaffolding."""
    stage = "connectors"
    T, col = state.T, state.coloring

    def short_route(i):
        # a nontrivial b_i -> a_i route shorter than the cap, or None
        b, a = state.tips(i)
        return bfs_shortest_path(T, b, a, col.uncolored_mask(),
                                 min_length=2, max_length=short_cap(state.k) - 1)

    shorts = _collect_short_connectors(state)
    state.short_idx = sorted(shorts)
    state.long_idx = [i for i in range(state.total) if i not in shorts]
    state.connectors = dict(shorts)

    for i, p in shorts.items():
        _color_connector(state, i, p)
    extend_coloring_safely(state, [v for p in shorts.values() for v in p[1:-1]])

    # repeatedly burn any remaining nontrivial short connector route for the
    # long indices, so only the direct edge or genuinely long routes survive
    while True:
        swept = []
        for i in state.long_idx:
            while (p := short_route(i)) is not None:
                col.assign(p[1:-1], ALPHA)
                swept.extend(p[1:-1])
        if not swept:
            break
        extend_coloring_safely(state, swept)
    for i in state.long_idx:
        state.require(stage, short_route(i) is None,
                      f"index {i}: a short connector route survived the sweep")
    state.snapshot("shorts")
    state.require_safe(stage, "short-connector audit: some colored vertex is unsafe")
    state.record("connectors_short", info={
        "short": len(state.short_idx), "long": len(state.long_idx),
        "colored": col.colored_count()})

    if state.long_idx:
        _build_bundles(state)
        _shortcut_bundles(state)
        _audit_bundles(state)
        _place_hubs(state)
        _color_bundles(state)
    state.snapshot("connectors")
    _audit_connectors(state)


def _bundle_allowed(state, i, used):
    col = state.coloring
    other_tips = set()
    for j in state.long_idx:
        if j != i:
            other_tips.update(state.tips(j))
    return col.uncolored_mask() & ~vertex_mask(col.n, used | other_tips)


def _build_bundles(state):
    """For each long index, collect ``bundle_size`` internally disjoint
    nontrivial connector paths: greedy shortest-path peeling first, the
    flow kernel when the peeling falls short."""
    stage = "connector_bundles"
    T, params = state.T, state.params
    want = params.bundle_size
    used = set()
    for i in state.long_idx:
        b, a = state.tips(i)
        paths = []
        allowed = _bundle_allowed(state, i, used)
        for _ in range(want):
            p = bfs_shortest_path(T, b, a, allowed, min_length=2)
            if p is None:
                break
            paths.append(p)
            for v in p[1:-1]:
                allowed[v] = False
        if len(paths) < want:
            # greedy peeling is not exhaustive; a maximum flow finds the most routes
            routes = disjoint_routes(T, b, a, _bundle_allowed(state, i, used))
            state.require(stage, len(routes) >= want,
                          f"index {i}: only {len(routes)} disjoint connector routes "
                          f"available, bundle needs {want}", kind="budget")
            paths = sorted(routes, key=len)[:want]
        state.bundles[i] = paths
        for p in paths:
            used.update(p[1:-1])


def _shortcut_bundles(state):
    """Shortcut every bundle path to a local minimum: no forward chords
    inside a path, and no two-hop bypass through an unused outside vertex.
    At the fixpoint the interiors are backwards-transitive and neighbours
    propagate along each path with offset three."""
    T, col = state.T, state.coloring
    avail = col.uncolored_mask() & ~_bundle_interior_mask(state)

    def free(vs):
        # freed interiors are uncolored by the bundle invariant
        for v in vs:
            avail[v] = True

    changed = True
    while changed:
        changed = False
        for paths in state.bundles.values():
            for idx, q in enumerate(paths):
                # forward chord inside the path: the first chord tail, cut to
                # its farthest head
                chords = np.triu(unpack_rows(T.packed[q], T.n)[:, q], 2)
                tails = np.flatnonzero(chords.any(axis=1))
                if tails.size:
                    s = int(tails[0])
                    t = int(np.flatnonzero(chords[s])[-1])
                    free(q[s + 1:t])
                    paths[idx] = q[:s + 1] + q[t:]
                    changed = True
                    continue
                # two-hop bypass through an outside vertex
                av = np.flatnonzero(avail)
                first_in, last_out = _bypass_spans(T, q, av)
                cand = np.flatnonzero(last_out - first_in >= 3)
                if cand.size:
                    ci = int(cand[0])
                    v = int(av[ci])
                    s, t = int(first_in[ci]), int(last_out[ci])
                    free(q[s + 1:t])
                    avail[v] = False
                    paths[idx] = q[:s + 1] + [v] + q[t:]
                    changed = True
                    break


def _bypass_spans(T, path, outside):
    """For each outside vertex w, the first path position s with path[s] -> w
    and the last position t with w -> path[t] (len(path) and -1 when there is
    none); t - s >= 3 makes path[s] -> w -> path[t] a shortcut.  The last
    position of ``w -> path`` is the first of ``path -> w`` read on the
    transpose along the reversed path.  Only the path's rows are unpacked."""

    def first(rows, p):
        hits = unpack_rows(rows[p], T.n)[:, outside]
        return np.where(hits.any(axis=0), hits.argmax(axis=0), len(p))

    return first(T.packed, path), len(path) - 1 - first(T.rpacked, path[::-1])


def _bundle_interior_mask(state):
    return vertex_mask(state.T.n, (v for paths in state.bundles.values()
                                   for p in paths for v in p[1:-1]))


def _segment_positions(length, k):
    """Position ranges of the nine interior segments of a bundle path of
    ``length`` edges.  Segments 1-4 sit at fixed offsets from the front and
    6-9 at fixed offsets from the back; segment 5, the middle, takes the
    rest.  This is the one source of the layout: the hubs, the splice
    points, the bundle coloring and the bulk pool all read it."""
    assert length >= short_cap(k)
    return {
        1: range(1, k + 1),
        2: range(k + 1, 2 * k + 1),
        3: range(2 * k + 1, 3 * k + 3),
        4: range(3 * k + 3, 5 * k + 5),
        5: range(5 * k + 5, length - 5 * k - 4),
        6: range(length - 5 * k - 4, length - 3 * k - 2),
        7: range(length - 3 * k - 2, length - 2 * k - 1 + 1),
        8: range(length - 2 * k, length - k),
        9: range(length - k, length),
    }


def _audit_bundles(state):
    stage = "connector_bundles"
    T, col = state.T, state.coloring
    L = short_cap(state.k)
    outside = np.flatnonzero(col.uncolored_mask() & ~_bundle_interior_mask(state))
    # one family over all bundles, its paths numbered in index order
    fault = path_family_fault(T, [state.tips(i) for i, paths in state.bundles.items() for _ in paths],
                              [p for paths in state.bundles.values() for p in paths])
    state.require(stage, not fault, f"bundle {fault}")
    for i, paths in state.bundles.items():
        for p in paths:
            state.require(stage, len(p) - 1 >= L,
                          f"index {i}: bundle path of length {len(p) - 1} below {L}")
            state.require(stage, not any(col.is_colored(v) for v in p[1:-1]),
                          f"index {i}: bundle interior touches a colored vertex")
            state.require(stage, is_backwards_transitive(T, p),
                          f"index {i}: interior not backwards-transitive after shortcuts")
            first_in, last_out = _bypass_spans(T, p, outside)
            state.require(stage, bool((last_out - first_in < 3).all()),
                          f"index {i}: neighbour propagation audit failed")
    state.record(stage, info={"bundles": {i: len(ps) for i, ps in state.bundles.items()}})


def _place_hubs(state):
    """Pick small hub sets inside the bundle scaffolding so every other
    scaffold vertex sees k in- and k out-neighbours in a hub of each color."""
    stage = "connector_hubs"
    T, k = state.T, state.k
    segs0 = (1, 2, 3, 7, 8, 9)
    pool = {}
    for i, paths in state.bundles.items():
        for j, p in enumerate(paths):
            segs = _segment_positions(len(p) - 1, k)
            pool[(i, j)] = {p[pos] for s in segs0 for pos in segs[s]}
    # the alpha hub paths meet a core set of all scaffold vertices, the beta
    # hub paths one of the scaffold vertices the alpha pass left
    hubs, rest = [], list(pool)
    for _ in (ALPHA, BETA):
        w = set().union(*(pool[key] for key in rest))
        z = core_set(T, k, alive=vertex_mask(T.n, w)).vertices if len(w) >= 4 else w
        hubs.append({key for key in rest if pool[key] & z})
        rest = [key for key in rest if key not in hubs[-1]]
    state.hub_alpha_idx, state.hub_beta_idx = hubs
    state.hub_alpha, state.hub_beta = (set().union(*(pool[key] for key in idx)) for idx in hubs)
    leftover = vertex_mask(T.n, (v for key in rest for v in pool[key]))
    if leftover.any():
        for hub, name in ((state.hub_alpha, "alpha"), (state.hub_beta, "beta")):
            state.require(stage, len(hub) > 0,
                          f"hub {name} is empty but scaffold vertices remain")
            # k out-neighbours in the hub on packed, k in-neighbours on rpacked
            hub = packed_set(vertex_mask(T.n, hub))
            state.require(stage, all((counts_in(rows[leftover], hub) >= k).all()
                                     for rows in (T.packed, T.rpacked)),
                          f"scaffold vertex lacks k neighbours in hub {name}")
    state.record(stage, info={"hub_alpha": len(state.hub_alpha),
                              "hub_beta": len(state.hub_beta)})


def _splice_long_connectors(state):
    """Choose the actual connector path for each long index: an untouched
    bundle path when the parity fits, otherwise two or three bundle paths
    spliced at fixed segment boundaries."""
    stage = "connector_splice"
    T, k, col = state.T, state.k, state.coloring
    # the splice points: the first vertex of segments 3 and 5 from the front,
    # the last of segment 7 from the back; the shortest layout names them
    # for every length
    shortest = short_cap(k)
    segs = _segment_positions(shortest, k)
    q3, q5, q7 = segs[3][0], segs[5][0], segs[7][-1] - shortest - 1
    for i in state.long_idx:
        paths = state.bundles[i]
        b, a = state.tips(i)
        clean = [j for j, p in enumerate(paths)
                 if not any(col.is_colored(v) for v in p[1:-1])]
        parity = _CLASS_PARITY.get(state.klass(i))
        if parity is None:
            state.require(stage, len(clean) >= 5,
                          f"index {i}: only {len(clean)} untouched bundle paths, "
                          f"splice needs 5", kind="budget")
            five = clean[:5]
            ends = [paths[j][q7] for j in five]
            deg = unpack_rows(T.packed[ends], T.n)[:, ends].sum(axis=1)
            big = [j for j, d in zip(five, deg) if d >= 2]
            state.require(stage, len(big) >= 2, f"index {i}: endpoint tournament degenerate")
            s1, s2 = big[:2]
            if not T.has_edge(paths[s1][q3], paths[s2][q3]):
                s1, s2 = s2, s1
            s3 = next((j for j in five
                       if j not in (s1, s2) and T.has_edge(paths[s2][q7], paths[j][q7])), None)
            state.require(stage, s3 is not None, f"index {i}: no third splice partner")
            p1, p2, p3 = paths[s1], paths[s2], paths[s3]
            path = p1[:q3 + 1] + p2[q3:q7 + 1] + p3[q7:]
            state.splices[i] = (s1, s2, s3)
        else:
            state.require(stage, len(clean) >= 2,
                          f"index {i}: only {len(clean)} untouched bundle paths, "
                          f"needs 2", kind="budget")
            s1, s2 = clean[:2]
            fits = [j for j in (s1, s2) if (len(paths[j]) - 1) % 2 == parity]
            if fits:
                path = paths[fits[0]]
                state.splices[i] = (fits[0],)
            else:
                if not T.has_edge(paths[s1][q5], paths[s2][q5]):
                    s1, s2 = s2, s1
                p1, p2 = paths[s1], paths[s2]
                path = p1[:q5 + 1] + p2[q5:]
                state.splices[i] = (s1, s2)
            state.require(stage, (len(path) - 1) % 2 == parity,
                          f"index {i}: spliced path has the wrong parity")
        fault = path_family_fault(T, [(b, a)], [path])
        state.require(stage, not fault, f"index {i}: splice did not produce a valid connector: {fault}")
        state.connectors[i] = path


def _color_bundles(state):
    """The final bundle coloring: connector interiors by class, scaffold
    segments by the fixed pattern, hub segments already colored, and all
    remaining bundle middles alpha (they form the bulk pool)."""
    k, col = state.k, state.coloring

    # hubs first: alpha/beta blocks plus alternating mid segments
    col.assign(state.hub_alpha, ALPHA)
    col.assign(state.hub_beta, BETA)
    mids = set()
    for (i, j) in sorted(state.hub_alpha_idx | state.hub_beta_idx):
        p = state.bundles[i][j]
        segs = _segment_positions(len(p) - 1, k)
        for s in (4, 6):
            verts = [p[pos] for pos in segs[s]]
            col.assign(verts[0::2], ALPHA)
            col.assign(verts[1::2], BETA)
            mids.update(verts)
    # protect every bundle vertex from the extension grabs, not only the
    # scaffold segments: desk-scale bundles are narrow and splicing needs
    # untouched paths to survive
    on_bundles = {v for paths in state.bundles.values() for p in paths for v in p[1:-1]}
    group = state.hub_alpha | state.hub_beta | mids
    extend_coloring_safely(state, group, protected=frozenset(on_bundles - group))
    state.snapshot("hubs")
    state.require_safe("connector_hubs", "hub audit: some colored vertex is unsafe")

    _splice_long_connectors(state)
    for i in state.long_idx:
        _color_connector(state, i, state.connectors[i])

    for i in state.long_idx:
        mono = _MONO_COLOR.get(state.klass(i))
        cb, ca = (col.of(t) for t in state.tips(i))
        for p in state.bundles[i]:
            length = len(p) - 1
            segs = _segment_positions(length, k)
            state.bulk.update(p[pos] for pos in segs[5])
            if mono is not None:
                pattern = {1: mono, 9: mono, 2: 1 - mono, 3: 1 - mono, 7: 1 - mono,
                           8: 1 - mono, 4: ALPHA, 6: ALPHA}
                for s, color in pattern.items():
                    col.assign([p[pos] for pos in segs[s] if not col.is_colored(p[pos])],
                               color)
            else:
                # colors alternate from b through the front and from a through the back
                for segments, tip, end in (((1, 2, 3, 4), cb, 0), ((6, 7, 8, 9), ca, length)):
                    fresh = ([], [])  # uncolored, at an even and at an odd distance from the tip
                    for pos in (pos for s in segments for pos in segs[s]):
                        if not col.is_colored(p[pos]):
                            fresh[(pos - end) % 2].append(p[pos])
                    col.assign(fresh[0], tip)
                    col.assign(fresh[1], 1 - tip)
    col.assign([v for v in sorted(state.bulk) if not col.is_colored(v)], ALPHA)


def _color_connector(state, i, path):
    """Color the uncolored interior of the i-th connector by its class: all
    alpha or all beta for the monochromatic classes, alternating otherwise."""
    col = state.coloring
    mono = _MONO_COLOR.get(state.klass(i))
    if mono is None:
        _color_alternating_interior(state, path)
    else:
        col.assign([v for v in path[1:-1] if not col.is_colored(v)], mono)


def _color_alternating_interior(state, path):
    """Color the uncolored interior of a path so colors alternate from its
    (already colored) endpoints; an interior vertex already colored must fit
    the alternation."""
    col = state.coloring
    cb = col.of(path[0])
    length = len(path) - 1
    if (cb == col.of(path[-1])) != (length % 2 == 0):
        raise AssertionError("path parity inconsistent with endpoint colors")
    fresh = ([], [])  # the uncolored interior at even and at odd positions
    for pos in range(1, length):
        v = path[pos]
        if not col.is_colored(v):
            fresh[pos % 2].append(v)
        elif col.of(v) != (cb if pos % 2 == 0 else 1 - cb):
            raise PipelineError("connector_splice", f"alternating interior clashes at vertex {v}")
    col.assign(fresh[0], cb)
    col.assign(fresh[1], 1 - cb)


def _audit_connectors(state):
    stage = "connectors"
    T, col = state.T, state.coloring
    c1 = state.snapshots["bootstrap"]
    for i in range(state.total):
        state.require(stage, i in state.connectors, f"no connector path for index {i}")
    # the tips are structure members, so interiors that miss the reserved
    # set miss every other connector's ends too
    fault = path_family_fault(T, [state.tips(i) for i in range(state.total)],
                              [state.connectors[i] for i in range(state.total)], state.reserved)
    state.require(stage, not fault, f"connector {fault}")
    for i in range(state.total):
        p = state.connectors[i]
        state.require(stage, not any(c1[v] for v in p[1:-1]),
                      f"connector {i} meets the bootstrap coloring")
        cls = state.klass(i)
        parity = _CLASS_PARITY.get(cls)
        if parity is not None:
            state.require(stage, (len(p) - 1) % 2 == parity,
                          f"connector {i} has the wrong parity")
            labs = [col.of(v) for v in p]
            state.require(stage, all(labs[t] != labs[t + 1] for t in range(len(p) - 1)),
                          f"connector {i} is not alternating")
        else:
            want = _MONO_COLOR[cls]
            state.require(stage, all(col.of(v) == want for v in p),
                          f"connector {i} is not monochromatic")
    state.require_safe(stage, "connector exit audit: some colored vertex is unsafe")
    # bulk neighbour property: anything uncolored that sees the bulk pool
    # must see k colored neighbours of each color
    if state.bulk:
        unc = np.flatnonzero(col.uncolored_mask())
        bulk = packed_set(vertex_mask(T.n, state.bulk))
        colors = [packed_set(col.mask(c)) for c in (ALPHA, BETA)]
        ok = True
        for packed in (T.packed, T.rpacked):
            rows = packed[unc]
            enough = np.logical_and.reduce([counts_in(rows, c) >= state.k for c in colors])
            ok &= bool((enough | ~(rows & bulk).any(axis=1)).all())
        state.require(stage, ok, "bulk neighbour audit failed")
    c4 = col.colored_mask()
    extra = int((c4 & ~vertex_mask(T.n, state.bulk)).sum())
    info = {"colored": int(c4.sum()), "outside_bulk": extra}
    if state.params.strict:
        k = state.k
        cap = int(3 * 10 ** 7 * k ** 6 * math.log2(2 * k))
        info["within_strict_cap"] = extra <= cap
        state.require(stage, info["within_strict_cap"], "colored-outside-bulk cap violated")
    state.record(stage, info=info)


# ---------------------------------------------------------------------------
# stage 4+5: exception pools, then everything else


def finalize_coloring(state):
    """Color the exception pools (fresh neighbour grabs with the bulk pool
    as fallback), then everything still uncolored alpha; exit audit checks
    the whole tournament is colored and safe."""
    stage = "finalize"
    T, k, col = state.T, state.k, state.coloring
    c4 = state.snapshots["connectors"]
    exc_out_mask = vertex_mask(T.n, state.exc_out)
    exc_mask = exc_out_mask | vertex_mask(T.n, state.exc_in)
    bulk = row_bits(vertex_mask(T.n, state.bulk))

    # out-exceptions grab in-neighbours, in-exceptions grab out-neighbours
    grabbed = {}
    for rows, side, pool, banned in ((T.rpacked, "in", state.exc_out, exc_out_mask),
                                     (T.packed, "out", state.exc_in, exc_mask)):
        todo = [v for v in sorted(pool) if not c4[v]]
        picks = []
        with _GrantWave(col, col.uncolored_mask() & ~banned, k) as wave:
            for v, row in zip(todo, row_bits(rows[todo])):
                cand = row & wave.free
                if cand.bit_count() >= 2 * k:
                    picks += wave.grant(cand)
                else:
                    state.require(stage, bool(row & bulk),
                                  f"exception vertex {v}: no fresh {side}-neighbours and no "
                                  f"bulk {side}-neighbour", kind="budget")
                # v is banned from the grants, so the coloring is current for it
                if not col.is_colored(v):
                    wave.alpha.append(v)
        state.require(stage, len(picks) <= 2 * k * len(pool),
                      f"{side}-grab bookkeeping cap violated")
        grabbed[f"grabbed_{side}"] = len(picks)

    rest = np.flatnonzero(col.uncolored_mask())
    col.assign(rest, ALPHA)
    state.snapshot("final")
    state.require(stage, col.colored_count() == T.n, "some vertex is still uncolored")
    state.require_safe(stage, "final audit: some vertex is unsafe")
    state.record(stage, info={
        **grabbed,
        "alpha": int((col.labels == ALPHA).sum()),
        "beta": int((col.labels == BETA).sum())})


# ---------------------------------------------------------------------------
# top-level driver


def pipeline_feasible(T, k, params):
    """Cheap precheck of the stage preconditions with the given params."""
    c = params.chain_cap
    n = T.n
    if n < 12 * k:
        return False, f"need at least {12 * k} vertices, have {n}"
    din = T.in_degrees()
    d0 = int(min(din.min(), n - 1 - din.max()))  # the least out-degree is n - 1 - the most in
    if params.strict:
        need = 2 * params.budget
        if d0 < need:
            return False, (f"pipeline with guaranteed constants requires delta0(T) >= {need}; "
                           f"instance has {d0}")
    slack_needed = 2 ** (c - 1) + 12 * k * c
    if d0 < slack_needed:
        return False, (f"minimum degree {d0} below the dominating-family requirement "
                       f"{slack_needed}")
    # the bootstrap colors up to growth * |Z| distinct vertices, |Z| being the
    # anchor grants plus the non-anchor chain vertices
    load = 12 * k * c + 48 * k * k + growth(k) * (48 * k * k + 12 * k * (c - 1))
    if n < load + 12 * k:
        return False, (f"{n} vertices cannot absorb the bootstrap coloring load "
                       f"(about {load} colored vertices)")
    return True, "ok"


def _normalize(state):
    """Strict runs need |exc_out| <= |exc_in|: if T's family breaks it, keep the reversal's if that holds."""
    if len(state.exc_out) <= len(state.exc_in):
        return state
    flipped = PipelineState(state.T.reverse(), state.k, state.params, flipped=True)
    build_dominating_family(flipped)
    if len(flipped.exc_out) <= len(flipped.exc_in):
        return flipped
    state.record("normalization", info={"note": "exception pools stay unbalanced under reversal; continuing"})
    return state


def run_pipeline(T, k, params=None, seed=0):
    """Run all stages; returns the finished state (raises PipelineError).

    Only strict params normalize the exception pools (``_normalize``); the verifier
    certifies relaxed runs.  Strict params without a budget raise ValueError.
    The stages are deterministic; ``seed`` is accepted for uniform calls."""
    params = params if params is not None else PipelineParams.guaranteed(k)
    if params.strict and params.budget is None:
        raise ValueError("strict pipeline params need a budget")
    ok, reason = pipeline_feasible(T, k, params)
    if not ok:
        raise PipelineError("feasibility", reason)
    state = PipelineState(T, k, params)
    build_dominating_family(state)
    state = _normalize(state) if params.strict else state
    color_reserved(state)
    bootstrap_safety(state)
    find_connector_paths(state)
    finalize_coloring(state)
    return state
