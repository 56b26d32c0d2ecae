"""The four benchmark workloads: their inputs, the timed call and its check.

Each workload owns a fixed pool of instances drawn the way the acceptance
criteria draw them (``tests/test_acceptance.py``); ``reference.json`` holds
what the seed commit returned on each.  The run seed only orders the pool, so
every run measures the same mix of cheap and expensive instances (pipeline
instances that take the reversal branch cost twice as much; failed searches
run out their budget).  ``pass_seconds`` is the calibrated CPU time of one
pass over the pool at the seed commit; it turns ``--seconds`` into a number of
passes.

A check never trusts the library's own verifier where an independent check
is cheap: paths, covers, remainders and partitions are re-checked here from
the adjacency matrix.  ``check`` raises ``CheckFailed`` on a wrong result and
otherwise returns an ``Outcome``:

- ``artifact``: what the call returned, in a canonical JSON-able form;
- ``verified``: the call returned a certified result;
- ``facts``: facts of the instance alone, which any correct implementation
  reports the same way;
- ``artifact_facts``: facts of the returned artifact, comparable with the
  reference only when the artifact is the recorded one.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import tourpart
from tourpart.core import digraph_from_edges
from tourpart.formats import write_edge_list
from tourpart.generators import random_tournament
from tourpart.pipeline import PipelineError, PipelineParams
from tourpart.surgery import SubdivisionSpec

# Operations are called through their module, not through names bound here,
# so that the traced run's wrappers see the benchmark's own calls.  Modules
# are looked up by path: the package attribute ``partition`` is a function.
cli, partition, pipeline, surgery = (importlib.import_module(f"tourpart.{m}")
                                     for m in ("cli", "partition", "pipeline", "surgery"))

TRIANGLE = digraph_from_edges(3, [(0, 1), (1, 2), (2, 0)])


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Instance:
    key: str        # stable name, the key into reference.json
    group: str      # operations of one group alternate with the other groups
    args: tuple


@dataclass
class Outcome:
    artifact: object
    verified: bool
    facts: dict = field(default_factory=dict)
    artifact_facts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# independent checks on the adjacency matrix


def _is_path(adj, path):
    return (len(path) >= 2 and len(set(path)) == len(path)
            and all(adj[u, v] for u, v in zip(path, path[1:])))


def _backwards_transitive(adj, path):
    return all(adj[path[i], path[j]]
               for j in range(len(path)) for i in range(j + 2, len(path)))


def _check_route(adj, path, x, y, banned, what, shortest=True):
    require(path[0] == x and path[-1] == y, f"{what}: wrong endpoints")
    require(_is_path(adj, path), f"{what}: not a simple path of T")
    require(not set(path[1:-1]) & set(banned), f"{what}: uses a vertex it must avoid")
    if shortest:
        require(_backwards_transitive(adj, path), f"{what}: has a forward chord")


def _min_degree(adj):
    if adj.shape[0] == 0:
        return 0
    return int(min(adj.sum(axis=0).min(), adj.sum(axis=1).min()))


def _check_remainder(T, removed, remainder, index_map, k, ok, backed):
    keep = [v for v in range(T.n) if v not in removed]
    require(list(index_map) == keep, "remainder has the wrong vertex set")
    require(np.array_equal(remainder.adj, T.adj[np.ix_(keep, keep)]),
            "remainder is not the induced subtournament")
    require(ok or not backed, "theorem-backed remainder failed its check")
    if ok:
        require(_min_degree(remainder.adj) >= k, "remainder reported k-connected below degree k")


def _check_partition(T, v1, v2, k, connectivity):
    """Sides partition V; each of the three graphs has minimum in- and
    out-degree >= k, which bounds its reported connectivity from above."""
    s1, s2 = set(v1), set(v2)
    require(s1 and s2 and not s1 & s2 and s1 | s2 == set(range(T.n)),
            "sides do not partition V")
    a, b = sorted(s1), sorted(s2)
    side = np.zeros(T.n, dtype=bool)
    side[a] = True
    graphs = (T.adj[np.ix_(a, a)], T.adj[np.ix_(b, b)],
              T.adj & (side[:, None] != side[None, :]))
    for adj, kappa in zip(graphs, connectivity):
        degree = _min_degree(adj)
        require(degree >= k, "a side or the crossing digraph has a vertex of degree < k")
        require(k <= kappa <= degree, "reported connectivity outside [k, min degree]")


def _draw_carve(n, s):
    """Criterion 5's draw: endpoints and two avoided vertices."""
    rng = np.random.default_rng(s + 1)
    x, y = (int(v) for v in rng.choice(n, 2, replace=False))
    avoid = [int(v) for v in rng.choice(n, 6, replace=False) if v not in (x, y)][:2]
    return x, y, avoid


# ---------------------------------------------------------------------------
# surgery


class Surgery:
    name = "surgery"
    pass_seconds = 3.5
    k_carve = 2

    def instances(self, tiny, work_dir):
        per_group = 1 if tiny else 3
        n_carve, n_sub, n_span = (20, 20, 12) if tiny else (60, 80, 40)
        out = []
        for s in range(per_group):
            T = random_tournament(n_carve, s)
            out.append(Instance(f"carve-{s}", "carve", (T, *_draw_carve(n_carve, s))))
            T = random_tournament(n_sub, 2000 + s)
            rng = np.random.default_rng(s + 1)
            branches = [int(v) for v in rng.choice(n_sub, 3, replace=False)]
            out.append(Instance(f"subdivide-{s}", "subdivide", (T, branches)))
            T = random_tournament(n_span, 1000 + s)
            rng = np.random.default_rng(s + 1)
            p = [int(v) for v in rng.choice(n_span, 4, replace=False)]
            pairs = [(p[0], p[1]), (p[2], p[3])]
            out.append(Instance(f"spanning-{s}", "spanning", (T, pairs, s + 1)))
        return out

    def call(self, inst, in_process=False):
        if inst.group == "carve":
            T, x, y, avoid = inst.args
            return surgery.remove_nonseparating_path(T, x, y, avoid, self.k_carve)
        if inst.group == "subdivide":
            T, branches = inst.args
            return surgery.nonseparating_subdivision(T, SubdivisionSpec(TRIANGLE, branches), 1)
        T, pairs, seed = inst.args
        return surgery.spanning_linkage(T, pairs, seed=seed)

    def check(self, inst, res):
        return getattr(self, "_check_" + inst.group)(inst, res)

    def _check_carve(self, inst, res):
        T, x, y, avoid = inst.args
        k = self.k_carve
        require(res.level == k + len(avoid) + 4, "wrong hypothesis level")
        _check_route(T.adj, res.path, x, y, avoid, "carved path")
        _check_remainder(T, set(res.path), res.remainder, res.index_map, k,
                         res.remainder_ok, res.theorem_backed)
        return Outcome({"path": res.path}, bool(res.remainder_ok),
                       {"theorem_backed": bool(res.theorem_backed)},
                       {"remainder_ok": bool(res.remainder_ok)})

    def _check_subdivide(self, inst, sub):
        T, branches = inst.args
        require(sub.level == 1 + 3 * (3 + 2), "wrong hypothesis level")
        require(sorted(sub.edge_paths) == sorted(TRIANGLE.edges()), "wrong pattern edges")
        removed = set(branches)
        for (hu, hv), path in sorted(sub.edge_paths.items()):
            _check_route(T.adj, path, branches[hu], branches[hv], removed, "subdivision path")
            removed |= set(path)
        _check_remainder(T, removed, sub.remainder, sub.index_map, 1,
                         sub.remainder_ok, sub.theorem_backed)
        paths = [[hu, hv, p] for (hu, hv), p in sorted(sub.edge_paths.items())]
        return Outcome({"paths": paths}, bool(sub.remainder_ok),
                       {"theorem_backed": bool(sub.theorem_backed)},
                       {"remainder_ok": bool(sub.remainder_ok)})

    def _check_spanning(self, inst, res):
        T, pairs, _seed = inst.args
        require(res.status in ("found", "unknown", "infeasible"), f"bad status {res.status!r}")
        require(res.status != "infeasible" or not res.theorem_backed,
                "theorem-backed instance reported infeasible")
        if res.status == "found":
            terminals = {v for p in pairs for v in p}
            require(len(res.paths) == len(pairs), "one path per pair expected")
            seen = []
            for (x, y), path in zip(pairs, res.paths):
                # only the carved paths are shortest; the Hamiltonian close is not
                _check_route(T.adj, path, x, y, terminals, "linkage path", shortest=False)
                seen.extend(path[1:-1])
            require(len(seen) == len(set(seen)), "linkage paths share an interior vertex")
            require(set(seen) | terminals == set(range(T.n)), "linkage does not cover V")
        return Outcome({"status": res.status, "paths": res.paths}, res.status == "found",
                       {"theorem_backed": bool(res.theorem_backed)})


# ---------------------------------------------------------------------------
# search


class Search:
    name = "search"
    pass_seconds = 4.3
    k = 2

    def instances(self, tiny, work_dir):
        n, count = (16, 1) if tiny else (40, 9)
        # criterion 9's instances and search seeds
        return [Instance(f"search-{i}", "search", (random_tournament(n, 31415 + i), i))
                for i in range(count)]

    def call(self, inst, in_process=False):
        T, seed = inst.args
        return partition.search_partition(T, self.k, seed)

    def check(self, inst, res):
        T, _seed = inst.args
        if res is None:
            return Outcome(None, False)
        require(res.verified and res.k == self.k, "returned partition is not verified at k")
        _check_partition(T, res.v1, res.v2, self.k, res.connectivity)
        return Outcome({"v1": sorted(res.v1)}, True, {},
                       {"connectivity": list(res.connectivity)})


# ---------------------------------------------------------------------------
# pipeline


class Pipeline:
    name = "pipeline"
    pass_seconds = 3.1

    def instances(self, tiny, work_dir):
        n, seeds = (1500, [1]) if tiny else (1500, [1, 2, 3, 4, 5])
        # criterion 10's instances (at a smaller n) and pipeline seeds; seeds 1,
        # 4 and 5 take the reversal branch and build the dominating family twice
        return [Instance(f"pipeline-{i}", "pipeline", (random_tournament(n, 5000 + i), i))
                for i in seeds]

    def call(self, inst, in_process=False):
        T, seed = inst.args
        try:
            state = pipeline.run_pipeline(T, 1, PipelineParams.relaxed(1), seed=seed)
        except PipelineError as exc:
            return exc
        v1, v2 = state.partition_sets()
        return state, partition.verify_partition(T, v1, v2, 1)

    def check(self, inst, raw):
        T, _seed = inst.args
        if isinstance(raw, PipelineError):
            require(raw.stage and raw.reason, "pipeline aborted without a stage diagnostic")
            return Outcome({"abort": raw.stage}, False)
        state, res = raw
        require(all(a.passed for a in state.audits), "a stage audit failed silently")
        require(res.verified, "pipeline completed but the verifier rejected it")
        _check_partition(T, res.v1, res.v2, 1, res.connectivity)
        return Outcome({"v1": sorted(res.v1)}, True, {},
                       {"connectivity": list(res.connectivity)})


# ---------------------------------------------------------------------------
# cli


def _fields(text):
    """``key: value`` lines of a CLI report as a dict."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _ints(text):
    return [int(t) for t in text.split()]


class Cli:
    name = "cli"
    pass_seconds = 4.6
    children_rss = True     # peak_rss_mb is that of the largest child
    # child processes import the same tourpart as this process
    _env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tourpart.__file__)))

    def instances(self, tiny, work_dir):
        # one instance per command: the search workload's first instance and
        # the surgery workload's first carve; a CLI pass then takes ~5 s
        n40, n60, k = (12, 16, 1) if tiny else (40, 60, 2)
        T40, T60 = random_tournament(n40, 31415), random_tournament(n60, 0)
        p40, p60 = os.path.join(work_dir, "t40.txt"), os.path.join(work_dir, "t60.txt")
        for T, path in ((T40, p40), (T60, p60)):
            with open(path, "w") as fh:
                write_edge_list(T, fh)
        x, y, avoid = _draw_carve(n60, 0)
        return [
            Instance("analyze-0", "analyze", (T40, ["analyze", p40])),
            Instance("partition-0", "partition", (T40, [
                "partition", p40, "--mode", "search", "--k", str(k), "--seed", "0"], k)),
            Instance("carve-0", "carve", (T60, [
                "carve", p60, str(x), str(y), "--avoid", ",".join(map(str, avoid)),
                "--k", str(k)], x, y, avoid, k)),
        ]

    def call(self, inst, in_process=False):
        argv = inst.args[1]
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "tourpart.cli", *argv],
                              capture_output=True, text=True, timeout=120, env=self._env)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, inst, raw):
        return getattr(self, "_check_" + inst.group)(inst, *raw)

    def _check_analyze(self, inst, code, out, err):
        T = inst.args[0]
        require(code == 0, f"analyze exited {code}: {err.strip()}")
        f = _fields(out)
        kappa = int(f["vertex connectivity"])
        require(int(f["n"]) == T.n, "analyze reports the wrong n")
        require(0 <= kappa <= _min_degree(T.adj), "connectivity above the minimum degree")
        require(all(f[f"strongly {j}-connected"] == "True" for j in range(1, kappa + 1)),
                "a level up to the connectivity is reported false")
        return Outcome({"kappa": kappa}, True, {"kappa": kappa})

    def _check_partition(self, inst, code, out, err):
        T, _argv, k = inst.args
        require(code in (0, 1, 2), f"partition exited {code}: {err.strip()}")
        if code != 0:
            return Outcome({"exit": code}, False)
        f = _fields(out)
        v1, v2, kappas = _ints(f["V1"]), _ints(f["V2"]), _ints(f["connectivity"])
        require(f["verified"] == "true", "exit 0 without a verified partition")
        _check_partition(T, v1, v2, k, kappas)
        return Outcome({"v1": sorted(v1)}, True, {}, {"connectivity": kappas})

    def _check_carve(self, inst, code, out, err):
        T, _argv, x, y, avoid, k = inst.args
        require(code in (0, 1), f"carve exited {code}: {err.strip()}")
        f = _fields(out)
        if "path" not in f:
            require(code == 1 and err.startswith("no path"), "carve printed no path")
            return Outcome({"exit": code}, False)
        path = _ints(f["path"])
        _check_route(T.adj, path, x, y, avoid, "carved path")
        backed = f["status"].startswith("theorem-backed")
        ok = f[f"remainder strongly {k}-connected"] == "true"
        require(ok == (code == 0), "exit code disagrees with the remainder verdict")
        require(ok or not backed, "theorem-backed remainder failed its check")
        return Outcome({"path": path}, ok, {"theorem_backed": backed}, {"remainder_ok": ok})


WORKLOADS = {w.name: w for w in (Surgery(), Search(), Pipeline(), Cli())}
