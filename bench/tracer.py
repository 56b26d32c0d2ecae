"""Spans around the calls into each tourpart module, for the traced run.

A wrapper is installed at every binding a call can go through: the defining
module, every module that did ``from .x import name``, and the package
namespace.  Patching only the defining module would miss the internal calls,
for example ``surgery`` calling the ``bfs_shortest_path`` it imported from
``core``.  Methods (``Tournament.subtournament``, ``Tournament.__init__``,
``VertexFlow.__init__``) are patched on their class, which every binding
shares.  ``Tracer`` is a context manager; leaving it restores every binding.
It may be entered again and keeps collecting spans.

A span records its name, start, end, parent span and whether a span of the
same name was already open (then it is nested and not counted again).  A
span's self time is its duration minus the durations of its child spans;
calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter


def _note_subtournament_bytes(notes, args, result):
    sub, _ids = result
    notes["core.subtournament_bytes"] += sub.n * sub.n


def _note_hamilton_found(notes, args, result):
    notes["hamilton.found"] += result.status == "found"


def targets():
    """(span name, owner, attribute, note) for every traced entry point."""
    # by module path: the package attribute ``partition`` is the function
    (cli, connectivity, core, domination, formats, hamilton, partition, pipeline,
     safety, surgery) = (importlib.import_module(f"tourpart.{m}") for m in (
        "cli", "connectivity", "core", "domination", "formats", "hamilton",
        "partition", "pipeline", "safety", "surgery"))
    return [
        ("core.reachable", core, "reachable_mask", None),
        ("core.bfs_path", core, "bfs_shortest_path", None),
        ("core.bfs_path", core, "bfs_parity_path", None),
        ("core.subtournament", core.Tournament, "subtournament", _note_subtournament_bytes),
        ("core.tournament_init", core.Tournament, "__init__", None),
        ("connectivity.flow", connectivity, "maximum_flow", None),
        ("connectivity.flow_net", connectivity.VertexFlow, "__init__", None),
        ("connectivity.certify", connectivity, "is_strongly_k_connected", None),
        ("connectivity.kappa", connectivity, "vertex_connectivity", None),
        ("domination.structure", domination, "out_dominating_structure", None),
        ("domination.structure", domination, "in_dominating_structure", None),
        ("safety.scan", safety, "safety_scan", None),
        ("hamilton", hamilton, "hamiltonian_path", _note_hamilton_found),
        ("surgery.carve", surgery, "remove_nonseparating_path", None),
        ("surgery.subdivide", surgery, "nonseparating_subdivision", None),
        ("surgery.spanning", surgery, "spanning_linkage", None),
        ("partition.search", partition, "search_partition", None),
        ("partition.verify", partition, "verify_partition", None),
        ("pipeline.run", pipeline, "run_pipeline", None),
        ("pipeline.family", pipeline, "build_dominating_family", None),
        ("pipeline.bootstrap", pipeline, "bootstrap_safety", None),
        ("pipeline.connectors", pipeline, "find_connector_paths", None),
        ("pipeline.finalize", pipeline, "finalize_coloring", None),
        ("formats.read", formats, "read_tournament", None),
        ("formats.read", formats, "read_digraph", None),
        ("cli.main", cli, "main", None),
    ]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tourpart" or name.startswith("tourpart."))]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1, nested]
        self.notes = Counter()   # counts taken from return values
        self.bindings = []       # (owner, attribute, original) as patched
        self._stack = []
        self._open = Counter()

    def _wrap(self, name, fn, note):
        spans, stack, open_, notes = self.spans, self._stack, self._open, self.notes
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, open_[name] > 0]
            stack.append(len(spans))
            spans.append(span)
            open_[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_[name] -= 1
                stack.pop()
            if note is not None:
                note(notes, args, result)
            return result

        return traced

    def __enter__(self):
        modules = _package_modules()
        try:
            for name, owner, attr, note in targets():
                if isinstance(owner, type):
                    original = vars(owner)[attr]
                    holders = [owner]
                else:
                    original = getattr(owner, attr)
                    holders = [m for m in modules if vars(m).get(attr) is original]
                wrapper = self._wrap(name, original, note)
                for holder in holders:
                    setattr(holder, attr, wrapper)
                    self.bindings.append((holder, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        for holder, attr, original in reversed(self.bindings):
            setattr(holder, attr, original)
        self.bindings.clear()


# name, unit; the order is the order of the report
LAYER_METRICS = [
    ("core.reachable_calls", "count"),
    ("core.reachable_s", "s"),
    ("core.bfs_path_calls", "count"),
    ("core.bfs_path_s", "s"),
    ("core.subtournament_calls", "count"),
    ("core.subtournament_s", "s"),
    ("core.subtournament_mb", "MB"),
    ("core.tournament_init_calls", "count"),
    ("core.tournament_init_s", "s"),
    ("connectivity.flow_calls", "count"),
    ("connectivity.flow_s", "s"),
    ("connectivity.flow_ms_per_call", "ms"),
    ("connectivity.flow_net_builds", "count"),
    ("connectivity.certify_calls", "count"),
    ("connectivity.certify_s", "s"),
    ("connectivity.flows_per_certify", "ratio"),
    ("connectivity.kappa_calls", "count"),
    ("connectivity.kappa_s", "s"),
    ("domination.structure_calls", "count"),
    ("domination.structure_s", "s"),
    ("safety.scan_calls", "count"),
    ("safety.scan_s", "s"),
    ("hamilton.calls", "count"),
    ("hamilton.s", "s"),
    ("hamilton.found_frac", "ratio"),
    ("surgery.carve_s", "s"),
    ("surgery.subdivide_s", "s"),
    ("surgery.spanning_s", "s"),
    ("partition.search_s", "s"),
    ("partition.verify_calls", "count"),
    ("partition.verify_s", "s"),
    ("partition.certs_per_op", "ratio"),
    ("pipeline.family_s", "s"),
    ("pipeline.family_builds", "count"),
    ("pipeline.bootstrap_s", "s"),
    ("pipeline.connectors_s", "s"),
    ("pipeline.finalize_s", "s"),
    ("formats.read_calls", "count"),
    ("formats.read_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.main_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_frac", "ratio"),
]

# metrics that count work and must repeat exactly for a fixed input
COUNT_METRICS = [name for name, unit in LAYER_METRICS if unit in ("count", "MB")]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, n_ops, op_seconds, plain_seconds, startup_s):
    """Per-layer metrics of one traced pass of ``n_ops`` operations.

    ``op_seconds`` and ``plain_seconds`` are the summed operation wall times
    of the traced pass and of the same pass run untraced.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, nested in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, own = Counter(), Counter(), Counter()
    certified_flows = 0
    covered = 0.0
    for i, (name, start, end, parent, nested) in enumerate(spans):
        own[name] += end - start - child[i]
        if not nested:
            calls[name] += 1
            total[name] += end - start
        if parent < 0:
            covered += end - start
        if name == "connectivity.flow":
            p = parent
            while p >= 0 and spans[p][0] != "connectivity.certify":
                p = spans[p][3]
            certified_flows += p >= 0

    m = {}
    for layer in ("core.reachable", "core.bfs_path", "core.subtournament",
                  "core.tournament_init", "connectivity.flow", "connectivity.certify",
                  "connectivity.kappa", "domination.structure", "safety.scan",
                  "partition.verify", "formats.read"):
        m[f"{layer}_calls"] = calls[layer]
        m[f"{layer}_s"] = total[layer]
    m["core.subtournament_mb"] = tracer.notes["core.subtournament_bytes"] / 1e6
    m["connectivity.flow_ms_per_call"] = 1000 * _ratio(total["connectivity.flow"],
                                                       calls["connectivity.flow"])
    m["connectivity.flow_net_builds"] = calls["connectivity.flow_net"]
    m["connectivity.flows_per_certify"] = _ratio(certified_flows, calls["connectivity.certify"])
    m["hamilton.calls"] = calls["hamilton"]
    m["hamilton.s"] = total["hamilton"]
    m["hamilton.found_frac"] = _ratio(tracer.notes["hamilton.found"], calls["hamilton"])
    m["surgery.carve_s"] = own["surgery.carve"]
    m["surgery.subdivide_s"] = own["surgery.subdivide"]
    m["surgery.spanning_s"] = own["surgery.spanning"]
    m["partition.search_s"] = own["partition.search"]
    m["partition.certs_per_op"] = _ratio(
        calls["connectivity.certify"] + calls["connectivity.kappa"], n_ops)
    m["pipeline.family_s"] = total["pipeline.family"]
    m["pipeline.family_builds"] = calls["pipeline.family"]
    m["pipeline.bootstrap_s"] = total["pipeline.bootstrap"]
    m["pipeline.connectors_s"] = total["pipeline.connectors"]
    m["pipeline.finalize_s"] = total["pipeline.finalize"]
    m["cli.startup_s"] = startup_s
    m["cli.main_s"] = own["cli.main"]
    m["trace.overhead_frac"] = _ratio(op_seconds - plain_seconds, plain_seconds)
    m["trace.uncovered_frac"] = _ratio(op_seconds - covered, op_seconds)
    return m
