"""One workload in one fresh process: set up, then measure.

    python3 bench/worker.py --workload W --seed N --mode setup|timed|traced [--seconds S]
    python3 bench/worker.py --record

``run.py`` starts this with ``PYTHONPATH`` pointing at the library sources.
Everything before the first timed operation (the interpreter, ``import
tourpart``, instance generation, input files) is set-up; the process prints
the CPU time it has used by then as ``ready_cpu``, and ``time.monotonic()``
as ``ready_at`` so that the parent can also give set-up's wall time from the
moment it spawned the process.  The last line of standard output is one JSON
object.

``--record`` runs one pass of every workload and writes ``reference.json``;
it is how the reference values were made at the seed commit.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple

import numpy as np

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
MIN_SAMPLES = 11        # latency_tail_ms needs ten samples beyond it
STARTUP_PROBES = 3
CALIBRATION_S = 0.025   # the kernel's CPU time on the host the metrics are scaled to
SETUP_CALIBRATIONS = 5

# one finished operation: its CPU time is what the metrics report, its wall
# time what the loop and the traced pass count
Done = namedtuple("Done", "inst raw err cpu wall")


def schedule(instances, rng):
    """One pass over the pool: groups taken in turn, in a shuffled order,
    each group's instances shuffled."""
    groups = {}
    for inst in instances:
        groups.setdefault(inst.group, []).append(inst)
    groups = list(groups.values())
    shuffled = [[g[i] for i in rng.permutation(len(g))] for g in groups]
    turn_order = rng.permutation(len(groups))
    return [turn[j] for turn in zip(*shuffled) for j in turn_order]


def cpu_seconds():
    """CPU time of this process and of the child processes it waited for."""
    own, kids = (resource.getrusage(who) for who in (resource.RUSAGE_SELF,
                                                      resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@functools.cache
def _kernel_data():
    rng = np.random.default_rng(0)
    return rng.random((300, 300)) < 0.5, rng.permutation(300)[:200]


def calibrate():
    """CPU seconds of a fixed kernel that does not touch the library: a
    bytecode loop and numpy fancy indexing, the two kinds of work the
    operations do.

    A shared host's speed drifts: the same operation's CPU time moves by up
    to 1.5x over seconds to minutes as other tenants load the cores, and the
    kernel moves with it.  Scaling a run's CPU times by the median of the
    kernels run between its operations takes that drift out, and leaves
    changes of the program in."""
    adj, rows = _kernel_data()
    c0 = cpu_seconds()
    counts = {}
    for i in range(60000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    for _ in range(40):
        sub = adj[np.ix_(rows, rows)]
        sub.sum(axis=0)
        np.flatnonzero(sub[3])
    return cpu_seconds() - c0


def run_pass(wl, order, in_process, calibrations=None):
    """Time each operation of one pass, in CPU and in wall time; errors are
    kept, not raised.  With a ``calibrations`` list, the kernel runs after
    each operation and its time is appended there."""
    done = []
    for inst in order:
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            raw, err = wl.call(inst, in_process), None
        except Exception as exc:  # an operation that raises is a failed operation
            raw, err = None, exc
        done.append(Done(inst, raw, err, cpu_seconds() - c0, time.perf_counter() - t0))
        if calibrations is not None:
            calibrations.append(calibrate())
    return done


def digest_of(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Ledger:
    """Judges every operation and keeps the counts behind the metrics."""

    def __init__(self, wl, reference):
        self.wl = wl
        self.reference = reference
        self.artifacts = {}       # key -> artifact of the first pass
        self.attempted = 0
        self.costs = {}           # key -> CPU seconds of each of its operations
        self.verified = 0
        self.failures = []
        self.unreferenced = 0

    def judge(self, done):
        for inst, raw, err, cpu, _wall in done:
            self.attempted += 1
            self.costs.setdefault(inst.key, []).append(cpu)
            problem = None if err is None else f"raised {err!r}"
            if err is None:
                try:
                    out = self.wl.check(inst, raw)
                    problem = self._compare(inst, out)
                except Exception as exc:  # a wrong or unparsable result
                    problem = f"check failed: {exc!r}"
            if problem is not None:
                self.failures.append(f"{inst.key}: {problem}")
            elif out.verified:
                self.verified += 1

    def _compare(self, inst, out):
        first = self.artifacts.setdefault(inst.key, out.artifact)
        if first != out.artifact:
            return "returned a different artifact than on its first pass"
        ref = self.reference.get(inst.key)
        if ref is None:
            return None
        if out.facts != ref["facts"]:
            return f"facts {out.facts} differ from the reference {ref['facts']}"
        if digest_of(out.artifact) != ref["artifact"]:
            self.unreferenced += 1
        elif out.artifact_facts != ref["artifact_facts"]:
            return (f"facts {out.artifact_facts} of the recorded artifact differ "
                    f"from the reference {ref['artifact_facts']}")
        return None

    def digest(self):
        return digest_of(sorted(self.artifacts.items()))

    def summary(self):
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:5], "digest": self.digest(),
                "unreferenced": self.unreferenced}


def latency_metrics(costs, scale=1.0):
    """Percentiles over every operation, each instance's operations taken at
    their median: the pool is fixed, so the spread that matters is the one
    between instances, and a repeat that met a busy host is noise."""
    xs = sorted(1000 * scale * statistics.median(c) for c in costs.values() for _ in c)
    n = len(xs)
    # nearest rank: xs[n - 11] has exactly ten samples beyond it
    return {"latency_p50_ms": statistics.median(xs),
            "latency_tail_ms": xs[n - 11],
            "latency_tail_percentile": 100 * (n - 10) / n,
            "samples": n}


def pass_count(wl, instances, seconds):
    """Whole passes that cost ``seconds`` at the seed commit, and at least
    ``MIN_SAMPLES`` operations.

    The count depends on ``seconds`` alone, not on how fast this run goes:
    ``latency_tail_ms`` is the sample ranked ten from the top, so a run with
    more passes would report another instance's latency there."""
    return max(math.ceil(MIN_SAMPLES / len(instances)), round(seconds / wl.pass_seconds))


def timed_loop(wl, instances, seed, passes, reference):
    """Closed loop, one caller: ``passes`` whole passes over the pool.

    The metrics are calibrated CPU times (see ``calibrate``), the
    operation's own process and its children together: a single-threaded
    operation with no I/O costs as much CPU as wall time on an idle machine,
    and on a shared one its wall time also counts the time it waited for a
    core.  ``ops_per_s`` takes each instance's median cost, so that a pass
    that met a busy host does not move it."""
    rng = np.random.default_rng(seed)
    ledger = Ledger(wl, reference)
    walls, cpus, calibrations = [], [], []
    for _ in range(passes):
        done = run_pass(wl, schedule(instances, rng), in_process=False,
                        calibrations=calibrations)
        walls += [d.wall for d in done]
        cpus += [d.cpu for d in done]
        ledger.judge(done)
    n = ledger.attempted
    who = resource.RUSAGE_CHILDREN if getattr(wl, "children_rss", False) else resource.RUSAGE_SELF
    scale = CALIBRATION_S / statistics.median(calibrations)
    pass_cost = scale * sum(statistics.median(c) for c in ledger.costs.values())
    metrics = {"ops_per_s": len(ledger.costs) / pass_cost,
               "verified_frac": ledger.verified / n,
               "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,  # KiB to MiB
               "wall_ops_per_s": n / sum(walls),
               "wall_p50_ms": 1000 * statistics.median(walls),
               "cpu_p50_ms": 1000 * statistics.median(cpus),
               "calibration_ms": 1000 * statistics.median(calibrations)}
    if n >= MIN_SAMPLES:
        metrics.update(latency_metrics(ledger.costs, scale))
    return {**ledger.summary(), "metrics": metrics}


def startup_seconds():
    """Median wall time of ``tourpart --version`` as a process."""
    times = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "tourpart.cli", "--version"], check=True,
                       capture_output=True, timeout=60, env=workloads.Cli._env)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced_run(wl, instances, seed, reference, startup=True):
    """Each operation of one pass runs untraced and then traced, so that the
    pairs see the same machine load; CLI commands run in-process here so
    that their spans can be recorded."""
    ledger = Ledger(wl, reference)
    tracer = tracing.Tracer()
    plain, traced = [], []
    for inst in schedule(instances, np.random.default_rng(seed)):
        plain += run_pass(wl, [inst], in_process=True)
        with tracer:
            traced += run_pass(wl, [inst], in_process=True)
    ledger.judge(plain)
    ledger.judge(traced)
    op_seconds = sum(d.wall for d in traced)
    metrics = tracing.layer_metrics(tracer, len(traced), op_seconds,
                                    sum(d.wall for d in plain),
                                    startup_seconds() if startup else 0.0)
    return {**ledger.summary(), "metrics": metrics, "op_seconds": op_seconds}


def versions():
    import scipy

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}


def record():
    """Write the reference values: one pass of every workload."""
    ref = {}
    for name, wl in workloads.WORKLOADS.items():
        ref[name] = {}
        with WorkDir(name) as wd:
            for d in run_pass(wl, wl.instances(False, wd), False):
                if d.err is not None:
                    raise d.err
                out = wl.check(d.inst, d.raw)
                ref[name][d.inst.key] = {"artifact": digest_of(out.artifact),
                                         "facts": out.facts,
                                         "artifact_facts": out.artifact_facts}
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def reference_for(name):
    with open(REFERENCE) as fh:
        return json.load(fh)[name]


class WorkDir:
    """A scratch directory inside the checkout for the CLI input files."""

    def __init__(self, name):
        self.path = os.path.join(os.path.dirname(HERE), ".bench_work", f"{name}-{os.getpid()}")

    def __enter__(self):
        os.makedirs(self.path)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass        # another worker still uses it
        return False


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=("setup", "timed", "traced"), default="timed")
    p.add_argument("--record", action="store_true")
    args = p.parse_args(argv)
    if args.record:
        record()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    wl = workloads.WORKLOADS[args.workload]
    with WorkDir(args.workload) as wd:
        instances = wl.instances(False, wd)
        reference = reference_for(args.workload)
        ready_at, ready_cpu = time.monotonic(), cpu_seconds()
        # the host's speed right after set-up, to scale set-up's CPU time
        setup_cal = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
        if args.mode == "setup":
            result = {}
        elif args.mode == "timed":
            result = timed_loop(wl, instances, args.seed,
                                pass_count(wl, instances, args.seconds), reference)
        else:
            result = traced_run(wl, instances, args.seed, reference)
    result.update(ready_at=ready_at, ready_cpu=ready_cpu,
                  setup_cost=ready_cpu * CALIBRATION_S / setup_cal, versions=versions())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
