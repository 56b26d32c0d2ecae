#!/usr/bin/env python3
"""tourpart benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload {surgery,search,pipeline,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.  Each
workload runs in fresh worker processes (bench/worker.py), one after
another.  With --trace 0 set-up is measured in several processes and the
last one runs the timed loop; with --trace 1 one process runs the traced
pass.  A report goes to standard output, followed by one JSON line with the
keys correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("surgery", "search", "pipeline", "cli")
SETUP_SAMPLES = 3       # set-ups per run; setup_s is their median
DEADLINE_S = 170        # the whole run, children included

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "verified_frac": "ratio",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    pass


def spawn_worker(args, mode, deadline):
    """Run one worker process; returns (spawn time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    # one caller on a few shared cores: the library makes no BLAS calls, so a
    # BLAS thread pool would only add threads (and their start-up CPU time)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned = time.monotonic()
    # own process group, so that a timeout also stops the CLI processes it runs
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} worker passed the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        _, res = spawn_worker(args, "traced", deadline)
        return res, None
    setups = []             # (calibrated CPU, CPU, wall) seconds of each set-up
    for _ in range(SETUP_SAMPLES - 1):
        spawned, res = spawn_worker(args, "setup", deadline)
        setups.append((res["setup_cost"], res["ready_cpu"], res["ready_at"] - spawned))
    spawned, res = spawn_worker(args, "timed", deadline)
    setups.append((res["setup_cost"], res["ready_cpu"], res["ready_at"] - spawned))
    res["metrics"]["setup_s"] = statistics.median(cost for cost, _, _ in setups)
    return res, setups


def report(args, res, setups):
    m = res["metrics"]
    meta = {"commit": git_commit(), "nproc": len(os.sched_getaffinity(0)),
            **res["versions"], "src_lines": src_lines()}
    print(f"tourpart benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced pass' if args.trace else f'{args.seconds} s timed loop'}")
    print(f"  meta: {json.dumps(meta)}")
    print(f"  operations: {res['attempted']} attempted, {res['failed']} failed "
          f"(failed_frac {res['failed'] / res['attempted']:.4f})")
    for failure in res["failures"]:
        print(f"    failure: {failure}")
    print(f"  artifact digest: {res['digest']}  "
          f"({res['unreferenced']} operations returned artifacts not in the reference)")
    if args.trace:
        units = dict(tracer.LAYER_METRICS)
        print(f"  operation time of the traced pass: {res['op_seconds']:.4f} s")
    else:
        units = E2E_UNITS
        print("  set-ups, calibrated CPU/CPU/wall: "
              f"{', '.join('/'.join(f'{x:.3f}' for x in s) for s in setups)} s")
        print(f"  latency_tail_ms is p{m['latency_tail_percentile']:.1f} "
              f"of {m['samples']} samples")
        print(f"  uncalibrated: {m['wall_ops_per_s']:.4g} ops/s in wall time, "
              f"p50 {m['wall_p50_ms']:.4g} ms wall, {m['cpu_p50_ms']:.4g} ms CPU; "
              f"calibration kernel {m['calibration_ms']:.4g} ms")
    metrics = {name: {"value": m[name], "unit": unit} for name, unit in units.items()}
    for name, v in metrics.items():
        print(f"  {name:34s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "tourpart" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res, setups = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args, res, setups)
    return 0


if __name__ == "__main__":
    sys.exit(main())
