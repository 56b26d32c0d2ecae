"""Command-line surface.

Exit codes are a scripting contract:
  0  verified success
  1  infeasible, with the proof named on stderr (or a verifier rejection
     of a carve or subdivision remainder)
  2  verdict unknown: a search or pipeline budget ran out, including
     `partition` runs whose library verdict is unknown (no split, no proof)
  3  input error (bad arguments, unparsable or unwritable files)
  4  internal error: any other exception, named on one stderr line
     (``internal error: <Type>: <message>``) with no traceback
  141  standard output closed by its reader (128 + SIGPIPE, no message)

A library answer's ``status`` picks the exit code through ``EXIT_CODE``.
A ``partition`` or ``link`` answer other than found names its status and
``reason`` on one stderr line.  ``carve`` and ``subdivide`` print their
remainder's status as "remainder strongly k-connected: true/false" and exit
0 or 1 by it.  The remainder is certified by one exact sweep with no budget,
so its status is never unknown: a false one is a proof.  The bench's
``Cli._check_carve`` pins this mapping.  A carve or subdivision with no
path raises ``NoPath``, which exits 1 with its message.

Every randomized command takes an explicit --seed; there is no ambient
entropy anywhere, so runs and experiment tables reproduce exactly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import sys
import time

from . import __version__
from .connectivity import find_disjoint_paths, is_k_linked, vertex_connectivity
from .core import Verdict
from .formats import FormatError, read_digraph, read_tournament, to_dot, write_compact, write_edge_list
from .generators import paley_tournament, random_tournament, transitive_tournament
from .partition import SEARCH_BUDGET, format_partition, no_split, partition
from .pipeline import PipelineError, PipelineParams
from .surgery import NoPath, SubdivisionSpec, nonseparating_subdivision, remove_nonseparating_path, spanning_linkage

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a reader that left
EXIT_CODE = {Verdict.FOUND: EXIT_OK, Verdict.INFEASIBLE: EXIT_INFEASIBLE,
             Verdict.UNKNOWN: EXIT_UNKNOWN}


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _load(path, read):
    """``read(fh)`` on the file ``path``; open and parse errors name the path."""
    try:
        with open(path) as fh:
            return read(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None
    except FormatError as exc:
        raise InputError(f"{path}: {exc}") from None


def _finish(res):
    """The exit code of the answer ``res``; a status other than found is
    named with its reason on stderr."""
    if res.status != Verdict.FOUND:
        print(f"{res.status}: {res.reason}", file=sys.stderr)
    return EXIT_CODE[res.status]


def _write_text(path, text):
    """``text`` on stdout for ``-``, else in the file ``path``, whose errors name it."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------


def cmd_gen(args):
    if args.kind == "random":
        if args.n is None or args.seed is None:
            raise InputError("random generation needs --n and --seed")
        T = random_tournament(args.n, args.seed)
        name = f"random-n{args.n}-s{args.seed}"
    elif args.kind == "paley":
        if args.q is None:
            raise InputError("paley generation needs --q")
        T = paley_tournament(args.q)
        name = f"paley-{args.q}"
    else:
        if args.n is None:
            raise InputError("transitive generation needs --n")
        T = transitive_tournament(args.n)
        name = f"transitive-{args.n}"
    buf = io.StringIO()
    if args.format == "compact":
        write_compact(T, buf)
    elif args.format == "dot":
        buf.write(to_dot(T, name.replace("-", "_")))
    else:
        write_edge_list(T, buf)
    _write_text(args.out, buf.getvalue())
    return EXIT_OK


def cmd_analyze(args):
    T = _load(args.path, read_tournament)
    if args.linked is not None and T.n > 10:
        raise InputError("exhaustive linkedness checking is limited to n <= 10")
    din, dout = T.in_degrees(), T.out_degrees()
    kappa = vertex_connectivity(T)
    print(f"n: {T.n}")
    print(f"out-degree: min {int(dout.min())} max {int(dout.max())}")
    print(f"in-degree: min {int(din.min())} max {int(din.max())}")
    print(f"vertex connectivity: {kappa}")
    for k in range(1, kappa + 1):  # true for every k <= kappa by definition
        print(f"strongly {k}-connected: True")
    if args.linked is not None:
        verdict = is_k_linked(T, args.linked)
        label = {Verdict.FOUND: "true", Verdict.INFEASIBLE: "false"}.get(verdict, "unknown (budget)")
        print(f"{args.linked}-linked: {label}")
        if verdict == Verdict.UNKNOWN:
            return EXIT_UNKNOWN
    return EXIT_OK


def cmd_carve(args):
    T = _load(args.path, read_tournament)
    avoid = _parse_ids(args.avoid)
    keep = {"both": (args.x, args.y), "none": (), "start": (args.x,), "end": (args.y,)}[args.keep]
    res = remove_nonseparating_path(T, args.x, args.y, avoid, args.k, keep)
    print("path: " + " ".join(map(str, res.path)))
    code = _report_remainder(res, args.k)
    if args.out:
        buf = io.StringIO()
        write_edge_list(res.remainder, buf)
        _write_text(args.out, buf.getvalue())
        print(f"remainder written to {args.out} "
              f"(ids remapped; original ids: {' '.join(map(str, res.index_map))})")
    return code


def _report_remainder(res, k):
    """Print a carve's or a subdivision's status and remainder lines; the exit code."""
    print(f"status: {'theorem-backed' if res.theorem_backed else 'best-effort'} "
          f"(hypothesis: strongly {res.level}-connected)")
    print(f"remainder strongly {k}-connected: {str(res.remainder_ok).lower()}")
    return EXIT_CODE[res.status]


def cmd_link(args):
    T = _load(args.path, read_tournament)
    pairs = _parse_pairs(args.pairs)
    if args.spanning:
        if args.seed is None:
            raise InputError("--spanning uses randomized search and needs --seed")
        res = spanning_linkage(T, pairs, seed=args.seed)
    else:
        res = find_disjoint_paths(T, pairs)
    if res.status == Verdict.FOUND:
        for (x, y), p in zip(pairs, res.paths):
            print(f"{x}->{y}: " + " ".join(map(str, p)))
        if args.spanning:
            print(f"coverage: {len({v for p in res.paths for v in p})}/{T.n} vertices")
            print(f"status: {'theorem-backed' if res.theorem_backed else 'best-effort'}")
    return _finish(res)


def cmd_subdivide(args):
    T = _load(args.path, read_tournament)
    # branch vertices are distinct in T, so H has at most T.n vertices
    H = _load(args.pattern, lambda fh: read_digraph(fh, max_n=T.n))
    mapping = _parse_pairs(args.map, sep=":")
    branches = [-1] * H.n
    for h, v in mapping:
        if not 0 <= h < H.n:
            raise InputError(f"pattern vertex {h} out of range")
        if branches[h] != -1:
            raise InputError(f"pattern vertex {h} mapped twice")
        branches[h] = v
    if -1 in branches:
        raise InputError("every pattern vertex needs a branch image")
    sub = nonseparating_subdivision(T, SubdivisionSpec(H, branches), args.k)
    for (hu, hv), p in sorted(sub.edge_paths.items()):
        print(f"{hu}->{hv}: " + " ".join(map(str, p)))
    return _report_remainder(sub, args.k)


def _params_from_file(path, k):
    parsers = {f.name: int for f in dataclasses.fields(PipelineParams)}
    parsers["budget"] = lambda val: None if val.lower() == "none" else int(val)
    parsers["strict"] = _parse_flag
    return dataclasses.replace(PipelineParams.relaxed(k), **_read_key_values(path, parsers))


def cmd_partition(args):
    T = _load(args.path, read_tournament)
    params = None
    if args.params_file:
        params = _params_from_file(args.params_file, args.k)
    try:
        res = partition(T, args.k, mode=args.mode, params=params, seed=args.seed,
                        search_budget=args.budget)
    except PipelineError as exc:
        # a stage that cannot run proves nothing about T's splits
        print(f"pipeline stopped ({exc.kind}): {exc}", file=sys.stderr)
        res = no_split(T, args.k, "the pipeline produced no split")
    if res.v1:
        text = format_partition(res)
        _write_text(args.out, text)
        if args.out != "-":
            sys.stdout.write(text)
    return _finish(res)


# ---------------------------------------------------------------------------
# experiment harness

CSV_COLUMNS = ["instance", "n", "k", "mode", "success", "kappa_v1", "kappa_v2",
               "kappa_cross", "wall_time_s", "seed", "params_fingerprint"]


def _parse_ids(text):
    if not text:
        return []
    try:
        return [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise InputError(f"bad id list {text!r}") from None


def _parse_pairs(text, sep=":"):
    pairs = []
    if not text:
        return pairs
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        bits = part.split(sep)
        if len(bits) != 2:
            raise InputError(f"bad pair {part!r} (expected x{sep}y)")
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise InputError(f"bad pair {part!r}") from None
    if not pairs:
        raise InputError("no pairs given")
    return pairs


def _parse_int_list(val):
    return [int(t) for t in val.replace(",", " ").split()]


def _parse_seeds(val):
    if ":" in val:
        lo, _, hi = val.partition(":")
        return list(range(int(lo), int(hi)))
    return list(range(int(val)))


def _parse_flag(val):
    # tuple.index raises ValueError for a word outside the list
    return ("true", "yes", "1", "false", "no", "0").index(val.lower()) < 3


def _nonnegative_int(val):
    count = int(val)
    if count < 0:
        raise ValueError(f"negative count {count}")
    return count


def _one_of(*options):
    """A parser that accepts only ``options``."""
    return lambda val: options[options.index(val)]


def _read_key_values(path, parsers):
    """The ``key=value`` lines of a file (blank lines and ``#`` comments
    skipped), each value converted by the parser of its key; every error
    names the file and line."""

    def read(fh):
        values = {}
        for lineno, raw in enumerate(fh, 1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            key, eq, val = (t.strip() for t in text.partition("="))
            if not eq:
                raise InputError(f"{path}:{lineno}: expected key=value")
            if key not in parsers:
                raise InputError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = parsers[key](val)
            except ValueError:
                raise InputError(f"{path}:{lineno}: bad value {val!r} for {key}") from None
        return values

    return _load(path, read)


def _read_experiment_config(path):
    kind = _one_of("random", "transitive", "paley")
    cfg = {"kind": ["random"], "n": [], "k": [], "mode": "search",
           "seeds": [], "budget": SEARCH_BUDGET}
    cfg.update(_read_key_values(path, {
        "kind": lambda val: [kind(t.strip()) for t in val.split(",") if t.strip()],
        "n": _parse_int_list, "k": _parse_int_list, "seeds": _parse_seeds,
        "mode": _one_of("auto", "pipeline", "search"), "budget": _nonnegative_int}))
    return cfg


def _one_trial(kind, n, k, mode, seed, budget):
    if kind == "random":
        T = random_tournament(n, seed)
    elif kind == "transitive":
        T = transitive_tournament(n)
    else:
        T = paley_tournament(n)
    label = f"{kind}-n{n}-s{seed}"
    t0 = time.perf_counter()
    try:
        res = partition(T, k, mode=mode, seed=seed, search_budget=budget)
        found = res.verified
    except PipelineError:
        found = False
    wall = time.perf_counter() - t0
    kappas = [str(c) for c in res.connectivity] if found else ["", "", ""]
    fp = res.params_fingerprint if found else f"search-{budget}" if mode == "search" else "-"
    return [label, n, k, mode, int(found), *kappas, f"{wall:.3f}", seed, fp]


def cmd_experiment(args):
    cfg = _read_experiment_config(args.config)
    trials = [(kind, n, k, cfg["mode"], seed, cfg["budget"])
              for kind in cfg["kind"] for n in cfg["n"] for k in cfg["k"]
              for seed in cfg["seeds"]]
    rows = [_one_trial(*t) for t in trials]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    _write_text(args.out, buf.getvalue())
    if rows:
        good = sum(r[4] for r in rows)
        print(f"success rate: {good}/{len(rows)} ({100.0 * good / len(rows):.1f}%)")
    else:
        print("success rate: 0/0")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    p = _Parser(prog="tourpart", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"tourpart {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a tournament file")
    g.add_argument("--kind", choices=("random", "paley", "transitive"), required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--q", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--format", choices=("edges", "compact", "dot"), default="edges")
    g.add_argument("--out", default="-")
    g.set_defaults(func=cmd_gen)

    a = sub.add_parser("analyze", help="degree and connectivity report")
    a.add_argument("path")
    a.add_argument("--linked", type=int, default=None,
                   help="exhaustive k-linkedness check (small n only)")
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("carve", help="delete a non-separating path")
    c.add_argument("path")
    c.add_argument("x", type=int)
    c.add_argument("y", type=int)
    c.add_argument("--avoid", default="", help="comma-separated vertex ids to avoid")
    c.add_argument("--k", type=int, default=1)
    c.add_argument("--keep", choices=("both", "none", "start", "end"), default="both")
    c.add_argument("--out", default=None, help="write the remainder tournament here")
    c.set_defaults(func=cmd_carve)

    l = sub.add_parser("link", help="disjoint path linkages")
    l.add_argument("path")
    l.add_argument("--pairs", required=True, help="x:y,x:y,...")
    l.add_argument("--spanning", action="store_true",
                   help="require the paths to cover every vertex")
    l.add_argument("--seed", type=int, default=None)
    l.set_defaults(func=cmd_link)

    s = sub.add_parser("subdivide", help="non-separating prescribed subdivision")
    s.add_argument("path")
    s.add_argument("--pattern", required=True, help="digraph edge-list file")
    s.add_argument("--map", required=True, help="h:v,... branch placement")
    s.add_argument("--k", type=int, default=1)
    s.set_defaults(func=cmd_subdivide)

    q = sub.add_parser("partition", help="strongly k-connected two-partition")
    q.add_argument("path")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--mode", choices=("auto", "pipeline", "search"), default="auto")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--params-file", default=None)
    q.add_argument("--budget", type=int, default=SEARCH_BUDGET)
    q.add_argument("--out", default="-")
    q.set_defaults(func=cmd_partition)

    e = sub.add_parser("experiment", help="seeded sweep, one CSV row per trial")
    e.add_argument("config")
    e.add_argument("--out", default="-")
    e.set_defaults(func=cmd_experiment)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except (InputError, ValueError) as exc:
        # the library raises ValueError for arguments it cannot accept
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NoPath as exc:
        print(f"no path: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except BrokenPipeError:
        # the reader stopped early (`tourpart analyze T | head -1`): end
        # quietly, with stdout on /dev/null so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except Exception as exc:
        # a failed library audit is a fault of the program, not a proof
        # about the input: it must not read as exit 1, "infeasible"
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
