import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

from tourpart import cli
from tourpart.cli import main
from tourpart.core import Verdict
from tourpart.formats import read_tournament, write_edge_list
from tourpart.generators import random_tournament, transitive_tournament
from tourpart.partition import partition, verify_partition
from tourpart.pipeline import PipelineParams
from test_golden import _count_sweeps, _planted
from test_surgery import _transitive_with_flips

# A subprocess imports the tourpart this suite imported, however the suite
# was started: PYTHONPATH names that package's source directory.
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))


def run_cli(*argv):
    """Invoke the CLI in-process, capturing stdout and the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_gen_paley_edge_count(tmp_path):
    out = tmp_path / "p7.txt"
    code, _ = run_cli("gen", "--kind", "paley", "--q", "7", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "7 21" and len(lines) == 22


def test_gen_random_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli("gen", "--kind", "random", "--n", "40", "--seed", "1",
                   "--out", str(a))[0] == 0
    assert run_cli("gen", "--kind", "random", "--n", "40", "--seed", "1",
                   "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_requires_seed_for_random(tmp_path):
    code, _ = run_cli("gen", "--kind", "random", "--n", "10",
                      "--out", str(tmp_path / "x.txt"))
    assert code == 3


def test_gen_transitive_lexicographic(tmp_path):
    out = tmp_path / "t5.txt"
    run_cli("gen", "--kind", "transitive", "--n", "5", "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "5 10"
    assert lines[1:4] == ["0 1", "0 2", "0 3"]


def test_gen_compact_roundtrip(tmp_path):
    e, c = tmp_path / "e.txt", tmp_path / "c.txt"
    run_cli("gen", "--kind", "random", "--n", "25", "--seed", "9", "--out", str(e))
    run_cli("gen", "--kind", "random", "--n", "25", "--seed", "9",
            "--format", "compact", "--out", str(c))
    from tourpart.formats import read_tournament

    with open(e) as fh:
        Te = read_tournament(fh)
    with open(c) as fh:
        Tc = read_tournament(fh)
    assert (Te.adj == Tc.adj).all()


def test_analyze_outputs(tmp_path):
    p = tmp_path / "p7.txt"
    run_cli("gen", "--kind", "paley", "--q", "7", "--out", str(p))
    code, out = run_cli("analyze", str(p))
    assert code == 0 and "vertex connectivity: 3" in out
    t = tmp_path / "t6.txt"
    run_cli("gen", "--kind", "transitive", "--n", "6", "--out", str(t))
    code, out = run_cli("analyze", str(t))
    assert code == 0 and "vertex connectivity: 0" in out
    code, out = run_cli("analyze", str(p), "--linked", "1")
    assert code == 0 and "1-linked: true" in out


def test_analyze_parse_error_exit(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 3\n0 1\n1 zzz\n2 0\n")
    code, _ = run_cli("analyze", str(bad))
    assert code == 3


def test_analyze_negative_header_exit(tmp_path):
    bad = tmp_path / "neg.txt"
    bad.write_text("-3 3\n")
    code, _ = run_cli("analyze", str(bad))
    assert code == 3


def test_analyze_rejects_a_tournament_without_vertices(tmp_path, capsys):
    # numpy used to fail on the empty degree arrays after "n: 0" was printed
    empty = tmp_path / "empty.txt"
    empty.write_text("0 0\n")
    code, out = run_cli("analyze", str(empty))
    assert code == 3 and out == ""
    assert capsys.readouterr().err == f"error: {empty}: line 1: n must be at least 1\n"


def test_analyze_linked_size_limit_comes_before_any_output(tmp_path, monkeypatch):
    r = tmp_path / "r12.txt"
    run_cli("gen", "--kind", "random", "--n", "12", "--seed", "1", "--out", str(r))

    def no_kappa(T):
        raise AssertionError("kappa ran before the input check")

    monkeypatch.setattr(cli, "vertex_connectivity", no_kappa)
    code, out = run_cli("analyze", str(r), "--linked", "0")
    assert code == 3 and out == ""


def test_analyze_into_closed_pipe_ends_quietly(tmp_path):
    p = tmp_path / "p7.txt"
    run_cli("gen", "--kind", "paley", "--q", "7", "--out", str(p))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write, as after `| head -1`
    try:
        proc = subprocess.run([sys.executable, "-m", "tourpart.cli", "analyze", str(p)],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
                              env=SUBPROCESS_ENV)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 141


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "transitive", "--n", "4"],
    ["carve", "{t}", "0", "3"],
    ["partition", "{r}", "--k", "1", "--seed", "0", "--mode", "search"],
    ["experiment", "{cfg}"],
])
def test_out_in_a_missing_directory_is_an_input_error(tmp_path, capsys, argv):
    files = {"t": tmp_path / "t4.txt", "r": tmp_path / "r40.txt", "cfg": tmp_path / "exp.cfg"}
    run_cli("gen", "--kind", "transitive", "--n", "4", "--out", str(files["t"]))
    run_cli("gen", "--kind", "random", "--n", "40", "--seed", "3", "--out", str(files["r"]))
    files["cfg"].write_text("kind=random\nn=\nk=\nseeds=0\n")
    capsys.readouterr()
    out = tmp_path / "missing" / "out.txt"
    code, _ = run_cli(*(arg.format(**files) for arg in argv), "--out", str(out))
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert err.splitlines() == [f"error: {out}: No such file or directory"]


def test_carve_trivial_and_blocked(tmp_path):
    t = tmp_path / "t4.txt"
    run_cli("gen", "--kind", "transitive", "--n", "4", "--out", str(t))
    code, out = run_cli("carve", str(t), "0", "3")
    assert "path: 0 3" in out
    code, _ = run_cli("carve", str(t), "3", "0")
    assert code == 1  # sink cannot reach the source


def test_carve_that_takes_every_vertex_is_infeasible(tmp_path, capsys):
    c3, rem = tmp_path / "c3.txt", tmp_path / "rem.txt"
    run_cli("gen", "--kind", "paley", "--q", "3", "--out", str(c3))
    code, out = run_cli("carve", str(c3), "0", "2", "--keep", "none", "--out", str(rem))
    assert code == 1 and capsys.readouterr().err == ""
    assert out.splitlines()[:3] == [
        "path: 0 1 2", "status: best-effort (hypothesis: strongly 5-connected)",
        "remainder strongly 1-connected: false"]
    assert rem.read_text() == "0 0\n"


def test_carve_qualified_random(tmp_path):
    r = tmp_path / "r60.txt"
    run_cli("gen", "--kind", "random", "--n", "60", "--seed", "5", "--out", str(r))
    code, out = run_cli("carve", str(r), "0", "1", "--avoid", "2,3", "--k", "2",
                        "--out", str(tmp_path / "rem.txt"))
    assert "remainder strongly 2-connected: true" in out
    assert code == 0
    assert (tmp_path / "rem.txt").exists()


def test_link_spanning_and_infeasible(tmp_path):
    t = tmp_path / "t4.txt"
    run_cli("gen", "--kind", "transitive", "--n", "4", "--out", str(t))
    code, out = run_cli("link", str(t), "--pairs", "0:3", "--spanning", "--seed", "0")
    assert code == 0 and "coverage: 4/4 vertices" in out
    code, _ = run_cli("link", str(t), "--pairs", "3:0")
    assert code == 1


@pytest.mark.parametrize("build, argv, code, err", [
    (lambda: transitive_tournament(4), ("--pairs", "3:0"), 1,
     "infeasible: no internally disjoint paths for these pairs\n"),
    (lambda: transitive_tournament(4), ("--pairs", "3:0", "--spanning", "--seed", "0"), 1,
     "infeasible: pair 0: no spanning path exists\n"),
    # the instance of test_spanning_carve_dead_end_is_unknown
    (lambda: _transitive_with_flips(7, [(3, 5), (2, 3), (3, 4), (4, 6)]),
     ("--pairs", "0:1,5:2,4:6", "--spanning", "--seed", "0"), 2,
     "unknown: pair 1: carve order dead-ended\n"),
])
def test_link_without_paths_names_its_verdict_and_cause(tmp_path, capsys, build, argv, code, err):
    t = tmp_path / "t.txt"
    with t.open("w") as fh:
        write_edge_list(build(), fh)
    assert run_cli("link", str(t), *argv) == (code, "")
    assert capsys.readouterr().err == err


def test_link_rejected_pair_is_an_input_error(tmp_path, capsys):
    t = tmp_path / "t4.txt"
    run_cli("gen", "--kind", "transitive", "--n", "4", "--out", str(t))
    code, _ = run_cli("link", str(t), "--pairs", "0:0")
    assert code == 3
    assert "equal endpoints" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("carve", "0", "99"), ("carve", "0", "5", "--avoid", "99"),
                                  ("carve", "-1", "5"),
                                  ("link", "--pairs", "0:99", "--spanning", "--seed", "1")])
def test_foreign_vertex_id_is_an_input_error(tmp_path, capsys, argv):
    r = tmp_path / "r12.txt"
    run_cli("gen", "--kind", "random", "--n", "12", "--seed", "1", "--out", str(r))
    code, _ = run_cli(argv[0], str(r), *argv[1:])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err and err.count("\n") == 1 and "out of range" in err


@pytest.mark.parametrize("argv, reason", [
    (("--kind", "random", "--seed", "1"), "random generation needs --n and --seed"),
    (("--kind", "paley"), "paley generation needs --q"),
    (("--kind", "transitive"), "transitive generation needs --n"),
])
def test_gen_without_its_size_or_seed_is_an_input_error(tmp_path, capsys, argv, reason):
    out = tmp_path / "x.txt"
    code, _ = run_cli("gen", *argv, "--out", str(out))
    assert code == 3 and capsys.readouterr().err == f"error: {reason}\n"
    assert not out.exists()


def test_gen_dot_writes_a_digraph(tmp_path):
    code, out = run_cli("gen", "--kind", "paley", "--q", "7", "--format", "dot")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "digraph paley_7 {" and lines[-1] == "}"
    assert sum("->" in line for line in lines) == 21


@pytest.mark.parametrize("pairs, reason", [
    ("0-1", "bad pair '0-1' (expected x:y)"),
    ("0:1:2", "bad pair '0:1:2' (expected x:y)"),
    ("0:a", "bad pair '0:a'"),
    (" , ,", "no pairs given"),
    ("", "request has no pairs"),
])
def test_malformed_link_pairs_are_input_errors(tmp_path, capsys, pairs, reason):
    t = tmp_path / "t4.txt"
    run_cli("gen", "--kind", "transitive", "--n", "4", "--out", str(t))
    code, out = run_cli("link", str(t), "--pairs", pairs)
    assert code == 3 and out == "" and capsys.readouterr().err == f"error: {reason}\n"


# One malformed file per input error of the readers: the tournament reader
# behind ``analyze``, and the digraph reader behind ``subdivide --pattern``.
MALFORMED_FILES = [
    ("tournament", "3 3\n0 1\n\n1 2\n", "header announced 3 edges, found 2"),  # blank skipped
    ("tournament", "3 3\n0 1 2\n0 2\n1 2\n", "line 2: expected 'u v', got '0 1 2'"),
    ("tournament", "3 3\n0 1\n0 5\n1 2\n", "line 3: vertex out of range in '0 5'"),
    ("tournament", "x 3\n", "line 1: bad header 'x 3'"),
    ("tournament", "\n  \n", "empty input"),
    ("tournament", "\n3\n", "line 2: bad header '3'"),
    ("tournament", "3 2 101\n", "line 1: header announced 2 bits, got 3"),
    ("tournament", "3 3\n0 1\n1 0\n1 2\n",
     "not a tournament: some pair is unoriented or doubly oriented"),
    ("pattern", "3 3 1\n", "line 1: bad header '3 3 1'"),
]


@pytest.mark.parametrize("role, text, reason", MALFORMED_FILES)
def test_malformed_files_exit_3_with_their_reason(tmp_path, capsys, role, text, reason):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    if role == "tournament":
        argv = ("analyze", str(bad))
    else:
        t = tmp_path / "c3.txt"
        t.write_text("3 3\n0 1\n1 2\n2 0\n")
        argv = ("subdivide", str(t), "--pattern", str(bad), "--map", "0:0")
    code, out = run_cli(*argv)
    assert code == 3 and out == ""
    assert capsys.readouterr().err == f"error: {bad}: {reason}\n"


@pytest.mark.parametrize("argv, reason", [
    (("carve",), "the following arguments are required: x, y"),
    (("carve", "0", "3", "--avoid", "1;2"), "bad id list '1;2'"),
    (("link", "--pairs", "0:3", "--spanning"), "--spanning uses randomized search and needs --seed"),
])
def test_bad_arguments_are_input_errors(tmp_path, capsys, argv, reason):
    t = tmp_path / "t4.txt"
    run_cli("gen", "--kind", "transitive", "--n", "4", "--out", str(t))
    code, out = run_cli(argv[0], str(t), *argv[1:])
    assert code == 3 and out == "" and capsys.readouterr().err == f"error: {reason}\n"


@pytest.mark.parametrize("mapping, reason", [
    ("0:10,3:20,2:30", "pattern vertex 3 out of range"),
    ("0:10,-1:20,2:30", "pattern vertex -1 out of range"),
    ("0:10,0:20,2:30", "pattern vertex 0 mapped twice"),
    ("0:10,2:30", "every pattern vertex needs a branch image"),
])
def test_bad_subdivide_maps_are_input_errors(tmp_path, capsys, mapping, reason):
    r = tmp_path / "r12.txt"
    run_cli("gen", "--kind", "random", "--n", "12", "--seed", "1", "--out", str(r))
    tri = tmp_path / "tri.txt"
    tri.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, out = run_cli("subdivide", str(r), "--pattern", str(tri), "--map", mapping)
    assert code == 3 and out == "" and capsys.readouterr().err == f"error: {reason}\n"


def test_an_internal_error_exits_4_on_one_line(tmp_path, capsys, monkeypatch):
    # a failed library audit is a fault of the program: it must not exit 1,
    # the code of a proof of infeasibility, nor print a traceback
    def audit_fails(*args, **kwargs):
        raise AssertionError("paths do not cover\nthe tournament")

    monkeypatch.setattr(cli, "spanning_linkage", audit_fails)
    t = tmp_path / "t4.txt"
    run_cli("gen", "--kind", "transitive", "--n", "4", "--out", str(t))
    code, out = run_cli("link", str(t), "--pairs", "0:3", "--spanning", "--seed", "0")
    err = capsys.readouterr().err
    assert code == cli.EXIT_INTERNAL == 4 and out == "" and "Traceback" not in err
    assert err == "internal error: AssertionError: paths do not cover the tournament\n"


def test_link_two_pairs_coverage(tmp_path):
    r = tmp_path / "r40.txt"
    run_cli("gen", "--kind", "random", "--n", "40", "--seed", "13", "--out", str(r))
    code, out = run_cli("link", str(r), "--pairs", "0:1,2:3", "--spanning",
                        "--seed", "2")
    assert code == 0 and "coverage: 40/40 vertices" in out


def test_subdivide_triangle_and_bad_map(tmp_path):
    r = tmp_path / "r80.txt"
    run_cli("gen", "--kind", "random", "--n", "80", "--seed", "9", "--out", str(r))
    tri = tmp_path / "tri.txt"
    tri.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, out = run_cli("subdivide", str(r), "--pattern", str(tri),
                        "--map", "0:10,1:20,2:30", "--k", "1")
    assert code == 0
    assert out.count("->") >= 3
    code, _ = run_cli("subdivide", str(r), "--pattern", str(tri),
                      "--map", "0:10,1:10,2:30", "--k", "1")
    assert code == 3  # non-injective placement


def test_subdivide_edge_without_a_path_exits_1(tmp_path, capsys):
    t = tmp_path / "t8.txt"
    run_cli("gen", "--kind", "transitive", "--n", "8", "--out", str(t))
    arc = tmp_path / "arc.txt"
    arc.write_text("2 1\n0 1\n")
    code, out = run_cli("subdivide", str(t), "--pattern", str(arc), "--map", "0:5,1:2")
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "no path: no path for pattern edge 0->1 (5->2)\n"


def test_subdivide_bounds_the_pattern_before_allocating(tmp_path, capsys):
    import tracemalloc

    r = tmp_path / "r80.txt"
    run_cli("gen", "--kind", "random", "--n", "80", "--seed", "9", "--out", str(r))
    big = tmp_path / "big.txt"
    big.write_text("3000 0\n")  # a 3000 x 3000 matrix would take 9 MB
    tracemalloc.start()
    try:
        code, _ = run_cli("subdivide", str(r), "--pattern", str(big), "--map", "0:1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and "exceed the bound of 80" in capsys.readouterr().err
    assert peak < 2_000_000


def test_subdivide_rejects_an_empty_pattern(tmp_path, capsys):
    # an empty map used to pass as complete for a pattern without vertices
    r = tmp_path / "r20.txt"
    run_cli("gen", "--kind", "random", "--n", "20", "--seed", "9", "--out", str(r))
    empty = tmp_path / "empty.txt"
    empty.write_text("0 0\n")
    code, out = run_cli("subdivide", str(r), "--pattern", str(empty), "--map", "", "--k", "1")
    assert code == 3 and out == ""
    assert capsys.readouterr().err == f"error: {empty}: line 1: n must be at least 1\n"


def test_subdivide_missing_pattern_file_names_its_path(tmp_path, capsys):
    r = tmp_path / "r20.txt"
    run_cli("gen", "--kind", "random", "--n", "20", "--seed", "9", "--out", str(r))
    missing = tmp_path / "no_such_pattern.txt"
    code, _ = run_cli("subdivide", str(r), "--pattern", str(missing), "--map", "0:1")
    assert code == 3
    assert f"error: {missing}: No such file or directory" in capsys.readouterr().err


def _two_rotational(tmp_path):
    """Two 5-vertex rotational tournaments, every edge from the first to the
    second: delta0 = 2 = 2k at k = 1, but T is not strongly connected."""
    edges = [(b + i, b + (i + d) % 5) for b in (0, 5) for i in range(5) for d in (1, 2)]
    edges += [(u, v) for u in range(5) for v in range(5, 10)]
    two = tmp_path / "two.txt"
    two.write_text(f"10 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return two


def test_partition_search_and_negative(tmp_path):
    r = tmp_path / "r40.txt"
    run_cli("gen", "--kind", "random", "--n", "40", "--seed", "3", "--out", str(r))
    out_file = tmp_path / "part.txt"
    code, out = run_cli("partition", str(r), "--k", "2", "--seed", "0",
                        "--mode", "search", "--out", str(out_file))
    assert code == 0 and "verified: true" in out
    assert out_file.read_text().startswith("V1: ")
    t = tmp_path / "t40.txt"
    run_cli("gen", "--kind", "transitive", "--n", "40", "--out", str(t))
    code, _ = run_cli("partition", str(t), "--k", "1", "--seed", "0",
                      "--mode", "search", "--budget", "120")
    assert code == 1


def test_negative_search_budget_is_an_input_error(tmp_path, capsys):
    r = tmp_path / "r12.txt"
    run_cli("gen", "--kind", "random", "--n", "12", "--seed", "1", "--out", str(r))
    for mode in ("auto", "search", "pipeline"):
        code, out = run_cli("partition", str(r), "--k", "1", "--seed", "0",
                            "--mode", mode, "--budget", "-5")
        assert code == 3 and out == ""
        assert "budget -5 is negative" in capsys.readouterr().err
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("n=12\nk=1\nseeds=1\nbudget=-5\n")
    code, out = run_cli("experiment", str(cfg))
    assert code == 3 and out == ""
    assert f"{cfg}:4: bad value '-5' for budget" in capsys.readouterr().err


def test_partition_budget_exhaustion_without_proof_is_unknown(tmp_path, capsys):
    r = tmp_path / "r40.txt"
    run_cli("gen", "--kind", "random", "--n", "40", "--seed", "3", "--out", str(r))
    # T is strongly 3-connected and delta0(T) = 8 >= 6: neither proof applies
    code, out = run_cli("partition", str(r), "--mode", "search", "--k", "3",
                        "--seed", "0", "--budget", "1")
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("unknown: no partition found")


def test_partition_infeasible_names_its_proof(tmp_path, capsys):
    t = tmp_path / "t40.txt"
    run_cli("gen", "--kind", "transitive", "--n", "40", "--out", str(t))
    code, _ = run_cli("partition", str(t), "--k", "1", "--seed", "0",
                      "--mode", "search", "--budget", "20")
    assert code == 1
    assert capsys.readouterr().err.startswith("infeasible: delta0(T) = 0 < 2")
    two = _two_rotational(tmp_path)
    code, _ = run_cli("partition", str(two), "--k", "1", "--seed", "0",
                      "--mode", "search", "--budget", "20")
    assert code == 1
    assert capsys.readouterr().err.startswith("infeasible: T is not strongly 1-connected")


def test_partition_degree_proof_comes_before_any_search(tmp_path, capsys, monkeypatch):
    # delta0 <= (n - 1) / 2 < 2k whenever n < 2k + 2, so k = 99 is no input
    # error; at k = 2, delta0 = 3 < 4 ends the run before any search
    r = tmp_path / "r12.txt"
    run_cli("gen", "--kind", "random", "--n", "12", "--seed", "1", "--out", str(r))
    partition_module = importlib.import_module("tourpart.partition")

    def no_search(*args, **kwargs):
        raise AssertionError("the degree proof should have ended the run")

    monkeypatch.setattr(partition_module, "search_partition", no_search)
    for k, mode in ((99, "auto"), (99, "search"), (2, "auto"), (2, "search")):
        code, out = run_cli("partition", str(r), "--k", str(k), "--seed", "0", "--mode", mode)
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith(f"infeasible: delta0(T) = 3 < {2 * k}")
    # a bad budget is still an input error
    code, out = run_cli("partition", str(r), "--k", "2", "--seed", "0", "--budget", "-5")
    assert code == 3 and "budget -5 is negative" in capsys.readouterr().err


def test_partition_certifies_t_at_most_once(tmp_path, monkeypatch):
    # the first graph of a rejected split, then T itself, whose certificate
    # is the proof; the proof used to certify T a second time
    seen = _count_sweeps(monkeypatch)
    planted = tmp_path / "planted.txt"
    with planted.open("w") as fh:
        write_edge_list(_planted(40, 1, 3), fh)
    code, _ = run_cli("partition", str(planted), "--k", "2", "--seed", "0", "--mode", "search")
    assert code == 1
    assert [within is None for _, within in seen] == [False, True]
    # with no split checked, T is certified once in every mode
    two = _two_rotational(tmp_path)
    for mode in ("search", "auto", "pipeline"):
        seen.clear()
        code, _ = run_cli("partition", str(two), "--k", "1", "--seed", "0", "--mode", mode,
                          "--budget", "0")
        assert code == 1
        assert [(G.n, within) for G, within in seen] == [(10, None)]


def test_partition_strict_mode_diagnoses_infeasibility(tmp_path, capsys):
    r = tmp_path / "r40.txt"
    run_cli("gen", "--kind", "random", "--n", "40", "--seed", "3", "--out", str(r))
    code, _ = run_cli("partition", str(r), "--k", "1", "--seed", "0",
                      "--mode", "pipeline")
    assert code == 2  # the gate stops the pipeline but proves nothing about T
    err = capsys.readouterr().err
    assert "guaranteed constants" in err and "delta0" in err


def test_partition_pipeline_exits_1_only_with_a_proof(tmp_path, capsys, monkeypatch):
    t = tmp_path / "t40.txt"
    run_cli("gen", "--kind", "transitive", "--n", "40", "--out", str(t))
    code, _ = run_cli("partition", str(t), "--k", "1", "--seed", "0", "--mode", "pipeline")
    assert code == 1
    err = capsys.readouterr().err
    assert "pipeline stopped (infeasible): [feasibility]" in err
    assert "infeasible: delta0(T) = 0 < 2" in err
    # a split that fails verification is no proof either
    r = tmp_path / "r40.txt"
    run_cli("gen", "--kind", "random", "--n", "40", "--seed", "3", "--out", str(r))
    T = random_tournament(40, 3)
    rejected = verify_partition(T, range(20), range(20, 40), 3)
    assert not rejected.verified
    monkeypatch.setattr(cli, "partition", lambda *args, **kwargs: rejected)
    code, out = run_cli("partition", str(r), "--k", "3", "--seed", "0", "--mode", "pipeline")
    assert code == 2 and "verified: false" in out
    assert capsys.readouterr().err.startswith("unknown: the split found failed verification")


def test_partition_params_file(tmp_path, capsys):
    r = tmp_path / "r40.txt"
    run_cli("gen", "--kind", "random", "--n", "40", "--seed", "3", "--out", str(r))
    good = tmp_path / "params.txt"
    good.write_text("# relaxed\nbundle_size=4\nbudget=none\n")
    code, _ = run_cli("partition", str(r), "--k", "1", "--seed", "0",
                      "--mode", "pipeline", "--params-file", str(good))
    assert code == 2  # n=40 cannot absorb the coloring load; precise diagnostic
    assert "infeasible" in capsys.readouterr().err
    bad = tmp_path / "bad.txt"
    bad.write_text("no_such_knob=3\n")
    code, _ = run_cli("partition", str(r), "--k", "1", "--seed", "0",
                      "--params-file", str(bad))
    assert code == 3


def test_experiment_grid_and_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("kind=random\nn=30\nk=1\nmode=search\nseeds=3\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code, msg = run_cli("experiment", str(cfg), "--out", str(out1))
    assert code == 0 and "success rate: 3/3" in msg
    run_cli("experiment", str(cfg), "--out", str(out2))
    rows1 = list(csv.reader(out1.open()))
    rows2 = list(csv.reader(out2.open()))
    assert rows1[0][0] == "instance"
    for r1, r2 in zip(rows1[1:], rows2[1:]):
        assert r1[:8] == r2[:8] and r1[9:] == r2[9:]  # wall time may differ


def test_experiment_empty_grid(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("kind=random\nn=\nk=\nseeds=0\n")
    out = tmp_path / "e.csv"
    code, msg = run_cli("experiment", str(cfg), "--out", str(out))
    assert code == 0
    assert out.read_text().strip().splitlines() == [",".join(
        ["instance", "n", "k", "mode", "success", "kappa_v1", "kappa_v2",
         "kappa_cross", "wall_time_s", "seed", "params_fingerprint"])]


def test_experiment_bad_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("zzz=1\n")
    code, _ = run_cli("experiment", str(cfg))
    assert code == 3


def test_experiment_bad_value_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n=30\nbudget=abc\n")
    code, _ = run_cli("experiment", str(cfg))
    assert code == 3
    assert f"{cfg}:2: bad value 'abc' for budget" in capsys.readouterr().err


CSV_HEADER = ("instance,n,k,mode,success,kappa_v1,kappa_v2,kappa_cross,wall_time_s,seed,"
              "params_fingerprint\r\n")


@pytest.mark.parametrize("command, text, code, out, err", [
    # lo:hi seeds, the transitive and Paley kinds and a search budget
    ("experiment", "kind=transitive,paley\nn=7\nk=1\nseeds=2:4\nbudget=5\n", 0,
     CSV_HEADER + "transitive-n7-s2,7,1,search,0,,,,<s>,2,search-5\r\n"
     "transitive-n7-s3,7,1,search,0,,,,<s>,3,search-5\r\n"
     "paley-n7-s2,7,1,search,0,,,,<s>,2,search-5\r\n"
     "paley-n7-s3,7,1,search,0,,,,<s>,3,search-5\r\n"
     "success rate: 0/4 (0.0%)\n", ""),
    # the guaranteed params stop the pipeline at its gate: a failed trial
    ("experiment", "n=30\nk=1\nmode=pipeline\nseeds=1\n", 0,
     CSV_HEADER + "random-n30-s0,30,1,pipeline,0,,,,<s>,0,-\r\nsuccess rate: 0/1 (0.0%)\n", ""),
    ("experiment", "n=30\nseeds\n", 3, "", "error: <cfg>:2: expected key=value\n"),
    ("partition", "# relaxed\nbundle_size\n", 3, "", "error: <cfg>:2: expected key=value\n"),
])
def test_experiment_configs_and_params_files(tmp_path, command, text, code, out, err):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    if command == "experiment":
        argv = ("experiment", str(cfg))
    else:
        r = tmp_path / "r12.txt"
        run_cli("gen", "--kind", "random", "--n", "12", "--seed", "1", "--out", str(r))
        argv = ("partition", str(r), "--k", "1", "--seed", "0", "--params-file", str(cfg))
    got_code, got_out, got_err = _run_with_stderr(argv)
    got_out = re.sub(r"^((?:[^,\n]*,){8})[0-9.]+,", r"\1<s>,", got_out, flags=re.M)
    assert (got_code, got_out, got_err.replace(str(cfg), "<cfg>")) == (code, out, err)


@pytest.mark.parametrize("key", ["k", "short_cap", "growth", "per_class"])
def test_params_file_rejects_what_follows_from_k(tmp_path, capsys, key):
    # the run's k is --k; 10k+10, 9k^2 and the k structures per class
    # follow from it
    r = tmp_path / "r40.txt"
    run_cli("gen", "--kind", "random", "--n", "40", "--seed", "3", "--out", str(r))
    params = tmp_path / "params.txt"
    params.write_text(f"# relaxed\n{key}=30\n")
    code, _ = run_cli("partition", str(r), "--k", "1", "--seed", "0",
                      "--mode", "pipeline", "--params-file", str(params))
    assert code == 3
    assert f"{params}:2: unknown key '{key}'" in capsys.readouterr().err


def test_params_file_rejects_a_flag_that_is_not_boolean(tmp_path, capsys):
    r = tmp_path / "r40.txt"
    run_cli("gen", "--kind", "random", "--n", "40", "--seed", "3", "--out", str(r))
    params = tmp_path / "params.txt"
    params.write_text("# relaxed\nstrict=maybe\n")
    code, _ = run_cli("partition", str(r), "--k", "1", "--seed", "0",
                      "--mode", "pipeline", "--params-file", str(params))
    assert code == 3
    assert f"{params}:2: bad value 'maybe' for strict" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["pipeline", "auto"])
def test_params_file_strict_without_a_budget_is_an_input_error(tmp_path, capsys, mode):
    # the file starts from the relaxed params, whose budget is none
    r = tmp_path / "r40.txt"
    run_cli("gen", "--kind", "random", "--n", "40", "--seed", "3", "--out", str(r))
    params = tmp_path / "params.txt"
    params.write_text("strict=true\n")
    code, out = run_cli("partition", str(r), "--k", "1", "--seed", "0",
                        "--mode", mode, "--params-file", str(params))
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: strict pipeline params need a budget\n"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "tourpart.cli", "--version"],
                          capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert proc.returncode == 0 and "tourpart" in proc.stdout


def test_import_loads_no_scipy():
    code = "import sys, tourpart; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=SUBPROCESS_ENV)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


# (argv, exit code, stdout, stderr) of every partition call in this file, of
# the budget-0 and degree-proof cases, of --linked and of an experiment grid,
# with the temporary directory as <tmp> and the wall-time column as <s>
CLI_VERDICT_DIGEST = "77dae0e8cd465c05"


def _verdict_corpus(tmp_path):
    def gen(name, *argv):
        path = tmp_path / name
        run_cli("gen", *argv, "--out", str(path))
        return str(path)

    r40 = gen("r40.txt", "--kind", "random", "--n", "40", "--seed", "3")
    r12 = gen("r12.txt", "--kind", "random", "--n", "12", "--seed", "1")
    t40 = gen("t40.txt", "--kind", "transitive", "--n", "40")
    p7 = gen("p7.txt", "--kind", "paley", "--q", "7")
    c3 = gen("c3.txt", "--kind", "paley", "--q", "3")
    two = str(_two_rotational(tmp_path))
    planted = tmp_path / "planted.txt"
    with planted.open("w") as fh:
        write_edge_list(_planted(40, 1, 3), fh)
    files = {}
    for name, text in (("good", "# relaxed\nbundle_size=4\nbudget=none\n"),
                       ("bad", "no_such_knob=3\n"), ("k", "# relaxed\nk=30\n"),
                       ("short_cap", "# relaxed\nshort_cap=30\n"),
                       ("growth", "# relaxed\ngrowth=30\n"),
                       ("strict", "# relaxed\nstrict=maybe\n"),
                       ("exp", "kind=random\nn=30\nk=1\nmode=search\nseeds=3\n")):
        files[name] = tmp_path / f"{name}.cfg"
        files[name].write_text(text)
    seed0 = ("--seed", "0")
    calls = [
        (r40, "--k", "2", *seed0, "--mode", "search", "--out", str(tmp_path / "part.txt")),
        (t40, "--k", "1", *seed0, "--mode", "search", "--budget", "120"),
        *[(r12, "--k", "1", *seed0, "--mode", mode, "--budget", "-5")
          for mode in ("auto", "search", "pipeline")],
        (r40, "--mode", "search", "--k", "3", *seed0, "--budget", "1"),
        (r40, "--mode", "auto", "--k", "3", *seed0, "--budget", "1"),
        (t40, "--k", "1", *seed0, "--mode", "search", "--budget", "20"),
        (two, "--k", "1", *seed0, "--mode", "search", "--budget", "20"),
        *[(r12, "--k", k, *seed0, "--mode", mode)
          for k in ("99", "2") for mode in ("auto", "search")],
        (r12, "--k", "2", *seed0, "--budget", "-5"),
        (r40, "--k", "1", *seed0, "--mode", "pipeline"),
        (t40, "--k", "1", *seed0, "--mode", "pipeline"),
        (r40, "--k", "3", *seed0, "--mode", "pipeline"),
        (r40, "--k", "1", *seed0, "--mode", "pipeline", "--params-file", str(files["good"])),
        (r40, "--k", "1", *seed0, "--params-file", str(files["bad"])),
        *[(r40, "--k", "1", *seed0, "--mode", "pipeline", "--params-file", str(files[key]))
          for key in ("k", "short_cap", "growth", "strict")],
        *[(two, "--k", "1", *seed0, "--mode", mode, "--budget", "0")
          for mode in ("search", "auto", "pipeline")],
        (str(planted), "--k", "2", *seed0, "--mode", "search"),
    ]
    return ([("partition", *argv) for argv in calls]
            + [("analyze", p7, "--linked", "1"), ("analyze", c3, "--linked", "2"),
               ("experiment", str(files["exp"]))])


def _run_with_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_cli_verdicts_are_pinned(tmp_path):
    tmp = str(tmp_path)
    rows = []
    for argv in _verdict_corpus(tmp_path):
        code, out, err = _run_with_stderr(argv)
        if argv[0] == "experiment":
            out = re.sub(r"^((?:[^,\n]*,){8})[0-9.]+,", r"\1<s>,", out, flags=re.M)
        rows.append([[a.replace(tmp, "<tmp>") for a in argv], code,
                     out.replace(tmp, "<tmp>"), err.replace(tmp, "<tmp>")])
    assert [row[1] for row in rows[-3:]] == [0, 0, 0]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == CLI_VERDICT_DIGEST


def test_library_verdicts_are_the_cli_exit_codes(tmp_path):
    # auto mode returns a verified pipeline split in-process
    res = partition(random_tournament(1500, 5001), 1, mode="auto",
                    params=PipelineParams.relaxed(1), seed=1)
    assert res.mode == "pipeline" and res.status == Verdict.FOUND
    checked = 0
    for argv in _verdict_corpus(tmp_path):
        args = cli.build_parser().parse_args(list(argv)) if argv[0] == "partition" else None
        if args is None or args.mode == "pipeline":
            continue
        code, _, _ = _run_with_stderr(argv)
        if code == cli.EXIT_INPUT:
            continue
        with open(args.path) as fh:
            T = read_tournament(fh)
        res = partition(T, args.k, mode=args.mode, seed=args.seed, search_budget=args.budget)
        assert cli.EXIT_CODE[res.status] == code, argv
        checked += 1
    assert checked == 13
