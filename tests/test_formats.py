import io
import re
import tracemalloc

import numpy as np
import pytest

from oracles import triu_compact_text, triu_random_tournament
from tourpart.core import digraph_from_edges
from tourpart.formats import (
    FormatError,
    read_digraph,
    read_tournament,
    to_dot,
    write_compact,
    write_edge_list,
)
from tourpart.generators import paley_tournament, random_tournament


def _roundtrip(T, writer):
    buf = io.StringIO()
    writer(T, buf)
    buf.seek(0)
    return read_tournament(buf)


def test_edge_list_roundtrip():
    for seed in range(5):
        T = random_tournament(17, seed)
        back = _roundtrip(T, write_edge_list)
        assert (back.adj == T.adj).all()


def test_arc_listers_match_a_matrix_reference():
    # the writer, the DOT output and ``edges`` read the packed rows one at a
    # time; their text is that of the arcs listed off the bool matrix, on
    # rows of one, two and three words and on a digraph with empty rows
    graphs = [random_tournament(n, n) for n in (1, 5, 64, 65, 130)]
    graphs.append(digraph_from_edges(70, [(69, 0), (3, 65), (3, 2), (64, 3)]))
    for G in graphs:
        arcs = [tuple(a) for a in np.argwhere(G.adj).tolist()]
        buf = io.StringIO()
        write_edge_list(G, buf)
        assert buf.getvalue() == f"{G.n} {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs)
        assert to_dot(G, "g") == "\n".join(
            ["digraph g {"] + [f"  {v};" for v in range(G.n)]
            + [f"  {u} -> {v};" for u, v in arcs] + ["}"]) + "\n"
        assert G.edges() == arcs


def test_compact_roundtrip_bit_exact():
    for seed in range(5):
        T = random_tournament(23, seed)
        back = _roundtrip(T, write_compact)
        assert (back.adj == T.adj).all()
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_compact(random_tournament(23, 1), buf1)
    write_compact(_roundtrip(random_tournament(23, 1), write_compact), buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_compact_text_is_the_drawn_pair_bits():
    # the writer reads the pair bits off the packed rows; its line is the
    # one a per-pair join writes, and the reader gives the same rows back
    for T in (random_tournament(1, 0), random_tournament(65, 4), random_tournament(130, 9),
              paley_tournament(31)):
        buf = io.StringIO()
        write_compact(T, buf)
        assert buf.getvalue() == triu_compact_text(T)
        back = read_tournament(io.StringIO(buf.getvalue()))
        assert (back.packed == T.packed).all() and (back.rpacked == T.rpacked).all()
    drawn = np.random.default_rng(5).integers(0, 2, size=20 * 19 // 2, dtype=np.uint8)
    buf = io.StringIO()
    write_compact(random_tournament(20, 5), buf)
    assert buf.getvalue().split()[2] == "".join(map(str, drawn.tolist()))


def test_compact_file_roundtrip_across_row_blocks(tmp_path):
    # 193 vertices make three full blocks of 64 rows and one of a single row
    path = tmp_path / "t193.txt"
    T = random_tournament(193, 7)
    with open(path, "w") as fh:
        write_compact(T, fh)
    assert path.read_text() == triu_compact_text(triu_random_tournament(193, 7))
    with open(path) as fh:
        back = read_tournament(fh)
    assert back.packed.tobytes() == T.packed.tobytes()
    assert back.rpacked.tobytes() == T.rpacked.tobytes()


def test_a_bad_digit_in_a_late_row_block_names_its_line():
    # the digits of rows 0..127 (the first two blocks) are read and built
    # before the fault in row 130, in the third block, is found
    text = triu_compact_text(random_tournament(193, 7))
    at = text.index(" ", text.index(" ") + 1) + 1 + 130 * (2 * 193 - 1 - 130) // 2 + 5
    for bad in ("2", "/", "a"):
        with pytest.raises(FormatError, match="^line 1: orientation bits must be 0/1$"):
            read_tournament(io.StringIO(text[:at] + bad + text[at + 1:]))


@pytest.mark.parametrize("text, reason", [
    ("3 3 0110\n", "line 1: header announced 3 bits, got 4"),
    ("3 3 01\n", "line 1: header announced 3 bits, got 2"),
    ("3 3 011 1\n", "line 1: bad header '3 3 011 1'"),
    ("3 3 011\t\n", None),
    ("\n3 3 011\n", None),
])
def test_a_compact_line_not_laid_out_as_written_is_parsed_whole(text, reason):
    # the block reader hands any departure from the written layout to the
    # whole-line parse, which names the fault or reads the line as before
    if reason is None:
        assert read_tournament(io.StringIO(text)).edges() == [(0, 2), (1, 0), (1, 2)]
    else:
        with pytest.raises(FormatError, match=f"^{re.escape(reason)}$"):
            read_tournament(io.StringIO(text))


def test_compact_io_holds_no_n_by_n_temporary(tmp_path):
    # one block of digits at a time: the reader peaks near the tournament's
    # two packed matrices, n^2 / 4 bytes, the writer near one block; whole
    # strings and digit arrays took 3.30 n^2 and 1.66 n^2
    n, path = 1500, tmp_path / "t1500.txt"
    T = random_tournament(n, 5001)

    def traced_peak(mode, call):
        with open(path, mode) as fh:
            tracemalloc.start()
            try:
                call(fh)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    assert traced_peak("w", lambda fh: write_compact(T, fh)) < n * n
    assert traced_peak("r", read_tournament) < n * n
    assert read_tournament(io.StringIO(path.read_text())).packed.tobytes() == T.packed.tobytes()


def test_loader_validates_completeness():
    with pytest.raises(FormatError):
        read_tournament(io.StringIO("3 2\n0 1\n1 2\n"))


def test_parse_error_reports_line():
    bad = "3 3\n0 1\n1 x\n2 0\n"
    with pytest.raises(FormatError) as err:
        read_tournament(io.StringIO(bad))
    assert "line 3" in str(err.value)


def test_duplicate_and_self_loop_rejected():
    with pytest.raises(FormatError):
        read_tournament(io.StringIO("3 3\n0 1\n0 1\n1 2\n"))
    with pytest.raises(FormatError):
        read_digraph(io.StringIO("3 1\n1 1\n"))


def test_digraph_reader_allows_sparse():
    D = read_digraph(io.StringIO("4 2\n0 1\n2 3\n"))
    assert set(D.edges()) == {(0, 1), (2, 3)}


@pytest.mark.parametrize("text", ["0 0\n", "0 0 0\n"])
def test_a_tournament_needs_a_vertex_in_either_format(text):
    with pytest.raises(FormatError, match="^line 1: n must be at least 1$"):
        read_tournament(io.StringIO(text))


def test_compact_header_mismatch():
    with pytest.raises(FormatError):
        read_tournament(io.StringIO("3 4 0110\n"))


@pytest.mark.parametrize("bits", ["01/", "012", "0a1", "0\u00e91", "0\x001"])
def test_compact_bits_other_than_0_and_1_name_their_line(bits):
    # "/" sits just below "0" and "2" just above "1"; the accented letter is
    # two bytes and the NUL is zero
    with pytest.raises(FormatError, match="^line 2: orientation bits must be 0/1$"):
        read_tournament(io.StringIO(f"\n3 3 {bits}\n"))


def test_header_counts_checked_before_allocating(monkeypatch):
    import tourpart.formats as formats

    def no_parse(*args):
        raise AssertionError("edge lines parsed before the header was checked")

    monkeypatch.setattr(formats, "_parse_edge_lines", no_parse)
    for text in ("-3 3\n", "3 -1\n", "5000 1\n0 1\n", "-3 6 000000\n"):
        with pytest.raises(FormatError):
            read_tournament(io.StringIO(text))
    for text in ("-3 3\n", "4 -2\n"):
        with pytest.raises(FormatError):
            read_digraph(io.StringIO(text))


def test_edge_count_bounds_the_allocation(monkeypatch):
    import tourpart.formats as formats

    def no_alloc(*args, **kwargs):
        raise AssertionError("n x n matrix allocated for a header the file cannot back")

    # a complete orientation of 3000 vertices needs 4498500 edge lines
    monkeypatch.setattr(formats.np, "zeros", no_alloc)
    with pytest.raises(FormatError, match="only 1 lines follow"):
        read_tournament(io.StringIO("3000 4498500\n0 1\n"))
    with pytest.raises(FormatError, match="exceed the bound of 10"):
        read_digraph(io.StringIO("3000 0\n"), max_n=10)


def test_dot_output():
    text = to_dot(paley_tournament(3), "c3")
    assert text.startswith("digraph c3 {")
    assert "0 -> 1;" in text
