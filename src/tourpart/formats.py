"""On-disk formats for tournaments and digraphs.

Edge-list format: a header line ``<n> <edge_count>`` followed by one
``<u> <v>`` line per directed edge u->v.  The tournament loader rejects
files that are not complete orientations.

Compact format: a single line ``<n> <pair_count> <bitstring>`` holding a
tournament's pair bits (``core.pair_bits``): the bit for the pair (i, j),
i < j, taken in row-major order, is 1 iff the edge runs i->j.  Both sides
take the bits one block of 64 rows at a time: the reader checks a line
laid out as the writer writes it block by block into the builder, and
parses any other text, a fault included, whole, to name the fault.
Round-trips are bit-exact, and the file of ``random_tournament(n, seed)``
holds exactly the bits it drew.

DOT output is provided for eyeballing only; there is no DOT reader.
"""

from __future__ import annotations

import re

import numpy as np

from .core import (Digraph, Tournament, _arc_rows, _pair_blocks, _pair_count,
                   _tournament_from_blocks, tournament_from_pair_bits)


class FormatError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def write_edge_list(G, fh):
    fh.write(f"{G.n} {int(G.out_degrees().sum())}\n")
    for u, heads in _arc_rows(G):
        fh.write("".join([f"{u} {v}\n" for v in heads]))


def write_compact(T, fh):
    fh.write(f"{T.n} {T.n * (T.n - 1) // 2} ")
    for bits in _pair_blocks(T):
        fh.write((bits.view(np.uint8) + ord("0")).tobytes().decode())
    fh.write("\n")


def _parse_edge_lines(lines, start_line, n, m):
    if len(lines) < m:  # checked before allocating: one line per edge
        raise FormatError(f"header announced {m} edges, but only {len(lines)} lines follow")
    adj = np.zeros((n, n), dtype=bool)
    count = 0
    for offset, raw in enumerate(lines):
        lineno = start_line + offset
        text = raw.strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {text!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"non-integer vertex in {text!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"vertex out of range in {text!r}", lineno)
        if u == v:
            raise FormatError(f"self-loop {u}->{v}", lineno)
        if adj[u, v]:
            raise FormatError(f"duplicate edge {u}->{v}", lineno)
        adj[u, v] = True
        count += 1
    if count != m:
        raise FormatError(f"header announced {m} edges, found {count}")
    return adj


def _header_counts(line, lineno):
    """The positive ``n`` and nonnegative count that open every format."""
    head = line.split()
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"bad header {line!r}", lineno) from None
    if n < 0 or m < 0:
        raise FormatError(f"negative count in header {line!r}", lineno)
    if n < 1:
        raise FormatError("n must be at least 1", lineno)
    return n, m


def _load_lines(fh):
    lines = fh.read().splitlines()
    for i, raw in enumerate(lines):
        if raw.strip():
            return lines[i:], i + 1
    raise FormatError("empty input")


def _read_written_compact(fh, start):
    """The tournament of a compact line laid out as ``write_compact`` lays
    it out from ``start`` on, its digits read, checked and built one block
    of 64 rows at a time; ValueError at the first character that departs."""
    head = re.match(r"([0-9]+) ([0-9]+) ", fh.read(64))
    n = int(head[1]) if head else 0
    if n < 1 or int(head[2]) != n * (n - 1) // 2:
        raise ValueError("not a compact line as written")
    fh.seek(start)
    fh.read(head.end())

    def digits(lo, hi):
        count = _pair_count(n, lo, hi)
        # digit values; anything below "0" wraps around to above 1
        block = np.frombuffer(fh.read(count).encode(), dtype=np.uint8) - ord("0")
        if block.size != count or (block > 1).any():
            raise ValueError("not a compact line as written")
        return block

    T = _tournament_from_blocks(n, digits)
    if fh.read(1) not in ("", "\n"):
        raise ValueError("not a compact line as written")
    return T


def read_tournament(fh):
    """Load a tournament from either on-disk format (auto-detected)."""
    if fh.seekable():
        start = fh.tell()
        try:
            return _read_written_compact(fh, start)
        except (ValueError, MemoryError):  # MemoryError: a header larger than memory
            fh.seek(start)
    lines, first = _load_lines(fh)
    head = lines[0].split()
    if len(head) not in (2, 3):
        raise FormatError(f"bad header {lines[0]!r}", first)
    n, m = _header_counts(lines[0], first)
    if len(head) == 3:
        # digit values; anything below "0" wraps around to above 1
        bits = np.frombuffer(head[2].encode(), dtype=np.uint8) - ord("0")
        if (bits > 1).any():
            raise FormatError("orientation bits must be 0/1", first)
        if m != len(head[2]):
            raise FormatError(f"header announced {m} bits, got {len(head[2])}", first)
        try:
            return tournament_from_pair_bits(n, bits)
        except ValueError as exc:
            raise FormatError(str(exc), first) from None
    # checked before _parse_edge_lines allocates the n x n matrix
    if m != n * (n - 1) // 2:
        raise FormatError(f"{m} edges cannot be a complete orientation of {n} vertices", first)
    adj = _parse_edge_lines(lines[1:], first + 1, n, m)
    try:
        return Tournament(adj)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def read_digraph(fh, max_n=None):
    """Load a general digraph in edge-list format (no completeness check).

    A digraph's edge count does not bound its vertex count, so a caller that
    knows a bound passes it as ``max_n``; larger headers are rejected before
    the n x n matrix is allocated.
    """
    lines, first = _load_lines(fh)
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"bad header {lines[0]!r}", first)
    n, m = _header_counts(lines[0], first)
    if max_n is not None and n > max_n:
        raise FormatError(f"{n} vertices exceed the bound of {max_n}", first)
    adj = _parse_edge_lines(lines[1:], first + 1, n, m)
    return Digraph(adj)


def to_dot(G, name="G"):
    lines = [f"digraph {name} {{"]
    for v in range(G.n):
        lines.append(f"  {v};")
    for u, heads in _arc_rows(G):
        lines += [f"  {u} -> {v};" for v in heads]
    lines.append("}")
    return "\n".join(lines) + "\n"
