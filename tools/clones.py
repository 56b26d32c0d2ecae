"""List the runs of statements that ``src/tourpart`` writes more than once.

Usage, from anywhere in a checkout::

    python tools/clones.py                 # the package's modules
    python tools/clones.py DIR --min 4     # the *.py files of DIR, runs of 4+

A run is at least ``--min`` (default 3) consecutive statements of one
block: a module, class or function body, or the body, ``else`` or handler
of a compound statement.  Two runs match when their ASTs agree once every
name (variables, arguments, parameters) and every string constant is
replaced by one placeholder; attributes, numbers and operators are kept.
Only maximal runs are listed, and a block's run is not matched against an
overlapping run of the same block.  Each listing gives the run's length in
statements and the first and last line of every place, longest runs
first.  A match is a candidate for one home, not a verdict: argparse
calls and dataclass fields match by design.  Standard library only;
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import copy
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tourpart"


class _Normalize(ast.NodeTransformer):
    """Replace names and string constants by one placeholder."""

    def visit_Name(self, node):
        return ast.Name(id="_", ctx=node.ctx)

    def visit_arg(self, node):
        node.arg = "_"
        return self.generic_visit(node)

    def visit_Constant(self, node):
        return ast.Constant(value="") if isinstance(node.value, str) else node

    def visit_FunctionDef(self, node):
        node.name = "_"
        return self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        node.name = "_"
        return self.generic_visit(node)


def blocks(tree):
    """Every statement list of ``tree``: bodies (of handlers too), ``else``
    and ``finally`` lists."""
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(node, field, None)
            if isinstance(stmts, list) and stmts and isinstance(stmts[0], ast.stmt):
                yield stmts


def runs(paths, least):
    """Groups of matching maximal runs, heaviest first: (statements, AST
    nodes, [(file, first line, last line)])."""
    keys, places = [], []  # one entry per block: statement keys and (file, stmt) pairs
    for path in paths:
        for stmts in blocks(ast.parse(path.read_text(), str(path))):
            keys.append([ast.dump(_Normalize().visit(copy.deepcopy(s))) for s in stmts])
            places.append([(path.name, s) for s in stmts])
    where = defaultdict(list)  # statement key -> (block, index)
    for b, block in enumerate(keys):
        for i, key in enumerate(block):
            where[key].append((b, i))
    groups = defaultdict(set)
    for spots in where.values():
        for x, (b1, i1) in enumerate(spots):
            for b2, i2 in spots[x + 1:]:
                if i1 and i2 and keys[b1][i1 - 1] == keys[b2][i2 - 1]:
                    continue  # not maximal: the run extends to the left
                length = 0
                while (i1 + length < len(keys[b1]) and i2 + length < len(keys[b2])
                       and keys[b1][i1 + length] == keys[b2][i2 + length]):
                    length += 1
                if length >= least and (b1 != b2 or length <= abs(i2 - i1)):
                    groups[tuple(keys[b1][i1:i1 + length])] |= {(b1, i1), (b2, i2)}
    # longest first; a place inside one already listed, or overlapping one of
    # its own group, is a shifted copy
    found, listed = [], defaultdict(list)
    for key, starts in sorted(groups.items(), key=lambda g: -len(g[0])):
        n, fresh = len(key), []
        for b, i in sorted(starts):
            if not (any(lo <= i and i + n <= hi for lo, hi in listed[b])
                    or any(b == c and i < j + n for c, j in fresh)):
                fresh.append((b, i))
        if len(fresh) < 2:
            continue
        spans = []
        for b, i in fresh:
            listed[b].append((i, i + n))
            stmts = [s for _, s in places[b][i:i + len(key)]]
            spans.append((places[b][i][0], stmts[0].lineno, stmts[-1].end_lineno))
        nodes = sum(len(list(ast.walk(s))) for s in stmts)
        found.append((len(key), nodes, sorted(spans)))
    return sorted(found, key=lambda f: (-f[1], f[2]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", type=Path, default=PACKAGE)
    parser.add_argument("--min", type=int, default=3, help="fewest statements in a run")
    args = parser.parse_args(argv)
    found = runs(sorted(args.directory.glob("*.py")), args.min)
    for length, nodes, spans in found:
        print(f"{length} statements, {nodes} nodes, {len(spans)} places: "
              + ", ".join(f"{name}:{first}-{last}" for name, first, last in spans))
    print(f"total: {len(found)} runs of at least {args.min} statements written more than once")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
