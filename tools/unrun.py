"""List the statements of ``src/tourpart`` that the Tier-1 suite never runs.

Usage, from anywhere in a checkout::

    python tools/unrun.py              # the whole Tier-1 suite
    python tools/unrun.py tests/test_cli.py -k gen   # any pytest arguments

The suite runs in this process under ``sys.settrace``.  Only frames of the
library's own modules get a line tracer, so the rest of the suite runs at
close to full speed.  A statement counts as run when a line event fires on
its first line.  Only statements inside function bodies are counted; module
and class bodies run at import, and ``def`` lines, docstrings and
``global``/``nonlocal`` declarations (which compile to no code) are left
out.  Code that runs only in a subprocess, such as ``python -m
tourpart.cli``, counts as unrun.  Standard library only, besides pytest
itself; pytest does not collect this file.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tourpart"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def function_statements(path):
    """The first lines of the statements inside the function bodies of the
    module ``path``, nested functions included."""
    lines = set()

    def body(stmts):
        for i, stmt in enumerate(stmts):
            if (i == 0 and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                continue  # a docstring
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body(stmt.body)
                continue
            if isinstance(stmt, ast.ClassDef):
                classes(stmt.body)
                continue
            if not isinstance(stmt, (ast.Global, ast.Nonlocal)):
                lines.add(stmt.lineno)
            for field in ("body", "orelse", "finalbody"):
                body(getattr(stmt, field, []))
            for handler in getattr(stmt, "handlers", []):
                body(handler.body)
            for case in getattr(stmt, "cases", []):
                body(case.body)

    def classes(stmts):
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body(stmt.body)
            elif isinstance(stmt, ast.ClassDef):
                classes(stmt.body)

    classes(ast.parse(path.read_text(), str(path)).body)
    return lines


def traced_run(args):
    """Run pytest with ``args`` under the line tracer; returns its exit code
    and the lines that ran, per module file."""
    files = {str(p.resolve()) for p in PACKAGE.glob("*.py")}
    ran = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    # as the Tier-1 command sets it, for this process and the subprocesses
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, src)
    os.chdir(ROOT)
    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv=None):
    args = DEFAULT_ARGS if not argv else argv
    code, ran = traced_run(args)
    total = counted = 0
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = function_statements(path)
        missed = sorted(lines - ran[str(path.resolve())])
        counted += len(lines)
        total += len(missed)
        if missed:
            report.append((len(missed), path.name, missed))
    print(f"\npytest exit status {int(code)}")
    for count, name, missed in sorted(report, key=lambda r: (-r[0], r[1])):
        print(f"{name}: {count} unrun: {', '.join(map(str, missed))}")
    print(f"total: {total} of {counted} statements in function bodies unrun")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
