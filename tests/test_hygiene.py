"""Static checks on the source tree: no module imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path):
    """The names ``path`` imports and never reads, with their line numbers.
    A package ``__init__`` re-exports what it imports, so it is skipped."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    files = [p for d in ("src/tourpart", "tests") for p in sorted((ROOT / d).glob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 20
    unused = {str(p.relative_to(ROOT)): names for p in files if (names := _unused_imports(p))}
    assert unused == {}
