"""Static checks on the source tree: no module imports a name it never uses,
no function imports inside its body, only ``core`` copies subgraphs, calls
``is_path`` and reads a packed word, no module scatters through
``triu_indices``, no module reads a graph as a bool matrix, every pipeline
parameter is read, every answer spells its status and reason one way, the
CLI certifies nothing itself, the pipeline audits safety only
incrementally, the package exports only what its users use, with no public
method that only tests call, no function assigns a local it never reads,
and every default of the public surface is overridden by some caller
outside the tests or has its reason on record."""

import ast
import re
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


def _source_modules():
    return sorted((ROOT / "src/tourpart").glob("*.py"))


def test_only_core_cuts_submatrices():
    # restricted graphs reach the flow layer as a host graph plus a vertex
    # mask; copying and relabelling a subgraph is core's business alone
    offenders = []
    for path in _source_modules():
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [getattr(node, "id", None), getattr(node, "attr", None)])
            if "_cut" in names or "_derived" in names:
                offenders.append((path.name, node.lineno))
    assert offenders == []


def test_only_core_calls_is_path():
    # every path family is checked by ``core.path_family_fault``; a module
    # that calls ``is_path`` itself is writing that check again
    offenders = [(path.name, node.lineno) for path in _source_modules() if path.name != "core.py"
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Call)
                 and "is_path" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert offenders == []


def test_only_connectivity_names_the_flow_and_the_short_path_count():
    # ``connectivity._pair_value`` is the one home of "count short paths,
    # flow only when they fall short"; a module that names either half is
    # writing that rule again
    kernel = {"maximum_flow", "_short_paths_reach"}
    offenders = [(path.name, node.lineno) for path in _source_modules()
                 if path.name != "connectivity.py"
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)} & kernel]
    assert offenders == []


# The names that read a packed word's bytes or bits.  ``formats`` turns the
# compact format's ASCII digits, one uint8 per pair bit, into text and back
# with ``tobytes`` and ``frombuffer``; those bytes are no packed word.
WORD_READERS = {"bitwise_count", "from_bytes", "to_bytes", "tobytes", "frombuffer", "memoryview"}
ASCII_DIGITS = {("formats.py", "tobytes"), ("formats.py", "frombuffer")}


def _indexes_a_word(node):
    """Whether ``node`` is ``v >> 6``, or ``v & 63`` either way round."""
    if not isinstance(node, ast.BinOp):
        return False
    ends = {side.value for side in (node.left, node.right) if isinstance(side, ast.Constant)}
    return (isinstance(node.op, ast.RShift) and isinstance(node.right, ast.Constant)
            and node.right.value == 6) or (isinstance(node.op, ast.BitAnd) and 63 in ends)


def test_only_core_reads_a_packed_word():
    # the word layout (popcounts, byte order, bit positions) is core's: a
    # module that names a byte or bit reader, or indexes a word by ``>> 6``
    # and ``& 63``, is writing core's row count or int-row reader again
    offenders = []
    for path in _source_modules():
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = {getattr(node, "id", None), getattr(node, "attr", None),
                     node.name if isinstance(node, ast.alias) else None}
            named = {(path.name, name) for name in names & WORD_READERS} - ASCII_DIGITS
            if named or _indexes_a_word(node):
                offenders.append((path.name, node.lineno))
    assert offenders == []


def test_no_module_scatters_through_triu_indices():
    # a tournament is built from its pair bits by row slices in core; int64
    # n x n index arrays took about 10.8 n^2 bytes per generated graph
    offenders = [(path.name, node.lineno) for path in _source_modules()
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if "triu_indices" in (getattr(node, "id", None), getattr(node, "attr", None))
                 or isinstance(node, ast.alias) and node.name == "triu_indices"]
    assert offenders == []


def test_no_module_reads_a_bool_matrix():
    # packed rows are the graph; ``adj`` unpacks n x n on every read and is
    # kept for callers outside the library only
    offenders = [(path.name, node.lineno, node.attr) for path in _source_modules()
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Attribute)
                 and node.attr in ("adj", "radj", "_adj", "_radj")]
    assert offenders == []


def test_no_function_imports_in_its_body():
    offenders = []
    for path in _source_modules():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [(path.name, node.name, inner.lineno) for inner in ast.walk(node)
                              if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert offenders == []


def test_every_pipeline_param_is_read():
    # a settable value that no stage reads changes nothing but the params
    # fingerprint; a read is ``params.<field>`` or ``<x>.params.<field>``
    # outside the class body
    fields, read = [], set()
    for path in _source_modules():
        tree = ast.parse(path.read_text(), str(path))
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "PipelineParams":
                fields += [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
                inside |= {id(inner) for inner in ast.walk(node)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and id(node) not in inside
                 and "params" in (getattr(node.value, "id", None),
                                  getattr(node.value, "attr", None))}
    assert fields and [name for name in fields if name not in read] == []


def test_cli_proves_nothing_itself():
    # a partition run's proofs come from the library's verdict; the CLI
    # only prints it
    tree = ast.parse((ROOT / "src/tourpart/cli.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported.isdisjoint({"certify", "sweep"})


# An answer's outcome is its ``status: Verdict`` and its cause its
# ``reason``; these are the other spellings they replaced
RETIRED_ANSWER_FIELDS = {"ok", "verdict", "detail", "remainder_ok"}
REASONED_ANSWERS = {"PartitionResult", "LinkageResult", "SpanningLinkage"}


def test_every_answer_spells_its_status_and_reason_one_way():
    fields = {}
    for path in _source_modules():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields[node.name] = {item.target.id: ast.unparse(item.annotation)
                                     for item in node.body if isinstance(item, ast.AnnAssign)}
    offenders = sorted(f"{cls}.{name}" for cls, annotated in fields.items()
                       for name, annotation in annotated.items()
                       if name in RETIRED_ANSWER_FIELDS or annotation == "Verdict" and name != "status")
    offenders += [f"{cls} has no reason" for cls in sorted(REASONED_ANSWERS)
                  if "reason" not in fields.get(cls, {})]
    assert len(fields) > 10
    assert offenders == []


def test_pipeline_audits_safety_only_through_its_helper():
    # ``PipelineState.require_safe`` checks only the vertices colored since
    # the last passed audit; a direct call would scan the whole coloring again
    tree = ast.parse((ROOT / "src/tourpart/pipeline.py").read_text())

    def calls(node):
        return sorted(inner.lineno for inner in ast.walk(node) if isinstance(inner, ast.Call)
                      and getattr(inner.func, "id", None) == "all_colored_safe")

    helper, = (node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "require_safe")
    assert calls(helper) and calls(tree) == calls(helper)


def _surface_names():
    """Every name the CLI, a demo or ``bench/`` reads or imports, or binds
    as a string (the bench tracer patches its entry points by name), and
    every word of the README's code spans and code blocks."""
    names = set()
    for path in [ROOT / "src/tourpart/cli.py", *sorted((ROOT / "demos").glob("*.py")),
                 *sorted((ROOT / "bench").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```.*?```", readme, re.S)
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
    return names | set(re.findall(r"\w+", " ".join(blocks + spans)))


def _returns():
    """Per function or method name in ``src``, the names its ``return``
    statements call: a callee, the class of a classmethod call, or the
    callee assigned to a returned local."""
    returns = {}
    for path in _source_modules():
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            assigned = {target.id: node.value for node in ast.walk(func)
                        if isinstance(node, ast.Assign) for target in node.targets
                        if isinstance(target, ast.Name)}
            values = [node.value for node in ast.walk(func) if isinstance(node, ast.Return)]
            called = returns.setdefault(func.name, set())
            while values:
                value = values.pop()
                if isinstance(value, ast.Tuple):
                    values += value.elts
                elif isinstance(value, ast.Name) and value.id in assigned:
                    values.append(assigned.pop(value.id))
                elif isinstance(value, ast.Call):
                    callee = value.func
                    called.add(getattr(callee, "id", None) or getattr(callee, "attr", None))
                    if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
                        called.add(callee.value.id)
    return returns


def test_every_export_is_used_or_returned():
    # the package exports what the README, the demos, the CLI and the bench
    # use, and the result types those return; test-only helpers live in
    # tests/oracles.py, so the surface cannot grow back through the tests
    tree = ast.parse((ROOT / "src/tourpart/__init__.py").read_text())
    exported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    used, returns = _surface_names(), _returns()
    reached, todo = set(), [name for name in exported if name in used]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += returns.get(name, ())
    assert len(exported) > 30
    assert [name for name in exported if name not in reached] == []


def test_every_public_method_is_used():
    # a public method of a package class is read by the package itself or
    # by the README, a demo, the CLI or the bench; a method only tests call
    # belongs in tests/oracles.py
    read = _surface_names()
    methods = []
    for path in _source_modules():
        tree = ast.parse(path.read_text(), str(path))
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        methods += [(path.name, cls.name, func.name) for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                    for func in cls.body
                    if isinstance(func, ast.FunctionDef) and not func.name.startswith("_")]
    assert len(methods) > 30
    assert [m for m in methods if m[2] not in read] == []


def _own_nodes(func):
    """The nodes of ``func``'s body outside its nested scopes."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
              ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, scopes):
            todo += ast.iter_child_nodes(node)


def test_no_function_assigns_a_local_it_never_reads():
    # assignments, loop targets and unpacked names count; ``_`` names and
    # names a nested function reads do not
    offenders = []
    for path in _source_modules():
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            shared = {name for node in _own_nodes(func)
                      if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
            read = {node.id for node in ast.walk(func)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            offenders += sorted({(path.name, node.lineno, node.id) for node in _own_nodes(func)
                                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                                 and not node.id.startswith("_")
                                 and node.id not in read | shared})
    assert offenders == []


# Defaults of the public surface that no caller outside the tests overrides,
# each with the reason it stays (the census in CHANGES.md)
UNSET_DEFAULTS = {
    ("find_disjoint_paths", "budget"): "the exact search's work budget, behind its unknown "
                                       "verdict; exact searches that can run for minutes take one",
    ("hamiltonian_path", "budget"): "the exact search's work budget, behind its unknown "
                                    "verdict; exact searches that can run for minutes take one",
    ("safety_scan", "vertices"): "shares _requested with all_colored_safe, whose vertices the "
                                 "pipeline audit sets; a table of every colored vertex is its "
                                 "default",
}


def _defaulted_surface():
    """Per exported function or dataclass: whether it is a dataclass, its
    parameters or fields in order, and those with a default."""
    tree = ast.parse((ROOT / "src/tourpart/__init__.py").read_text())
    exported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    surface = {}
    for path in _source_modules():
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef) and node.name in exported:
                names = [a.arg for a in node.args.posonlyargs + node.args.args]
                defaulted = names[len(names) - len(node.args.defaults):] + [
                    a.arg for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                    if d is not None]
                surface[node.name] = (False, names, defaulted)
            elif (isinstance(node, ast.ClassDef) and node.name in exported
                  and any("dataclass" in ast.unparse(d) for d in node.decorator_list)):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
                surface[node.name] = (True, [f.target.id for f in fields],
                                      [f.target.id for f in fields if f.value is not None])
    return surface


def test_every_default_of_the_surface_is_overridden_outside_the_tests():
    # a call in src, the CLI, a demo, bench/ or the README's code sets a
    # parameter by position or keyword, also through a local alias of the
    # function; ``replace`` sets dataclass fields by keyword
    surface = _defaulted_surface()
    paths = [*_source_modules(), *sorted((ROOT / "demos").glob("*.py")),
             *sorted((ROOT / "bench").glob("*.py"))]
    trees = [ast.parse(path.read_text(), str(path)) for path in paths]
    trees += [ast.parse(block) for block in
              re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    aliases = {}
    for node in nodes:
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.Name, ast.IfExp)):
            named = {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)} & set(surface)
            for target in node.targets:
                if isinstance(target, ast.Name) and named:
                    aliases.setdefault(target.id, set()).update(named)
    overridden = set()
    for call in (node for node in nodes if isinstance(node, ast.Call)):
        callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        keywords = {k.arg for k in call.keywords if k.arg}
        if callee == "replace":
            overridden |= {(name, arg) for name, (dataclass, names, _) in surface.items()
                           if dataclass for arg in keywords & set(names)}
            continue
        for name in {callee} & set(surface) | aliases.get(callee, set()):
            overridden |= {(name, arg) for arg in surface[name][1][:len(call.args)]}
            overridden |= {(name, arg) for arg in keywords}
    unset = {(name, arg) for name, (_, _, defaulted) in surface.items()
             for arg in defaulted if (name, arg) not in overridden}
    assert len(surface) > 25
    assert unset == set(UNSET_DEFAULTS)
