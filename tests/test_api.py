import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import helmdd

MODULES = ["helmdd"] + [f"helmdd.{m.name}" for m in pkgutil.iter_modules(helmdd.__path__)
                        if m.name != "__main__"]
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SOURCES = Path(helmdd.__file__).resolve().parent


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def _spans_constant(name):
    # read from the source, so the benchmark's module is neither run nor compiled here
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {SPANS}")


def test_benchmark_span_targets_resolve():
    # a renamed function would otherwise drop out of the traced benchmark silently
    missing = []
    for span, module_name, path in _spans_constant("TARGETS"):
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{span} ({module_name}.{path})")
    gmres = inspect.signature(importlib.import_module("helmdd.linalg").gmres).parameters
    missing += [span for arg, span in _spans_constant("GMRES_OPERATORS") if arg not in gmres]
    assert missing == []


def _calls(tree, names):
    """(enclosing function, call node) of every call of a function or method in names."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            if getattr(node.func, "attr", getattr(node.func, "id", None)) in names:
                found.append((function, node))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_every_sparse_lu_goes_through_factorize():
    # one ordering and one backward-error guard hold only if nothing bypasses them
    outside = []
    for path in sorted(SOURCES.glob("*.py")):
        calls = _calls(ast.parse(path.read_text(encoding="utf-8")), ("splu", "spsolve", "factorized"))
        allowed = "factorize" if path.name == "linalg.py" else None
        outside += [f"{path.name}:{node.lineno} in {fn}" for fn, node in calls if fn != allowed]
        if allowed:
            assert calls, "linalg.factorize no longer calls splu"
    assert outside == []


def _references(tree, names):
    """(enclosing function, node) of every name, attribute or import of a name in names."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        name = getattr(node, "id", getattr(node, "attr", None))
        if isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name in names:
            found.append((function, node))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_all_pool_work_goes_through_pool_run():
    # the fixed blocks and the plan keep results the same for any worker count only
    # if no module plans or submits work past pool.run; the harness's --jobs
    # executor runs whole configurations, not blocks
    outside = []
    for path in sorted(SOURCES.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs = _references(tree, ("_plan", "_POOL", "_fork_join"))
        executors = _references(tree, ("ThreadPoolExecutor",))
        if path.name == "pool.py":
            assert refs and executors, "the guard no longer sees the pool"
            continue
        if path.name == "harness.py":  # its import and run_sweep
            executors = [(fn, node) for fn, node in executors
                         if fn != "run_sweep" and not isinstance(node, ast.alias)]
        outside += [f"{path.name}:{node.lineno} in {fn}" for fn, node in refs + executors]
    assert outside == []


def test_no_qz_on_a_pencil():
    # generalized_eig reduces the pencil with the Cholesky factor of M; QZ, an
    # eig or eigvals call given a second (b) matrix, is left to the tests
    outside, pencils = [], []
    for path in sorted(SOURCES.glob("*.py")):
        calls = _calls(ast.parse(path.read_text(encoding="utf-8")), ("eig", "eigvals"))
        allowed = "generalized_eig" if path.name == "linalg.py" else None
        for fn, node in calls:
            where = f"{path.name}:{node.lineno} in {fn}"
            if fn != allowed:
                outside.append(where)
            if len(node.args) > 1 or any(kw.arg in ("b", None) for kw in node.keywords):
                pencils.append(where)
        if allowed:
            assert calls, "linalg.generalized_eig no longer calls eig"
    assert outside == [] and pencils == []


def _output_uses(tree):
    """Lines that call print or touch sys.stdout / sys.stderr."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
            found.append(node.lineno)
        if isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr"):
            found.append(node.lineno)
        if isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [node.lineno for alias in node.names if alias.name in ("stdout", "stderr")]
    return found


def test_only_the_cli_prints():
    # the library reports through return values; only the CLI writes to the terminal
    printing = []
    for path in sorted(SOURCES.glob("*.py")):
        lines = _output_uses(ast.parse(path.read_text(encoding="utf-8")))
        if path.name == "harness.py":
            assert lines, "the CLI no longer prints: the guard cannot see output"
        else:
            printing += [f"{path.name}:{line}" for line in lines]
    assert printing == []
