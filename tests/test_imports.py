"""No module-level import that nothing reads, in src/ or tests/.

There is no linter in the test environment, so this AST scan keeps unused
imports from coming back. A name counts as read when the module loads it
anywhere or lists it in __all__ (the package's re-exports). The last test
checks that the runtime path needs no test-only dependency (mpmath,
scipy).
"""

import ast
from pathlib import Path

from pinned_blas import run_pinned

ROOT = Path(__file__).resolve().parent.parent


def _module_imports(tree):
    """(name, line) of every import at module level, under a top-level if or
    try included."""
    out, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
        elif isinstance(node, (ast.If, ast.Try)):
            todo += node.body + node.orelse
            todo += getattr(node, "finalbody", [])
            for handler in getattr(node, "handlers", []):
                todo += handler.body
    return out


def _names_read(tree):
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts}
    return read


def test_no_unused_module_level_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 20
    unused = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _names_read(tree)
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in _module_imports(tree) if name not in read]
    assert not unused, unused


def _private_definitions(tree):
    """(name, statement) of every module-level _name a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_no_unread_private_module_names():
    # a module-level _name must be read in its own module outside its own
    # definition, or be imported (or read as an attribute) by another module
    # of the package; otherwise nothing in the program can reach it
    files = sorted((ROOT / "src" / "maassdensity").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    used_by = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            for name in names:
                used_by.setdefault(name, set()).add(path)
    unread = []
    for path, tree in trees.items():
        for name, stmt in _private_definitions(tree):
            if used_by.get(name, set()) - {path}:
                continue
            if any(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
                   for other in tree.body if other is not stmt for n in ast.walk(other)):
                continue
            unread.append(f"{path.relative_to(ROOT)}:{stmt.lineno} {name}")
    assert not unread, unread


def test_runtime_path_runs_without_test_extras():
    # mpmath and scipy are test oracles only: the transition-band Bessel
    # nodes of the (5, 7) Gaussian grid, its geometric side and a T = 11
    # density report run with both blocked
    script = ROOT / "tests" / "runtime_without_test_extras.py"
    assert "without mpmath or scipy" in run_pinned(script.read_text(encoding="utf-8"))
