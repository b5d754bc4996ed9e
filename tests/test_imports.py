"""No module-level import that nothing reads, in src/ or tests/.

There is no linter in the test environment, so this AST scan keeps unused
imports from coming back. A name counts as read when the module loads it
anywhere or lists it in __all__ (the package's re-exports).
"""

import ast
from pathlib import Path

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
