"""Function-local imports must be used by their function: an unused
one costs an import per call and hides what the function depends on."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "documentconvert_ray"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _unused_local_imports(tree: ast.AST):
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # names read anywhere in the function, nested closures included
        used = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        stack = list(fn.body)
        while stack:  # this function's own statements, not nested defs
            node = stack.pop()
            if isinstance(node, SCOPES):
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        yield node.lineno, fn.name, name
            stack.extend(ast.iter_child_nodes(node))


def test_no_unused_function_local_imports():
    hits = [
        f"{path.relative_to(PKG.parent)}:{line} {fn}: {name}"
        for path in sorted(PKG.rglob("*.py"))
        for line, fn, name in _unused_local_imports(
            ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert hits == []
