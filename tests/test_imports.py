"""Every name a zhat module imports is referenced in that module, and
every name the package exports resolves.

Names re-exported through ``__all__`` and ``from __future__`` imports are
exempt from the first check. String annotations count as references.
"""

import ast
from pathlib import Path

import pytest

import zhat

SRC = Path(__file__).resolve().parents[1] / "src" / "zhat"


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def referenced_names(tree: ast.Module) -> set[str]:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations = [node.annotation]
        else:
            continue
        for ann in filter(None, annotations):
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    text = ast.parse(sub.value, mode="eval")
                    names |= {n.id for n in ast.walk(text) if isinstance(n, ast.Name)}
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = referenced_names(tree) | exported_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def unread_locals(fn: ast.AST) -> set[str]:
    """Names a function stores but never reads, nested scopes included;
    _-prefixed names and global or nonlocal declarations are exempt."""
    stored, read, declared = set(), set(), set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            (stored if isinstance(node.ctx, ast.Store) else read).add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    return {n for n in stored - read - declared if not n.startswith("_")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_locals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = [f"{name} in {fn.name} (line {fn.lineno})"
              for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for name in sorted(unread_locals(fn))]
    assert not unread, f"{path.name} stores names it never reads: {', '.join(unread)}"


def test_every_exported_name_resolves():
    missing = [name for name in zhat.__all__ if not hasattr(zhat, name)]
    assert not missing, f"zhat.__all__ names missing from the package: {', '.join(missing)}"
    namespace: dict = {}
    exec("from zhat import *", namespace)
    assert set(zhat.__all__) <= set(namespace)
