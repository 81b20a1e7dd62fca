"""``src/repro`` never imports the test tree.

The paper's alternative forms of partition selection live in
``tests/oracles/`` as test oracles; this guard keeps them from becoming an
engine path again.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or ""


def test_no_engine_module_imports_tests():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in modules
        for name in _imported_modules(ast.parse(path.read_text(), str(path)))
        if name == "tests" or name.startswith("tests.")
    ]
    assert offenders == []
