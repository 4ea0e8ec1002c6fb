"""Module layering: the proposer is pure geometry and never reaches a backend.

``dynav.backends.protocol`` imports ``dynav.proposer`` for ``CandidateSet``;
an import in the other direction, even one deferred into a function, would
bring the import cycle back.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dynav"


def imported_modules(path: Path):
    """(absolute module name, line, inside a function) of every import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package = ["dynav"] + list(path.relative_to(SRC).parent.parts)
    in_function = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            in_function.update(id(n) for n in ast.walk(node) if n is not node)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            # ``from . import backends`` names a submodule
            names = [module] + [f"{module}.{a.name}" for a in node.names]
        else:
            continue
        out.extend((name, node.lineno, id(node) in in_function) for name in names)
    return out


def test_resolves_relative_imports():
    # sanity check of the helper itself on the module that does import protocol
    names = {n for n, _, _ in imported_modules(SRC / "policy.py")}
    assert "dynav.backends.protocol" in names and "dynav.proposer" in names


def test_proposer_imports_nothing_from_backends():
    offending = [(n, line) for n, line, _ in imported_modules(SRC / "proposer.py")
                 if n == "dynav.backends" or n.startswith("dynav.backends.")]
    assert offending == []


@pytest.mark.parametrize("module", ["proposer.py", "episodes.py"])
def test_no_function_level_imports(module):
    assert [(n, line) for n, line, nested in imported_modules(SRC / module) if nested] == []
