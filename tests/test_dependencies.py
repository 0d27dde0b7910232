"""The runtime dependency is numpy only: every module of the package
imports the standard library, numpy, or the package itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "bnfit").glob("*.py"))


def imported_modules(tree: ast.Module) -> set[str]:
    """The top-level names of every absolute import in `tree`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_stdlib_or_numpy_only(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = imported_modules(tree) - sys.stdlib_module_names - {"numpy"}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_sources_found():
    assert len(SOURCES) > 5
