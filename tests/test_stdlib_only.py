"""The package imports nothing outside the standard library at runtime."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "zetagb").glob("*.py"))


def _absolute_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path: Path) -> None:
    assert _absolute_imports(path) - sys.stdlib_module_names == set()


def test_every_module_is_checked() -> None:
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "zeta_core.py"}
