"""Every name a module exports in ``__all__`` is defined there, so a name
left behind by a deletion fails here rather than at ``import *``."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

MODULES = sorted(
    "zetagb" if p.stem == "__init__" else f"zetagb.{p.stem}"
    for p in (Path(__file__).resolve().parents[1] / "src" / "zetagb").glob("*.py")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name: str) -> None:
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
