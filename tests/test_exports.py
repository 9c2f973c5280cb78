"""Every name a module exports in ``__all__`` is defined there, so a name
left behind by a deletion fails here rather than at ``import *``; every
function the benchmark tracer wraps exists, so a rename fails here rather
than in a traced run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    "zetagb" if p.stem == "__init__" else f"zetagb.{p.stem}"
    for p in (ROOT / "src" / "zetagb").glob("*.py")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name: str) -> None:
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_every_traced_layer_resolves() -> None:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    layers = tracing.LAYERS + tracing.SETUP_LAYERS
    assert layers
    missing = [(module, attr) for module, attr, _ in layers
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
