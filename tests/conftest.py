"""Shared test fixtures."""

from __future__ import annotations

import sys

import pytest

from zetagb import zeta_core


@pytest.fixture(autouse=True)
def cold_head_memo():
    """Start every test with no Dirichlet head in memory, so that a count
    of exact passes does not depend on the tests run before it."""
    zeta_core._forget_heads()


@pytest.fixture
def record_call_stacks(monkeypatch):
    """Return ``record(names)``, which traces the named zetagb functions.

    It wraps each named function in every zetagb namespace that binds it,
    as the benchmark tracer does, and returns a list to which each call
    appends the names of its active callers and its own.
    """

    def record(names: tuple[str, ...]) -> list[tuple[str, ...]]:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "zetagb" or n.startswith("zetagb.")]
        stack: list[str] = []
        calls: list[tuple[str, ...]] = []

        def wrap(name: str, fn):
            def traced(*args, **kwargs):
                stack.append(name)
                calls.append(tuple(stack))
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()

            return traced

        for name in names:
            original = next(vars(m)[name] for m in modules if name in vars(m))
            traced = wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, traced)
        return calls

    return record
