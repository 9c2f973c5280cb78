"""Serialization round-trip and layout tests."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetagb.serialize import dumps, fmt_float


def test_fmt_float_examples() -> None:
    assert fmt_float(1.0) == "1"
    assert fmt_float(-0.5) == "-0.5"
    assert fmt_float(0.1) == "0.10000000000000001"
    assert fmt_float(math.pi) == "3.1415926535897931"
    assert fmt_float(-0.0) == "0"


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_float_round_trips_binary64(x: float) -> None:
    assert float(fmt_float(x)) == x


def test_fmt_float_rejects_non_finite() -> None:
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            fmt_float(bad)


def test_dumps_matches_stdlib_layout_without_floats() -> None:
    payload = {"a": [1, 2, {"b": None, "c": True}], "d": "text", "e": {}}
    assert dumps(payload, indent=2) == json.dumps(payload, indent=2)
    assert dumps(payload) == json.dumps(payload)
    assert dumps([]) == "[]"


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF)))
def test_strings_and_keys_encode_as_the_stdlib_does(text: str) -> None:
    # non-ASCII, control characters and lone surrogates included
    assert dumps(text) == json.dumps(text)
    assert dumps({text: [text]}, indent=2) == json.dumps({text: [text]}, indent=2)


def test_dumps_parse_rewrite_is_byte_identical() -> None:
    payload = {
        "value": 1.6449340668482264,
        "grid": [0.1, 0.25, 1e-300, -0.0],
        "nested": {"bound": 8.87e-11, "n": 16, "ok": True},
    }
    text = dumps(payload, indent=2)
    assert dumps(json.loads(text), indent=2) == text


def test_dumps_rejects_unserializable() -> None:
    with pytest.raises(TypeError):
        dumps({1: "non-string key"})
    with pytest.raises(TypeError):
        dumps({"x": {2, 3}})
