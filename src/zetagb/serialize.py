"""Deterministic text serialization.

Floats are written with 17 significant digits, which round-trips every
finite binary64 value exactly. The JSON writer mirrors the layout of
``json.dumps(..., indent=n)`` but routes floats through the same
formatter, so parse -> rewrite is byte-identical. Strings and keys go
through the encoder ``json.dumps`` uses for a str, with the same output.
CSV cells use the same formatter.
"""

from __future__ import annotations

import csv
import io
import math
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable

__all__ = ["fmt_float", "dumps", "csv_text"]


def fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    if x == 0.0:
        return "0"  # fold signed zero; JSON reparses -0 as the integer 0
    return format(float(x), ".17g")


def _emit(obj: Any, indent: int | None, level: int, out: list[str]) -> None:
    # floats, most of a payload, first; bools are ints, not floats
    if isinstance(obj, float):
        out.append(fmt_float(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        pad, sep, end = _layout(indent, level)
        out.append("{" + pad)
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                out.append(sep)
            out.append(encode_basestring_ascii(key) + ": ")
            _emit(value, indent, level + 1, out)
        out.append(end + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        pad, sep, end = _layout(indent, level)
        out.append("[" + pad)
        for i, value in enumerate(obj):
            if i:
                out.append(sep)
            _emit(value, indent, level + 1, out)
        out.append(end + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _layout(indent: int | None, level: int) -> tuple[str, str, str]:
    if indent is None:
        return "", ", ", ""
    inner = "\n" + " " * (indent * (level + 1))
    outer = "\n" + " " * (indent * level)
    return inner, "," + inner, outer


def dumps(obj: Any, indent: int | None = None) -> str:
    out: list[str] = []
    _emit(obj, indent, 0, out)
    return "".join(out)


def csv_text(header: Iterable[str], rows: Iterable[Iterable[Any]]) -> str:
    """Header line plus one line per row; floats through ``fmt_float``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt_float(v) if isinstance(v, float) else str(v) for v in row])
    return out.getvalue()
