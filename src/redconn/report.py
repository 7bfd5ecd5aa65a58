"""Deterministic JSON report emission.

A report is written exactly as ``json.dumps(report, indent=2)`` writes it:
each float as its shortest round-trip ``repr`` (NaN and ±Infinity as
``NaN``/``Infinity``), numpy arrays and scalars as their ``tolist()``, so
reports parse back to the same values and diff cleanly across runs; timings
live under a single key that comparison tooling is expected to strip.  With an
indent, json encodes in pure Python, value by value; ``_write`` writes each
list of plain numbers with one join instead.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote

SCHEMA_VERSION = 1
_NUMBERS = {float, int}
_INFINITIES = {math.inf: "Infinity", -math.inf: "-Infinity"}


def dumps(report: dict) -> str:
    return _write(report, "\n") + "\n"


def _write(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, nested where
    ``newline`` (a line break and the enclosing indent) starts its lines."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return "NaN" if value != value else _INFINITIES.get(value) or float.__repr__(value)
    if not isinstance(value, (dict, list, tuple)):
        return _write(value.tolist(), newline)  # numpy arrays and scalars
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = newline + "  "
    sep = "," + inner
    if isinstance(value, dict):
        text = sep.join(f"{_quote(key)}: {_write(item, inner)}" for key, item in value.items())
        return f"{{{inner}{text}{newline}}}"
    text = sep.join(map(repr, value)) if set(map(type, value)) <= _NUMBERS else None
    if text is None or "n" in text:  # of float and int reprs, only nan, inf and -inf have an n
        text = sep.join(_write(item, inner) for item in value)
    return f"[{inner}{text}{newline}]"
