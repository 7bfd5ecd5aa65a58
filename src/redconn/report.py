"""Deterministic JSON report emission.

Reports go through the standard JSON encoder, which writes each float as its
shortest round-trip ``repr`` (NaN and ±Infinity as ``NaN``/``Infinity``), so
reports parse back to the same values and diff cleanly across runs; timings
live under a single key that comparison tooling is expected to strip.
"""

from __future__ import annotations

import json

SCHEMA_VERSION = 1


def dumps(report: dict) -> str:
    # numpy arrays and scalars, the only non-JSON values a report holds
    return json.dumps(report, indent=2, default=lambda value: value.tolist()) + "\n"
