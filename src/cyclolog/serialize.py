"""Canonical JSON: compact separators, insertion field order, no floats.

Every numeric value crossing the package boundary is a decimal string (or
an exact int), never a binary float, so parsing and re-serializing a
payload is byte-identical.
"""

from __future__ import annotations

import json


def canonical_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)
