"""Deterministic text serialization helpers.

CSV floats go through :func:`format_float` (17 significant digits) and JSON
writes Python's shortest round-trip repr; both are exact for float64, so
files regenerate byte-identically from identical inputs. numpy arrays and
scalars reach JSON through one ``default=`` hook, :func:`plain`.
"""

from __future__ import annotations

import hashlib
import json


def format_float(v: float) -> str:
    return format(float(v), ".17g")


def plain(value):
    """json ``default=`` hook: numpy arrays and scalars as plain Python."""
    return value.tolist()


def canonical_json(obj) -> str:
    """JSON with sorted keys and no whitespace; stable across runs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=plain)


def sha256_hex(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def digest_of(obj) -> str:
    return sha256_hex(canonical_json(obj))
