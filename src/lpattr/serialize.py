"""Deterministic text serialization helpers, the one shape check of JSON headers and the one CSV table rule.

CSV floats go through :func:`format_float` (17 significant digits) and JSON
writes Python's shortest round-trip repr; both are exact for float64, so
files regenerate byte-identically from identical inputs. JSON holds a number
as text in one place only: the dataset sidecar's format_float strings. numpy
arrays and scalars reach JSON through one ``default=`` hook, :func:`plain`.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import chain, takewhile

import numpy as np


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


def checked(value, shape, field: str = ""):
    """``value`` once it has ``shape``, else a TypeError naming the field (a KeyError for a missing one).
    A shape is a type, ``[shape]`` for a list, ``{field: shape}`` for an object whose other fields are
    ignored, ``{str: shape}`` for one of any keys, or a tuple of alternatives of different kinds.
    ``float`` also takes an int; a bool is neither."""
    alternatives = shape if isinstance(shape, tuple) else (shape,)
    shape = next((s for s in alternatives if type(value) in (s, type(s)) or (s, type(value)) == (float, int)), None)
    if shape is None:
        raise TypeError(f"{field or 'the document'} may not be {type(value).__name__}")
    if isinstance(shape, list):
        for i, item in enumerate(value):
            checked(item, shape[0], f"{field}[{i}]")
    elif isinstance(shape, dict):
        for name, sub in (dict.fromkeys(value, shape[str]) if str in shape else shape).items():
            checked(value[name], sub, f"{field}.{name}" if field else name)
    return value


def read_table(fh, record) -> np.ndarray:
    """The rows of an open CSV file as np.loadtxt parses them into ``record(columns)``, a structured dtype whose
    comma-joined field names are the header the writer writes: the first line that is not blank. The rows follow
    it as one block, and the file holds no \\x1c-\\x1f, which np.loadtxt strips as whitespace. Else ValueError."""
    if any(map(re.compile("[\x1c-\x1f]").search, iter(lambda: fh.read(1 << 16), ""))):
        raise ValueError("the file holds a \\x1c-\\x1f separator character")
    fh.seek(0)
    line = next(filter(str.strip, fh), "").rstrip("\n")
    dtype = record(line.count(",") + 1)
    if line != ",".join(dtype.names):
        raise ValueError(f"the header {line!r} is not {','.join(dtype.names)!r}")
    rows = takewhile(str.strip, fh)  # the table ends at its first blank line; only blank lines may follow
    first = next(rows, None)  # loadtxt warns on a table with no rows
    table = np.empty(0, dtype) if first is None else np.loadtxt(chain([first], rows), dtype, delimiter=",",
                                                                comments=None, ndmin=1)
    if any(map(str.strip, fh)):
        raise ValueError("the table is not one block of rows")
    return table
