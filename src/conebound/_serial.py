"""Deterministic serialization and small execution helpers.

Numbers are written with shortest round-trip decimal precision, so identical
inputs produce byte-identical CSV/JSON artifacts.  CSV rows are formatted and
written in fixed blocks, so a long table never holds all its cell strings at
once.  Run metadata (timings and the like) is kept out of data files by the
CLI layer.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

_CSV_BLOCK = 512  # rows formatted per write


def jsonable(obj):
    """Recursively convert numpy containers/scalars to plain Python.

    Non-finite floats become strings, since bare Infinity/NaN literals are
    not valid JSON.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if np.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj) -> str:
    """Sorted keys, fixed separators, trailing newline; floats via repr."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))


def _format_column(values) -> list:
    """Shortest round-trip decimals; integers stay integral."""
    values = np.asarray(values)
    fmt = str if np.issubdtype(values.dtype, np.integer) else repr
    return list(map(fmt, values.tolist()))


def write_csv(path, header, columns) -> None:
    """Columns of int/float values, formatted for exact round-trip.

    Rows are formatted and written _CSV_BLOCK at a time, so only one block's
    cell strings are held at once; each column's dtype, which picks its
    format, is that of the whole column.
    """
    columns = [np.asarray(c) for c in columns]
    rows = min((c.shape[0] for c in columns), default=0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, rows, _CSV_BLOCK):
            cells = [_format_column(c[lo:lo + _CSV_BLOCK]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def parallel_map(fn, items):
    """[fn(x) for x in items], in order, in the calling thread.

    Kept as a named function only because perfbench/tracing.py wraps
    `counting.parallel_map` and `threshold.parallel_map` to time sweeps.
    """
    return [fn(x) for x in items]
