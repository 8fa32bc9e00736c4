"""Deterministic serialization and small execution helpers.

Numbers are written with shortest round-trip decimal precision, so identical
inputs produce byte-identical CSV/JSON artifacts.  Run metadata (timings and
the like) is kept out of data files by the CLI layer.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np


def fmt_number(x) -> str:
    """Shortest decimal that round-trips; integers stay integral."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


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


def write_csv(path, header, rows) -> None:
    """Rows of mixed int/float values, formatted for exact round-trip."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_number(v) for v in row) + "\n")


def parallel_map(fn, items):
    """[fn(x) for x in items], in order, in the calling thread.

    Kept as a named function only because perfbench/tracing.py wraps
    `counting.parallel_map` and `threshold.parallel_map` to time sweeps.
    """
    return [fn(x) for x in items]
