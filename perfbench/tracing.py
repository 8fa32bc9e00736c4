"""Spans and counters recorded at conebound's module-attribute seams.

`instrument(tracer)` replaces the functions the package looks up at call
time (for example `counting.count_radial` and `spectral1d.oscillation_count`)
with wrappers that open a span around each call, and the scipy entry points
bound in `spectral1d` and `curvature_operator` with wrappers that only count
work.  No package file changes; the originals are restored on exit.

A span records its name, start, end, parent span and pass id.  The parent is
the innermost span open in the same thread; a span opened in a pool worker
thread, whose own stack is empty, attaches to the open `parallel_map` span.
Spans stay in memory until `dump` writes them out.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Optional

# conebound._serial.parallel_map; metric names may not start with "_"
POOL = "serial.parallel_map"

# every span name instrument() records, in report order
LAYERS = (
    "cli.main",
    "counting.assemble_model",
    "counting.counting_curve",
    "counting.count_radial",
    "spectral1d.oscillation_count",
    POOL,
    "spectral1d.lowest_eigenvalues",
    "threshold.compute_threshold",
    "threshold.truncation_sweep",
    "threshold.agmon_norms",
    "curvature_operator.ks_constant",
    "curvature_operator.ks_spectrum.fd",
    "curvature_operator.ks_spectrum.fourier",
    "geometry.build_curve",
)

# every counter instrument() records
COUNTERS = (
    "counting.count_radial.retry_calls",
    "spectral1d.oscillation_count.rhs_evals",
    "spectral1d.eigsolve.calls",
    "spectral1d.eigsolve.rows",
    "curvature_operator.eigsolve.calls",
    "curvature_operator.eigsolve.rows",
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    pass_id: int


class Tracer:
    """In-memory span and counter store, safe to use from pool threads."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)  # (pass_id, name) -> total
        self.pass_id = 0
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pools = []  # ids of the parallel_map spans now open

    @contextlib.contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else (self._pools[-1] if self._pools
                                          else None)
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        if name == POOL:
            self._pools.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if name == POOL:
                self._pools.remove(sid)
            with self._lock:
                self.spans.append(
                    Span(sid, name, start, end, parent, self.pass_id))

    def count(self, name: str, value=1) -> None:
        with self._lock:
            self.counters[(self.pass_id, name)] += value

    def dump(self, path, header: dict) -> None:
        doc = {"header": header,
               "spans": [asdict(s) for s in self.spans],
               "counters": [{"pass_id": p, "name": n, "value": v}
                            for (p, n), v in sorted(self.counters.items())]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_pieces(spans) -> dict:
    """Span id -> the parts of its interval that no child span covers."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        pieces, cur = [], s.start
        for a, b in sorted(children[s.id]):
            a, b = max(a, s.start), min(b, s.end)
            if a > cur:
                pieces.append((cur, a))
            cur = max(cur, b)
        if cur < s.end:
            pieces.append((cur, s.end))
        out[s.id] = pieces
    return out


def union_length(intervals) -> float:
    total, lo, hi = 0.0, None, None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    return total if hi is None else total + hi - lo


def layer_times(spans) -> dict:
    """Per span name: (calls, self time).

    A layer's self time is the wall time during which at least one of its
    spans ran outside every child span, so concurrent spans in pool threads
    are not counted twice.
    """
    pieces = self_pieces(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s.id)
    return {name: (len(ids), union_length(p for i in ids for p in pieces[i]))
            for name, ids in by_name.items()}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the package's layer seams through `tracer` until exit."""
    from conebound import (counting, curvature_operator, geometry, spectral1d,
                           threshold)

    saved = []

    def patch(module, attr, make):
        fn = getattr(module, attr)
        saved.append((module, attr, fn))
        setattr(module, attr, functools.wraps(fn)(make(fn)))

    def spanned(name):
        def make(fn):
            def traced(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)
            return traced
        return make

    def bound_args(fn):
        """Arguments a call binds, defaults included; the call is unchanged."""
        sig = inspect.signature(fn)

        def bind(*args, **kwargs):
            ba = sig.bind(*args, **kwargs)
            ba.apply_defaults()
            return ba.arguments
        return bind

    def count_radial(fn):
        bind = bound_args(fn)

        def traced(*args, **kwargs):
            if bind(*args, **kwargs)["rmax"] is not None:
                tracer.count("counting.count_radial.retry_calls")
            with tracer.span("counting.count_radial"):
                return fn(*args, **kwargs)
        return traced

    def ks_spectrum(fn):
        bind = bound_args(fn)

        def traced(*args, **kwargs):
            method = bind(*args, **kwargs)["method"]
            with tracer.span(f"curvature_operator.ks_spectrum.{method}"):
                return fn(*args, **kwargs)
        return traced

    def solve_ivp(fn):
        def counted(*args, **kwargs):
            sol = fn(*args, **kwargs)
            tracer.count("spectral1d.oscillation_count.rhs_evals", sol.nfev)
            return sol
        return counted

    def eigsolve(prefix):
        def make(fn):
            def counted(a, *args, **kwargs):
                tracer.count(prefix + ".calls")
                tracer.count(prefix + ".rows", len(a))
                return fn(a, *args, **kwargs)
            return counted
        return make

    try:
        patch(counting, "assemble_model", spanned("counting.assemble_model"))
        patch(counting, "counting_curve", spanned("counting.counting_curve"))
        patch(counting, "count_radial", count_radial)
        patch(counting, "parallel_map", spanned(POOL))
        patch(threshold, "parallel_map", spanned(POOL))
        patch(spectral1d, "oscillation_count",
              spanned("spectral1d.oscillation_count"))
        patch(spectral1d, "lowest_eigenvalues",
              spanned("spectral1d.lowest_eigenvalues"))
        patch(spectral1d, "solve_ivp", solve_ivp)
        patch(spectral1d, "eigh_tridiagonal", eigsolve("spectral1d.eigsolve"))
        patch(spectral1d, "eigh", eigsolve("spectral1d.eigsolve"))
        patch(curvature_operator, "eigh",
              eigsolve("curvature_operator.eigsolve"))
        for attr in ("compute_threshold", "truncation_sweep", "agmon_norms"):
            patch(threshold, attr, spanned(f"threshold.{attr}"))
        patch(curvature_operator, "ks_constant",
              spanned("curvature_operator.ks_constant"))
        patch(curvature_operator, "ks_spectrum", ks_spectrum)
        patch(geometry, "build_curve", spanned("geometry.build_curve"))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
