"""Self-time arithmetic of the trace harness on synthetic spans.

Run with:  python3 -m pytest -q perfbench/tests
"""
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracing import (POOL, Span, Tracer, layer_times,  # noqa: E402
                     self_pieces, union_length)


def spans_pass():
    # root [0, 10] holds a pool [1, 9]; two worker threads run overlapping
    # items [1, 5] and [2, 6] inside it, and item [1, 5] has a child [3, 4]
    return [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, POOL, 1.0, 9.0, 0, 0),
        Span(2, "item", 1.0, 5.0, 1, 0),
        Span(3, "item", 2.0, 6.0, 1, 0),
        Span(4, "leaf", 3.0, 4.0, 2, 0),
    ]


def test_self_pieces_subtract_union_of_children():
    pieces = self_pieces(spans_pass())
    assert pieces[0] == [(0.0, 1.0), (9.0, 10.0)]
    # the two overlapping items cover [1, 6] once, not 4 + 4 seconds
    assert pieces[1] == [(6.0, 9.0)]
    assert pieces[2] == [(1.0, 3.0), (4.0, 5.0)]
    assert pieces[3] == [(2.0, 6.0)]
    assert pieces[4] == [(3.0, 4.0)]


def test_layer_self_time_is_wall_time_not_thread_sum():
    times = layer_times(spans_pass())
    assert times["root"] == (1, pytest.approx(2.0))
    assert times[POOL] == (1, pytest.approx(3.0))
    # item self pieces [1,3], [4,5] and [2,6] overlap: union [1, 6]
    assert times["item"] == (2, pytest.approx(5.0))
    assert times["leaf"] == (1, pytest.approx(1.0))
    # every instant of the root interval is someone's self time
    pieces = [p for ps in self_pieces(spans_pass()).values() for p in ps]
    assert union_length(pieces) == pytest.approx(10.0)


def test_child_clipped_to_parent_interval():
    spans = [Span(0, "a", 0.0, 2.0, None, 0), Span(1, "b", 1.0, 3.0, 0, 0)]
    assert self_pieces(spans)[0] == [(0.0, 1.0)]


def test_worker_thread_spans_attach_to_open_pool():
    tracer = Tracer()
    tracer.pass_id = 7
    with tracer.span("root"):
        with tracer.span(POOL):
            done = []

            def work():
                with tracer.span("item"):
                    done.append(True)

            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive() and done
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["item"].parent == by_name[POOL].id
    assert by_name[POOL].parent == by_name["root"].id
    assert by_name["root"].parent is None
    assert {s.pass_id for s in tracer.spans} == {7}


def test_seam_wrappers_forward_arguments_unchanged(monkeypatch):
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from conebound import counting, curvature_operator
    from tracing import instrument

    seen = []

    def count_radial(problem, E, rmax=None):
        seen.append((problem, E, rmax))
        return 1, True

    def ks_spectrum(curve, n, method="fd", k=16):
        seen.append((curve, n, method, k))
        return []

    monkeypatch.setattr(counting, "count_radial", count_radial)
    monkeypatch.setattr(curvature_operator, "ks_spectrum", ks_spectrum)
    tracer = Tracer()
    with instrument(tracer):
        counting.count_radial("p", 1e-3)
        counting.count_radial("p", 1e-3, 5.0)
        counting.count_radial("p", E=1e-3, rmax=6.0)
        curvature_operator.ks_spectrum("c", 8, k=4)
        curvature_operator.ks_spectrum("c", 8, "fourier")
    assert counting.count_radial is count_radial  # restored on exit
    assert seen == [("p", 1e-3, None), ("p", 1e-3, 5.0), ("p", 1e-3, 6.0),
                    ("c", 8, "fd", 4), ("c", 8, "fourier", 16)]
    assert tracer.counters[(0, "counting.count_radial.retry_calls")] == 2
    names = [s.name for s in tracer.spans]
    assert names.count("counting.count_radial") == 3
    assert names.count("curvature_operator.ks_spectrum.fd") == 1
    assert names.count("curvature_operator.ks_spectrum.fourier") == 1
