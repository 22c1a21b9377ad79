"""Tail percentile helper and span self-time arithmetic.

Run from the repository root: python -m pytest perfbench/tests -q"""

import math

import pytest

from perfbench.stats import MIN_BEYOND, TAIL_LADDER, tail
from perfbench.tracing import Span, Tracer, layer_table, self_times


def test_tail_reports_highest_percentile_with_ten_beyond():
    assert tail([float(i) for i in range(1000)]) == (99.0, 989.0)
    # 999 samples leave only 9 beyond p99 -> p95
    p, v = tail([float(i) for i in range(999)])
    assert p == 95.0 and v == 949.0
    assert tail([float(i) for i in range(10_000)])[0] == 99.9
    assert tail([float(i) for i in range(20)]) == (50.0, 9.0)
    # a capped rung does not move up with more samples
    assert tail([float(i) for i in range(10_000)], top=95.0) == (95.0, 9499.0)


@pytest.mark.parametrize("n", [20, 21, 99, 100, 200, 999, 1000, 1001, 5000])
def test_tail_leaves_at_least_ten_samples_beyond(n):
    vals = [float(i) for i in range(n)]
    p, v = tail(vals)
    assert sum(x > v for x in vals) >= MIN_BEYOND
    # and no higher rung of the ladder would
    for higher in (q for q in TAIL_LADDER if q > p):
        assert n - math.ceil(higher / 100 * n - 1e-9) < MIN_BEYOND


def test_tail_with_too_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    with pytest.raises(ValueError):
        tail([])


def _span(i, parent, start, end, name="s", layer="l"):
    return Span(i, parent, name, layer, start, end)


def test_self_time_of_nested_spans():
    spans = [
        _span(1, None, 0.0, 10.0, "window"),
        _span(2, 1, 1.0, 5.0),
        _span(3, 2, 2.0, 3.0),
        _span(4, 2, 2.5, 4.0),  # overlaps its sibling: covered once
        _span(5, 1, 6.0, 12.0),  # runs past its parent: clipped
    ]
    st = self_times(spans)
    assert st[3] == pytest.approx(1.0)
    assert st[4] == pytest.approx(1.5)
    assert st[2] == pytest.approx(4.0 - 2.0)
    assert st[5] == pytest.approx(6.0)
    assert st[1] == pytest.approx(10.0 - 4.0 - 4.0)


def test_layer_table_sums_to_window_with_gap_row():
    spans = [
        _span(1, None, 0.0, 10.0, "window", "perfbench"),
        _span(2, 1, 0.0, 6.0, "build_index", "pipelines.build"),
        _span(3, 2, 0.0, 4.0, "phase1", "stages.tokenize"),
        _span(4, 1, 7.0, 9.0, "build_index", "pipelines.build"),
        _span(5, None, 20.0, 30.0, "setup", "perfbench"),  # another tree
    ]
    rows, total, summed = layer_table(spans, "window")
    by = {r["name"]: r for r in rows}
    assert total == pytest.approx(10.0)
    assert summed == pytest.approx(total)
    assert by["gap"]["self_s"] == pytest.approx(2.0)
    assert by["build_index"]["calls"] == 2 and by["build_index"]["self_s"] == pytest.approx(4.0)
    assert by["phase1"]["share"] == pytest.approx(0.4)
    assert "setup" not in by


def test_tracer_nests_per_thread():
    t = Tracer()
    with t.span("window", "perfbench") as root:
        with t.span("a", "x") as a:
            with t.span("b", "y"):
                pass
    parents = {s.name: s.parent for s in t.spans}
    assert parents == {"window": None, "a": root, "b": a}
