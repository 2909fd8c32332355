"""Tests of the benchmark's own helpers, against hand-computed cases.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import os

import pytest

import stats
from layers import MAX_COLD_CALLS, PER_LAYER, until_graph
from serve import _Completions, _Request
from spans import Tracer, accumulate

HERE = os.path.dirname(os.path.abspath(__file__))


class TestPercentile:
    def test_median_of_odd_and_even_samples(self):
        assert stats.median([3, 1, 2]) == 2
        assert stats.median([4, 1, 3, 2]) == 2.5

    def test_interpolates_between_ranks(self):
        # rank (5 - 1) * 0.9 = 3.6: 40 + 0.6 * (50 - 40)
        assert stats.percentile([10, 20, 30, 40, 50], 90) == \
            pytest.approx(46.0)
        # rank 99 * 0.99 = 98.01 over 1..100: 99 + 0.01
        assert stats.percentile(list(range(1, 101)), 99) == \
            pytest.approx(99.01)

    def test_ends_and_single_value(self):
        assert stats.percentile([5, 1, 9], 0) == 1
        assert stats.percentile([5, 1, 9], 100) == 9
        assert stats.percentile([7], 99) == 7

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)
        with pytest.raises(ValueError):
            stats.percentile([1], 101)


class TestGeomean:
    def test_hand_computed(self):
        assert stats.geomean([2, 8]) == pytest.approx(4.0)
        assert stats.geomean([1, 10, 100]) == pytest.approx(10.0)
        assert stats.geomean([5]) == pytest.approx(5.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            stats.geomean([1, 0])
        with pytest.raises(ValueError):
            stats.geomean([])


class TestSelfTime:
    def test_no_children(self):
        assert stats.self_time(0, 10, []) == 10

    def test_disjoint_children(self):
        assert stats.self_time(0, 10, [(1, 3), (5, 6)]) == 7

    def test_overlapping_and_nested_children_count_once(self):
        # union of [1,4], [2,6], [3,5] is [1,6]: 10 - 5
        assert stats.self_time(0, 10, [(1, 4), (2, 6), (3, 5)]) == 5

    def test_children_clipped_to_the_span(self):
        # [-2,2] contributes [0,2]; [9,15] contributes [9,10]; [12,14] none
        assert stats.self_time(0, 10, [(-2, 2), (9, 15), (12, 14)]) == 7


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTracer:
    def test_self_time_of_nested_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        tracer.enabled = True

        def leaf():
            clock.now += 2.0

        def middle():
            clock.now += 1.0
            traced_leaf()
            clock.now += 1.0
            traced_leaf()

        traced_leaf = tracer.wrap("kernels.leaf", leaf)
        traced_middle = tracer.wrap("execute.middle", middle)
        traced_middle()
        totals = tracer.totals({"setup"})
        # middle: 1 + 2 + 1 + 2 = 6 s, of which its leaves cover 4
        assert totals[("execute.middle", None)] == [1, 6.0, 2.0, 0.0]
        assert totals[("kernels.leaf", "execute.middle")] == \
            [2, 4.0, 4.0, 0.0]

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(clock=FakeClock())
        traced = tracer.wrap("dispatch.call", lambda x: x + 1)
        assert traced(1) == 2
        assert tracer.totals({"setup", "window"}) == {}

    def test_missing_target_is_reported_absent(self):
        tracer = Tracer()
        tracer.install(extra_targets=(
            ("gone.layer", "repro.janus.api", "NoSuchClass.run"),
            ("gone.module", "repro.no_such_module", "f"),
        ))
        try:
            assert any(a.startswith("gone.layer") for a in tracer.absent)
            assert any(a.startswith("gone.module") for a in tracer.absent)
            assert "dispatch.call" in tracer.installed
        finally:
            tracer.uninstall()
        from repro.janus.api import JanusFunction
        assert not hasattr(JanusFunction.__call__, "__wrapped__")


class TestAccumulate:
    def test_rows_add_per_key(self):
        table = {}
        accumulate(table, "a", [1, 2.0, 1.5, 10])
        accumulate(table, "a", [2, 1.0, 0.5, 5])
        accumulate(table, "b", [1, 3.0, 3.0, 0])
        assert table == {"a": [3, 3.0, 2.0, 15], "b": [1, 3.0, 3.0, 0]}


class FakeFunction:
    """Stands in for a janus function that runs a graph from call
    *graph_from* on."""

    def __init__(self, graph_from):
        self.graph_from = graph_from
        self.stats = {"calls": 0, "graph_runs": 0}

    def __call__(self):
        self.stats["calls"] += 1
        if self.stats["calls"] >= self.graph_from:
            self.stats["graph_runs"] += 1
        return self.stats["calls"]


class TestUntilGraph:
    def test_stops_at_the_first_graph_run(self):
        fn = FakeFunction(graph_from=4)
        assert until_graph(fn, fn) == (4, True)

    def test_counts_from_the_runs_already_made(self):
        fn = FakeFunction(graph_from=1)
        fn()
        assert until_graph(fn, fn) == (2, True)

    def test_gives_up_after_the_cap(self):
        fn = FakeFunction(graph_from=MAX_COLD_CALLS + 1)
        assert until_graph(fn, fn) == (MAX_COLD_CALLS, False)


class TestCompletions:
    def test_requests_are_charged_in_order_by_rows(self):
        completions = _Completions()
        reqs = [_Request("classify", i, rows, due=0.0)
                for i, rows in enumerate((2, 1, 3))]
        completions.accepted += reqs
        first, second = object(), object()
        # A 3-row call serves the first two requests ...
        completions.serve(first, 3, now=5.0, started=4.0)
        assert [r.done for r in reqs] == [5.0, 5.0, None]
        assert [(r.call_arg, r.call_row) for r in reqs[:2]] == \
            [(first, 0), (first, 2)]
        # ... and the next call the third.
        completions.serve(second, 3, now=7.0)
        assert (reqs[2].done, reqs[2].call_arg, reqs[2].call_row) == \
            (7.0, second, 0)
        assert completions.served == 3


class TestBenchmarkJson:
    def test_per_layer_list_matches_the_code(self):
        with open(os.path.join(os.path.dirname(HERE),
                               "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        declared = [(m["name"], m["unit"], m["better"])
                    for m in spec["per_layer"]]
        assert declared == list(PER_LAYER)
