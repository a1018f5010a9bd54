"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import json
from pathlib import Path

import pytest

from metrics import (Span, by_type, covered, import_buckets, layer_busy,
                     nearest_rank, parse_importtime, self_times, tail_point)


class TestTailPoint:
    def test_ten_samples_lie_beyond(self):
        samples = [float(v) for v in range(1, 101)]
        value, pct = tail_point(samples)
        assert value == 90.0
        assert sum(s > value for s in samples) == 10
        assert pct == 90.0

    def test_order_of_samples_is_irrelevant(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 4
        assert tail_point(samples) == tail_point(sorted(samples))

    def test_smallest_admissible_count(self):
        value, pct = tail_point([float(v) for v in range(11)])
        assert value == 0.0
        assert pct == pytest.approx(100.0 / 11.0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            tail_point([1.0] * 10)


class TestSelfTime:
    def test_covered_merges_overlaps_and_clips(self):
        assert covered([(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)], 0.0,
                       10.0) == 5.0
        assert covered([], 0.0, 1.0) == 0.0
        assert covered([(2.0, 3.0), (2.2, 2.8)], 0.0, 10.0) == 1.0

    def test_children_are_subtracted_once(self):
        spans = [Span(0, "cli", "main", 0.0, 10.0, None, 0),
                 Span(1, "montecarlo", "a", 1.0, 4.0, 0, 0),
                 # two worker threads overlapping inside one parent
                 Span(2, "martingales", "draw", 1.5, 3.0, 1, 0),
                 Span(3, "martingales", "draw", 2.0, 3.5, 1, 0),
                 Span(4, "bounds", "b", 6.0, 7.0, 0, 0)]
        own = self_times(spans)
        assert own[0] == 10.0 - 3.0 - 1.0
        assert own[1] == 3.0 - 2.0
        assert own[2] == 1.5 and own[3] == 1.5 and own[4] == 1.0

    def test_layer_busy_counts_outermost_spans(self):
        spans = [Span(0, "bounds", "f", 0.0, 2.0, None, 0),
                 Span(1, "bounds", "g", 0.5, 1.0, 0, 0),
                 Span(2, "gaussian", "h", 1.0, 1.5, 0, 0),
                 Span(3, "bounds", "f", 5.0, 6.0, 2, 0)]
        assert layer_busy(spans, "bounds") == 3.0
        assert layer_busy(spans, "gaussian") == 0.5


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |     martkit.errors
import time:       200 |        300 |   martkit.gaussian
import time:       400 |        400 |       scipy._lib
import time:      1000 |       1400 |     scipy.stats
import time:       500 |       1900 |   martkit.montecarlo
import time:        50 |       2250 | martkit.cli
import time:        10 |         10 | encodings
"""


class TestImportTime:
    def test_tree_follows_indentation(self):
        roots = parse_importtime(IMPORTTIME)
        assert [r.name for r in roots] == ["martkit.cli", "encodings"]
        cli = roots[0]
        assert [c.name for c in cli.children] == ["martkit.gaussian",
                                                  "martkit.montecarlo"]
        assert cli.children[1].children[0].name == "scipy.stats"
        assert cli.children[1].children[0].children[0].name == "scipy._lib"
        assert cli.cumulative_us == 2250 and cli.self_us == 50

    def test_buckets_partition_the_outermost_import(self):
        targets = ["martkit.cli", "martkit.gaussian", "martkit.montecarlo",
                   "scipy.stats", "martkit.bounds"]
        got = import_buckets(parse_importtime(IMPORTTIME), targets)
        assert got["scipy.stats"] == pytest.approx(1400e-6)
        assert got["martkit.montecarlo"] == pytest.approx(500e-6)
        assert got["martkit.gaussian"] == pytest.approx(300e-6)
        assert got["martkit.cli"] == pytest.approx(50e-6)
        assert got["martkit.bounds"] == 0.0
        assert sum(got.values()) == pytest.approx(2250e-6)

    def test_ignores_other_stderr_lines(self):
        text = "Traceback (most recent call last):\n" + IMPORTTIME
        assert len(parse_importtime(text)) == 2


class TestPerTypePercentile:
    def test_nearest_rank(self):
        samples = [float(v) for v in range(10, 0, -1)]
        assert nearest_rank(samples, 90) == 9.0
        assert nearest_rank(samples, 50) == 5.0
        assert nearest_rank(samples, 100) == 10.0
        assert nearest_rank([3.0], 90) == 3.0

    def test_no_samples(self):
        with pytest.raises(ValueError):
            nearest_rank([], 50)

    def test_each_type_counts_once(self):
        # a run cut short mid-cycle holds more of one type than another
        typed = [("a", 4, float(v)) for v in range(1, 11)] + [
            ("b", 2, 100.0)] * 3
        assert by_type(typed, 90) == {"a": (4, 9.0), "b": (2, 100.0)}


def test_benchmark_file_lists_the_traced_metrics():
    tracing = pytest.importorskip("tracing")
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == tracing.PER_LAYER
