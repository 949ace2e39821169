"""Tests of the benchmark's own arithmetic.  Run with: python3 -m pytest bench"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from measure import MIN_ITEMS, REFERENCE_S, digest, failed_frac, percentile, reference_seconds
from run import (StepRecord, check_records, item_latencies_ms, items_per_s,
                 reference_ms)
from tracing import Tracer, covered, self_times


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))   # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([7.0], 90) == 7.0


@pytest.mark.parametrize("n", range(MIN_ITEMS, MIN_ITEMS + 25))
def test_ten_samples_lie_beyond_p90_from_min_items(n):
    values = [float(i) for i in range(n)]
    p90 = percentile(values, 90)
    assert sum(v > p90 for v in values) >= 10


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 4), (3, 6)]) == 5
    assert covered(0, 10, [(1, 2), (2, 3), (5, 6)]) == 3
    assert covered(0, 10, [(-5, 2), (9, 20)]) == 3
    assert covered(0, 10, [(2, 8), (3, 4)]) == 6


def test_self_time_subtracts_child_coverage_only():
    # root [0, 10] with children A [1, 4] and B [3, 6]; A has child [2, 3]
    spans = [["root", 0.0, 10.0, -1, "0.0"],
             ["A", 1.0, 4.0, 0, "0.0"],
             ["B", 3.0, 6.0, 0, "0.0"],
             ["a", 2.0, 3.0, 1, "0.0"]]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_tracer_records_nesting():
    tracer = Tracer()
    inner = tracer._wrap("inner", lambda x: x + 1)
    outer = tracer._wrap("outer", lambda x: inner(x) * 2)
    tracer.item = "3.1"
    assert outer(1) == 4
    (name0, s0, e0, p0, i0), (name1, s1, e1, p1, i1) = tracer.spans
    assert (name0, p0, name1, p1) == ("outer", -1, "inner", 0)
    assert i0 == i1 == "3.1"
    assert s0 <= s1 <= e1 <= e0
    assert tracer.coverage([(s0, e0, "3.1")]) == pytest.approx(1.0)
    # a window of another item is not covered by this item's spans
    assert tracer.coverage([(s0, e0, "3.1"), (e0, 2 * e0 - s0, "4.0")]) == pytest.approx(0.5)


def test_tracer_records_a_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer._wrap("boom", boom)()
    assert tracer.spans[0][0] == "boom" and tracer.spans[0][2] is not None
    assert tracer._stack == []


def test_failed_frac():
    assert failed_frac(0, 10) == 0.0
    assert failed_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(5, 4)


def _step(n_items, verdicts):
    return SimpleNamespace(kind="fake", n_items=n_items, check=lambda outputs: verdicts)


def _record(n_items, verdicts, runs, refs=None):
    """A step record whose reference kernel ran at REFERENCE_S unless `refs` says."""
    return StepRecord(0, 0, _step(n_items, verdicts), runs,
                      refs if refs is not None else [REFERENCE_S] * len(runs))


def test_failures_count_per_item():
    records = [
        _record(1, [None], [(0.1, [1.0], None)]),
        _record(3, [], [(0.3, None, "ValueError: boom")]),
        _record(2, [None, "bound fails"], [(0.2, [1.0, 2.0], None)]),
    ]
    failures = check_records(records)
    assert len(failures) == 6
    failed = sum(msg is not None for msg in failures)
    assert failed_frac(failed, len(failures)) == pytest.approx(4 / 6)
    # a step yielding several items charges each an equal share
    assert item_latencies_ms(records) == pytest.approx(
        [100.0, 100.0, 100.0, 100.0, 100.0, 100.0])


def test_step_time_is_scaled_to_the_reference_speed():
    # a pass on a host running at half speed takes twice as long, and so
    # does the reference kernel around it
    rec = _record(1, [None], [(0.1, [1.0], None), (0.2, [1.0], None)],
                  refs=[REFERENCE_S, 2 * REFERENCE_S])
    assert rec.seconds == pytest.approx(0.1)
    assert rec.wall_seconds == pytest.approx(0.15)
    assert reference_ms([rec]) == pytest.approx(1.5e3 * REFERENCE_S)


def test_step_time_is_the_median_over_passes():
    rec = _record(2, [None, None], [(0.5, [1.0, 2.0], None), (0.2, [1.0, 2.0], None),
                                    (0.3, [1.0, 2.0], None)])
    assert rec.seconds == pytest.approx(0.3)
    assert item_latencies_ms([rec]) == pytest.approx([150.0, 150.0])
    assert items_per_s([rec]) == pytest.approx(2 / 0.3)


def test_items_per_s_is_batch_items_over_step_times():
    records = [_record(1, [None], [(0.1, [1.0], None)]),
               _record(3, [None] * 3, [(0.3, [1.0] * 3, None)])]
    assert items_per_s(records) == pytest.approx(4 / 0.4)
    assert items_per_s(records, wall=True) == pytest.approx(4 / 0.4)


def test_a_pass_that_fails_fails_the_step():
    rec = _record(1, [None], [(0.1, [1.0], None), (0.1, None, "KeyError: 'x'")])
    assert check_records([rec]) == ["KeyError: 'x'"]


def test_output_that_changes_on_repeat_fails():
    same = _record(1, [None], [(0.1, [0.1 + 0.2], None), (0.1, [0.30000000000000004], None)])
    other = _record(1, [None], [(0.1, [0.1 + 0.2], None), (0.1, [0.3], None)])
    assert check_records([same]) == [None]
    assert check_records([other])[0].endswith("differs on repeat")


def test_reference_kernel_takes_about_a_millisecond():
    assert 1e-5 < reference_seconds() < 0.1


def test_digest_keeps_seventeen_digits():
    assert digest((1.0, "a")) == digest((1.0, "a"))
    assert digest(0.1 + 0.2) != digest(0.3)


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, (_, unit) in Tracer().layer_metrics().items():
        assert listed.get(name) == unit, name
