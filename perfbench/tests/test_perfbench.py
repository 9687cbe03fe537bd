"""Tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import os
import time

import numpy as np

import inputs
import procstat
from spans import Tracer, self_times, summarize
from workloads import ShardedRefresh


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def _plan_bytes(plan):
    return {name: array.tobytes() for name, array in plan.items()}


def test_same_seed_gives_bit_identical_schedule():
    first = inputs.open_loop_plan(7, 1500.0, 2.0, 4, 512)
    again = inputs.open_loop_plan(7, 1500.0, 2.0, 4, 512)
    other = inputs.open_loop_plan(8, 1500.0, 2.0, 4, 512)
    assert _plan_bytes(first) == _plan_bytes(again)
    assert first["offsets"].tobytes() != other["offsets"].tobytes()
    assert np.all(np.diff(first["offsets"]) > 0)
    assert first["offsets"][-1] < 2.0
    assert ShardedRefresh.schedule(3.0) == ShardedRefresh.schedule(3.0)


def test_same_seed_gives_bit_identical_inputs():
    first = inputs.frame_pool(7, "paper", 5.0, 16)
    again = inputs.frame_pool(7, "paper", 5.0, 16)
    other = inputs.frame_pool(8, "paper", 5.0, 16)
    assert first.rss.tobytes() == again.rss.tobytes()
    assert first.true_positions.tobytes() == again.true_positions.tobytes()
    assert first.rss.tobytes() != other.rss.tobytes()
    traces = inputs.trace_pool(7, ("square-6m", "paper"), 2, 30.0)
    retraced = inputs.trace_pool(7, ("square-6m", "paper"), 2, 30.0)
    assert [(t.site, t.rss.tobytes()) for t in traces] == [
        (t.site, t.rss.tobytes()) for t in retraced
    ]
    lengths = inputs.trace_lengths(7, 256)
    assert lengths.min() >= 16 and lengths.max() <= 1024


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _span(name, span_id, parent, start, end):
    root = 1
    return (name, span_id, parent, root, start, end, 0, False, None)


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span("root", 1, 0, 0, 100),
        _span("left", 2, 1, 10, 40),
        _span("right", 3, 1, 30, 60),  # overlaps left: union counts once
        _span("leaf", 4, 2, 15, 20),
        _span("spill", 5, 3, 55, 120),  # runs past its parent: clipped
    ]
    assert self_times(spans) == {1: 50, 2: 25, 3: 25, 4: 5, 5: 65}
    summary = summarize(spans)
    assert summary["root"]["self_ns"] == 50
    assert summary["root"]["wall_ns"] == 100
    assert summary["left"]["calls"] == 1


def test_tracer_nests_spans_per_thread():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner", lambda args, kwargs, result: (3, {"n": 2}))
    try:
        assert Layer().outer() == 2
        assert Layer().outer() == 2
    finally:
        tracer.uninstall()
    assert Layer.outer.__name__ == "outer" and not tracer._patches
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[0], []).append(span)
    first_outer, first_inner = by_name["outer"][0], by_name["inner"][0]
    assert first_outer[2] == 0 and first_outer[3] == first_outer[1]
    assert first_inner[2] == first_outer[1] and first_inner[3] == first_outer[1]
    summary = summarize(tracer.spans)
    assert summary["inner"]["frames"] == 6 and summary["inner"]["n"] == 4
    assert summary["outer"]["self_ns"] <= summary["outer"]["wall_ns"]


def test_tracer_records_coroutines_as_root_spans():
    import asyncio

    class Client:
        async def call(self, frames):
            await asyncio.sleep(0)
            return frames

    tracer = Tracer()
    tracer.wrap(Client, "call", "call", lambda args, kwargs, result: (result, None))
    try:
        assert asyncio.run(Client().call(5)) == 5
    finally:
        tracer.uninstall()
    ((name, span_id, parent, root, start, end, frames, error, _),) = tracer.spans
    assert (name, parent, root, frames, error) == ("call", 0, span_id, 5, False)
    assert end >= start


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
def test_proc_stat_cpu_matches_os_times():
    deadline = time.process_time() + 0.3
    while time.process_time() < deadline:
        sum(range(1000))
    times = os.times()
    measured = procstat.cpu_seconds(os.getpid())
    # Both count clock ticks of the same kernel accounting; allow a few
    # ticks for the time between the two reads.
    assert abs(measured - (times.user + times.system)) <= 0.05
    assert procstat.peak_rss_mb(os.getpid()) > 1.0


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_reported_metrics():
    import json

    import layers
    import workloads

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        workloads.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_schedule_parts_continue_the_rotation():
    whole = ShardedRefresh.schedule(6.0)
    parts = ShardedRefresh.schedule(3.0, 0) + ShardedRefresh.schedule(3.0, 1)
    assert [(site, day) for _, site, day in parts] == [
        (site, day) for _, site, day in whole
    ]
    assert ShardedRefresh.schedule(3.0, 1)[0][0] == ShardedRefresh.schedule(3.0)[0][0]
