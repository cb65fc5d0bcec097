"""Chrome-trace export."""

import json

from repro.ompss.tracing import (
    TraceInterval,
    concurrency_profile,
    to_chrome_trace,
)


def make(start, end, i=0, name="t"):
    return TraceInterval(i, name, start, end)


def test_events_are_json_serialisable():
    events = to_chrome_trace([make(0.0, 1.0, 1, "a"), make(1.0, 2.0, 2, "b")])
    text = json.dumps({"traceEvents": events})
    assert "traceEvents" in text


def test_event_fields():
    (ev,) = to_chrome_trace([make(0.5, 1.5, 7, "gemm")])
    assert ev["name"] == "gemm"
    assert ev["ph"] == "X"
    assert ev["ts"] == 0.5e6
    assert ev["dur"] == 1.0e6
    assert ev["args"]["task_id"] == 7


def test_overlapping_tasks_get_distinct_lanes():
    events = to_chrome_trace(
        [make(0.0, 2.0, 1), make(1.0, 3.0, 2), make(2.5, 4.0, 3)]
    )
    lanes = {e["args"]["task_id"]: e["tid"] for e in events}
    assert lanes[1] != lanes[2]  # overlap -> split lanes
    assert lanes[3] == lanes[1]  # task 3 reuses the freed lane


def test_serial_tasks_share_a_lane():
    events = to_chrome_trace([make(0, 1, 1), make(1, 2, 2), make(2, 3, 3)])
    assert len({e["tid"] for e in events}) == 1


def test_empty_trace():
    assert to_chrome_trace([]) == []


def test_identical_start_tasks_get_distinct_lanes():
    events = to_chrome_trace([make(0.0, 1.0, 1), make(0.0, 1.0, 2)])
    assert len({e["tid"] for e in events}) == 2


def test_zero_duration_task_renders():
    (ev,) = to_chrome_trace([make(1.0, 1.0, 1)])
    assert ev["dur"] == 0.0
    assert ev["ts"] == 1.0e6


# -- concurrency_profile: exact breakpoint sweep -------------------------


def test_profile_counts_overlap_exactly():
    profile = dict(concurrency_profile([make(0, 2, 1), make(1, 3, 2)]))
    assert profile[0] == 1
    assert profile[1] == 2
    assert profile[2] == 1
    assert profile[3] == 0


def test_profile_catches_short_tasks_between_samples():
    # A 1e-6-long task inside a 100 s window: uniform sampling at the
    # old default (50 samples) would never see it.
    short = make(50.0, 50.000001, 2)
    profile = dict(concurrency_profile([make(0.0, 100.0, 1), short]))
    assert profile[50.0] == 2
    assert profile[50.000001] == 1


def test_profile_ends_at_zero():
    profile = concurrency_profile([make(0, 1, 1), make(0.5, 2, 2)])
    assert profile[-1] == (2, 0)


def test_profile_empty():
    assert concurrency_profile([]) == []
