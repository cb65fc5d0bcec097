"""OmpSs extensions: CONCURRENT, taskwait, priorities, tracing."""

import pytest

from repro.hardware import CoreSpec, MemorySpec, Processor, ProcessorSpec
from repro.ompss import (
    AccessMode,
    DataflowScheduler,
    OmpSsRuntime,
    Region,
    RegionAccess,
    Task,
    TaskGraph,
    ascii_gantt,
    concurrency_profile,
    schedule_trace,
)
from repro.simkernel import Simulator
from repro.units import gbyte_per_s, gib

from tests.conftest import run_to_end


def make_proc(sim, n_cores=4):
    spec = ProcessorSpec(
        "p",
        CoreSpec(1e9, 1.0, sustained_efficiency=1.0),
        n_cores,
        MemorySpec(gib(1), gbyte_per_s(1000)),
        50,
        10,
    )
    return Processor(sim, spec)


# ---------------------------------------------------------------------------
# CONCURRENT access mode
# ---------------------------------------------------------------------------


def test_concurrent_updates_do_not_order_each_other():
    g = TaskGraph()
    r = Region("acc", 0, 64)
    a = Task("a").updates_concurrently(r)
    b = Task("b").updates_concurrently(r)
    g.submit(a)
    g.submit(b)
    assert g.deps[b.task_id] == set()


def test_concurrent_orders_against_writer_and_reader():
    g = TaskGraph()
    r = Region("acc", 0, 64)
    init = g.submit(Task("init").writes(r))
    c1 = g.submit(Task("c1").updates_concurrently(r))
    c2 = g.submit(Task("c2").updates_concurrently(r))
    reader = g.submit(Task("read").reads(r))
    # Both concurrents wait for the init write; the reader waits for
    # BOTH concurrents; c1/c2 unordered between themselves.
    assert g.deps[c1.task_id] == {init.task_id}
    assert g.deps[c2.task_id] == {init.task_id}
    assert g.deps[reader.task_id] == {c1.task_id, c2.task_id}


def test_writer_after_concurrent_waits_for_all():
    g = TaskGraph()
    r = Region("acc", 0, 64)
    c1 = g.submit(Task("c1").updates_concurrently(r))
    c2 = g.submit(Task("c2").updates_concurrently(r))
    w = g.submit(Task("w").writes(r))
    assert g.deps[w.task_id] == {c1.task_id, c2.task_id}


def test_concurrent_conflict_rule():
    r = Region("x", 0, 8)
    a = RegionAccess(r, AccessMode.CONCURRENT)
    b = RegionAccess(r, AccessMode.CONCURRENT)
    c = RegionAccess(r, AccessMode.IN)
    assert not a.conflicts_with(b)
    assert a.conflicts_with(c)


def test_concurrent_tasks_run_in_parallel(sim):
    proc = make_proc(sim, n_cores=4)
    g = TaskGraph()
    r = Region("acc", 0, 64)
    for i in range(4):
        g.submit(Task(f"c{i}", flops=2e9).updates_concurrently(r))

    def p(sim):
        result = yield from DataflowScheduler("fifo").run(sim, g, proc)
        return result

    result = run_to_end(sim, p(sim))
    assert result.makespan_s == pytest.approx(2.0)  # all 4 in parallel


# ---------------------------------------------------------------------------
# taskwait
# ---------------------------------------------------------------------------


def test_taskwait_orders_unrelated_tasks():
    rt = OmpSsRuntime()
    A = rt.space("A")
    B = rt.space("B")
    t1 = rt.task("before", flops=1.0).writes(A.tile(0)).submit()
    rt.taskwait()
    t2 = rt.task("after", flops=1.0).writes(B.tile(0)).submit()
    # t2 touches a different space, yet must order after the barrier.
    deps = rt.graph.deps[t2.task_id]
    barrier_id = rt.graph._barrier_id
    assert barrier_id in deps
    assert rt.graph.deps[barrier_id] == {t1.task_id}


def test_taskwait_execution_serialises(sim):
    proc = make_proc(sim, n_cores=4)
    rt = OmpSsRuntime()
    A = rt.space("A")
    for i in range(2):
        rt.task(f"pre{i}", flops=1e9).writes(Region("A", i * 8, i * 8 + 8)).submit()
    rt.taskwait()
    for i in range(2):
        rt.task(f"post{i}", flops=1e9).writes(Region("B", i * 8, i * 8 + 8)).submit()

    def p(sim):
        result = yield from rt.execute(sim, proc)
        return result

    result = run_to_end(sim, p(sim))
    # 1 s for the pre wave, then 1 s for the post wave.
    assert result.makespan_s == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# priority policy
# ---------------------------------------------------------------------------


def test_priority_policy_orders_ready_tasks(sim):
    proc = make_proc(sim, n_cores=1)
    rt = OmpSsRuntime()
    low = rt.task("low", flops=1e9).priority(0).submit()
    high = rt.task("high", flops=1e9).priority(10).submit()

    def p(sim):
        result = yield from rt.execute(sim, proc, policy="priority")
        return result

    result = run_to_end(sim, p(sim))
    assert high.start_time < low.start_time


def test_priority_policy_rejects_unknown(sim):
    from repro.errors import TaskError

    with pytest.raises(TaskError):
        DataflowScheduler("best-effort")


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _run_chain(sim, n=3):
    proc = make_proc(sim, n_cores=2)
    g = TaskGraph()
    for i in range(n):
        g.submit(Task(f"t{i}", flops=1e9).updates(Region("X", 0, 8)))

    def p(sim):
        result = yield from DataflowScheduler("fifo").run(sim, g, proc)
        return result

    return run_to_end(sim, p(sim)), g


def test_schedule_trace_sorted(sim):
    result, g = _run_chain(sim)
    trace = schedule_trace(result, g)
    assert [iv.name for iv in trace] == ["t0", "t1", "t2"]
    assert all(iv.duration == pytest.approx(1.0) for iv in trace)
    starts = [iv.start for iv in trace]
    assert starts == sorted(starts)


def test_concurrency_profile_chain_is_one(sim):
    result, g = _run_chain(sim)
    profile = concurrency_profile(schedule_trace(result, g))
    assert all(c <= 1 for _, c in profile)
    assert any(c == 1 for _, c in profile)


def test_ascii_gantt_renders(sim):
    result, g = _run_chain(sim)
    art = ascii_gantt(schedule_trace(result, g), width=30)
    lines = art.splitlines()
    assert len(lines) == 4  # 3 tasks + axis
    assert all("#" in line for line in lines[:3])
    # The chain staircases: later bars start further right.
    assert lines[0].index("#") < lines[1].index("#") < lines[2].index("#")


def test_ascii_gantt_empty():
    assert ascii_gantt([]) == "(empty trace)"
