"""Tests for the computing layer: task scheduling policies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CentralQueueExecutor,
    SerialExecutor,
    Task,
    WorkStealingExecutor,
)
from repro.core.computing import select_victim


def flat_tasks(n, dur=1.0):
    return [Task(dur) for _ in range(n)]


def test_task_totals():
    t = Task(1.0, children=[Task(2.0), Task(3.0, children=[Task(1.0)])])
    assert t.total_work() == pytest.approx(7.0)
    assert t.critical_path() == pytest.approx(5.0)  # 1 + 3 + 1


def test_serial_executor_sums_everything():
    result = SerialExecutor().schedule(flat_tasks(4, 2.0))
    assert result.makespan == pytest.approx(8.0)
    assert result.busy == [pytest.approx(8.0)]


def test_workstealing_perfect_split():
    ws = WorkStealingExecutor(workers=2, overhead=0.0, steal_cost=0.0)
    result = ws.schedule(flat_tasks(4, 1.0))
    assert result.makespan == pytest.approx(2.0)
    assert result.utilization == pytest.approx(1.0)


def test_workstealing_steals_from_loaded_victim():
    ws = WorkStealingExecutor(workers=2, overhead=0.0, steal_cost=0.0)
    # One root that spawns three children: worker 2 must steal.
    root = Task(1.0, children=[Task(1.0), Task(1.0), Task(1.0)])
    result = ws.schedule([root])
    assert result.steals >= 1
    assert result.makespan < root.total_work()


def test_select_victim_picks_most_backlogged():
    assert select_victim([0, 3, 5, 2]) == 2


def test_select_victim_ties_break_to_lowest_index():
    assert select_victim([0, 4, 4]) == 1
    assert select_victim([4, 0, 4]) == 0


def test_select_victim_respects_min_queue():
    # A victim below min_queue is not worth robbing; nobody means None.
    assert select_victim([1, 1], min_queue=2) is None
    assert select_victim([0, 0]) is None
    assert select_victim([]) is None
    assert select_victim([2, 1], min_queue=2) == 0


def test_workstealing_steal_order_is_deterministic():
    """Pin the exact steal schedule select_victim induces (PR 9).

    One root fans out four children: workers 1 and 2 must each steal the
    oldest child from worker 0 (the only eligible victim), and the whole
    schedule — steal count, makespan, per-worker busy time — must be
    identical run over run.  The runtime's inter-node thief uses the
    same select_victim rule, so this pins both sides of the stack.
    """
    def run():
        ws = WorkStealingExecutor(workers=3, overhead=0.0, steal_cost=0.0)
        root = Task(1.0, children=[Task(1.0) for _ in range(4)])
        return ws.schedule([root])

    first, second = run(), run()
    assert first.steals == second.steals == 2
    assert first.makespan == second.makespan == pytest.approx(3.0)
    assert first.busy == second.busy
    assert first.busy == [pytest.approx(3.0), pytest.approx(1.0),
                          pytest.approx(1.0)]


def test_central_queue_schedule_is_deterministic():
    def run():
        cq = CentralQueueExecutor(workers=2, overhead=0.0, contention=0.0)
        return cq.schedule(flat_tasks(5, 1.0))

    first, second = run(), run()
    assert first.queue_ops == second.queue_ops == 5
    # Global FIFO alternates workers: three tasks land on worker 0.
    assert first.makespan == second.makespan == pytest.approx(3.0)
    assert first.busy == second.busy == [pytest.approx(3.0),
                                         pytest.approx(2.0)]


def test_central_queue_contention_grows_with_workers():
    few = CentralQueueExecutor(workers=2, overhead=0.0, contention=1e-3)
    many = CentralQueueExecutor(workers=8, overhead=0.0, contention=1e-3)
    tasks = flat_tasks(64, 1e-3)
    # Same work, but the wide pool pays more per dequeue.
    t_few = few.schedule(tasks).makespan * 2
    t_many = many.schedule(tasks).makespan * 8
    assert t_many > t_few


def test_workstealing_beats_central_queue_on_fine_grain():
    """The Table VII effect: TBB-like stealing scales a bit better."""
    tree = [
        Task(1e-4, children=[Task(1e-4, children=[Task(1e-4)]), Task(1e-4)])
        for _ in range(64)
    ]
    ws = WorkStealingExecutor(workers=4).schedule(tree)
    cq = CentralQueueExecutor(workers=4).schedule(tree)
    assert ws.makespan <= cq.makespan


def test_invalid_workers_rejected():
    with pytest.raises(ValueError):
        WorkStealingExecutor(workers=0)
    with pytest.raises(ValueError):
        CentralQueueExecutor(workers=2, overhead=-1.0)


@settings(max_examples=30, deadline=None)
@given(
    durations=st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=40
    ),
    workers=st.integers(min_value=1, max_value=8),
)
def test_schedulers_respect_work_and_span_bounds(durations, workers):
    """Property: makespan >= max(total/P, longest task) for both policies.

    (The classic lower bounds; overheads push the makespan up, never below.)
    """
    tasks = [Task(d) for d in durations]
    total = sum(durations)
    longest = max(durations)
    for policy in (
        WorkStealingExecutor(workers, overhead=0.0, steal_cost=0.0),
        CentralQueueExecutor(workers, overhead=0.0, contention=0.0),
    ):
        result = policy.schedule(tasks)
        assert result.makespan >= total / workers - 1e-9
        assert result.makespan >= longest - 1e-9
        assert sum(result.busy) == pytest.approx(total, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(workers=st.integers(min_value=1, max_value=8))
def test_more_workers_never_hurt_without_overheads(workers):
    tasks = flat_tasks(16, 0.5)
    one = WorkStealingExecutor(1, overhead=0.0, steal_cost=0.0).schedule(tasks)
    many = WorkStealingExecutor(workers, overhead=0.0, steal_cost=0.0).schedule(tasks)
    assert many.makespan <= one.makespan + 1e-9
