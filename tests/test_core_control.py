"""Tests for termination detection and ready-queue scheduling."""

import pytest
from hypothesis import given, strategies as st

from repro.core import ReadyQueue, TerminationDetector


# ------------------------------------------------------ TerminationDetector
def test_detector_fires_at_zero():
    fired = []
    det = TerminationDetector(lambda: fired.append(True))
    det.add(2)
    det.done()
    assert not fired
    det.done()
    assert fired == [True]
    assert det.quiescent


def test_detector_not_quiescent_before_start():
    det = TerminationDetector()
    assert not det.quiescent  # zero but never started


def test_detector_negative_guard():
    det = TerminationDetector()
    det.add(1)
    det.done()
    with pytest.raises(RuntimeError):
        det.done()


def test_detector_add_negative_rejected():
    with pytest.raises(ValueError):
        TerminationDetector().add(-1)


def test_detector_refires_on_later_quiescence():
    fired = []
    det = TerminationDetector(lambda: fired.append(det.total_items))
    det.add(1)
    det.done()
    det.add(1)
    det.done()
    assert fired == [1, 2]


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=30))
def test_detector_balanced_sequences(additions):
    """Property: after retiring exactly what was added, we are quiescent."""
    det = TerminationDetector()
    total = 0
    for n in additions:
        det.add(n)
        total += n
    for _ in range(total):
        det.done()
    assert det.quiescent
    assert det.total_items == total


# -------------------------------------------------------------- ReadyQueue
def _lens(mapping):
    return lambda oid: mapping.get(oid, 0)


def test_ready_fifo_order():
    rq = ReadyQueue()
    lengths = {1: 1, 2: 1, 3: 1}
    for oid in (1, 2, 3):
        rq.push(oid)
    assert [rq.pop(_lens(lengths)) for _ in range(3)] == [1, 2, 3]


def test_ready_push_idempotent():
    rq = ReadyQueue()
    rq.push(1)
    rq.push(1)
    assert len(rq) == 1


def test_ready_skips_emptied_queues():
    rq = ReadyQueue()
    rq.push(1)
    rq.push(2)
    assert rq.pop(_lens({2: 1})) == 2  # 1 has no messages anymore


def test_ready_pop_empty_raises():
    with pytest.raises(IndexError):
        ReadyQueue().pop(_lens({}))
    rq = ReadyQueue()
    rq.push(1)
    with pytest.raises(IndexError):
        rq.pop(_lens({}))  # ready but queue empty


def test_boost_overrides_fifo():
    rq = ReadyQueue()
    for oid in (1, 2, 3):
        rq.push(oid)
    rq.boost(3, 10.0)
    assert rq.pop(_lens({1: 1, 2: 1, 3: 1})) == 3
    # Boost is consumed with the pop.
    assert rq.pop(_lens({1: 1, 2: 1})) == 1


def test_membership():
    rq = ReadyQueue()
    rq.push(5)
    assert 5 in rq
    rq.pop(_lens({5: 1}))
    assert 5 not in rq


@given(
    pushes=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=40)
)
def test_ready_queue_drains_exactly_members(pushes):
    """Property: popping drains each pushed oid exactly once."""
    rq = ReadyQueue()
    for oid in pushes:
        rq.push(oid)
    lengths = {oid: 1 for oid in pushes}
    out = []
    while rq:
        try:
            out.append(rq.pop(lambda o: lengths.get(o, 0)))
        except IndexError:
            break
    assert sorted(out) == sorted(set(pushes))
