"""The indexed ReadyQueue against the linear-scan oracle.

PR 4 replaced the queue's O(n)-per-pop scan with a lazy min-heap of
cached scheduling keys.  The scan it replaced survives below
(:class:`OracleReadyQueue`, copied from the pre-index implementation,
extended in lockstep with PR 9's speculation dimension) and hypothesis
drives both through random op sequences — real and speculative pushes,
boost, residency flips, silent queue drains, pops — asserting the pop
sequences are identical.

The one contract the index relies on: between pops, a member's key can
only *worsen* silently (its message queue drains, or real work drains
away leaving a speculation-only queue); every improvement (new message,
boost, residency change) arrives through a touching mutation (``push`` /
``boost`` / ``note_resident``).  That is how the runtime uses the queue,
and the op generator below models exactly that: per-object real and
speculative message counts mirror the node's ``spec_only`` predicate,
with drains consuming real messages first so silent changes only ever
demote.

PR 16 made ``snapshot()`` read the members' dict order instead of
sorting them by ``seq``; the sort survives in ``tests/oracles.py`` and
the same op sequences hold the two equal after every op.
"""

from collections import deque
from typing import Callable, Optional

from hypothesis import given, settings, strategies as st

from oracles import sorted_snapshot
from repro.core.control import ReadyQueue


class OracleReadyQueue:
    """The seed's linear-scan ReadyQueue, kept as the oracle (minus the
    ``busiest`` discipline, which the queue no longer has)."""

    def __init__(self) -> None:
        self._fifo: deque[int] = deque()
        self._member: set[int] = set()
        self._boost: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._fifo)

    def __bool__(self) -> bool:
        return bool(self._fifo)

    def __contains__(self, oid: int) -> bool:
        return oid in self._member

    def push(self, oid: int) -> None:
        if oid not in self._member:
            self._member.add(oid)
            self._fifo.append(oid)

    def boost(self, oid: int, amount: float) -> None:
        self._boost[oid] = self._boost.get(oid, 0.0) + amount

    def pop(
        self,
        queue_len: Callable[[int], int],
        resident: Optional[Callable[[int], bool]] = None,
        spec_only: Optional[Callable[[int], bool]] = None,
    ) -> int:
        while self._fifo:
            if not self._boost and resident is None and spec_only is None:
                oid = self._fifo.popleft()
            else:
                best_idx = 0
                best_key = None
                for idx, cand in enumerate(self._fifo):
                    in_core = resident is not None and resident(cand)
                    if spec_only is not None and not in_core:
                        # Speculation mode: non-resident objects are
                        # served deepest-queue-first (demand loads
                        # amortize over more messages).
                        batch = queue_len(cand)
                    else:
                        batch = 0
                    key = (
                        self._boost.get(cand, 0.0),
                        0 if (spec_only is not None and spec_only(cand))
                        else 1,
                        1 if in_core else 0,
                        batch,
                        -idx,
                    )
                    if best_key is None or key > best_key:
                        best_key = key
                        best_idx = idx
                oid = self._fifo[best_idx]
                del self._fifo[best_idx]
            self._member.discard(oid)
            self._boost.pop(oid, None)
            if queue_len(oid) > 0:
                return oid
        raise IndexError("pop from empty ready queue")


OIDS = st.integers(min_value=0, max_value=11)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), OIDS),
        st.tuples(st.just("pushspec"), OIDS),
        st.tuples(st.just("boost"), OIDS,
                  st.floats(min_value=0.5, max_value=4.0, allow_nan=False)),
        st.tuples(st.just("resident"), OIDS, st.booleans()),
        st.tuples(st.just("drain"), OIDS),
        st.tuples(st.just("pop")),
    ),
    min_size=1,
    max_size=60,
)


def _drive(use_resident: bool, use_spec: bool, ops) -> list:
    """Run the same op sequence through both queues; return pop results."""
    indexed = ReadyQueue()
    oracle = OracleReadyQueue()
    # Per-object message mix, mirroring the node's queue contents: the
    # spec_only predicate is "speculative messages and nothing else".
    real: dict[int, int] = {}
    spec: dict[int, int] = {}
    resident: dict[int, bool] = {}

    def qlen(oid: int) -> int:
        return real.get(oid, 0) + spec.get(oid, 0)

    res_fn = (lambda oid: resident.get(oid, False)) if use_resident else None
    spec_fn = (
        (lambda oid: real.get(oid, 0) == 0 and spec.get(oid, 0) > 0)
        if use_spec else None
    )
    results = []
    for op in ops:
        kind = op[0]
        if kind in ("push", "pushspec"):
            oid = op[1]
            counts = spec if kind == "pushspec" else real
            counts[oid] = counts.get(oid, 0) + 1
            indexed.push(oid)
            oracle.push(oid)
        elif kind == "boost":
            _, oid, amount = op
            indexed.boost(oid, amount)
            oracle.boost(oid, amount)
        elif kind == "resident":
            _, oid, flag = op
            resident[oid] = flag
            indexed.note_resident(oid, flag)
            # The oracle reads residency live at pop; no call needed.
        elif kind == "drain":
            # A queue drains silently: the key worsens without a touch.
            # Real messages drain first, so the only silent spec_only
            # transition is False -> True (real work drained away) —
            # a demotion, exactly what the index contract allows.
            oid = op[1]
            if real.get(oid, 0) > 0:
                real[oid] -= 1
            elif spec.get(oid, 0) > 0:
                spec[oid] -= 1
        elif kind == "pop":
            # Memberships may transiently differ on *empty-queue* entries
            # (the lazy index discards them on a later pop than the eager
            # scan), so compare pop outcomes, not membership: both must
            # return the same oid or both must report exhaustion.
            if not (indexed or oracle):
                continue
            _pop_both(indexed, oracle, qlen, res_fn, spec_fn,
                      real, spec, results)
        assert indexed.snapshot() == sorted_snapshot(indexed)
    # Drain both to exhaustion: the full service order must agree.
    while indexed or oracle:
        _pop_both(indexed, oracle, qlen, res_fn, spec_fn, real, spec, results)
        if results[-1] == (IndexError, IndexError):
            break
    return results


def _pop_both(indexed, oracle, qlen, res_fn, spec_fn, real, spec,
              results) -> None:
    # Both may exhaust mid-pop (every remaining member's queue drained);
    # the implementations must agree on that too.
    try:
        got = indexed.pop(qlen, res_fn, spec_fn)
    except IndexError:
        got = IndexError
    try:
        want = oracle.pop(qlen, res_fn, spec_fn)
    except IndexError:
        want = IndexError
    results.append((got, want))
    assert indexed.snapshot() == sorted_snapshot(indexed)
    if got is not IndexError:
        # Serving the object consumes its whole queue (the runtime drains
        # messages for the popped object before re-pushing).
        real[got] = 0
        spec[got] = 0


@settings(max_examples=150, deadline=None)
@given(ops=OPS, use_resident=st.booleans(), use_spec=st.booleans())
def test_fifo_matches_oracle(ops, use_resident, use_spec):
    for got, want in _drive(use_resident, use_spec, ops):
        assert got == want


def test_spec_only_objects_serve_after_real_work():
    """Speculation is stall filler: all-speculative queues rank last."""
    q = ReadyQueue()
    q.push(1)  # arrives first, but holds only speculative messages
    q.push(2)
    spec = {1: True, 2: False}
    got = q.pop(lambda o: 1, None, lambda o: spec[o])
    assert got == 2


def test_spec_mode_prefers_deepest_nonresident_queue():
    """Non-resident objects pay a demand load: deepest queue amortizes
    it best, so thin queues defer while speculation mode is on."""
    q = ReadyQueue()
    q.push(1)
    q.push(2)
    depth = {1: 1, 2: 5}
    got = q.pop(lambda o: depth[o], lambda o: False, lambda o: False)
    assert got == 2


def test_membership_and_len_track_entries():
    q = ReadyQueue()
    q.push(3)
    q.push(3)  # idempotent
    q.push(7)
    assert len(q) == 2 and 3 in q and 7 in q and 5 not in q
    got = q.pop(lambda o: 1)
    assert got == 3
    assert len(q) == 1 and 3 not in q


def test_snapshot_is_fifo_arrival_order():
    q = ReadyQueue()
    for oid in (9, 2, 5):
        q.push(oid)
    q.boost(5, 10.0)  # scheduling hints must not reorder the snapshot
    assert q.snapshot() == [9, 2, 5]
    q.pop(lambda o: 1)  # serves 5 (boosted)
    assert q.snapshot() == [9, 2]


def test_snapshot_is_read_only_view():
    q = ReadyQueue()
    q.push(1)
    snap = q.snapshot()
    snap.append(99)
    assert q.snapshot() == [1]
