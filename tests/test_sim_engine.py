"""Tests for the discrete-event kernel: ordering, processes, polls."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import poll_with_timeouts
from repro.sim import Engine


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_timeout_advances_clock():
    eng = Engine()
    eng.timeout(5.0)
    eng.run()
    assert eng.now == 5.0


def test_events_fire_in_time_order():
    eng = Engine()
    fired = []
    for delay in (3.0, 1.0, 2.0):
        ev = eng.timeout(delay, value=delay)
        ev.add_callback(lambda e: fired.append(e.value))
    eng.run()
    assert fired == [1.0, 2.0, 3.0]


def test_simultaneous_events_fifo():
    """Ties at equal times break by scheduling order (determinism)."""
    eng = Engine()
    fired = []
    for i in range(10):
        ev = eng.timeout(1.0, value=i)
        ev.add_callback(lambda e: fired.append(e.value))
    eng.run()
    assert fired == list(range(10))


def test_process_waits_and_returns():
    eng = Engine()

    def body():
        yield eng.timeout(2.0)
        yield eng.timeout(3.0)
        return "done"

    proc = eng.process(body())
    result = eng.run(until=proc)
    assert result == "done"
    assert eng.now == 5.0


def test_process_receives_event_value():
    eng = Engine()
    seen = []

    def body():
        value = yield eng.timeout(1.0, value=42)
        seen.append(value)

    eng.process(body())
    eng.run()
    assert seen == [42]


def test_processes_can_join():
    eng = Engine()

    def child():
        yield eng.timeout(4.0)
        return 7

    def parent():
        value = yield eng.process(child())
        return value + 1

    proc = eng.process(parent())
    assert eng.run(until=proc) == 8
    assert eng.now == 4.0


def test_event_succeed_wakes_waiter():
    eng = Engine()
    gate = eng.event()
    log = []

    def waiter():
        value = yield gate
        log.append((eng.now, value))

    def opener():
        yield eng.timeout(9.0)
        gate.succeed("open")

    eng.process(waiter())
    eng.process(opener())
    eng.run()
    assert log == [(9.0, "open")]


def test_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_run_until_time_stops_clock():
    eng = Engine()
    eng.timeout(10.0)
    eng.run(until=4.0)
    assert eng.now == 4.0
    eng.run()
    assert eng.now == 10.0


def test_run_until_unfired_event_deadlocks():
    eng = Engine()
    gate = eng.event()
    with pytest.raises(RuntimeError, match="deadlock"):
        eng.run(until=gate)


def test_yield_non_event_is_type_error():
    eng = Engine()

    def bad():
        yield 42

    eng.process(bad())
    with pytest.raises(TypeError):
        eng.run()


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_clock_is_monotonic_under_arbitrary_timeouts(delays):
    """Property: processing any set of timeouts never moves time backwards."""
    eng = Engine()
    observed = []
    for d in delays:
        eng.timeout(d).add_callback(lambda e: observed.append(eng.now))
    eng.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert eng.now == max(delays)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_nested_process_end_times(pairs):
    """Property: a process sleeping a then b ends exactly at a+b."""
    eng = Engine()
    results = []

    def body(a, b):
        yield eng.timeout(a)
        yield eng.timeout(b)
        results.append(eng.now)

    starts = []
    for a, b in pairs:
        starts.append((a, b))
        eng.process(body(a, b))
    eng.run()
    assert sorted(results) == sorted(a + b for a, b in starts)


# ---------------------------------------------------------------- Engine.poll
def test_nan_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(float("nan"))
    assert eng.peek() == float("inf")  # nothing reached the heap


@pytest.mark.parametrize("interval", [0.0, -1.0, float("nan")])
def test_poll_rejects_non_positive_interval(interval):
    eng = Engine()
    with pytest.raises(ValueError):
        eng.poll(interval, lambda: True)
    assert eng.peek() == float("inf")


def test_poll_rejects_non_callable_predicate():
    with pytest.raises(TypeError):
        Engine().poll(1.0, True)


def flip(eng, box, value=True):
    """Set a flag a poll watches, and keep the poke contract."""
    box[:] = [value] if value else []
    eng.poke()


def test_poll_fires_on_first_ready_tick_with_the_predicates_value():
    eng = Engine()
    box = []
    eng.timeout(2.5).add_callback(lambda e: flip(eng, box, "go"))

    def body():
        value = yield eng.poll(1.0, lambda: box and box[0])
        return (eng.now, value)

    proc = eng.process(body())
    assert eng.run(until=proc) == (3.0, "go")
    assert eng.poll_wakes == 1  # parked through t=1 and t=2, woke at t=3


def test_a_parked_poll_is_no_event_and_resumes_nobody():
    eng = Engine()
    box = []
    resumed = []

    def body():
        yield eng.poll(1.0, lambda: box)
        resumed.append(eng.now)

    eng.process(body())
    eng.run(until=50.5)
    assert (eng.poll_wakes, resumed, eng.peek()) == (0, [], float("inf"))
    assert eng.events_processed == 1  # the process bootstrap, no tick
    flip(eng, box)  # at 50.5: the next grid instant is 51
    eng.run(until=200.0)
    assert (resumed, eng.poll_wakes) == ([51.0], 1)


def test_a_poll_whose_predicate_holds_arms_at_once():
    eng = Engine()
    poll = eng.poll(0.25, lambda: "now")
    assert eng.parked == {} and eng.peek() == 0.25
    assert eng.run(until=poll) == "now"


def test_a_wake_that_finds_the_predicate_false_parks_again():
    eng = Engine()
    box = []
    eng.timeout(0.2).add_callback(lambda e: flip(eng, box))
    eng.timeout(0.5).add_callback(lambda e: flip(eng, box, False))
    eng.timeout(2.5).add_callback(lambda e: flip(eng, box))
    poll = eng.poll(1.0, lambda: box)
    eng.run(until=2.0)
    assert (poll.processed, eng.poll_wakes, list(eng.parked)) == (
        False, 1, [poll]
    )
    eng.run(until=poll)
    assert (eng.now, eng.poll_wakes) == (3.0, 2)


def test_a_poke_that_finds_the_predicate_false_schedules_nothing():
    eng = Engine()
    poll = eng.poll(1.0, lambda: False)
    eng.poke()
    assert list(eng.parked) == [poll] and eng.peek() == float("inf")


def test_only_dead_polls_left_is_a_deadlock_when_awaiting_an_event():
    eng = Engine()
    eng.poll(1.0, lambda: False)
    eng.poll(0.7, lambda: False, rank=1)
    with pytest.raises(RuntimeError, match="simulation deadlock"):
        eng.run(until=eng.event())
    assert eng.now == 0.0  # told at once, not after a spin


def test_a_bare_run_ends_at_the_last_real_event_and_leaves_polls_parked():
    eng = Engine()
    flag = []
    poll = eng.poll(1.0, lambda: flag)
    poll.add_callback(lambda e: flag.append("seen"))
    eng.timeout(2.5)
    eng.run()
    assert (eng.now, list(eng.parked)) == (2.5, [poll])
    flip(eng, flag)
    eng.run()
    assert (eng.now, flag) == (3.0, [True, "seen"])
    assert eng.peek() == float("inf") and eng.parked == {}


def test_a_bounded_run_leaves_now_at_the_limit():
    eng = Engine()
    eng.poll(1.0, lambda: False)
    eng.run(until=10.5)
    assert (eng.now, eng.poll_wakes, eng.events_processed, eng.peek()) == (
        10.5, 0, 0, float("inf")
    )


def test_a_poll_that_another_poll_will_wake_is_not_a_deadlock():
    """Poll A's firing turns poll B's predicate true and pokes: B takes
    its own (higher-rank) slot at that very instant."""
    eng = Engine()
    state = {"a": False}

    def set_and_poke(key):
        state[key] = True
        eng.poke()

    eng.timeout(0.5).add_callback(lambda e: set_and_poke("a"))
    first = eng.poll(3.0, lambda: state["a"])
    first.add_callback(lambda e: set_and_poke("b"))
    second = eng.poll(1.0, lambda: state.get("b"), rank=1)
    eng.run(until=second)
    assert eng.now == 3.0 and first.processed


# ----------------------------------------------------------------- late slots
def test_a_late_slot_follows_zero_delay_events_pushed_at_its_instant():
    eng = Engine()
    order = []
    eng.timeout(1.0, rank=0).add_callback(lambda e: order.append("late"))

    def chain(e):
        order.append("ordinary")
        eng.timeout(0.0).add_callback(lambda e: order.append("zero-delay"))

    eng.timeout(1.0).add_callback(chain)
    eng.run()
    assert order == ["ordinary", "zero-delay", "late"]


def test_late_slots_at_one_instant_run_in_rank_order():
    eng = Engine()
    order = []
    for rank in (2, 0, 1):
        eng.timeout(1.0, value=rank, rank=rank).add_callback(
            lambda e: order.append(e.value))
    eng.run()
    assert order == [0, 1, 2]


def test_a_nan_or_past_late_slot_is_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng._push_late(eng.event(), float("nan"), 0)
    with pytest.raises(ValueError):
        eng.timeout(1.0, rank=-1)
    eng.run(until=2.0)
    with pytest.raises(ValueError):
        eng._push_late(eng.event(), 1.0, 0)
    errors = []

    def too_late(e):
        for rank in (0, 1, 2):
            try:
                eng.timeout(0.0, rank=rank)
            except ValueError:
                errors.append(rank)

    eng.timeout(1.0, rank=1).add_callback(too_late)
    eng.run()
    assert errors == [0, 1]  # rank 2's slot at this instant is still open
    assert eng.peek() == float("inf") and eng.now == 3.0


@pytest.mark.parametrize("pusher", ["late", "ordinary"])
def test_a_passed_slot_stays_passed(pusher):
    """A poke at an instant whose rank-0 slot a later slot already ran
    past, even from an ordinary event pushed after that slot, takes the
    next grid instant; a higher rank still takes this one."""
    eng = Engine()
    box = []
    low = eng.poll(1.0, lambda: box)
    high = eng.poll(1.0, lambda: box, rank=2)

    def go(e):
        if pusher == "late":
            flip(eng, box)
        else:
            eng.timeout(0.0).add_callback(lambda e: flip(eng, box))

    eng.timeout(1.0, rank=1).add_callback(go)
    eng.run(until=low)
    assert eng.now == 2.0 and high.processed
    assert eng.poll_wakes == 2


# Equivalence with the coroutine-polling shape, ties included.  Actors flip
# integer flags and poke; pollers wait for "their" flag, log, clear it,
# may relay to the other flag, and poll again.  Poller ``i`` looks in late
# slot ``i`` on both sides.
_INTERVALS = [2e-4, 0.1, 0.3, 1.0 / 3.0, 1.0]


def _grid(origin: float, interval: float, k: int) -> float:
    """Instant of the k-th tick of a poll created at ``origin``: iterated
    addition, the only arithmetic that reproduces the engine's floats."""
    t = origin
    for _ in range(k):
        t += interval
    return t


_actor = st.fixed_dictionaries({
    # grid: lands exactly on a tick; inside: zero-delay event scheduled from
    # a tick instant; chain: reaches a tick by a delay equal to the interval;
    # free: anywhere.
    "kind": st.sampled_from(["grid", "inside", "chain", "free"]),
    "k": st.integers(1, 12),
    "frac": st.floats(0.0, 12.0, allow_nan=False),
    "origin": st.integers(0, 2),
    "flag": st.integers(0, 1),
    "value": st.integers(0, 3),  # 0 clears the flag again
})
_poller = st.fixed_dictionaries({
    "origin": st.integers(0, 2),
    "flag": st.integers(0, 1),
    # after each wake: None re-creates the poll at once (the thief's "nothing
    # to take, look again"), a number waits first (the thief's migration)
    "gaps": st.lists(
        st.one_of(st.none(), st.sampled_from([0.0, 1.0, 0.5]),
                  st.floats(0.0, 3.0, allow_nan=False)),
        max_size=3,
    ),
    # before each wait but the first, set the other flag to this and poke:
    # from inside its own late slot (no gap) or from an ordinary event
    # pushed after it (gap 0)
    "relay": st.integers(0, 2),
})


def _play(wait, interval, origins, pollers, actors):
    """Run one schedule; ``wait(engine, interval, ready, rank)`` is the
    generator a poller delegates to.  Returns the trace."""
    eng = Engine()
    flags = [0, 0]
    trace = []

    def poller(i, spec):
        if origins[spec["origin"]] > 0.0:
            yield eng.timeout(origins[spec["origin"]])
        idx = spec["flag"]
        for k, gap in enumerate([None] + spec["gaps"]):
            if gap is not None:
                yield eng.timeout(gap * interval)
            if k and spec["relay"]:
                flags[1 - idx] = spec["relay"]
                eng.poke()
            value = yield from wait(eng, interval, lambda: flags[idx], i)
            trace.append((eng.now, f"poller{i}", value))
            flags[idx] = 0

    def actor(j, spec):
        origin = origins[spec["origin"]]
        k = spec["k"]

        def act(_event=None):
            trace.append((eng.now, f"actor{j}", spec["value"]))
            flags[spec["flag"]] = spec["value"]
            eng.poke()

        if spec["kind"] == "free":
            yield eng.timeout(spec["frac"] * interval)
        elif spec["kind"] == "chain":
            yield eng.timeout(_grid(origin, interval, k - 1))
            yield eng.timeout(interval)
        else:
            yield eng.timeout(_grid(origin, interval, k))
            if spec["kind"] == "inside":
                yield eng.timeout(0.0)
        act()

    # Interleave creation so pollers and actors take sequence numbers in a
    # drawn order, not all of one kind first.
    for i in range(max(len(pollers), len(actors))):
        if i < len(actors):
            eng.process(actor(i, actors[i]))
        if i < len(pollers):
            eng.process(poller(i, pollers[i]))
    eng.run(until=20.0 * interval)
    return trace


def _wait_on_poll(engine, interval, ready, rank=0):
    return (yield engine.poll(interval, ready, rank))


@settings(max_examples=300, deadline=None)
@given(
    interval=st.sampled_from(_INTERVALS),
    shift=st.sampled_from([0.0, 0.5, 1.0, 0.37]),
    pollers=st.lists(_poller, min_size=1, max_size=3),
    actors=st.lists(_actor, min_size=1, max_size=8),
)
def test_poll_is_the_timeout_loop_event_for_event(
    interval, shift, pollers, actors
):
    # Origins 0 and 1 coincide (equal grids), origin 2 is shifted.
    origins = [0.0, 0.0, shift * interval]
    want = _play(poll_with_timeouts, interval, origins, pollers, actors)
    got = _play(_wait_on_poll, interval, origins, pollers, actors)
    assert got == want


def test_poll_ties_with_an_event_ninety_additions_away():
    """The tie that broke the first parked-thief design: ninety additions
    of 2e-4 are 0.018000000000000002, exactly where an event scheduled in
    one step from t=0 lands; the tick's late slot decides who goes first,
    whatever order the two were created in."""
    interval = 2e-4
    assert _grid(0.0, interval, 90) == 0.018000000000000002
    for wait in (poll_with_timeouts, _wait_on_poll):
        for poller_first in (True, False):
            eng = Engine()
            flags = [0]
            seen = []

            def poller():
                yield from wait(eng, interval, lambda: flags[0])
                seen.append(eng.now)

            def setter():
                yield eng.timeout(0.018000000000000002)
                flags[0] = 1
                eng.poke()

            bodies = [poller(), setter()]
            for body in bodies if poller_first else reversed(bodies):
                eng.process(body)
            eng.run(until=0.02)
            # The tick's late slot at the tied instant follows every
            # ordinary event there: the setter always runs first.
            assert seen == [0.018000000000000002]
