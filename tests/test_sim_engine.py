"""Tests for the discrete-event kernel: ordering, processes, combinators."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import poll_with_timeouts
from repro.sim import Engine, Interrupt, all_of, any_of


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


def test_event_fail_raises_in_waiter():
    eng = Engine()
    gate = eng.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    eng.process(waiter())
    gate.fail(ValueError("boom"))
    eng.run()
    assert caught == ["boom"]


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


def test_interrupt_process():
    eng = Engine()
    log = []

    def sleeper():
        try:
            yield eng.timeout(100.0)
            log.append("completed")
        except Interrupt as intr:
            log.append(("interrupted", eng.now, intr.cause))

    def interrupter(target):
        yield eng.timeout(5.0)
        target.interrupt("wakeup")

    proc = eng.process(sleeper())
    eng.process(interrupter(proc))
    eng.run()
    assert log == [("interrupted", 5.0, "wakeup")]


def test_interrupt_after_completion_is_noop():
    eng = Engine()

    def quick():
        yield eng.timeout(1.0)

    proc = eng.process(quick())
    eng.run()
    proc.interrupt()  # must not raise
    eng.run()


def test_all_of_collects_values():
    eng = Engine()
    events = [eng.timeout(d, value=d) for d in (3.0, 1.0, 2.0)]
    combo = all_of(eng, events)
    assert eng.run(until=combo) == [3.0, 1.0, 2.0]
    assert eng.now == 3.0


def test_all_of_empty_fires_immediately():
    eng = Engine()
    combo = all_of(eng, [])
    assert eng.run(until=combo) == []


def test_any_of_returns_first():
    eng = Engine()
    events = [eng.timeout(d, value=d) for d in (3.0, 1.0, 2.0)]
    combo = any_of(eng, events)
    index, value = eng.run(until=combo)
    assert (index, value) == (1, 1.0)
    assert eng.now == 1.0


def test_any_of_empty_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        any_of(eng, [])


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


def test_poll_fires_on_first_ready_tick_with_the_predicates_value():
    eng = Engine()
    box = []
    eng.timeout(2.5).add_callback(lambda e: box.append("go"))

    def body():
        value = yield eng.poll(1.0, lambda: box and box[0])
        return (eng.now, value)

    proc = eng.process(body())
    assert eng.run(until=proc) == (3.0, "go")
    assert eng.poll_ticks == 2  # t=1, t=2 re-armed in place; t=3 fired


def test_false_ticks_count_as_events_but_resume_nobody():
    eng = Engine()
    resumed = []

    def body():
        yield eng.poll(1.0, lambda: eng.now >= 100.0)
        resumed.append(eng.now)

    eng.process(body())
    eng.run(until=50.5)
    assert (eng.poll_ticks, resumed) == (50, [])
    assert eng.events_processed == 51  # process bootstrap + 50 ticks
    eng.run(until=200.0)
    assert resumed == [100.0]
    assert eng.poll_ticks == 99


def test_only_dead_polls_left_is_a_deadlock_when_awaiting_an_event():
    eng = Engine()
    eng.poll(1.0, lambda: False)
    eng.poll(0.7, lambda: False)
    with pytest.raises(RuntimeError, match="simulation deadlock"):
        eng.run(until=eng.event())
    assert eng.now == 0.7  # told on the first tick, not after a spin


def test_only_dead_polls_left_ends_a_bare_run_and_leaves_them_armed():
    eng = Engine()
    flag = []
    eng.poll(1.0, lambda: flag).add_callback(lambda e: flag.append("seen"))
    eng.timeout(2.5)
    eng.run()
    assert eng.now == 3.0  # first tick with nothing else in the heap
    flag.append(True)
    eng.run()
    assert (eng.now, flag) == (4.0, [True, "seen"])
    assert eng.peek() == float("inf")


def test_bounded_run_keeps_ticking_dead_polls_to_the_limit():
    eng = Engine()
    eng.poll(1.0, lambda: False)
    eng.run(until=10.5)
    assert (eng.now, eng.poll_ticks, eng.peek()) == (10.5, 10, 11.0)


def test_a_poll_that_another_poll_will_wake_is_not_a_deadlock():
    """Poll A's firing changes poll B's predicate: with nothing else in
    the heap the engine must look at A before calling B stuck."""
    eng = Engine()
    state = {"a": False}
    eng.timeout(0.5).add_callback(lambda e: state.update(a=True))
    first = eng.poll(3.0, lambda: state["a"])
    first.add_callback(lambda e: state.update(b=True))
    second = eng.poll(1.0, lambda: state.get("b"))
    eng.run(until=second)
    assert eng.now == 3.0 and first.processed


# Equivalence with the coroutine-polling shape, ties included.  Actors flip
# integer flags; pollers wait for "their" flag, log, clear it and poll again.
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
})


def _play(wait, interval, origins, pollers, actors):
    """Run one schedule; ``wait(engine, interval, ready)`` is the generator a
    poller delegates to.  Returns (trace, events_processed, next seq)."""
    eng = Engine()
    flags = [0, 0]
    trace = []

    def poller(i, spec):
        if origins[spec["origin"]] > 0.0:
            yield eng.timeout(origins[spec["origin"]])
        idx = spec["flag"]
        for gap in [None] + spec["gaps"]:
            if gap is not None:
                yield eng.timeout(gap * interval)
            value = yield from wait(eng, interval, lambda: flags[idx])
            trace.append((eng.now, f"poller{i}", value))
            flags[idx] = 0

    def actor(j, spec):
        origin = origins[spec["origin"]]
        k = spec["k"]

        def act(_event=None):
            trace.append((eng.now, f"actor{j}", spec["value"]))
            flags[spec["flag"]] = spec["value"]

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
    return trace, eng.events_processed, eng._seq


def _wait_on_poll(engine, interval, ready):
    return (yield engine.poll(interval, ready))


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
    """The tie that broke the parked-thief design: ninety additions of
    2e-4 are 0.018000000000000002, exactly where an event scheduled in
    one step from t=0 lands; who goes first is decided by sequence
    number alone."""
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

            bodies = [poller(), setter()]
            for body in bodies if poller_first else reversed(bodies):
                eng.process(body)
            eng.run(until=0.02)
            # The tick's slot at the tied instant was taken at the 89th
            # tick, long after the setter's: the setter always runs first.
            assert seen == [0.018000000000000002]
