"""Tests for queueing resources: Resource, Store, Server."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Engine, Resource, Server, Store


# ---------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity():
    eng = Engine()
    res = Resource(eng, capacity=2)
    grants = []
    for i in range(3):
        res.acquire().add_callback(lambda e, i=i: grants.append(i))
    eng.run()
    assert grants == [0, 1]
    res.release()
    eng.run()
    assert grants == [0, 1, 2]


def test_resource_fifo_order():
    eng = Engine()
    res = Resource(eng, capacity=1)
    order = []

    def user(name, hold):
        yield res.acquire()
        order.append((name, eng.now))
        yield eng.timeout(hold)
        res.release()

    for name, hold in [("a", 5.0), ("b", 3.0), ("c", 1.0)]:
        eng.process(user(name, hold))
    eng.run()
    assert order == [("a", 0.0), ("b", 5.0), ("c", 8.0)]


def test_release_without_acquire_raises():
    eng = Engine()
    res = Resource(eng, capacity=1)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_capacity_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Resource(eng, capacity=0)


# ------------------------------------------------------------------- Store
def test_store_put_then_get():
    eng = Engine()
    store = Store(eng)
    store.put("x")
    got = []
    store.get().add_callback(lambda e: got.append(e.value))
    eng.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    eng = Engine()
    store = Store(eng)
    got = []

    def consumer():
        item = yield store.get()
        got.append((eng.now, item))

    def producer():
        yield eng.timeout(7.0)
        store.put("late")

    eng.process(consumer())
    eng.process(producer())
    eng.run()
    assert got == [(7.0, "late")]


def test_store_fifo_both_sides():
    eng = Engine()
    store = Store(eng)
    got = []

    def consumer(name):
        item = yield store.get()
        got.append((name, item))

    eng.process(consumer("c1"))
    eng.process(consumer("c2"))

    def producer():
        yield eng.timeout(1.0)
        store.put("first")
        store.put("second")

    eng.process(producer())
    eng.run()
    assert got == [("c1", "first"), ("c2", "second")]


def test_store_len_counts_buffered_items():
    eng = Engine()
    store = Store(eng)
    store.put(1)
    store.put(2)
    assert len(store) == 2


# ------------------------------------------------------------------ Server
def test_server_service_time_formula():
    eng = Engine()
    srv = Server(eng, latency=0.01, bandwidth=100.0)
    assert srv.service_time(50) == pytest.approx(0.01 + 0.5)


def test_server_single_channel_serializes():
    eng = Engine()
    srv = Server(eng, latency=1.0, bandwidth=10.0)  # 10 B => 1+1 = 2 s each
    done = []

    def xfer(name):
        yield from srv.transfer(10)
        done.append((name, eng.now))

    eng.process(xfer("a"))
    eng.process(xfer("b"))
    eng.run()
    assert done == [("a", 2.0), ("b", 4.0)]
    assert srv.bytes_served == 20
    assert srv.ops_served == 2


def test_server_two_channels_overlap():
    eng = Engine()
    srv = Server(eng, latency=1.0, bandwidth=10.0, channels=2)
    done = []

    def xfer(name):
        yield from srv.transfer(10)
        done.append((name, eng.now))

    eng.process(xfer("a"))
    eng.process(xfer("b"))
    eng.run()
    assert done == [("a", 2.0), ("b", 2.0)]


def test_server_rejects_bad_params():
    eng = Engine()
    with pytest.raises(ValueError):
        Server(eng, latency=-1.0, bandwidth=1.0)
    with pytest.raises(ValueError):
        Server(eng, latency=0.0, bandwidth=0.0)
    srv = Server(eng, latency=0.0, bandwidth=1.0)
    with pytest.raises(ValueError):
        list(srv.transfer(-5))


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=20),
    latency=st.floats(min_value=0.0, max_value=1.0),
    bandwidth=st.floats(min_value=1.0, max_value=1e6),
)
def test_server_makespan_is_sum_on_one_channel(sizes, latency, bandwidth):
    """Property: one channel means total time == sum of service times."""
    eng = Engine()
    srv = Server(eng, latency=latency, bandwidth=bandwidth)

    def xfer(n):
        yield from srv.transfer(n)

    for n in sizes:
        eng.process(xfer(n))
    eng.run()
    expected = sum(srv.service_time(n) for n in sizes)
    assert eng.now == pytest.approx(expected, rel=1e-9)
