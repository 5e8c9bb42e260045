"""Unit tests for Resource / Store / Gate."""

import pytest

from repro.simulation import Environment, SimulationError, Store
from repro.simulation.resources import Gate, Resource


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_grants_fifo():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(name, hold):
        req = res.request()
        yield req
        order.append((env.now, name))
        yield env.timeout(hold)
        res.release(req)

    env.process(user("a", 2.0))
    env.process(user("b", 1.0))
    env.process(user("c", 1.0))
    env.run()
    assert order == [(0.0, "a"), (2.0, "b"), (3.0, "c")]


def test_resource_parallel_slots():
    env = Environment()
    res = Resource(env, capacity=2)
    done = []

    def user(name):
        req = res.request()
        yield req
        yield env.timeout(1.0)
        res.release(req)
        done.append((env.now, name))

    for n in "abcd":
        env.process(user(n))
    env.run()
    # two at a time: a,b finish at 1; c,d at 2
    assert done == [(1.0, "a"), (1.0, "b"), (2.0, "c"), (2.0, "d")]


def test_resource_release_unheld_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    env.run()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_resource_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    assert res.queued == 1
    r2.cancel()
    assert res.queued == 0
    res.release(r1)
    assert res.count == 0  # cancelled request must not be granted


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    def producer():
        for i in range(3):
            yield env.timeout(1.0)
            store.put(i)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    times = []

    def consumer():
        yield store.get()
        times.append(env.now)

    def producer():
        yield env.timeout(4.0)
        store.put("x")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert times == [4.0]


def test_store_bounded_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    accepted = []

    def producer():
        for i in range(3):
            yield store.put(i)
            accepted.append((env.now, i))

    def consumer():
        while True:
            yield env.timeout(2.0)
            yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run(until=10.0)
    # put 0 at t=0; put 1 blocked until get at t=2; put 2 until t=4
    assert accepted == [(0.0, 0), (2.0, 1), (4.0, 2)]


def test_store_peek_all_is_snapshot():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    snap = store.peek_all()
    assert snap == (1, 2)
    store.put(3)
    assert snap == (1, 2)


def test_store_len():
    env = Environment()
    store = Store(env)
    assert len(store) == 0
    store.put("a")
    assert len(store) == 1


def test_store_cancel_get():
    env = Environment()
    store = Store(env)
    g = store.get()
    g.cancel()
    store.put("x")
    # the cancelled getter must not consume the item
    assert len(store) == 1


def test_gate_open_passes_immediately():
    env = Environment()
    gate = Gate(env, opened=True)
    times = []

    def proc():
        yield gate.wait()
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [0.0]


def test_gate_closed_blocks_until_open():
    env = Environment()
    gate = Gate(env, opened=False)
    times = []

    def proc():
        yield gate.wait()
        times.append(env.now)

    def opener():
        yield env.timeout(5.0)
        gate.open()

    env.process(proc())
    env.process(opener())
    env.run()
    assert times == [5.0]


def test_gate_reclose():
    env = Environment()
    gate = Gate(env, opened=True)
    times = []

    def proc():
        yield gate.wait()
        gate.close()
        yield env.timeout(1.0)
        # second wait blocks until reopened
        yield gate.wait()
        times.append(env.now)

    def opener():
        yield env.timeout(10.0)
        gate.open()

    env.process(proc())
    env.process(opener())
    env.run()
    assert times == [10.0]
