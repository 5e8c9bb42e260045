"""``Operator.snapshot()`` / ``restore()``: copy the containers, share the values.

The contract (``repro.dsps.operator``, "Payloads are values"): a snapshot
owns private copies of every container in the declared state and shares
the ``SizedPayload`` / ``DataTuple`` objects in them.  Invariant 7 —
"after recovery every HAU's state equals the MRC state" — rests on the
first half (the live operator keeps mutating its containers after the
checkpoint, and the MRC is restored again on a second failure); the
second half is what makes a checkpoint cost one list copy.
"""

import collections
import copy
import gc
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APPS, tmi
from repro.apps.base import SizedPayload
from repro.cluster import ClusterSpec
from repro.dsps import CheckpointScheme, DSPSRuntime, RuntimeConfig
from repro.dsps.operator import Operator
from repro.dsps.tuples import DataTuple
from repro.simulation import Environment


def payload(i, size=100):
    return SizedPayload(data={"i": i, "xs": np.arange(3) + i}, nominal_size=size)


class Hoarder(Operator):
    """State of every container shape the contract names."""

    state_attrs = ("pool", "window", "by_key", "seen", "nested", "acc", "count")

    def __init__(self):
        super().__init__(name="hoarder")
        self.pool = [payload(0), payload(1)]
        self.window = collections.deque(
            [DataTuple(payload=payload(2), size=100, seq=1)], maxlen=8
        )
        self.by_key = {"a": payload(3)}
        self.seen = {1, 2}
        self.nested = {"k": [payload(4)], "plain": [1, 2]}
        self.acc = np.zeros(4)
        self.count = 0


def view(state):
    """Container structure with payloads replaced by their identity."""
    if isinstance(state, (SizedPayload, DataTuple)):
        return id(state)
    if isinstance(state, dict):
        return {k: view(v) for k, v in state.items()}
    if isinstance(state, (list, collections.deque)):
        return [view(v) for v in state]
    if isinstance(state, np.ndarray):
        return state.tolist()
    return copy.copy(state)


def churn(op):
    """Every kind of write the bundled operators do to their own state."""
    op.pool.append(payload(10))
    op.pool.pop(0)
    op.window.append(DataTuple(payload=payload(11), size=100, seq=2))
    op.window.popleft()
    op.by_key["b"] = payload(12)
    del op.by_key["a"]
    op.seen.add(3)
    op.seen.discard(1)
    op.nested["k"].append(payload(13))
    op.nested["plain"][0] = 99
    op.nested["new"] = []
    op.acc[0] += 7.0  # in-place write to an array held directly in state
    op.count += 1
    op.pool = []  # rebinding, as every pool flush does


# -- (a) isolation, both ways ---------------------------------------------------


def test_writes_to_live_state_leave_the_snapshot_unchanged():
    op = Hoarder()
    snap = op.snapshot()
    before = view(snap)
    churn(op)
    assert view(snap) == before
    assert set(snap) == set(Hoarder.state_attrs)


def test_writes_to_restored_state_leave_the_snapshot_and_its_other_restores_unchanged():
    origin = Hoarder()
    snap = origin.snapshot()
    before = view(snap)
    first, second = Hoarder(), Hoarder()
    first.restore(snap)
    churn(first)
    assert view(snap) == before
    # the MRC is restored again on a second failure
    second.restore(snap)
    assert view(second.snapshot()) == before
    churn(second)
    assert view(snap) == before
    assert view(origin.snapshot()) == before


# -- (b) sharing ---------------------------------------------------------------


def test_payload_values_are_shared_and_everything_else_is_copied():
    op = Hoarder()
    snap = op.snapshot()
    assert snap["pool"] is not op.pool
    assert all(a is b for a, b in zip(snap["pool"], op.pool))
    assert snap["window"] is not op.window and snap["window"].maxlen == 8
    assert snap["window"][0] is op.window[0]  # a DataTuple leaf
    assert snap["by_key"]["a"] is op.by_key["a"]
    assert snap["nested"]["k"] is not op.nested["k"]
    assert snap["nested"]["k"][0] is op.nested["k"][0]
    assert snap["nested"]["plain"] is not op.nested["plain"]
    assert snap["seen"] is not op.seen and snap["seen"] == op.seen
    # an ndarray held directly in state is not a payload: a distinct, equal array
    assert snap["acc"] is not op.acc and not np.shares_memory(snap["acc"], op.acc)
    assert np.array_equal(snap["acc"], op.acc)
    restored = Hoarder()
    restored.restore(snap)
    assert restored.pool is not snap["pool"] and restored.pool[0] is op.pool[0]
    assert restored.acc is not snap["acc"]


def test_copying_a_value_returns_it():
    p = payload(1)
    t = DataTuple(payload=p, size=10)
    assert copy.copy(p) is p and copy.deepcopy(p) is p
    assert copy.copy(t) is t and copy.deepcopy(t) is t
    assert copy.deepcopy([t, {"k": p}])[1]["k"] is p


# -- (c) fidelity on the bundled applications ----------------------------------


@pytest.fixture
def deep_copies(monkeypatch):
    """``deepcopy`` as it was before payloads answered it with ``self``."""

    def reference(value):
        with monkeypatch.context() as m:
            for cls in (SizedPayload, DataTuple):
                m.delattr(cls, "__deepcopy__")
                m.delattr(cls, "__copy__")
            return copy.deepcopy(value)

    return reference


APP_PARAMS = {
    "tmi": {"n_minutes": 0.25},  # windows of 15 s: pools are mid-ramp at t=20
    "bcp": {},
    "signalguru": {},
    "synth": {},
}


def run_to_mid_window(name, until=20.0):
    env = Environment()
    rt = DSPSRuntime(
        env,
        APPS[name].build(seed=3, **APP_PARAMS[name]),
        CheckpointScheme(),
        RuntimeConfig(seed=3, cluster=ClusterSpec(workers=55, spares=4, racks=4)),
    )
    rt.start()
    env.run(until=until)
    return rt


def declared_state(op):
    return {attr: getattr(op, attr) for attr in op.state_attrs}


@pytest.mark.parametrize("name", sorted(APPS))
def test_snapshot_equals_a_full_deep_copy_on_every_operator(name, deep_copies):
    rt = run_to_mid_window(name)
    pooled = 0
    for hau_id, hau in sorted(rt.haus.items()):
        fresh_ops = rt.app.graph.haus[hau_id].make_operators()
        for op, fresh in zip(hau.operators, fresh_ops):
            snap = op.snapshot()
            reference = deep_copies(declared_state(op))
            # dict(): the sanitizer's snapshot is a dict subclass
            assert pickle.dumps(dict(snap)) == pickle.dumps(reference), op
            fresh.restore(snap)
            assert fresh.state_size() == op.state_size()
            assert pickle.dumps(declared_state(fresh)) == pickle.dumps(reference), op
            pooled += sum(
                len(v) for v in snap.values() if isinstance(v, list) and v
                and isinstance(v[0], SizedPayload)
            )
    assert pooled > 0  # the instant really is mid-window: payloads are pooled


# -- (d) random scripts against a pure-Python model ----------------------------


class ToyPool(Operator):
    state_attrs = ("pool", "by_key", "flushes")

    def __init__(self):
        super().__init__(name="toy")
        self.pool = []
        self.by_key = {}
        self.flushes = 0

    def append(self, i):
        p = SizedPayload(data={"i": i}, nominal_size=8)
        self.pool.append(p)
        self.by_key.setdefault(i % 3, []).append(p)

    def flush(self):
        self.pool = []
        self.by_key.clear()
        self.flushes += 1

    def observed(self):
        return (
            [p.data["i"] for p in self.pool],
            {k: [p.data["i"] for p in v] for k, v in self.by_key.items()},
            self.flushes,
        )


class ToyModel:
    """The same operator over plain ints; a snapshot is a frozen tuple."""

    def __init__(self):
        self.pool, self.by_key, self.flushes = [], {}, 0

    def append(self, i):
        self.pool.append(i)
        self.by_key.setdefault(i % 3, []).append(i)

    def flush(self):
        self.pool, self.by_key, self.flushes = [], {}, self.flushes + 1

    def observed(self):
        return (list(self.pool), {k: list(v) for k, v in self.by_key.items()}, self.flushes)

    def load(self, frozen):
        pool, by_key, self.flushes = frozen
        self.pool = list(pool)
        self.by_key = {k: list(v) for k, v in by_key.items()}


STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 50)),
        st.tuples(st.just("flush"), st.just(0)),
        st.tuples(st.just("snapshot"), st.just(0)),
        st.tuples(st.just("restore"), st.integers(0, 50)),
        st.tuples(st.just("restore_fresh"), st.integers(0, 50)),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(steps=STEPS)
def test_append_flush_snapshot_restore_scripts_match_the_model(steps):
    op, model = ToyPool(), ToyModel()
    snaps = []  # (operator snapshot, what the model looked like then)
    for kind, arg in steps:
        if kind == "append":
            op.append(arg)
            model.append(arg)
        elif kind == "flush":
            op.flush()
            model.flush()
        elif kind == "snapshot":
            snaps.append((op.snapshot(), model.observed()))
        elif snaps:
            snap, frozen = snaps[arg % len(snaps)]
            if kind == "restore_fresh":  # a replacement HAU on a spare node
                op = ToyPool()
            op.restore(snap)
            model.load(frozen)
        assert op.observed() == model.observed()
    # no later step reached back into an earlier snapshot
    for snap, frozen in snaps:
        check = ToyPool()
        check.restore(snap)
        assert check.observed() == frozen


# -- (e) what a snapshot allocates: a count, not seconds ------------------------


def test_snapshot_of_a_large_pool_allocates_a_handful_of_objects():
    op = tmi.KMeansOperator(0, window_seconds=600.0)
    rng = np.random.default_rng(0)
    for i in range(2000):
        sub = SizedPayload(
            data={"group": 0, "phones": rng.integers(0, 10_000, size=4),
                  "features": rng.uniform(size=(4, 2))},
            nominal_size=tmi.SUB_BATCH_SIZE,
        )
        op.on_tuple(0, DataTuple(payload=sub, size=tmi.SUB_BATCH_SIZE, created_at=1.0))
    assert len(op.pool) == 2000
    # not counted: under REPRO_SAN=1 the first fingerprint pickles every
    # payload, which materialises each one's lazily allocated __dict__
    op.snapshot()
    while gc.collect():
        pass
    before = len(gc.get_objects())
    snap = op.snapshot()
    created = len(gc.get_objects()) - before
    # one list and one dict, whatever the pool holds; a deep copy made
    # about three tracked objects per payload (dataclass, dict, arrays)
    assert created < 50, created
    assert len(snap["pool"]) == 2000
