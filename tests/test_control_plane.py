"""The lazily bound control plane and the lazily resolved per-HAU RNG.

A HAU's controller -> HAU link (a channel whose consumer calls
``on_control`` inside each delivery; no process listens) is created by
the first ``send_control`` to it and re-created, against the *new*
``HAURuntime``, after every rewire.  These pin the binding rules; the
byte-identity test pins that none of it moved a pinned run.
"""

import hashlib

import pytest

from repro.cluster import ClusterSpec
from repro.dsps import DSPSRuntime, RuntimeConfig, StreamApplication
from repro.dsps.runtime import CheckpointScheme
from repro.dsps.testing import make_chain_graph
from repro.harness.digest import canonical_cases
from repro.harness.experiment import run_experiment
from repro.simulation import Environment
from repro.simulation.rng import RngRegistry
from tests.pins import on_recorded_build


class Recording(CheckpointScheme):
    """Logs every control delivery as (receiving HAURuntime, message)."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_control(self, hau, message):
        self.seen.append((hau, message))


def deploy(seed=7):
    graph, _ = make_chain_graph()
    env = Environment()
    scheme = Recording()
    rt = DSPSRuntime(
        env,
        StreamApplication(name="t", graph=graph),
        scheme,
        RuntimeConfig(seed=seed, cluster=ClusterSpec(workers=4, spares=3, racks=2)),
    )
    rt.start()
    return env, rt, scheme


def test_first_send_binds_the_link_and_delivers():
    env, rt, scheme = deploy()
    assert not rt.control_down
    n_processes = sum(len(n._processes) for n in rt.dc.all_nodes)
    rt.send_control("agg", ("ping", 1))
    assert list(rt.control_down) == ["agg"]
    assert sum(len(n._processes) for n in rt.dc.all_nodes) == n_processes  # no listener
    env.run(until=0.1)
    assert scheme.seen == [(rt.haus["agg"], ("ping", 1))]
    chan = rt.control_down["agg"]
    rt.send_control("agg", ("ping", 2))
    assert rt.control_down["agg"] is chan  # get-or-create
    env.run(until=0.2)
    assert [m for _, m in scheme.seen] == [("ping", 1), ("ping", 2)]


def test_dead_endpoints_drop_without_building_a_channel():
    env, rt, scheme = deploy()
    n_channels = len(list(rt.dc.channels()))
    rt.haus["mid"].node.fail("test")
    rt.send_control("mid", ("ping", 1))
    rt.send_control("nope", ("ping", 1))  # unknown id: dropped, as before
    assert not rt.control_down

    rt.dc.storage_node.fail("test")
    rt.broadcast_control(("ping", 2))
    assert not rt.control_down
    assert len(list(rt.dc.channels())) == n_channels
    env.run(until=0.1)
    assert scheme.seen == []


def test_a_link_whose_hau_node_died_stays_closed_until_rebuilt():
    env, rt, scheme = deploy()
    rt.send_control("mid", ("ping", 1))
    env.run(until=0.1)
    old_hau, old_chan = rt.haus["mid"], rt.control_down["mid"]
    old_hau.node.fail("test")
    rt.send_control("mid", ("ping", 2))  # closed link: dropped, not rebound
    assert rt.control_down["mid"] is old_chan and old_chan.closed
    assert old_chan._consumer is None  # the close let go of the old HAU

    new_hau, _ = rt.rebuild_single_hau("mid", rt.dc.claim_spare(), restored=None)
    assert "mid" not in rt.control_down

    rt.send_control("mid", ("ping", 3))
    env.run(until=0.3)
    assert scheme.seen == [(old_hau, ("ping", 1)), (new_hau, ("ping", 3))]
    assert rt.control_down["mid"].dst is new_hau.node
    assert list(rt.control_down) == ["mid"]  # one link, not one per rebuild


def test_rebuild_on_a_live_node_closes_the_replaced_link():
    """The replaced HAU's link was overwritten unclosed and its consumer
    kept for the life of the runtime."""
    env, rt, scheme = deploy()
    rt.send_control("mid", ("ping", 1))
    env.run(until=0.1)
    old_chan = rt.control_down["mid"]
    new_hau, _ = rt.rebuild_single_hau("mid", rt.dc.claim_spare(), restored=None)
    assert old_chan.closed and old_chan._consumer is None
    rt.send_control("mid", ("ping", 2))
    env.run(until=0.3)
    assert scheme.seen[-1] == (new_hau, ("ping", 2))


def test_teardown_drops_commands_until_rewire_then_rebinds_to_the_new_haus():
    env, rt, scheme = deploy()
    rt.broadcast_control(("ping", 1))
    env.run(until=0.1)
    old = dict(rt.haus)
    links = list(rt.control_down.values())
    assert len(scheme.seen) == len(old)

    rt.teardown_application()
    assert not rt.control_down
    assert all(chan.closed and chan._consumer is None for chan in links)
    # rolled back but not yet rewired: nobody is listening, nothing is built
    rt.broadcast_control(("ping", 2))
    assert not rt.control_down
    env.run(until=0.2)
    assert len(scheme.seen) == len(old)

    rt.rewire(dict(rt.placement), restored={})
    assert not rt.control_down  # rewire itself builds no control plane
    rt.broadcast_control(("ping", 3))
    env.run(until=0.3)
    delivered = scheme.seen[len(old):]
    assert [(h.hau_id, m) for h, m in delivered] == [
        (hau_id, ("ping", 3)) for hau_id in sorted(rt.haus)
    ]
    assert all(h is rt.haus[h.hau_id] and h is not old[h.hau_id] for h, _ in delivered)


def test_ctx_rng_is_the_named_stream_resolved_on_first_read():
    _, rt, _ = deploy(seed=11)
    hau = rt.haus["agg"]
    assert not rt.rngs._streams  # nothing drawn, nothing derived
    ctx = hau.operators[0].ctx
    want = RngRegistry(11).stream("hau:agg")
    assert [ctx.rng.random() for _ in range(5)] == [want.random() for _ in range(5)]
    assert list(rt.rngs._streams) == ["hau:agg"]
    assert hau.rng is ctx.rng  # one memoised generator, whoever asks
    assert hau.rng.integers(1 << 30) == want.integers(1 << 30)


#: sha256(trace JSONL) and run-bundle id of the canonical recovery cell
#: (tmi/ms-src+ap@2, failure at 35 s: teardown, rewire, re-bound control
#: links), recorded at the last commit with the eager control star.
#: The bundle id was re-pinned once, when histograms became exact: of the
#: bundle's files only ``telemetry.json`` changed, and in it only the
#: p50/p95/p99 values (38431359bde1e346... with the P² estimates).
#: The trace hash was re-pinned once, when ``MetricsHub.record_event``
#: went: the same events minus the two ``metrics.recovery-*`` rows that
#: repeated ``recovery.start`` / ``recovery.done`` (cf5f4dfe6585bc16...
#: with them; ``seq`` renumbered).  Both were re-pinned with every pinned
#: digest when a source's inter-arrival wait became one park with a
#: deadline, so it checkpoints at its command's instant (5e9aa1df53e82e41...
#: and 0918a4bacc213fe5... before).
EAGER_STAR_TRACE_SHA256 = "b55453e0a2ac304b86de373a868d889d678cc4bfffc4da91a6c4ddf678477a1c"
EAGER_STAR_BUNDLE_ID = "c6d51dc108334b97dab3bcc70a721aa8211012b7351bfcfb26212422a80918b9"


def test_recovery_cell_trace_and_bundle_byte_identical_to_the_eager_star():
    if not on_recorded_build():
        pytest.skip("pins recorded under a different python/numpy build")
    cfg, kwargs = canonical_cases()["tmi/ms-src+ap@2+failure"]
    res = run_experiment(cfg, trace=True, telemetry=True, **kwargs)
    assert res.scheme.recoveries  # the cell did go through teardown + rewire
    trace = res.trace_jsonl().encode("utf-8")
    assert hashlib.sha256(trace).hexdigest() == EAGER_STAR_TRACE_SHA256
    assert res.run_bundle()["manifest"]["bundle_id"] == EAGER_STAR_BUNDLE_ID
