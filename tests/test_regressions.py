"""Regression tests pinning bugs found (and fixed) during development.

Each test encodes the failure mode so it can never silently return.
"""


from repro.cluster import ClusterSpec
from repro.core import MSSrcAP
from repro.dsps import DSPSRuntime, RuntimeConfig, StreamApplication
from repro.dsps.testing import make_chain_graph
from repro.simulation import Environment
from repro.storage.shared import SharedStorage, StorageClient


def test_storage_versions_never_recycled_after_gc():
    """Bug: version = len(versions) recycled numbers after GC, so a
    recovery could read a stale checkpoint under a reused version id."""
    from repro.cluster import DataCenter

    env = Environment()
    dc = DataCenter(env, ClusterSpec(workers=1, spares=0, racks=1))
    storage = SharedStorage(env, dc.storage_node)
    client = StorageClient(dc.workers[0], storage)

    def proc():
        v0 = yield from client.write("ns", "k", "a", size=10)
        v1 = yield from client.write("ns", "k", "b", size=10)
        storage.drop_versions_before("ns", "k", v1)
        v2 = yield from client.write("ns", "k", "c", size=10)
        assert v2 > v1 > v0
        assert storage.lookup("ns", "k", v2).value == "c"

    p = env.process(proc())
    env.run(until=p)


def test_timeout_is_not_resumed_early():
    """Bug: a settled-but-unfired Timeout resumed its waiter immediately,
    spinning zero-delay loops forever."""
    env = Environment()
    trace = []

    def proc():
        for _ in range(3):
            yield env.timeout(1.0)
            trace.append(env.now)

    env.process(proc())
    env.run(until=10.0)
    assert trace == [1.0, 2.0, 3.0]


def test_sources_resend_saved_inflight_outputs_after_recovery():
    """Bug: only _main_loop re-sent out_tuples; source HAUs dropped their
    saved in-flight copies, losing tuples after an ap recovery."""

    def run(fail):
        g, holder = make_chain_graph(source_count=60, interval=0.02, window=5, tuple_size=200_000)
        env = Environment()
        scheme = MSSrcAP(checkpoint_times=[0.5], enable_recovery=fail)
        rt = DSPSRuntime(
            env,
            StreamApplication(name="t", graph=g),
            scheme,
            RuntimeConfig(seed=3, cluster=ClusterSpec(workers=4, spares=6, racks=2)),
        )
        rt.start()
        if fail:

            def killer():
                # strike moments after the round starts, while the source's
                # out-copies are the only record of its post-token tuples
                yield env.timeout(0.55)
                rt.haus["src"].node.fail("regression")

            env.process(killer())
        env.run(until=25.0)
        return holder["sink"].payload_log

    assert run(True) == run(False)


def test_idle_hau_still_reaches_safepoints():
    """Bug: an idle HAU blocked on inbox.get() never ran maybe_checkpoint,
    starving baseline periodic checkpoints and queued replay jobs."""
    from repro.core import BaselineScheme

    g, _holder = make_chain_graph(source_count=5, interval=0.05)
    env = Environment()
    scheme = BaselineScheme(checkpoint_period=1.0)
    rt = DSPSRuntime(
        env,
        StreamApplication(name="t", graph=g),
        scheme,
        RuntimeConfig(seed=3, cluster=ClusterSpec(workers=4, spares=1, racks=1)),
    )
    rt.start()
    env.run(until=10.0)  # stream dries up at t=0.25
    # every HAU kept checkpointing long after the stream went idle
    from collections import Counter

    counts = Counter(
        bd.hau_id for log in scheme.record.logs.values() for bd in log.haus.values() if bd.complete
    )
    assert all(counts[h] >= 5 for h in ("src", "agg", "mid", "sink")), counts


def test_round_state_does_not_leak_across_recovery():
    """Bug: RoundStates of a round in flight at the failure instant leaked
    into the restarted application and triggered spurious checkpoints."""
    g, _ = make_chain_graph(source_count=100, interval=0.05, tuple_size=300_000)
    env = Environment()
    scheme = MSSrcAP(checkpoint_times=[1.0, 2.0], enable_recovery=True)
    rt = DSPSRuntime(
        env,
        StreamApplication(name="t", graph=g),
        scheme,
        RuntimeConfig(seed=3, cluster=ClusterSpec(workers=4, spares=6, racks=2)),
    )
    rt.start()

    def killer():
        yield env.timeout(2.05)  # round 2 is mid-flight
        rt.haus["agg"].node.fail("regression")

    env.process(killer())
    env.run(until=30.0)
    assert scheme.recoveries
    # no un-snapshotted round state survives the rollback
    logs = scheme.record.logs

    def committed(hau_id, round_id):
        bd = logs[round_id].haus.get(hau_id)
        return bd is not None and bd.complete

    stale = [st for (hau_id, rid), st in scheme.rounds.items() if not committed(hau_id, rid)]
    assert all(st.snapshot_done or st.round_id > 2 for st in stale) or not stale


def test_src_imports_exactly_the_declared_dependencies():
    """Bug: ``scenarios/loader.py`` imported ``yaml`` at module top but
    ``pyproject.toml`` never declared it (``pip install -e .`` only
    worked where something else had dragged PyYAML in), while ``scipy``
    was declared and imported by nothing."""
    import ast
    import re
    import sys
    from pathlib import Path

    import pytest

    tomllib = pytest.importorskip("tomllib")  # python >= 3.11
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.split(r"[^A-Za-z0-9_.-]", dep, maxsplit=1)[0].lower() for dep in project["dependencies"]}

    imported = set()
    for path in sorted((root / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    distribution = {"yaml": "pyyaml"}  # import name -> what pip calls it
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    assert {distribution.get(name, name) for name in third_party} == declared
