"""Global-rollback recovery for Meteor Shower (§III-A, §IV-C).

When any failure is detected, *all* HAUs are restored to the Most Recent
(complete) application Checkpoint: HAUs on dead nodes restart on healthy
spares; every HAU reloads its operators (phase 1), reads its individual
checkpoint from shared storage (phase 2 — the dominant disk I/O),
deserialises (phase 3), and the controller reconnects the recovered HAUs
(phase 4).  Source HAUs then replay the preserved tuples and the
application catches up.
"""

from __future__ import annotations


from repro.core.costs import CostModel
from repro.dsps.runtime import CKPT_NS
from repro.simulation.core import AllOf, Interrupt
from repro.storage.shared import StorageClient


def failure_watcher(scheme):
    """The controller's failure detector, one for every scheme: ping the
    HAUs' nodes every ``costs.ping_interval``; when some are dead, report
    ``failure.detected`` and run ``scheme.recover(dead)`` to its end.

    The ping is the only detector: the paper's upstream neighbours also
    notice a broken channel, which is not modelled.
    """
    env = scheme.runtime.env
    try:
        while True:
            yield env.timeout(scheme.costs.ping_interval)
            dead = sorted(h for h, hau in scheme.runtime.haus.items() if not hau.node.alive)
            if dead:
                scheme.transition("failure.detected", scheme.name, dead=",".join(dead))
                yield from scheme.recover(dead)
    except Interrupt:
        return


class GlobalRecovery:
    """Controller-side orchestration of a whole-application restart."""

    def __init__(self, scheme, runtime, costs: CostModel):
        self.scheme = scheme
        self.runtime = runtime
        self.costs = costs

    def run(self, dead_haus: list[str]):
        """Process generator driving the four phases; returns the breakdown."""
        rt = self.runtime
        env = rt.env
        scheme = self.scheme
        cut = scheme.last_complete_round()
        record = scheme.transition(
            "recovery.start", scheme.name,
            dead=",".join(sorted(dead_haus)), cut_round=cut[0] if cut is not None else 0,
        )

        # Quiesce what is left of the application: everything rolls back.
        rt.teardown_application()
        scheme.on_recovery_reset()

        # Assign nodes: keep the old node when alive; dead nodes are
        # replaced by claimed spares, preserving the original packing
        # density (a spare takes over a whole dead node's HAUs, round-robin
        # if fewer spares than dead nodes remain).
        dead_nodes = sorted(
            {n.node_id: n for n in rt.placement.values() if not n.alive}.values(),
            key=lambda n: n.node_id,
        )
        replacements = []
        for _ in dead_nodes:
            if rt.dc.spares_available() > 0:
                replacements.append(rt.dc.claim_spare())
            else:
                break
        if dead_nodes and not replacements:
            raise RuntimeError("recovery impossible: no healthy spare nodes")
        node_map = {
            dead.node_id: replacements[i % len(replacements)]
            for i, dead in enumerate(dead_nodes)
        }
        assignments = {}
        for hau_id, old_node in rt.placement.items():
            assignments[hau_id] = (
                old_node if old_node.alive else node_map[old_node.node_id]
            )

        # Phases 1-3 in parallel across HAUs (each on its recovery node).
        restored: dict[str, dict] = {}

        def recover_one(hau_id: str):
            node = assignments[hau_id]
            t0 = env.now
            scheme.transition("recovery.hau.start", hau_id, node=node.node_id)
            yield env.timeout(self.costs.reload_seconds)  # phase 1: reload
            t1 = env.now
            payload = None
            read_bytes = 0
            if cut is not None and hau_id in cut[1]:
                client = StorageClient(node, rt.storage)
                versions = scheme.recovery_read_plan(
                    hau_id, cut_round=cut[0], cut_version=cut[1][hau_id]
                )
                for version in versions:
                    obj = yield from client.read(
                        CKPT_NS, hau_id, version=version, bulk=True
                    )
                    # every stored object carries the full payload (only the
                    # billed bytes differ under delta-checkpointing), so the
                    # last read yields the reconstructed state
                    payload = obj.value
                    read_bytes += obj.size
            t2 = env.now
            if read_bytes:
                yield env.timeout(self.costs.deserialize_time(read_bytes))  # phase 3
            t3 = env.now
            restored[hau_id] = payload
            scheme.transition(
                "recovery.hau", hau_id, node=node.node_id,
                reload=t1 - t0, disk_io=t2 - t1, deserialize=t3 - t2, bytes=read_bytes,
            )

        procs = [
            env.process(recover_one(hau_id), label=f"recover:{hau_id}")
            for hau_id in sorted(rt.app.graph.haus)
        ]
        yield AllOf(env, procs)

        # Rebuild runtimes and channels from the restored payloads.
        rt.rewire(assignments, restored)

        # Phase 4: the controller reconnects the recovered HAUs.
        reconnect_start = env.now
        for _hau_id in sorted(rt.app.graph.haus):
            yield env.timeout(self.costs.reconnect_per_hau)
        # Recovery time is the sum of the four phases (§IV-C) and ends
        # here; the source replay and catch-up that follow are not part of
        # it ("since this procedure is the same with previous schemes, we
        # do not further evaluate it").
        scheme.transition(
            "recovery.reconnect", scheme.name,
            seconds=env.now - reconnect_start, haus=len(rt.app.graph.haus),
        )

        # Source replay: read the preserved tuples (billed to storage) and
        # queue them for full-speed re-emission.
        for src in rt.app.graph.sources():
            payload = restored.get(src)
            after_seq = 0
            if payload is not None:
                snaps = payload.get("operators", [])
                if snaps:
                    after_seq = int(snaps[0].get("emitted_count", 0))
            tuples = scheme.preserver.replay_tuples(src, after_seq)
            if tuples:
                node = assignments[src]
                replay_bytes = sum(t.size for t in tuples)
                scheme.transition(
                    "recovery.replay", src, node=node.node_id,
                    count=len(tuples), bytes=replay_bytes, after_seq=after_seq,
                )
                yield from rt.storage.node.disk.transfer(replay_bytes)
                yield from rt.storage.node.nic_out.transfer(replay_bytes)
                rt.haus[src].set_replay_source(tuples)

        rt.restart_haus()
        # The phase seconds of a recovery are its slowest HAU's.
        rows = record.haus.values()
        scheme.transition(
            "recovery.done", scheme.name,
            total=record.total,
            reload=max(r.reload_seconds for r in rows),
            disk_io=max(r.disk_io_seconds for r in rows),
            deserialize=max(r.deserialize_seconds for r in rows),
            reconnect=record.reconnect_seconds,
            bytes=sum(r.bytes_read for r in rows),
            haus=len(rt.app.graph.haus),
        )
        return record
