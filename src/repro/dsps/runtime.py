"""DSPS runtime: placement, wiring and lifecycle of a stream application.

Builds the simulated deployment the paper evaluates: one HAU per worker
node (more HAUs per node if the cluster is smaller than the graph), data
channels along every query-network edge, and the shared storage service.
The control plane — one channel from the controller (on the storage
node) to a HAU, plus the listener that feeds ``on_control`` — is bound
the first time the controller sends that HAU a command, so a scheme that
never commands a HAU never pays for its link.  Also provides the
re-wiring primitive the recovery manager uses to restart HAUs on spare
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cluster.channel import Channel, ChannelClosedError
from repro.cluster.node import Node
from repro.cluster.topology import ClusterSpec, DataCenter
from repro.dsps.application import StreamApplication
from repro.dsps.graph import EdgeSpec
from repro.dsps.hau import DEFAULT_INBOX_CAPACITY, HAURuntime, SchemeHooks
from repro.metrics.breakdown import RunRecord
from repro.metrics.collectors import MetricsHub
from repro.simulation.core import Environment, Interrupt, Process, paused_gc
from repro.simulation.rng import RngRegistry
from repro.storage.shared import SharedStorage, StorageClient

CONTROL_MSG_SIZE = 512
CKPT_NS = "ckpt"  # storage namespace of individual checkpoints
DEFAULT_CHANNEL_CAPACITY = 64


@dataclass
class RuntimeConfig:
    """Knobs of a simulated deployment."""

    seed: int = 0
    cluster: ClusterSpec | None = None
    channel_capacity: int = DEFAULT_CHANNEL_CAPACITY
    inbox_capacity: int = DEFAULT_INBOX_CAPACITY


class CheckpointScheme(SchemeHooks):
    """Application-level scheme base: HAU hooks + lifecycle."""

    name = "none"

    def __init__(self):
        self.runtime: "DSPSRuntime" | None = None
        self.record = RunRecord()

    def attach(self, runtime: "DSPSRuntime") -> None:
        self.runtime = runtime
        self.record.expected_haus = tuple(sorted(runtime.app.graph.haus))
        self.record.telemetry = runtime.env.telemetry

    def start(self) -> None:
        """Spawn controller-side processes; called after HAUs start."""

    def transition(self, kind: str, subject: str, **data: Any):
        """Report one checkpoint/recovery transition, once: stamp the run
        record (which counts it when telemetry is on) and emit the trace
        event when tracing.  Returns the record entry the kind touched."""
        env = self.runtime.env
        if env.trace.enabled:
            # the kind is a literal at every transition() site, checked there
            env.trace.emit(kind, t=env.now, subject=subject, **data)  # repro-lint: disable=VOC001
        return self.record.apply(kind, env.now, subject, data)

    def write_checkpoint(self, hau: HAURuntime, payload: dict, billed_size: int | None = None):
        """Process generator: ship the individual checkpoint to storage;
        returns its version.

        ``billed_size`` overrides the bytes actually moved (delta-
        checkpointing ships only the change; the stored value remains the
        full payload so restores stay exact — see repro.core.delta).
        """
        size = billed_size if billed_size is not None else payload["state_size"]
        round_id = payload["round_id"]
        self.transition("checkpoint.write.start", hau.hau_id, round=round_id, bytes=size)
        client = StorageClient(hau.node, self.runtime.storage)
        version = yield from client.write(
            CKPT_NS, hau.hau_id, payload, size=max(size, 1), bulk=True
        )
        self.transition(
            "checkpoint.commit", hau.hau_id,
            round=round_id, bytes=size, version=version, scheme=self.name,
        )
        return version


class DSPSRuntime:
    """One application deployed on one simulated cluster."""

    def __init__(
        self,
        env: Environment,
        app: StreamApplication,
        scheme: CheckpointScheme,
        config: RuntimeConfig | None = None,
    ):
        self.env = env
        self.app = app
        self.scheme = scheme
        self.config = config or RuntimeConfig()
        self.rngs = RngRegistry(self.config.seed)
        self.dc = DataCenter(env, self.config.cluster)
        self.storage = SharedStorage(env, self.dc.storage_node)
        self.metrics = MetricsHub()
        self.metrics.sinks = frozenset(app.graph.sinks())

        self.placement: dict[str, Node] = {}
        self.haus: dict[str, HAURuntime] = {}
        self.data_channels: dict[str, Channel] = {}  # edge_id -> channel
        # Controller -> HAU links and their listeners, keyed by hau_id and
        # bound by the first send_control to that HAU.
        self.control_down: dict[str, Channel] = {}
        self._control_procs: dict[str, Process] = {}
        self._built = False
        scheme.attach(self)

    # -- construction -----------------------------------------------------------
    @paused_gc()
    def build(self) -> None:
        """Place HAUs and create all runtimes and channels (no processes yet)."""
        if self._built:
            raise RuntimeError("runtime already built")
        graph = self.app.graph
        order = sorted(graph.haus)
        workers = self.dc.workers
        for i, hau_id in enumerate(order):
            self.placement[hau_id] = workers[i % len(workers)]
        for hau_id in order:
            self._make_hau(hau_id, self.placement[hau_id], restored=None)
        self._wire_data_channels()
        self._built = True

    def _make_hau(self, hau_id: str, node: Node, restored: dict | None) -> HAURuntime:
        graph = self.app.graph
        hau = HAURuntime(
            env=self.env,
            spec=graph.haus[hau_id],
            node=node,
            in_edges=graph.in_edges(hau_id),
            out_edges=graph.out_edges(hau_id),
            scheme=self.scheme,
            rngs=self.rngs,
            metrics=self.metrics,
            inbox_capacity=self.config.inbox_capacity,
            restored=restored,
        )
        self.haus[hau_id] = hau
        return hau

    def _wire_data_channels(self) -> None:
        graph = self.app.graph
        for edge in graph.edges:
            src_hau = self.haus[edge.src]
            dst_hau = self.haus[edge.dst]
            chan = self.dc.connect(
                src_hau.node,
                dst_hau.node,
                name=edge.edge_id,
                capacity=self.config.channel_capacity,
            )
            self.data_channels[edge.edge_id] = chan
            src_hau.attach_out_channel(edge, chan)
            dst_hau.attach_in_channel(graph.in_edge_index(edge), chan)

    def _bind_control(self, hau_id: str) -> Channel | None:
        """Create the controller -> HAU link and its listener.

        None when there is nobody to deliver to — unknown id, HAU torn
        down for a rollback, or either end's node dead — so the message
        is dropped exactly as a closed channel drops it, and no channel
        is built towards a dead endpoint.
        """
        hau = self.haus.get(hau_id)
        controller = self.dc.storage_node
        if hau is None or hau.torn_down or not (hau.node.alive and controller.alive):
            return None
        chan = self.dc.connect(controller, hau.node, name=f"ctl->{hau_id}")
        self.control_down[hau_id] = chan
        self._control_procs[hau_id] = hau.node.spawn(
            self._control_listener(hau, chan), label=f"{hau_id}.ctl"
        )
        return chan

    def _unbind_control(self, hau_id: str) -> None:
        """Close and forget a HAU's control link, so the next command
        binds a listener to whichever ``HAURuntime`` then holds the id."""
        chan = self.control_down.pop(hau_id, None)
        if chan is None:
            return
        chan.close()
        listener = self._control_procs.pop(hau_id)
        if listener.is_alive:
            listener.interrupt("teardown")

    def _control_listener(self, hau: HAURuntime, chan: Channel):
        try:
            while True:
                try:
                    msg = yield chan.recv()
                except ChannelClosedError:
                    return
                yield from self.scheme.on_control(hau, msg.payload)
        except Interrupt:
            return

    # -- lifecycle -----------------------------------------------------------------
    @paused_gc()
    def start(self) -> None:
        if not self._built:
            self.build()
        for hau_id in sorted(self.haus):
            self.haus[hau_id].start()
        self.scheme.start()

    def run(self, until: float) -> None:
        self.env.run(until=until)

    # -- services ---------------------------------------------------------------------
    def storage_client(self, node: Node) -> StorageClient:
        return StorageClient(node, self.storage)

    def send_control(self, hau_id: str, message: Any) -> None:
        """Controller -> HAU, fire and forget."""
        chan = self.control_down.get(hau_id) or self._bind_control(hau_id)
        if chan is not None and not chan.closed:
            if self.env.trace.enabled:
                tag = message[0] if isinstance(message, tuple) and message else str(message)
                self.env.trace.emit(
                    "control.send", t=self.env.now, subject=hau_id, message=str(tag)
                )
            if self.env.telemetry.enabled:
                self.env.telemetry.counter(
                    "ms_control_messages_total", direction="down"
                ).inc()
            chan.send(message, size=CONTROL_MSG_SIZE)

    def broadcast_control(self, message: Any) -> None:
        for hau_id in sorted(self.haus):
            self.send_control(hau_id, message)

    # -- recovery support ----------------------------------------------------------------
    def teardown_application(self) -> None:
        """Stop every HAU process and close every data channel (rollback)."""
        for hau in self.haus.values():
            hau.kill_local_processes()
        for chan in self.data_channels.values():
            chan.close()
        for hau_id in list(self.control_down):
            self._unbind_control(hau_id)

    def rewire(
        self,
        assignments: dict[str, Node],
        restored: dict[str, dict | None],
    ) -> None:
        """Recreate every HAU runtime (possibly on new nodes) from snapshots.

        Called by the recovery manager after :meth:`teardown_application`.
        Does not start the HAU processes — the caller sequences the
        recovery phases and then calls :meth:`restart_haus`.
        """
        self.placement = dict(assignments)
        self.haus = {}
        self.data_channels = {}
        for hau_id in list(self.control_down):
            self._unbind_control(hau_id)
        for hau_id in sorted(self.app.graph.haus):
            self._make_hau(hau_id, assignments[hau_id], restored.get(hau_id))
        self._wire_data_channels()

    def restart_haus(self) -> None:
        for hau_id in sorted(self.haus):
            self.haus[hau_id].start()

    def rebuild_single_hau(
        self,
        hau_id: str,
        node: Node,
        restored: dict | None,
        attach_upstream: bool = True,
    ) -> tuple[HAURuntime, list[tuple[EdgeSpec, Channel]]]:
        """Recreate one HAU on ``node`` and re-wire just its channels.

        Used by 1-safe (baseline) recovery: neighbours keep running; the
        upstream sides get replacement out-channels, the downstream sides
        get replacement in-channels.  The caller
        starts the HAU when its recovery phases are done.

        With ``attach_upstream=False`` the new inbound channels are *not*
        yet attached to the upstream neighbours; they are returned so the
        caller can first replay retained tuples into them (guaranteeing
        replayed-before-new FIFO order) and attach afterwards.
        """
        graph = self.app.graph
        self.placement[hau_id] = node
        hau = self._make_hau(hau_id, node, restored)
        deferred: list[tuple[EdgeSpec, Channel]] = []
        for edge_idx, edge in enumerate(hau.in_edges):
            src_hau = self.haus[edge.src]
            chan = self.dc.connect(
                src_hau.node,
                node,
                name=edge.edge_id,
                capacity=self.config.channel_capacity,
            )
            self.data_channels[edge.edge_id] = chan
            if attach_upstream:
                src_hau.attach_out_channel(edge, chan)
            else:
                deferred.append((edge, chan))
            hau.attach_in_channel(edge_idx, chan)
        for edge in hau.out_edges:
            dst_hau = self.haus[edge.dst]
            if not dst_hau.node.alive:
                # The downstream neighbour is itself dead; its own recovery
                # (or its unrecoverability) will deal with this edge.
                continue
            chan = self.dc.connect(
                node,
                dst_hau.node,
                name=edge.edge_id,
                capacity=self.config.channel_capacity,
            )
            self.data_channels[edge.edge_id] = chan
            hau.attach_out_channel(edge, chan)
            dst_hau.replace_in_channel(graph.in_edge_index(edge), chan)
        self._unbind_control(hau_id)
        return hau, deferred

    # -- introspection -----------------------------------------------------------------
    def alive_haus(self) -> list[str]:
        return sorted(h for h, hau in self.haus.items() if hau.node.alive)

    def total_state_bytes(self) -> int:
        return sum(h.state_size() for h in self.haus.values())
