"""DSPS runtime: placement, wiring and lifecycle of a stream application.

Builds the simulated deployment the paper evaluates: one HAU per worker
node (more HAUs per node if the cluster is smaller than the graph), data
channels along every query-network edge, and the shared storage service.
The control plane — one channel from the controller (on the storage
node) to a HAU, consumed like a data edge: its delivery calls
``on_control``, and no process listens — is bound the first time the
controller sends that HAU a command, so a scheme that never commands a
HAU never pays for its link.  Also provides the
re-wiring primitive the recovery manager uses to restart HAUs on spare
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
import inspect
from typing import Any

from repro.cluster.channel import Channel
from repro.cluster.node import Node
from repro.cluster.topology import ClusterSpec, DataCenter
from repro.dsps.application import StreamApplication
from repro.dsps.graph import EdgeSpec
from repro.dsps.hau import HAURuntime
from repro.dsps.tuples import DataTuple, Token
from repro.metrics.breakdown import RecoveryBreakdown, RunRecord
from repro.metrics.collectors import MetricsHub
from repro.simulation.core import Environment, paused_gc
from repro.simulation.rng import RngRegistry
from repro.storage.shared import SharedStorage, StorageClient
from repro.vocabulary import SCHEME_HOOKS

CONTROL_MSG_SIZE = 512
CKPT_NS = "ckpt"  # storage namespace of individual checkpoints


@dataclass
class RuntimeConfig:
    """Knobs of a simulated deployment."""

    seed: int = 0
    cluster: ClusterSpec | None = None
    # Modest buffers: enough to keep the pipeline busy, small enough that
    # in-band token collection (queue drain at the saturated stage) stays
    # well inside a checkpoint period.
    channel_capacity: int = 16
    inbox_capacity: int = 32


class CheckpointScheme:
    """The checkpoint-scheme protocol — and, with every hook left at its
    no-op, the ``none`` scheme.

    A scheme is this class, an entry in :data:`repro.core.SCHEMES` (its
    ``name``), a :meth:`from_config` when it derives parameters from the
    experiment config, and the hooks it overrides.  Each hook's kind is
    :data:`repro.vocabulary.SCHEME_HOOKS`: generator hooks are driven with
    ``yield from`` inside the HAU or controller process, so they can spend
    simulated time; plain hooks are plain calls.  The three per-tuple
    (``work``) hooks return the generator to drive, or None when there is
    nothing to do, so a tuple boundary with nothing to do allocates
    nothing.  A generator function satisfies that too.  Every subclass
    body is checked against the kinds when the class is created.
    """

    name = "none"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for hook, member in vars(cls).items():
            kind = SCHEME_HOOKS.get(hook, ("",))[0]
            if kind == "classmethod":
                ok, need = isinstance(member, classmethod), "must be a classmethod"
            elif kind in ("generator", "plain"):
                ok = inspect.isgeneratorfunction(member) == (kind == "generator")
                need = (
                    "must be a generator function (it is driven with `yield from`)"
                    if kind == "generator"
                    else "must not be a generator function (a plain call never runs its body)"
                )
            else:
                continue
            if not ok:
                raise TypeError(f"{cls.__name__}.{hook} is a {kind} hook: it {need}")

    def __init__(self):
        self.runtime: "DSPSRuntime" | None = None
        self.record = RunRecord()

    @classmethod
    def from_config(cls, cfg) -> CheckpointScheme:
        """The scheme an experiment config asks for (``cfg`` is a
        :class:`repro.harness.experiment.ExperimentConfig`)."""
        return cls()

    def attach(self, runtime: "DSPSRuntime") -> None:
        self.runtime = runtime
        self.record.expected_haus = tuple(sorted(runtime.app.graph.haus))

    def start(self) -> None:
        """Spawn controller-side processes; called after HAUs start."""

    def transition(self, kind: str, subject: str, **data: Any):
        """Report one checkpoint/recovery transition, once: stamp the run
        record and emit the trace event when tracing.  Returns the record
        entry the kind touched."""
        env = self.runtime.env
        if env.trace.enabled:
            # the kind is a literal at every transition() site, checked there
            env.trace.emit(kind, t=env.now, subject=subject, **data)  # repro-lint: disable=VOC001
        return self.record.apply(kind, env.now, subject, data)

    def write_checkpoint(self, hau: HAURuntime, payload: dict, billed_size: int | None = None):
        """Process generator: serialise the individual checkpoint (billed
        to the HAU's breakdown in the record) and ship it to storage;
        returns its version.  A scheme that writes checkpoints has
        ``costs`` (a :class:`repro.core.costs.CostModel`).

        ``billed_size`` overrides the bytes actually moved (delta-
        checkpointing ships only the change; the stored value remains the
        full payload so restores stay exact — see repro.core.delta).
        """
        size = billed_size if billed_size is not None else payload["state_size"]
        round_id = payload["round_id"]
        ser = self.costs.serialize_time(size)
        self.record.logs[round_id].haus[hau.hau_id].serialize_seconds = ser
        if ser > 0:
            yield self.runtime.env.timeout(ser)
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

    @property
    def recoveries(self) -> list[RecoveryBreakdown]:
        """The global rollbacks that ran to their end (one cut short is
        only in ``self.record.recoveries``)."""
        return [rec for rec in self.record.recoveries if rec.complete]

    # -- hooks driven by the HAU loop and the controller -----------------------
    def on_source_emit(self, hau: HAURuntime, tup: DataTuple):
        """Before a source sends ``tup`` (source preservation). Work or None."""
        return None

    def on_emit(self, hau: HAURuntime, edge: EdgeSpec, tup: DataTuple):
        """Before ``tup`` is sent on ``edge`` (input preservation). Work or None."""
        return None

    def active_hook(self, name: str):
        """The bound hook ``name``, or None when it is this class's no-op —
        the HAU then skips calling it on every emission (``on_emit``),
        source tuple (``on_source_emit``), safe-point
        (``maybe_checkpoint``) or processed tuple
        (``processing_overhead``)."""
        hook = getattr(self, name)
        base = getattr(CheckpointScheme, name)
        return None if getattr(hook, "__func__", None) is base else hook

    def on_token_arrival(self, hau: HAURuntime, edge_idx: int, token: Token) -> None:
        """Intake-level notification: a token reached the head of its edge
        (it enters the inbox now, or as soon as a slot frees)."""

    def handle_token(self, hau: HAURuntime, edge_idx: int, token: Token):
        """Main-loop token processing. Generator."""
        return
        yield  # pragma: no cover

    def processing_overhead(self, hau: HAURuntime) -> float:
        """Multiplicative CPU tax (e.g. copy-on-write during async ckpt)."""
        return 0.0

    def maybe_checkpoint(self, hau: HAURuntime):
        """Safe-point hook, called at every tuple boundary of the main and
        source loops.  Schemes take snapshots here so that no tuple is ever
        half-processed (state mutated, emissions unsent) inside a
        checkpoint. Work or None."""
        return None

    def on_control(self, hau: HAURuntime, message: Any) -> None:
        """A control-plane message arrived from the controller; called
        inside its delivery."""

    def recover(self, dead: list[str]):
        """Recover from the failure of the HAUs ``dead`` (sorted), once the
        failure watcher (:func:`repro.core.recovery.failure_watcher`) has
        reported it. Generator."""
        return
        yield  # pragma: no cover


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
        self.storage = SharedStorage(env, self.dc.storage_node, self.dc.spec.latency)
        self.metrics = MetricsHub()

        self.placement: dict[str, Node] = {}
        self.haus: dict[str, HAURuntime] = {}
        self.data_channels: dict[str, Channel] = {}  # edge_id -> channel
        # Controller -> HAU links, keyed by hau_id and bound by the first
        # send_control to that HAU.
        self.control_down: dict[str, Channel] = {}
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

    def _make_hau(
        self, hau_id: str, node: Node, restored: dict | None, prev: HAURuntime | None = None
    ) -> HAURuntime:
        """Create ``hau_id``'s runtime; a rebuild continues ``prev``'s
        (the incarnation it replaces) running busy total."""
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
        if prev is not None:
            hau.busy_total = prev.busy_total
        self.haus[hau_id] = hau
        return hau

    def _connect_edge(self, edge: EdgeSpec, src: Node, dst: Node) -> Channel:
        """Create ``edge``'s data channel at the configured capacity."""
        chan = self.dc.connect(src, dst, name=edge.edge_id, capacity=self.config.channel_capacity)
        self.data_channels[edge.edge_id] = chan
        return chan

    def _wire_data_channels(self) -> None:
        graph = self.app.graph
        for edge in graph.edges:
            src_hau = self.haus[edge.src]
            dst_hau = self.haus[edge.dst]
            chan = self._connect_edge(edge, src_hau.node, dst_hau.node)
            src_hau.attach_out_channel(edge, chan)
            dst_hau.attach_in_channel(graph.in_edge_index(edge), chan)

    def _bind_control(self, hau_id: str) -> Channel | None:
        """Create the controller -> HAU link and bind its consumer.

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
        chan.bind(self._take_control, (hau, chan))
        return chan

    def _take_control(self, link: tuple[HAURuntime, Channel]) -> None:
        """Hand every command the link has delivered to ``on_control``."""
        hau, chan = link
        while (message := chan.take()) is not None:
            self.scheme.on_control(hau, message)

    def _unbind_control(self, hau_id: str) -> None:
        """Close and forget a HAU's control link (closing releases its
        consumer), so the next command binds one to whichever
        ``HAURuntime`` then holds the id."""
        chan = self.control_down.pop(hau_id, None)
        if chan is not None:
            chan.close()

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
    def send_control(self, hau_id: str, message: Any) -> None:
        """Controller -> HAU, fire and forget."""
        chan = self.control_down.get(hau_id) or self._bind_control(hau_id)
        if chan is not None and not chan.closed:
            if self.env.trace.enabled:
                tag = message[0] if isinstance(message, tuple) and message else str(message)
                self.env.trace.emit(
                    "control.send", t=self.env.now, subject=hau_id, message=str(tag)
                )
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
        prev, self.haus = self.haus, {}
        self.data_channels = {}
        for hau_id in list(self.control_down):
            self._unbind_control(hau_id)
        for hau_id in sorted(self.app.graph.haus):
            self._make_hau(hau_id, assignments[hau_id], restored.get(hau_id), prev.get(hau_id))
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
        hau = self._make_hau(hau_id, node, restored, self.haus.get(hau_id))
        deferred: list[tuple[EdgeSpec, Channel]] = []
        for edge_idx, edge in enumerate(hau.in_edges):
            src_hau = self.haus[edge.src]
            chan = self._connect_edge(edge, src_hau.node, node)
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
            chan = self._connect_edge(edge, node, dst_hau.node)
            hau.attach_out_channel(edge, chan)
            dst_hau.replace_in_channel(graph.in_edge_index(edge), chan)
        self._unbind_control(hau_id)
        return hau, deferred

    # -- introspection -----------------------------------------------------------------
    def total_state_bytes(self) -> int:
        return sum(h.state_size() for h in self.haus.values())
