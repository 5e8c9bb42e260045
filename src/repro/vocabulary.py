"""The words this reproduction speaks in — one definition each.

Trace kinds, metric names, checkpoint phases, SLO kinds, health states,
failure kinds, scenario fields, scheme names and scheme hooks: every
other module imports these (``tracer.KINDS``, ``slo.SLO_KINDS``,
``injector.FAILURE_KINDS``, ...), and the DESIGN.md tables that describe
them are generated from this file by ``python -m repro.analysis
--write-docs``.  Adding a kind, a metric or a field is one row here; so
is deleting a twin for good (``RETIRED``, which ``RET001`` enforces).

Leaf module: plain dict/tuple literals only, no imports, nothing
computed — ``repro.analysis`` reads it with ``ast.literal_eval`` from
any ``--root`` without importing the tree, and its ``VOC001`` rule
checks every emission site, every kind a consumer compares and every
generated table against this file.
"""

# -- traces (repro.observability) -------------------------------------------
# Dotted event kind -> what the emitting site observed.  Order is the
# schema order (``tracer.KINDS``); a kind is namespace + event.
TRACE_KINDS = {
    "hau.start": "an HAU's processes came up (fresh start or restart)",
    "control.send": "controller → HAU control-plane message",
    "token.send": "a checkpoint token left an HAU along one edge",
    "token.recv": "a checkpoint token landed in an HAU's inbox",
    "checkpoint.round.start": "a scheme initiated an application checkpoint",
    "checkpoint.command": "an HAU learned of the round (control msg or first token)",
    "checkpoint.tokens.done": "an HAU has seen tokens on all of its input edges",
    "checkpoint.start": "one HAU began its individual checkpoint",
    "checkpoint.write.start": "the state write to shared storage began",
    "checkpoint.commit": "the state write completed (version assigned)",
    "checkpoint.round.complete": "every HAU of the round committed",
    "checkpoint.abandon": "a round that can no longer complete was given up (cause)",
    "replay.out": "post-recovery re-send of saved in-flight outputs",
    "replay.backlog": "post-recovery re-processing of pre-token backlog",
    "replay.source": "post-recovery full-speed source replay",
    "failure.inject": "the injector (or harness) hit a node/rack/link",
    "failure.restore": "a timed degradation (partition/straggler) healed",
    "failure.detected": "the controller's watcher observed dead HAUs",
    "recovery.start": "global rollback began",
    "recovery.hau.start": "one HAU began its reload/read/deserialise phases",
    "recovery.hau": "one HAU finished its reload/read/deserialise phases",
    "recovery.reconnect": "phase 4: controller re-wired the application",
    "recovery.replay": "preserved source tuples queued for replay",
    "recovery.done": "global rollback complete",
    "baseline.recover.start": "1-safe single-HAU restart began",
    "baseline.recover.done": "1-safe single-HAU restart complete",
    "baseline.unrecoverable": "correlated failure lost a retained buffer",
    "aa.profile": "MS-aa profiling finished (dynamic HAUs, smax)",
    "aa.turning_point": "controller processed a turning-point report",
    "aa.alert.enter": "total dynamic state dropped below smax",
    "aa.decision": "MS-aa chose a checkpoint instant (icr | deadline)",
    "alert.fire": "an SLO's burn rate crossed threshold in both windows",
    "alert.resolve": "a firing SLO's fast-window burn rate dropped back",
}

# Namespaces whose kinds cannot be enumerated (built at the emit site).
TRACE_DYNAMIC = {}

# What DESIGN.md's trace-schema table (one row per namespace) shows
# beside the event names: keyed by kind, the payload note in parentheses
# after that event; keyed by namespace, the line after the dash.  A
# namespace with one event and no note shows that event's meaning.
TRACE_TABLE_NOTES = {
    "token.": "checkpoint token hops (round, edge, front flag)",
    "checkpoint.command": "an HAU learned of the round; via control or token",
    "checkpoint.tokens.done": "all input edges tokenised; edges=N",
    "checkpoint.start": "per HAU; mode=sync/async",
    "checkpoint.commit": "bytes, version",
    "checkpoint.abandon": "cause=rollback",
    "replay.": "post-recovery replay counts",
    "failure.inject": "{FAILURE_KINDS:/}, cause",
    "failure.restore": "timed degradation healed",
    "failure.detected": "watcher sweep",
    "recovery.hau.start": "one HAU's reload begins",
    "recovery.hau": "reload/disk\\_io/deserialize per HAU",
    "recovery.replay": "preserved tuples",
    "recovery.done": "phase totals",
    "baseline.": "1-safe single-HAU restarts",
    "aa.profile": "dynamic set, smax",
    "aa.decision": "icr \\| deadline",
    "alert.fire": "an SLO's burn rate crossed threshold in both windows",
    "alert.resolve": "the fast-window burn dropped back",
    "alert.": "emitted by the repro.monitor plane with slo/subject/burn data",
}

# -- checkpoint phases (Fig. 14), in causal order ---------------------------
PHASES = ("token-wait", "safepoint-wait", "snapshot", "disk-io")

# -- metrics (repro.telemetry) ----------------------------------------------
# One row of DESIGN.md's metric-schema table each:
# ({name: kind, ...}, labels cell, folded-from cell).  Every metric is
# folded after the run by ``repro.telemetry.fold`` from the record named.
METRICS = (
    ({"ms_hau_tuples_total": "counter"}, "`hau`", "stage samples: one per processed tuple"),
    ({"ms_hau_busy_seconds_total": "counter"},
     "`hau`", "`HAURuntime.busy_total` (a rebuilt HAU continues its predecessor's)"),
    ({"ms_hau_tuple_latency_seconds": "histogram"},
     "`hau`", "stage samples: completion − creation per tuple"),
    ({"ms_hau_tokens_sent_total": "counter", "ms_hau_tokens_received_total": "counter"},
     "`hau`", "trace: `token.send` / `token.recv`"),
    ({"ms_control_messages_total": "counter"},
     "`direction=down`", "trace: `control.send` (controller → HAU; there is no up-link)"),
    ({"ms_checkpoint_rounds_total": "counter", "ms_checkpoint_rounds_completed_total": "counter"},
     "`scheme`", "trace: `checkpoint.round.start` / `.complete`"),
    ({"ms_checkpoint_write_seconds": "histogram"},
     "`scheme`", "trace: `checkpoint.write.start` → `checkpoint.commit`"),
    ({"ms_hau_ckpt_write_seconds": "gauge"},
     "`hau`", "trace: the HAU's last `checkpoint.commit` write"),
    ({"ms_checkpoint_bytes_total": "counter"}, "`scheme`", "trace: `checkpoint.commit` bytes"),
    ({"ms_recoveries_total": "counter", "ms_recovery_seconds": "histogram"},
     "`scheme`", "`RunRecord.recoveries`: completed global rollbacks"),
    ({"ms_baseline_recovered_total": "counter", "ms_baseline_unrecoverable_total": "counter"},
     "`cause` (latter)", "trace: `baseline.recover.done` / `baseline.unrecoverable`"),
    ({"ms_holdback_drained_total": "counter"},
     "`hau`", "`CheckpointBreakdown.holdback_drained` of the checkpoint that released it"),
    ({"ms_async_checkpoints_total": "counter", "ms_fork_seconds": "histogram"},
     "`scheme`", "trace: async `checkpoint.start`, with its breakdown's `fork_seconds`"),
    ({"ms_aa_smax_bytes": "gauge", "ms_aa_dynamic_haus": "gauge"},
     "—", "trace: `aa.profile` (`smax`, the `dynamic` list)"),
    ({"ms_aa_turning_points_total": "counter", "ms_aa_decisions_total": "counter"},
     "`hau` / `reason=icr\\|deadline`", "trace: `aa.turning_point` / `aa.decision`"),
    ({"ms_storage_bytes_written_total": "counter", "ms_storage_bytes_read_total": "counter"},
     "`namespace`", "`SharedStorage.written_by_namespace` / `read_by_namespace`"),
    ({"ms_failures_injected_total": "counter"},
     "`kind={FAILURE_KINDS:\\|}`", "trace: `failure.inject`"),
    ({"ms_alerts_fired_total": "counter", "ms_alerts_resolved_total": "counter"},
     "`slo`", "the monitor's alert log: fire / resolve rows"),
    ({"ms_alerts_active": "gauge"}, "—", "the monitor's alert log: fires less resolves"),
    ({"ms_monitor_ticks_total": "counter"}, "—", "the monitor's tick count"),
    ({"ms_monitor_samples_total": "counter"},
     "`slo`", "the monitor's SLO samples per kind (`MonitorPlane.slo_samples`)"),
)

# The per-HAU gauge series the Sampler records (label ``hau``), in
# export order; a telemetry run's gauge is each series' last point (the
# write seconds excepted: the trace's last commit) — the one place a
# metric name reaches the registry through a variable.
SERIES_METRICS = (
    "ms_hau_inbox_depth",
    "ms_hau_state_bytes",
    "ms_hau_inflight_tuples",
    "ms_hau_holdback_tuples",
    "ms_hau_preserve_bytes",
    "ms_hau_ckpt_write_seconds",
)

# -- monitoring (repro.monitor) ---------------------------------------------
# SLO kind -> (default bound in seconds, sized for the scaled-down
# harness runs; the signal its samples come from).  Evaluation order.
SLOS = {
    "latency-p99": (
        1.0,
        "max per-HAU p99 tuple latency of the stage samples processed by each"
        " tick (a run's; inactive in trace replay)",
    ),
    "checkpoint-duration": (
        5.0,
        "`checkpoint.write.start` → `checkpoint.commit` span per round",
    ),
    "recovery-time": (
        5.0,
        "`recovery.start`/`baseline.recover.start` → matching done span",
    ),
    "checkpoint-staleness": (
        60.0,
        "per-HAU seconds since last commit, sampled each tick (per-subject alerts)",
    ),
}

# Health state -> meaning.
HEALTH = {
    "healthy": "no active alerts, no failure in progress, staleness within bound",
    "degraded": "staleness sample over bound, or the HAU's node/rack took an injected failure",
    "alerting": "at least one SLO alert is firing for the entity",
    "recovering": "recovery/handoff for the entity has started and not yet completed",
}

# -- failures (repro.failures, Table I) -------------------------------------
# Event kinds the injector executes: fail-stop of a node or a whole
# rack, and two that degrade instead of kill.
FAILURE_KINDS = ("node", "rack", "partition", "straggler")
# The degradations: they take duration/factor and heal.
DEGRADATION_KINDS = ("partition", "straggler")

# -- schemes (repro.harness) ------------------------------------------------
SCHEME_NAMES = ("none", "baseline", "ms-src", "ms-src+ap", "ms-src+ap+aa", "oracle")

# Checkpoint-scheme hook -> (kind, driven from): DESIGN.md's scheme-protocol
# table.  ``generator`` hooks are driven with ``yield from`` and must be
# generator functions; ``work`` hooks return the generator to drive or
# None (a generator function also qualifies); ``plain`` hooks are plain
# calls and must not be generator functions.  ``CheckpointScheme`` checks
# every subclass body against these kinds when the class is created.
SCHEME_HOOKS = {
    "from_config": ("classmethod", "`make_scheme`"),
    "attach": ("plain", "`DSPSRuntime.__init__`"),
    "start": ("plain", "`DSPSRuntime.start`, after every HAU"),
    "on_source_emit": ("work", "`HAURuntime._source_loop`, before each send"),
    "on_emit": ("work", "`HAURuntime.emit`, per routed edge, before the send"),
    "on_token_arrival": ("plain", "`HAURuntime._pull`: a token at the head of its edge"),
    "handle_token": ("generator", "`HAURuntime._main_loop`: a token popped from the inbox"),
    "maybe_checkpoint": (
        "work",
        "every tuple boundary of the main and source loops, and when a waiting or finished"
        " source is woken",
    ),
    "processing_overhead": ("plain", "`HAURuntime._run_chain`"),
    "on_control": ("plain", "a control link's consumer (`DSPSRuntime._bind_control`)"),
    "write_checkpoint": (
        "generator",
        "a scheme's own checkpoint (`_sync_checkpoint`, `MSSrcAP._child_writer`): serialise,"
        " billed to the HAU's breakdown, then write and commit",
    ),
    "recover": ("generator", "`core.recovery.failure_watcher`"),
    "initiate_round": ("plain", "`MeteorShowerBase._coordinator`, `MSSrcAPAA`'s controller"),
    "on_recovery_reset": ("plain", "`GlobalRecovery.run`, at the rollback instant"),
    "recovery_read_plan": ("plain", "`GlobalRecovery.run`"),
    "oldest_kept_version": ("plain", "`MeteorShowerBase._garbage_collect`"),
}

# -- scenarios (repro.scenarios) --------------------------------------------
# Top-level field -> (shape, notes): DESIGN.md's scenario-schema table.
# ``{FAILURE_KINDS}`` renders as the backticked list above (and, here
# and in the trace / metric cells, ``{FAILURE_KINDS:<sep>}`` as the
# kinds joined by ``<sep>``) — the kinds are spelt once.
SCENARIO_FIELDS = {
    "id": ("slug", "required; unique per library, matches [a-z0-9][a-z0-9-]*"),
    "version": (
        "int",
        "required; must equal the library schema version (currently 1)",
    ),
    "description": ("string", "free text, shown in reports"),
    "app": (
        "mapping",
        "required; {name, params} — name from the APPS registry, params forwarded to its"
        " build(); synth topologies validate structurally at schema time",
    ),
    "seed": ("int", "experiment seed (default 1)"),
    "cluster": (
        "mapping",
        "{workers, spares, racks} (defaults 8/12/2, the digest-baseline shape)",
    ),
    "run": (
        "mapping",
        "{window, warmup, n_checkpoints, recovery} (defaults 40.0/10.0/2/false)",
    ),
    "scheme": (
        "enum",
        "required; any SCHEME_NAMES entry except oracle (which needs observed checkpoint times)",
    ),
    "failures": (
        "list",
        "events {at, kind, target, cause, duration, factor}; kinds {FAILURE_KINDS} —"
        " duration/factor only on the degradation kinds, targets are node ids"
        " (w3, spare0, storage) or rack ids (rack1) checked against the cluster shape",
    ),
    "monitor": (
        "mapping",
        "{period, slos} — enables the live monitoring plane (`repro.monitor`) at `period`"
        " sim-second ticks; `slos` maps SLO kind → bound override (kinds from the"
        " live-monitoring tables below)",
    ),
    "expect": (
        "mapping",
        "outcome assertions {min_rounds, recovers, min_throughput, alerts} checked by the"
        " campaign runner; `alerts` rows {slo, subject, fired, resolved} assert minimum"
        " alert counts from the monitored run's log",
    ),
}

# -- retired code (repro.analysis RET001) ----------------------------------
# Names and files that were deleted and must stay deleted, one row each:
# DESIGN.md's retired table.  A row's ``pattern`` (a Python regex) is
# searched in every line of every file under its ``scope``: root-relative
# paths, a ``!path`` entry excluding a file or directory; ``__pycache__``,
# dot-directories and this file (whose rows spell the names) are never
# read.  With no ``bound`` no line may match; ``"at most N"`` / ``"exactly
# N"`` bound the matching lines over the whole scope.  ``example`` is a
# line the pattern refuses (``tests/test_retired.py`` plants it inside and
# beside the scope).  A row with ``paths`` instead says that none of those
# paths may exist.  ``pr`` numbers the CHANGES.md entry that deleted the
# name; ``reason`` is what replaced it.
RETIRED = (
    {
        "pattern": r"CalendarQueue|REPRO_SCHED",
        "scope": ("src/repro",),
        "example": "class CalendarQueue:",
        "pr": 13,
        "reason": "the kernel has one scheduler, a heap beside a current-instant FIFO",
    },
    {
        "pattern": r"run_sharded",
        "scope": ("src/repro",),
        "example": "def run_sharded(cfgs, jobs=2):",
        "pr": 13,
        "reason": "no in-run process fan-out: a run is one process, `run_cells` fans out cells",
    },
    {
        "pattern": r"BatchEnvelope|batch_quantum|BATCH_QUANTUM",
        "scope": ("src/repro", "benchmarks", "examples"),
        "example": "cfg = ExperimentConfig(batch_quantum=0.01)",
        "pr": 16,
        "reason": "one data path: a channel carries each tuple itself, no batched twin",
    },
    {
        "pattern": r"P2Quantile",
        "scope": ("src/repro",),
        "example": "class P2Quantile:",
        "pr": 18,
        "reason": "a `Histogram` keeps its observations; percentiles are exact, read when asked",
    },
    {
        "pattern": r"waiter._resume\(event\)",
        "scope": ("src/repro",),
        "bound": "exactly 1",
        "example": "                    waiter._resume(event)",
        "pr": 20,
        "reason": "the pop-and-fire body exists once, in `Environment._drain`",
    },
    {
        "pattern": r"def _san_(event|timeout|acquire)",
        "scope": ("src/repro/sanitize",),
        "example": "def _san_timeout(self, delay, value=None):",
        "pr": 20,
        "reason": "the sanitizer wraps `_drain` and hands out containers; no factory copies",
    },
    {
        "pattern": (
            r"class (HAUCheckpoint|RoundWave|RecoveryHAU|RecoveryTimeline|SinkSample)\b"
            r"|def record_event"
        ),
        "scope": ("src/repro",),
        "example": "class RoundWave:",
        "pr": 21,
        "reason": "rounds and recoveries are `metrics/breakdown.py`'s types, written by"
        " `RunRecord.apply` alone: no trace-side or sink-side copy, no untyped event channel",
    },
    {
        "paths": (
            "src/repro/analysis/callgraph.py",
            "src/repro/analysis/flow.py",
            "src/repro/analysis/baseline.py",
        ),
        "pr": 22,
        "reason": "per-file rules report a source at its own line, and an inline disable is the"
        " one suppression: no transitive taint walker, no baseline file",
    },
    {
        "pattern": r"wall_tolerance|compare_scaling|compare_alerts",
        "scope": ("benchmarks",),
        "example": "def compare_scaling(old, new, wall_tolerance=0.15):",
        "pr": 22,
        "reason": "the regression gate's host-seconds comparisons could not fail; `perf/` is"
        " the one host-time instrument",
    },
    {
        "pattern": r"class SchemeHooks",
        "scope": ("src/repro",),
        "example": "class SchemeHooks:",
        "pr": 23,
        "reason": "`CheckpointScheme` is the one class that defines the scheme hooks",
    },
    {
        "pattern": r"\b(BaselineScheme|MeteorShowerBase|MSSrc|MSSrcAP|MSSrcAPAA|OracleScheme)\b",
        "scope": ("src/repro/harness",),
        "example": "from repro.core import MSSrcAP",
        "pr": 23,
        "reason": "`make_scheme` is a lookup in `repro.core.SCHEMES`: the harness imports no"
        " scheme class",
    },
    {
        "pattern": r'"failure.detected"',
        "scope": ("src/repro/core",),
        "bound": "at most 1",
        "example": '        scheme.transition("failure.detected", scheme.name)',
        "pr": 23,
        "reason": "`core/recovery.py`'s `failure_watcher` is the one place that reports a failure",
    },
    {
        "paths": ("src/repro/telemetry/report.py",),
        "pr": 24,
        "reason": "`python -m repro.inspect show` renders a telemetry snapshot",
    },
    {
        "pattern": r"def killer|class StateTraceRecorder|FULL_SCALE|DEFAULT_WINDOW",
        "scope": ("src/repro",),
        "example": "    def killer(env):",
        "pr": 26,
        "reason": "`run_experiment` has one run path: failures run through `FailureInjector`,"
        " state samples through the one `Sampler`, scale is the figure drivers' arguments",
    },
    {
        "pattern": r"REPRO_FULL",
        "scope": ("src/repro", "benchmarks", "!benchmarks/conftest.py"),
        "example": 'FULL = os.environ.get("REPRO_FULL") == "1"',
        "pr": 26,
        "reason": "only `benchmarks/conftest.py` reads it, into the session `scale` fixture every"
        " bench takes",
    },
    {
        "pattern": r"np\.unique|numpy\.ma|np\.ma\.",
        "scope": ("src/repro/apps", "src/repro/dsps", "src/repro/core"),
        "example": "    labels, counts = np.unique(stops, return_counts=True)",
        "pr": 27,
        "reason": "numpy's masked-array module is a cold import nothing the simulator runs needs",
    },
    {
        "pattern": r"class Ev\b|def events_of",
        "scope": ("src/repro",),
        "example": "class Ev:",
        "pr": 28,
        "reason": "`TraceEvent` is the one trace event type; a file's rows are converted once",
    },
    {
        "pattern": r"JsonlStreamWriter|def subscribe|def to_prometheus",
        "scope": ("src/repro",),
        "example": "def to_prometheus(snapshot):",
        "pr": 28,
        "reason": "the Prometheus exporter, tracer subscribers and the stream writer had no reader",
    },
    {
        "pattern": r"class SlidingWindow|class WindowSpec",
        "scope": ("src/repro",),
        "example": "class SlidingWindow:",
        "pr": 28,
        "reason": "the monitor plane has one tick loop that a finished run and a trace file both"
        " drive",
    },
    {
        "pattern": r"(?<!def )_sample_staleness\(",
        "scope": ("src/repro/monitor/plane.py",),
        "bound": "at most 1",
        "example": "        self._sample_staleness(now)",
        "pr": 28,
        "reason": "staleness is sampled from the one tick body, `MonitorPlane.tick`",
    },
    {
        "pattern": r"yield from .*\b(do_)?emit\(",
        "scope": ("src/repro",),
        "example": "        yield from hau.emit(spec, created_at, source)",
        "pr": 30,
        "reason": "`HAURuntime.emit` is work or None: `yield from` on it fails on None",
    },
    {
        "pattern": r"^\s*([A-Za-z_]+\.)?(do_)?emit\(",
        "scope": ("src/repro/dsps",),
        "example": "        self.emit(spec, created_at, source)",
        "pr": 30,
        "reason": "`HAURuntime.emit` is work or None: a bare call drops the work, and the tuple"
        " is lost under backpressure",
    },
    {
        "paths": ("src/repro/profiling",),
        "pr": 31,
        "reason": "the trace pipeline is one package, `repro.observability`",
    },
    {
        "pattern": r"repro\.profiling|from repro import profiling",
        "scope": ("src", "tests", "benchmarks", "examples"),
        "example": "from repro.profiling import build_timeline",
        "pr": 31,
        "reason": "the trace pipeline is one package, `repro.observability`",
    },
    {
        "pattern": r"(?i)warmup *\+=? *\(?[A-Za-z_.]*window\b *(/|if\b)",
        "scope": ("src/repro/harness/figures.py",),
        "bound": "at most 1",
        "example": "        warmup += window / n",
        "pr": 35,
        "reason": "aa's one-period warm-up is added in `harness.figures.figure_config` alone",
    },
    {
        "pattern": r"(?i)warmup *\+=? *\(?[A-Za-z_.]*window\b *(/|if\b)",
        "scope": (
            "src/repro/harness",
            "!src/repro/harness/figures.py",
            "benchmarks",
            "examples",
        ),
        "example": "    cfg = ExperimentConfig(warmup=warmup + window / n)",
        "pr": 35,
        "reason": "every figure driver, bench and example builds its cell through"
        " `harness.figures.figure_config`",
    },
    {
        "pattern": r"tolerance",
        "scope": ("benchmarks/check_regression.py",),
        "example": '    parser.add_argument("--tolerance", type=float, default=0.15)',
        "pr": 37,
        "reason": "the figure record is compared with `==`: no tolerance gate",
    },
    {
        "pattern": r"class Message\b",
        "scope": ("src/repro",),
        "example": "class Message:",
        "pr": 39,
        "reason": "a channel queues the item itself",
    },
    {
        "pattern": r"def diff_reports|_render_report_diff",
        "scope": ("src/repro",),
        "example": "def diff_reports(a, b):",
        "pr": 40,
        "reason": "`repro.inspect diff` / `explain` read two bundle directories; "
        "`benchmarks/check_regression.py` is the one exact comparer of reports",
    },
    {
        "pattern": r"MONITOR|priority",
        "scope": ("src/repro/simulation/core.py",),
        "example": "    def _schedule(self, event, delay=0.0, priority=NORMAL):",
        "pr": 41,
        "reason": "the kernel has one event priority; the monitor plane ticks after the run",
    },
    {
        "pattern": r"_schedule|\.process\(|\.timeout\(",
        "scope": ("src/repro/monitor",),
        "example": "        env.process(self._ticker(env))",
        "pr": 41,
        "reason": "the monitor plane schedules no event or process: it ticks after the run",
    },
    {
        "pattern": r"_control_listener|_control_procs|\.recv\(\)",
        "scope": ("src/repro",),
        "example": "        msg = yield link.recv()",
        "pr": 42,
        "reason": "a control link is consumed like a data edge (`Channel.bind`): no listener"
        " process, and nothing in `src/` waits in `recv()`",
    },
    {
        "pattern": r"register_pool|\.acquire\(",
        "scope": ("src/repro",),
        "example": "        ev = env.acquire(Event)",
        "pr": 42,
        "reason": "the kernel has one free list, its own `Timeout`'s",
    },
    {
        "pattern": r"class Gate\b|intake_gate|now=lambda",
        "scope": ("src/repro",),
        "example": "class Gate:",
        "pr": 43,
        "reason": "a HAU's intake pause is its `intake_open` flag; an operator context carries"
        " no clock closure",
    },
    {
        "pattern": r"IDLE_SOURCE_POLL",
        "scope": ("src/repro",),
        "example": "IDLE_SOURCE_POLL = 1.0",
        "pr": 44,
        "reason": "a finished source parks until its scheme wakes it",
    },
    {
        "pattern": r"SOURCE_DELAY_CHUNK",
        "scope": ("src/repro",),
        "example": "SOURCE_DELAY_CHUNK = 0.25",
        "pr": 45,
        "reason": "an emitting source waits out each delay in one park with a deadline",
    },
    {
        "pattern": r"channel_capacity\s*=\s*16\b|inbox_capacity\s*=\s*32\b",
        "scope": ("src/repro", "benchmarks", "examples", "!src/repro/dsps/runtime.py"),
        "example": "channel_capacity=16,",
        "pr": 49,
        "reason": "the capacity pair lives in `RuntimeConfig`",
    },
    {
        "pattern": r"\b(AnyOf|AllOf|_Condition)\b|\b(any_of|all_of)\(",
        "scope": ("src/repro", "tests", "benchmarks", "examples"),
        "example": "yield env.any_of([report, timer])",
        "pr": 50,
        "reason": "one way to wait: park with a deadline, or join a process with `yield proc`",
    },
    {
        "pattern": r"\b[0-9a-f]{64}\b",
        "scope": ("tests", "!tests/PINS.json"),
        "example": 'PIN = "c6d51dc108334b97dab3bcc70a721aa8211012b7351bfcfb26212422a80918b9"',
        "pr": 51,
        "reason": "a test pins a value in `tests/PINS.json`, and `benchmarks/repin.py` writes it",
    },
    {
        "pattern": r"--write\b(?!-)",
        "scope": ("src/repro/scenarios/cli.py", "benchmarks/check_regression.py"),
        "example": '    p_goldens.add_argument("--write", action="store_true")',
        "pr": 51,
        "reason": "the gates only check: `python benchmarks/repin.py` writes every pin",
    },
    {
        "pattern": r"telemetry\.(counter|gauge|histogram)\(|\.telemetry\.enabled",
        "scope": (
            "src/repro/simulation", "src/repro/cluster", "src/repro/dsps", "src/repro/core",
            "src/repro/storage", "src/repro/state", "src/repro/failures",
            "src/repro/metrics/breakdown.py",
        ),
        "example": "        if self.env.telemetry.enabled:",
        "pr": 52,
        "reason": "the simulated system counts nothing: `repro.telemetry.fold` builds the"
        " registry once, after the run, from the records the run keeps",
    },
    {
        "pattern": r"\b_kick_pool\b|\b_pools\b|self\._keys\b",
        "scope": ("src/repro/simulation", "src/repro/sanitize", "src/repro/telemetry"),
        "example": "        self._pools: dict[type, list[Event]] = {Event: [], Timeout: []}",
        "pr": 53,
        "reason": "only timeouts are pooled, kicks and plain events are allocated; the"
        " registry canonicalises a metric's labels on each call",
    },
    {
        "pattern": r"completed_rounds|checkpoint_versions|write_done|source_markers"
        r"|record_source_marker|mark_hau_done|_round_counter|last_write",
        "scope": ("src/repro/core", "src/repro/metrics", "src/repro/telemetry"),
        "example": "        self.completed_rounds: dict[int, dict[str, int]] = {}",
        "pr": 54,
        "reason": "the run record is the one checkpoint ledger: a scheme reads each HAU's"
        " commits and the MRC back from `scheme.record`",
    },
    {
        # ``RunRecord`` itself keeps ``self.decisions``: refused in core only
        "pattern": r"self\.decisions",
        "scope": ("src/repro/core",),
        "example": "        self.decisions.append((env.now, \"deadline\"))",
        "pr": 54,
        "reason": "the aware rounds' reasons are `scheme.record.decisions`, folded from"
        " `aa.decision`",
    },
    {
        "paths": ("src/repro/core/replication.py",),
        "pr": 54,
        "reason": "A2's replication footprint is a closed form stated in its bench",
    },
    {
        "pattern": r"LocalStore|repro\.storage\.local",
        "scope": ("src/repro", "tests", "benchmarks", "examples", "perf"),
        "example": "from repro.storage.local import LocalStore",
        "pr": 55,
        "reason": "input preservation is one class, `InputPreserver`: one retention record per"
        " HAU whose entries carry their out-edge",
    },
    {
        "paths": ("src/repro/storage/local.py",),
        "pr": 55,
        "reason": "a HAU's local-disk retention is `InputPreserver`'s, in `core/preservation.py`",
    },
)
