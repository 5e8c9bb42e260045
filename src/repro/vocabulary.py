"""The words this reproduction speaks in — one definition each.

Trace kinds, metric names, checkpoint phases, SLO kinds, health states,
failure kinds, scenario fields and scheme names: every other module
imports these (``tracer.KINDS``, ``slo.SLO_KINDS``,
``injector.FAILURE_KINDS``, ...), and the DESIGN.md tables that describe
them are generated from this file by ``python -m repro.analysis
--write-docs``.  Adding a kind, a metric or a field is one row here.

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
# ({name: kind, ...}, labels cell, emitted-by cell).
METRICS = (
    ({"ms_hau_tuples_total": "counter", "ms_hau_busy_seconds_total": "counter"},
     "`hau`", "`dsps/hau.py` per processed tuple"),
    ({"ms_hau_tuple_latency_seconds": "histogram"},
     "`hau`", "creation→completion latency per tuple"),
    ({"ms_hau_tokens_sent_total": "counter", "ms_hau_tokens_received_total": "counter"},
     "`hau`", "token emission / arrival"),
    ({"ms_control_messages_total": "counter"},
     "`direction=down`", "`dsps/runtime.py` control plane (controller → HAU; there is no up-link)"),
    ({"ms_checkpoint_rounds_total": "counter", "ms_checkpoint_rounds_completed_total": "counter"},
     "`scheme`", "round start / all-HAUs-done"),
    ({"ms_checkpoint_write_seconds": "histogram"}, "`scheme`", "per-HAU checkpoint write duration"),
    ({"ms_hau_ckpt_write_seconds": "gauge"},
     "`hau`", "last checkpoint-write duration, per HAU (on `checkpoint.commit`)"),
    ({"ms_checkpoint_bytes_total": "counter"}, "`scheme`", "checkpointed state volume"),
    ({"ms_recoveries_total": "counter", "ms_recovery_seconds": "histogram"},
     "`scheme`", "global rollbacks (on `recovery.done`)"),
    ({"ms_baseline_recovered_total": "counter", "ms_baseline_unrecoverable_total": "counter"},
     "`cause` (latter)", "1-safe single-HAU restarts"),
    ({"ms_holdback_drained_total": "counter"}, "`hau`", "holdback queue drains (src / ap)"),
    ({"ms_async_checkpoints_total": "counter", "ms_fork_seconds": "histogram"},
     "`scheme`", "ms-…+ap asynchronous forks"),
    ({"ms_aa_smax_bytes": "gauge", "ms_aa_dynamic_haus": "gauge"},
     "—", "adaptive-adjustment profiling"),
    ({"ms_aa_turning_points_total": "counter", "ms_aa_decisions_total": "counter"},
     "`hau` / `reason=icr\\|deadline`", "AA controller"),
    ({"ms_storage_bytes_written_total": "counter", "ms_storage_bytes_read_total": "counter"},
     "`namespace`", "`storage/shared.py`"),
    ({"ms_failures_injected_total": "counter"},
     "`kind={FAILURE_KINDS:\\|}`", "`failures/injector.py`"),
    ({"ms_sweep_cache_hits_total": "counter", "ms_sweep_cache_misses_total": "counter"},
     "—", "sweep result-cache lookups (`harness/sweep.py`)"),
    ({"ms_alerts_fired_total": "counter", "ms_alerts_resolved_total": "counter"},
     "`slo`", "SLO burn-rate alerts fired / resolved (`monitor/plane.py`)"),
    ({"ms_alerts_active": "gauge"}, "—", "currently-firing SLO alerts"),
    ({"ms_monitor_ticks_total": "counter"}, "—", "monitoring-plane window evaluations"),
    ({"ms_monitor_samples_total": "counter"}, "`slo`", "SLO samples folded into burn-rate windows"),
)

# The per-HAU gauge series the Sampler maintains (label ``hau``), in
# export order — the one place a metric name reaches the registry
# through a variable.
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
        "max per-HAU p99 of `ms_hau_tuple_latency_seconds` at each tick"
        " (registry-backed; live runs only)",
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
