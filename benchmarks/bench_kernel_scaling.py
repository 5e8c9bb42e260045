"""Kernel scaling: the count assertions at 100/1k/10k HAUs.

One synthetic aligned-chain app (S -> W -> A -> K, equal replicas) is
run at three sizes.  Hard assertions are determinism facts: every size
drains its whole workload, identical runs pop identical event counts,
and a tuple hop stays within its kernel-event budget.  The artifact
records those counts (HAUs, events popped, tuples) and nothing else.

Build and run seconds (the rates time the ``env.run`` phase only) and
the derived events/sec + tuples/sec are printed for the reader; they
are recorded and compared nowhere — ``perf/``'s ``synth_chain_4k``
workload is where host time at scale is measured, with a protocol.
"""

import gc
import os
import time

from repro.apps.synth import build
from repro.cluster.topology import ClusterSpec
from repro.dsps.runtime import CheckpointScheme, DSPSRuntime, RuntimeConfig
from repro.simulation.core import Environment

SIZES = (100, 1_000, 10_000)  # total HAUs (4 stages x replicas)
WINDOW = 1.25  # the 0.12 s burst drains well inside it
EVENTS_PER_TUPLE_BUDGET = 4  # arrival + idle wake-up + processing cost, + source timeouts

# best-of-N per cell sheds host noise (a single shot can land whole in
# one of the sandbox's slow phases)
ROUNDS = {100: 3, 1_000: 2, 10_000: 2}


def _topology(replicas: int) -> dict:
    return {
        "stages": [
            {"name": "S", "kind": "source", "replicas": replicas,
             "count": 24, "interval": 0.005, "size": 4096},
            {"name": "W", "kind": "map", "replicas": replicas, "size": 4096},
            {"name": "A", "kind": "map", "replicas": replicas, "size": 4096},
            {"name": "K", "kind": "sink", "replicas": replicas},
        ],
        "edges": [
            {"src": "S", "dst": "W", "pairing": "aligned"},
            {"src": "W", "dst": "A", "pairing": "aligned"},
            {"src": "A", "dst": "K", "pairing": "aligned"},
        ],
    }


def _run_cell(haus: int) -> dict:
    replicas = haus // 4
    best_wall = float("inf")
    popped = set()
    tuples = 0
    build_wall = 0.0
    for _ in range(ROUNDS[haus]):
        # free the previous round's (or cell's) heap outside the timed
        # build: it is cyclic garbage only a full collection reclaims
        gc.collect()
        t0 = time.perf_counter()  # repro-lint: disable=DET001 (host timing, not simulated)
        env = Environment()
        app = build(seed=1, topology=_topology(replicas))
        rt = DSPSRuntime(
            env,
            app,
            CheckpointScheme(),
            RuntimeConfig(
                seed=1,
                cluster=ClusterSpec(workers=max(4, replicas // 4), spares=2, racks=4),
                channel_capacity=16,
                inbox_capacity=32,
            ),
        )
        rt.start()
        # the timed region measures the kernel, not the allocator: collect
        # construction garbage now and keep the collector out of the loop
        gc.collect()
        gc.freeze()
        gc.disable()
        t1 = time.perf_counter()  # repro-lint: disable=DET001 (host timing, not simulated)
        env.run(until=WINDOW)
        wall = time.perf_counter() - t1  # repro-lint: disable=DET001 (host timing, not simulated)
        gc.enable()
        gc.unfreeze()
        popped.add(env.events_popped)
        tuples = sum(h.tuples_processed for h in rt.haus.values())
        if wall < best_wall:
            best_wall = wall
            build_wall = t1 - t0
        del env, app, rt
    assert len(popped) == 1, f"events_popped varied across identical runs: {popped}"
    n_popped = popped.pop()
    return {
        "haus": haus,
        "wall_seconds": best_wall,
        "build_seconds": build_wall,
        "events_popped": n_popped,
        "tuples": tuples,
        "events_per_sec": n_popped / best_wall,
        "tuples_per_sec": tuples / best_wall,
    }


def test_kernel_scaling(write_artifact):
    cells = [_run_cell(haus) for haus in SIZES]
    for c in cells:
        # the drained workload is a model fact: W + A + K, full drain
        assert c["tuples"] == 3 * 24 * (c["haus"] // 4)
        assert c["events_popped"] <= EVENTS_PER_TUPLE_BUDGET * c["tuples"]

    header = (
        f"{'haus':>6} {'build':>7} {'run':>7} {'b:r':>5} "
        f"{'popped':>9} {'ev/tuple':>8} {'ev/s':>10} {'tup/s':>9}"
    )
    lines = [header]
    for c in cells:
        lines.append(
            f"{c['haus']:>6} "
            f"{c['build_seconds']:>6.2f}s {c['wall_seconds']:>6.2f}s "
            f"{c['build_seconds'] / c['wall_seconds']:>5.2f} {c['events_popped']:>9} "
            f"{c['events_popped'] / c['tuples']:>8.2f} "
            f"{c['events_per_sec']:>10,.0f} {c['tuples_per_sec']:>9,.0f}"
        )
    print("\n" + "\n".join(lines))

    write_artifact("BENCH_kernel_scaling.json", {
        "mode": "full" if os.environ.get("REPRO_FULL") else "fast",
        "window_seconds": WINDOW,
        "cells": [
            {key: c[key] for key in ("haus", "events_popped", "tuples")} for c in cells
        ],
    })
