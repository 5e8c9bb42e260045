"""Integration tests for the three paper applications."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.apps import APPS, bcp, signalguru, tmi
from repro.cluster import ClusterSpec
from repro.dsps import CheckpointScheme, DSPSRuntime, RuntimeConfig
from repro.simulation import Environment


def deploy(app, seed=1, workers=55):
    env = Environment()
    rt = DSPSRuntime(
        env,
        app,
        CheckpointScheme(),
        RuntimeConfig(
            seed=seed,
            cluster=ClusterSpec(workers=workers, spares=4, racks=4),
            channel_capacity=16,
            inbox_capacity=32,
        ),
    )
    rt.start()
    return env, rt


@pytest.mark.parametrize("name", sorted(APPS))
def test_apps_have_55_haus_and_validate(name):
    app = APPS[name].build(seed=0)
    assert app.hau_count == 55
    assert app.graph.sinks() == ["K"]
    assert app.params["probe_prefix"]


@pytest.mark.parametrize("name", sorted(APPS))
def test_apps_profile_matches_module(name):
    profile = APPS[name].PROFILE
    assert profile.hau_count == 55
    assert profile.workload in ("low", "medium", "high")


def test_tmi_flows_and_clusters():
    # NB: k-means windows close in *stream* time (tuple creation times),
    # which lags wall time under saturation — run long enough for the
    # first windows to complete.
    app = tmi.build(seed=2, n_minutes=0.3)
    env, rt = deploy(app)
    env.run(until=120.0)
    # data flowed to the k-means stage and windows were clustered
    assert rt.metrics.stage_throughput("A") > 0
    windows = sum(rt.haus[f"A{i}"].operators[0].windows_done for i in range(10))
    assert windows > 0
    # the sink received clustering results with 4 mode counts
    sink = rt.haus["K"].operators[0]
    assert sink.received_count == pytest.approx(windows, abs=10)


def test_tmi_pool_sawtooth():
    app = tmi.build(seed=2, n_minutes=0.15)
    env, rt = deploy(app)
    sizes = []

    def sampler():
        while True:
            yield env.timeout(1.0)
            sizes.append(sum(rt.haus[f"A{i}"].state_size() for i in range(10)))

    env.process(sampler())
    env.run(until=60.0)
    assert max(sizes) > 2 * (min(s for s in sizes if s >= 0) + 1)


def test_bcp_counts_people_accurately():
    app = bcp.build(seed=3, state_scale=0.25)
    env, rt = deploy(app)
    env.run(until=40.0)
    counted = sum(rt.haus[f"C{i}"].operators[0].frames_counted for i in range(16))
    assert counted > 50
    # history clears happened (bus arrivals)
    clears = sum(rt.haus[f"H{i}"].operators[0].clears for i in range(4))
    assert clears >= 1


def test_bcp_sensor_path_reaches_sink():
    app = bcp.build(seed=3, state_scale=0.25)
    env, rt = deploy(app)
    env.run(until=40.0)
    assert rt.metrics.stage_throughput("N") > 0
    assert rt.metrics.stage_throughput("L") > 0
    assert rt.haus["K"].operators[0].received_count > 0


def test_signalguru_detects_lights_and_episodes():
    app = signalguru.build(seed=4, state_scale=0.25)
    env, rt = deploy(app)
    env.run(until=60.0)
    frames = sum(rt.haus[f"C{i}"].operators[0].frames_seen for i in range(12))
    assert frames > 100
    episodes = sum(rt.haus[f"M{i}"].operators[0].episodes_done for i in range(12))
    assert episodes >= 1
    # no frame with a light gets rejected by the shape filter
    rejected = sum(rt.haus[f"A{i}"].operators[0].rejected for i in range(12))
    assert rejected == 0


def test_signalguru_retention_bounded_by_episode():
    app = signalguru.build(seed=4, state_scale=0.25)
    env, rt = deploy(app)
    env.run(until=90.0)
    # retained frames never exceed ~2 episodes' worth per motion filter
    for i in range(12):
        op = rt.haus[f"M{i}"].operators[0]
        assert len(op.retained) < 600


@pytest.mark.parametrize("name", sorted(APPS))
def test_apps_deterministic(name):
    def run_once():
        app = APPS[name].build(seed=9, **({"n_minutes": 0.3} if name == "tmi" else {}))
        env, rt = deploy(app)
        env.run(until=20.0)
        probe = app.params["probe_prefix"]
        return (
            rt.metrics.stage_throughput(probe),
            round(rt.metrics.stage_latency(probe), 9),
            rt.total_state_bytes(),
        )

    assert run_once() == run_once()


def test_state_scale_scales_state_not_wire():
    big = signalguru.build(seed=5, state_scale=1.0)
    small = signalguru.build(seed=5, state_scale=0.25)
    env_b, rt_b = deploy(big)
    env_s, rt_s = deploy(small)
    env_b.run(until=30.0)
    env_s.run(until=30.0)
    state_b = sum(rt_b.haus[f"M{i}"].state_size() for i in range(12))
    state_s = sum(rt_s.haus[f"M{i}"].state_size() for i in range(12))
    assert state_b > 2.0 * state_s  # retained state scales
    # but the streamed tuple counts match (wire size unchanged)
    assert rt_b.metrics.stage_throughput("M") == rt_s.metrics.stage_throughput("M")


# -- the SVM models: fitted once per seed, shared read-only -------------------------

MODELS = [(bcp, bcp.alighting_model, 4), (signalguru, signalguru.flip_model, 2)]


@pytest.mark.parametrize("module, model, per_build", MODELS)
def test_app_models_are_fitted_once_per_seed(module, model, per_build):
    model.cache_clear()
    deploy(module.build(seed=77))
    deploy(module.build(seed=77))  # every operator of the second run reuses a fit
    info = model.cache_info()
    assert (info.misses, info.hits) == (per_build, per_build)
    deploy(module.build(seed=78))
    assert model.cache_info().misses == 2 * per_build


@pytest.mark.parametrize("model", [model for _module, model, _n in MODELS])
def test_cached_models_are_read_only_and_predict_as_a_fresh_fit(model):
    cached = model(1234)
    with pytest.raises(ValueError):
        cached.w[0] = 1.0
    with pytest.raises(ValueError):
        cached.w -= 0.1
    fresh = model.__wrapped__(1234)  # the uncached fit
    assert fresh is not cached and fresh.w.flags.writeable is False
    assert np.array_equal(cached.w, fresh.w) and cached.b == fresh.b
    probe = np.random.default_rng(0).normal(scale=5.0, size=(500, 2))
    assert np.array_equal(cached.predict(probe), fresh.predict(probe))


def test_running_the_apps_never_imports_numpy_ma():
    # numpy.ma is a cold import nothing on the run path needs; np.unique
    # pulled it in from LinearSVM.fit until the label check went elementwise
    code = (
        "import sys\n"
        "from repro.harness.experiment import ExperimentConfig, run_experiment\n"
        "for app, params in (('tmi', {'n_minutes': 0.25}), ('bcp', {}), ('signalguru', {})):\n"
        "    run_experiment(ExperimentConfig(app=app, scheme='ms-src+ap', n_checkpoints=1,\n"
        "                                    window=2.0, warmup=1.0, app_params=params))\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
