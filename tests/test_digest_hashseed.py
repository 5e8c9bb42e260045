"""Iteration-order canary: digests must not depend on PYTHONHASHSEED.

Runs the pin gate in two subprocesses with different hash seeds and
compares the per-cell digests bit-for-bit.  Any dict/set iteration
order leaking into routing, scheduling or serialisation shows up here
before it shows up as an unexplainable baseline break on another
machine.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.sanitize.canary import DEFAULT_SEEDS, _digest_once, run_canary

CASE = "tmi/baseline@2"


def test_digests_identical_across_hashseeds(capsys):
    rc = run_canary(cases=[CASE], seeds=DEFAULT_SEEDS)
    out = capsys.readouterr().out
    assert rc == 0, f"digest depends on PYTHONHASHSEED:\n{out}"
    assert "OK" in out


def test_canary_reads_and_writes_no_cache(tmp_path, monkeypatch, capsys):
    """A cache hit in the second subprocess would serve the first hash
    seed's payload: the canary would compare a run with itself."""
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    assert run_canary(cases=[CASE]) == 0
    assert sorted(cache.iterdir()) == []


def test_digest_once_shape():
    doc = _digest_once(hashseed=0, cases=[CASE])
    assert set(doc["digests"]) == {CASE}
    # a digest is a hex string, stable enough to diff across seeds
    digest = doc["digests"][CASE]
    assert isinstance(digest, str) and len(digest) >= 16
    json.dumps(doc)  # canary output stays JSON-serialisable


# -- NaN routing keys ------------------------------------------------------------

def test_every_nan_routing_key_takes_one_fixed_route():
    """``hash(nan)`` is the object's identity since Python 3.10: two NaN
    keys alive together would pick different edges."""
    import numpy as np

    from repro.dsps.hau import stable_route_hash

    nans = [float("nan"), float("nan"), np.float64("nan"), np.float32("nan"),
            np.float16("nan"), -float("nan")]
    assert {stable_route_hash(k) for k in nans} == {0}
    assert len({stable_route_hash((1, k)) for k in nans}) == 1
    assert stable_route_hash((1, nans[0])) == stable_route_hash((1, 0))
    # non-NaN numerics keep their historical hash
    assert stable_route_hash(1.5) == hash(1.5)
    assert stable_route_hash(np.float64(2.0)) == stable_route_hash(2) == 2


@pytest.mark.parametrize("np_key, key", [
    pytest.param(np.int64(5), 5, id="int64"),
    pytest.param(np.int8(-1), -1, id="int8"),
    pytest.param(np.uint64(2**64 - 1), 2**64 - 1, id="uint64"),
    pytest.param(np.bool_(True), True, id="bool-true"),
    pytest.param(np.bool_(False), False, id="bool-false"),
    pytest.param(np.float32(1.5), 1.5, id="float32"),
    pytest.param(np.float16(0.25), 0.25, id="float16"),
    pytest.param(np.longdouble(2.0), 2.0, id="longdouble"),
    pytest.param((np.int32(7), "k"), (7, "k"), id="in-tuple"),
])
def test_a_numpy_number_routes_as_the_equal_python_number(np_key, key):
    """Equal routing keys must route equally: a NumPy scalar used to go
    through ``crc32(repr(key))``, and NumPy 2 prints ``np.int64(5)``."""
    from repro.dsps.hau import stable_route_hash

    assert np_key == key
    assert stable_route_hash(np_key) == stable_route_hash(key)


def test_a_nan_routing_key_routes_the_same_in_every_process():
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = ("from repro.dsps.hau import stable_route_hash; "
            "print(stable_route_hash(float('nan')) % 7, stable_route_hash(('k', float('nan'))) % 7)")
    outs = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": src},
        ).stdout
        for _ in range(3)
    }
    assert len(outs) == 1, outs
