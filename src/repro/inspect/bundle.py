"""The RunBundle: one run's comparable telemetry as an artifact directory.

A bundle is the deterministic, content-addressed distillation of one
experiment (or sweep cell): everything the diff engine needs to explain
*why* run B differs from run A, and nothing machine-dependent.  Two runs
of the same seed on the same build produce **byte-identical** bundles
(asserted in ``tests/test_inspect.py``), so a bundle can be committed as
a baseline, uploaded as a CI artifact, or diffed across branches.

Layout (one directory per bundle)::

    <dir>/
      MANIFEST.json        bundle_version, bundle_id, meta, digest,
                           {file: sha256} table
      config.json          ExperimentConfig fingerprint
      metrics.json         throughput / latency / percentiles / rounds
      phases.json          phase-span totals + per-HAU breakdown
      critical_paths.json  per-round seconds, gating HAU, hop chain
      timeline.json        checkpoint summary, recovery, stragglers
      alerts.json          SLO alert log + health timeline (repro.monitor)
      telemetry.json       metric snapshot (experiment bundles only)

Every file is canonical JSON (sorted keys, no whitespace drift) with a
trailing newline.  ``bundle_id`` is the SHA-256 over the sorted
``{file: sha256}`` table — identical content, wherever it was produced,
yields an identical id, which is what makes the diff engine's
"identical bundles" short-circuit trustworthy.  The per-HAU phases a
bundle attributes time to are ``repro.vocabulary.PHASES``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro.harness.digest import canonical_json

# v2: bundles carry alerts.json (SLO alert log + health timeline —
# empty for unmonitored runs).  read_bundle reads this version only.
BUNDLE_VERSION = 2

MANIFEST_NAME = "MANIFEST.json"

# The payload sections each bundle file is cut from, in a fixed order so
# MANIFEST's file table (and therefore the bundle id) never reorders.
_SECTION_FILES = (
    "config.json",
    "metrics.json",
    "phases.json",
    "critical_paths.json",
    "timeline.json",
    "alerts.json",
    "telemetry.json",
)


class BundleError(ValueError):
    """A directory is not a readable, self-consistent bundle."""


def _file_bytes(obj: Any) -> bytes:
    return (canonical_json(obj) + "\n").encode("utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build_bundle(
    payload: dict[str, Any],
    telemetry: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Cut a sweep-cell payload (see ``harness.sweep.reduce_result``)
    into the in-memory bundle: ``{"manifest": ..., "files": ...}``.

    ``telemetry`` optionally attaches a metric snapshot (experiment-level
    bundles; sweep cells run traced but not telemetered).
    """
    cfg = payload.get("config") or {}
    files: dict[str, Any] = {
        "config.json": cfg,
        "metrics.json": {
            "throughput": payload.get("throughput"),
            "latency": payload.get("latency"),
            "latency_percentiles": payload.get("latency_percentiles") or {},
            "rounds_completed": payload.get("rounds_completed"),
        },
        "phases.json": payload.get("phase_spans")
        or {"totals": {}, "per_hau": {}},
        "critical_paths.json": payload.get("critical_path")
        or {"rounds": {}, "gating": {}, "hops": {}},
        "timeline.json": {
            "checkpoint": payload.get("checkpoint"),
            "recovery": payload.get("recovery"),
            "stragglers": payload.get("stragglers") or [],
        },
        "alerts.json": {
            "alerts": payload.get("alerts") or {},
            "health_timeline": payload.get("health_timeline") or [],
        },
        "telemetry.json": telemetry,
    }
    hashes = {name: _sha256(_file_bytes(files[name])) for name in _SECTION_FILES}
    manifest = {
        "bundle_version": BUNDLE_VERSION,
        "bundle_id": bundle_id(hashes),
        "meta": {
            "app": cfg.get("app"),
            "scheme": cfg.get("scheme"),
            "seed": cfg.get("seed"),
            "n_checkpoints": cfg.get("n_checkpoints"),
            "window": cfg.get("window"),
            "warmup": cfg.get("warmup"),
        },
        "digest": payload.get("digest"),
        "files": hashes,
    }
    return {"manifest": manifest, "files": files}


def bundle_id(hashes: dict[str, str]) -> str:
    """Content address: SHA-256 over the sorted ``{file: sha256}`` table."""
    return _sha256(canonical_json(dict(sorted(hashes.items()))).encode("utf-8"))


def write_bundle(
    bundle: dict[str, Any], root: Path | str, name: str | None = None
) -> Path:
    """Write a bundle directory under ``root``; returns the directory.

    Without ``name`` the directory is the first 16 hex chars of the
    bundle id (content-addressed: re-writing identical content is a
    no-op landing on the same path).  ``name`` pins a stable path for
    committed baselines (e.g. ``benchmarks/BUNDLE_baseline``).  Files
    are written atomically so concurrent sweeps never read a torn
    bundle.
    """
    manifest = bundle["manifest"]
    root = Path(root)
    directory = root / (name if name is not None else manifest["bundle_id"][:16])
    directory.mkdir(parents=True, exist_ok=True)
    for filename in _SECTION_FILES:
        data = _file_bytes(bundle["files"][filename])
        path = directory / filename
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)
    data = _file_bytes(manifest)
    path = directory / MANIFEST_NAME
    tmp = path.with_suffix(".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)
    return directory


def read_bundle(path: Path | str, verify: bool = True) -> dict[str, Any]:
    """Load a bundle directory back into its in-memory form.

    ``verify=True`` (default) re-hashes every section file against the
    manifest table and recomputes the bundle id — a truncated upload or
    a hand-edited file fails loudly instead of producing a bogus diff.
    """
    directory = Path(path)
    manifest_path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise BundleError(f"{directory}: not a bundle directory ({exc})") from exc
    except ValueError as exc:
        raise BundleError(f"{manifest_path}: invalid JSON ({exc})") from exc
    version = manifest.get("bundle_version")
    if version != BUNDLE_VERSION:
        raise BundleError(
            f"{directory}: bundle_version {version!r} "
            f"(this build reads version {BUNDLE_VERSION})"
        )
    files: dict[str, Any] = {}
    for filename in _SECTION_FILES:
        file_path = directory / filename
        try:
            raw = file_path.read_bytes()
        except OSError as exc:
            raise BundleError(f"{directory}: missing section {filename}") from exc
        if verify:
            want = manifest.get("files", {}).get(filename)
            got = _sha256(raw)
            if got != want:
                raise BundleError(
                    f"{file_path}: content hash {got[:12]}… does not match "
                    f"the manifest ({str(want)[:12]}…) — the bundle is corrupt"
                )
        files[filename] = json.loads(raw.decode("utf-8"))
    if verify and bundle_id(manifest.get("files", {})) != manifest.get("bundle_id"):
        raise BundleError(f"{directory}: bundle_id does not match the file table")
    return {"manifest": manifest, "files": files}
