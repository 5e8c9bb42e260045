#!/usr/bin/env python3
"""Exact check of the headline artifacts against the committed baselines.

``python benchmarks/check_regression.py ARTIFACT_DIR``: the record
``{mode, cells, headline, kernel}`` is the headline bench's ``BENCH_headline.json``
less ``sweep_stats`` plus its ``BENCH_kernel.json``, and must ``==``
``BENCH_baseline.json``; the bench's ``BUNDLE_headline`` must hash as
``BUNDLE_baseline`` does, file for file.  Exits as the pin gate: 0 equal; 1 a
difference, one line each; 2 a missing or malformed file, NaN or a corrupt
bundle included; 77 recorded on another build.  It only checks:
:func:`record`, which ``benchmarks/repin.py`` calls, re-records both.
"""

import argparse
import json
import sys
from pathlib import Path

from repro.harness.digest import EXIT_SKIPPED, environment_fingerprint, environment_mismatch
from repro.inspect.bundle import read_bundle, write_bundle

DEFAULT_BASELINE = Path(__file__).resolve().parent / "BENCH_baseline.json"
DEFAULT_BUNDLE = Path(__file__).resolve().parent / "BUNDLE_baseline"


def _load(path: Path) -> dict:
    def reject(constant: str) -> None:
        raise ValueError(f"{path}: {constant} is not valid JSON")
    doc = json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object")
    return doc


def _cells(record: dict, source: Path) -> dict[str, dict]:
    """``{app/scheme@n: cell}``; a ValueError on a malformed record."""
    cells = record.get("cells")
    sound = (record.keys() == {"cells", "headline", "kernel", "mode"} and isinstance(cells, list)
             and isinstance(record["headline"], dict) and isinstance(record["kernel"], dict)
             and all(isinstance(c, dict) and {"app", "scheme", "n_checkpoints"} <= c.keys()
                     for c in cells))
    named = {f"{c['app']}/{c['scheme']}@{c['n_checkpoints']}": c for c in cells} if sound else {}
    if not sound or len(named) != len(cells):
        raise ValueError(f"{source}: not a mode/cells/headline/kernel record, one cell per name")
    return named


def _changed(name: str, old: dict, new: dict) -> list[str]:
    """``name: key old → new`` for every key whose value differs."""
    return [f"{name}: {k} {old.get(k, '<none>')!r} → {new.get(k, '<none>')!r}"
            for k in sorted(old.keys() | new.keys())
            if k not in old or k not in new or old[k] != new[k]]


def _differences(old: dict, was: dict, new: dict, now: dict) -> list[str]:
    """One line per difference between the committed record and the new one."""
    lines = _changed("record", {"mode": old["mode"]}, {"mode": new["mode"]})
    lines += [f"{name}: {'missing' if name in was else 'new'} cell"
              for name in sorted(was.keys() ^ now.keys())]
    for name in sorted(was.keys() & now.keys()):
        lines += _changed(name, was[name], now[name])
    lines += _changed("headline", old["headline"], new["headline"])
    lines += _changed("kernel", old["kernel"], new["kernel"])
    if old != new and not lines:
        lines.append("cells: the same cells in another order")
    return lines


def _bundle_differences(old: dict, new: dict) -> list[str]:
    """``bundle: FILE old → new`` per differing file hash, then per other manifest
    key (``bundle_id`` is the hash of the hashes, which ``read_bundle`` checked)."""
    was, now = ({k: v for k, v in side["manifest"].items() if k != "bundle_id"}
                for side in (old, new))
    return _changed("bundle", was.pop("files"), now.pop("files")) + _changed("bundle", was, now)


def _committed() -> tuple[dict, dict, dict[str, dict]]:
    """The committed record: as loaded, less ``environment``, and by cell."""
    baseline = _load(DEFAULT_BASELINE)
    old = {key: value for key, value in baseline.items() if key != "environment"}
    return baseline, old, _cells(old, DEFAULT_BASELINE)


def _artifacts(artifact_dir: Path) -> tuple[dict, dict[str, dict], dict]:
    """The fresh record, by cell, and the bundle; OSError / ValueError when
    one is missing or malformed."""
    new = _load(artifact_dir / "BENCH_headline.json")
    new.pop("sweep_stats", None)
    new["kernel"] = _load(artifact_dir / "BENCH_kernel.json")
    return new, _cells(new, artifact_dir), read_bundle(artifact_dir / "BUNDLE_headline")


def record(artifact_dir: Path) -> list[str]:
    """Re-record both baselines from ``artifact_dir`` under this build;
    returns the difference lines against what was committed (one line
    instead when nothing was)."""
    new, now, bundle = _artifacts(artifact_dir)
    lines = []
    try:
        _baseline, old, was = _committed()
    except (OSError, ValueError) as exc:
        lines.append(f"no committed record to compare: {exc}")
    else:
        lines += _differences(old, was, new, now)
    try:
        committed = read_bundle(DEFAULT_BUNDLE)
    except (OSError, ValueError) as exc:
        lines.append(f"no committed bundle to compare: {exc}")
    else:
        lines += _bundle_differences(committed, bundle)
    baseline = {"environment": environment_fingerprint(), **new}
    DEFAULT_BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    write_bundle(bundle, DEFAULT_BUNDLE.parent, name=DEFAULT_BUNDLE.name)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact_dir", type=Path, help="REPRO_ARTIFACT_DIR of a headline bench run")
    args = parser.parse_args(argv)
    try:
        new, now, bundle = _artifacts(args.artifact_dir)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        baseline, old, was = _committed()
        committed = read_bundle(DEFAULT_BUNDLE)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if skipped := environment_mismatch(baseline.get("environment")):
        print(f"regression check skipped: {skipped}")
        return EXIT_SKIPPED
    lines = _differences(old, was, new, now) + _bundle_differences(committed, bundle)
    print("\n".join([f"  {line}" for line in lines] + [
        f"FAIL: {len(lines)} difference(s); if intended, re-pin with python benchmarks/repin.py"
        if lines else f"OK: {len(now)} cells, headline, kernel and bundle bit-identical"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
