#!/usr/bin/env python3
"""Exact check of the fast Fig. 12/13 record against ``BENCH_baseline.json``.

``python benchmarks/check_regression.py ARTIFACT_DIR [--write]``: the record
``{mode, cells, headline, kernel}`` is the headline bench's ``BENCH_headline.json``
less ``sweep_stats`` plus its ``BENCH_kernel.json``, and must ``==`` the committed
one.  Exits as the pin gate: 0 equal; 1 a difference, one line each; 2 a
missing or malformed file, NaN included; 77 recorded on another build.
``--write`` prints the same difference lines against the committed record,
then re-records it.
"""

import argparse
import json
import sys
from pathlib import Path

from repro.harness.digest import EXIT_SKIPPED, environment_fingerprint, environment_mismatch

DEFAULT_BASELINE = Path(__file__).resolve().parent / "BENCH_baseline.json"


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


def _committed() -> tuple[dict, dict, dict[str, dict]]:
    """The committed record: as loaded, less ``environment``, and by cell."""
    baseline = _load(DEFAULT_BASELINE)
    old = {key: value for key, value in baseline.items() if key != "environment"}
    return baseline, old, _cells(old, DEFAULT_BASELINE)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact_dir", type=Path, help="REPRO_ARTIFACT_DIR of a headline bench run")
    parser.add_argument("--write", action="store_true",
                        help="re-record the baseline, printing what it moves")
    args = parser.parse_args(argv)
    try:
        new = _load(args.artifact_dir / "BENCH_headline.json")
        new.pop("sweep_stats", None)
        new["kernel"] = _load(args.artifact_dir / "BENCH_kernel.json")
        now = _cells(new, args.artifact_dir)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write:
        try:
            _baseline, old, was = _committed()
        except (OSError, ValueError) as exc:
            print(f"no committed record to compare: {exc}")
        else:
            print("\n".join(f"  {line}" for line in _differences(old, was, new, now)))
        record = {"environment": environment_fingerprint(), **new}
        DEFAULT_BASELINE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(now)} cells to {DEFAULT_BASELINE}")
        return 0
    try:
        baseline, old, was = _committed()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if skipped := environment_mismatch(baseline.get("environment")):
        print(f"regression check skipped: {skipped}")
        return EXIT_SKIPPED
    lines = _differences(old, was, new, now)
    print("\n".join([f"  {line}" for line in lines] + [
        f"FAIL: {len(lines)} difference(s); if intended, re-record with --write" if lines
        else f"OK: {len(now)} cells, headline and kernel bit-identical"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
