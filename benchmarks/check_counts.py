"""Gate two traced ``perf.run`` reports on what must not move: the counts.

    python benchmarks/check_counts.py BASE.json HEAD.json

Both files are ``python -m perf.run --layers`` reports.  Prints one line
naming the workload and the counter for every ``sim_digest`` or simulated
count that differs, and exits 1 if there is any; 2 if a report cannot be
read.  Counts repeat exactly for a seed, so any difference is a model
change.  Host seconds are not compared: they stay informational.
"""

import json
import sys
from pathlib import Path

COUNTS = (
    "simulation.events_popped", "dsps.tuples_processed",
    "cluster.channel_bytes_delivered", "storage.bytes_written", "storage.bytes_read",
    "core.rounds_requested", "core.rounds_completed", "core.recoveries_completed",
    "failures.injected", "failures.haus_recovered", "failures.unrecoverable",
    "observability.trace_events", "monitor.ticks",
)


def differences(base: dict, head: dict) -> list[str]:
    """One line per workload x (``sim_digest`` or count) that moved."""
    out = []
    for name in sorted(base.keys() | head.keys()):
        if name not in base or name not in head:
            out.append(f"{name}: only in the {'head' if name in head else 'base'} report")
            continue
        pairs = [("sim_digest", base[name]["sim_digest"], head[name]["sim_digest"])]
        pairs += [(key, base[name]["metrics"][key], head[name]["metrics"][key]) for key in COUNTS]
        out += [f"{name}: {key} {was} -> {now}" for key, was, now in pairs if was != now]
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        base, head = (json.loads(Path(p).read_text(encoding="utf-8"))["workloads"] for p in argv)
        moved = differences(base, head)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"unreadable report: {exc!r}", file=sys.stderr)
        return 2
    for line in moved:
        print(f"MOVED {line}")
    print(f"{len(moved)} difference(s) over {len(base.keys() | head.keys())} workload(s)")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
