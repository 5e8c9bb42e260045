"""One pass over one workload in a fresh interpreter (spawned by perf/run.py).

Prints one JSON object as the last line of standard output: the
operation records (each with its calibrated wall and set-up seconds, see
``perf/passlog.py``), the boundary spans and the peak resident set.
Imports of the program are timed apart from the pass (``import_s``).

Modes: ``plain`` is the end-to-end pass.  ``spans`` is the same pass
followed by the extra runs that explain the workload (microbenches,
on/off runs).  ``profile`` is the same pass with ``cProfile`` attached
to the ``simulation.run`` spans.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "profile"), default="plain")
    parser.add_argument("--small", action="store_true",
                        help="shrunken dimensions (perf/selftest.py only)")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import repro

    from perf import micro, workloads
    from perf.passlog import PassLog
    from perf.spans import profile_layers

    import_s = time.perf_counter() - started
    size = workloads.SMALL if args.small else workloads.FULL
    log = PassLog(profiler=cProfile.Profile() if args.mode == "profile" else None)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT_DIR))
    try:
        workloads.WORKLOADS[args.workload](log, args.seed, size, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out = {
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": log.records,
        "spans": log.rec.spans,
    }
    if args.mode == "profile":
        out["profile"] = profile_layers(log.rec.profiler, Path(repro.__file__).parent)
    if args.mode == "spans" and not args.small:
        extras = {name: {"value": value} for name, value in micro.run_group(args.workload).items()}
        if args.workload == "observed_run":
            extras.update(workloads.observation_overheads(args.seed, size))
        if args.workload == "checkpoint_rounds":
            runs = [s["end"] - s["start"] for s in log.rec.spans if s["name"] == "simulation.run"]
            extras.update(workloads.scheme_overhead(args.seed, size, runs))
        out["extras"] = extras
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
