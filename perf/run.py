"""Host-time benchmark runner: every workload, every metric, checked outputs.

    python -m perf.run [--seed 1] [--reps 5] [--out perf/out/run.json]
    python -m perf.run --layers          # the traced pass: per-layer metrics

runs every workload (``--workload`` picks some), prints each metric by
name with its unit, checks outputs and exits 1 if any operation failed.
Each pass over a workload runs in a fresh child interpreter
(``perf/child.py``), one at a time, passes interleaved across workloads.
``--seconds S`` replaces the fixed pass count by a time budget per
workload.  With one workload selected, the last line of standard output
is the result object ``BENCHMARK.json`` describes.

This module never imports the program: the children do.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perf.layers import layer_metrics
from perf.spans import duration, self_times

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perf" / "out"

# Knobs the program reads from the environment; a pass sees none of them.
SCRUBBED = (
    "REPRO_FULL", "REPRO_SCHED", "REPRO_BATCH_QUANTUM", "REPRO_SAN",
    "REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_BUNDLE_DIR",
)
MIN_TIMED_PASSES = 3
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    """The child interpreter itself broke (not an operation inside it)."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def spawn(workload: str, seed: int, mode: str, small: bool = False) -> dict:
    """One pass in a fresh interpreter; returns what the child printed."""
    cmd = [sys.executable, "-m", "perf.child", "--workload", workload,
           "--seed", str(seed), "--mode", mode] + (["--small"] if small else [])
    done = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(
            f"{workload} ({mode}) exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def plain_passes(
    names: list[str], seed: int, reps: int, seconds: float | None
) -> dict[str, list[dict]]:
    """Round-robin passes: w1 r1, w2 r1, ... w1 r2 ...  A workload leaves
    the rotation after ``reps`` passes or, under a time budget, when one
    more pass like the last would overrun it."""
    passes: dict[str, list[dict]] = {name: [] for name in names}
    spent = dict.fromkeys(names, 0.0)
    active = list(names)
    while active:
        for name in list(active):
            started = time.perf_counter()
            passes[name].append(spawn(name, seed, "plain"))
            last = time.perf_counter() - started
            spent[name] += last
            count = len(passes[name])
            if seconds is None:
                finished = count >= reps
            else:
                finished = count >= MIN_TIMED_PASSES and spent[name] + last > seconds
            if finished:
                active.remove(name)
    return passes


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": statistics.median(values), "min": min(values),
        "q1": q1, "q3": q3, "n": len(values), "values": values,
    }


def check_operations(passes: list[dict]) -> tuple[int, int, list[str]]:
    """``(operations attempted, operations failed, why)`` over a
    workload's passes.  An operation fails if it raised, broke an
    invariant, or produced another digest than the same operation in the
    first pass."""
    attempted = failed = 0
    why = []
    reference = {op["name"]: op["digest"] for op in passes[0]["ops"]}
    for index, one in enumerate(passes):
        for op in one["ops"]:
            attempted += 1
            problems = [op["error"]] if op["error"] else list(op["checks"])
            if not problems and op["digest"] != reference.get(op["name"]):
                problems = ["digest differs between passes"]
            failed += bool(problems)
            why.extend(f"pass {index}: {op['name']}: {msg}" for msg in problems)
    return attempted, failed, why


def sim_digest(one: dict) -> str:
    """Combined digest of one pass's operations, in order."""
    text = "\n".join(op["digest"] or "-" for op in one["ops"])
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def pass_totals(one: dict) -> dict[str, float]:
    """One pass's operations added up (calibrated seconds, see
    ``perf/passlog.py``; ``raw_wall_s`` is what the clock said)."""
    ops = one["ops"]
    return {
        "wall_s": sum(op["wall_s"] for op in ops),
        "setup_s": sum(op["setup_s"] for op in ops),
        "raw_wall_s": sum(op["raw_wall_s"] for op in ops),
        "tuples": sum(op["facts"].get("tuples", 0) for op in ops),
        "slowdown": statistics.median(op["slowdown"] for op in ops),
    }


def end_to_end(passes: list[dict]) -> dict[str, dict]:
    """The four end-to-end metrics, summarised over a workload's passes."""
    totals = [pass_totals(one) for one in passes]
    return {
        "wall_s": summarize([t["wall_s"] for t in totals]),
        "setup_s": summarize([t["setup_s"] for t in totals]),
        "tuples_per_host_s": summarize([t["tuples"] / t["wall_s"] for t in totals]),
        "peak_rss_mb": summarize([one["peak_rss_mb"] for one in passes]),
    }


def span_report(spans: list[dict]) -> list[str]:
    """Per operation: wall, and the share of it no boundary span covers."""
    own = self_times(spans)
    lines = []
    for root in (s for s in spans if s["name"] == "op"):
        lines.append(
            f"  op {root['op']:<34} wall {duration(root):8.4f} s"
            f"  outside any layer span {own[root['id']] / duration(root):6.2%}"
        )
    return lines


def report_traced(row: dict, spans_pass: dict, profile_pass: dict, units: dict) -> None:
    """Fill and print one workload's row of the traced pass."""
    row["metrics"] = layer_metrics(spans_pass, profile_pass)
    row["notes"] = {
        metric: extra for metric, extra in spans_pass.get("extras", {}).items()
        if "base_s" in extra
    }
    row["spans"] = spans_pass["spans"]
    print(f"  traced pass wall_s {pass_totals(spans_pass)['wall_s']:.4f} s"
          f"  under the profiler {pass_totals(profile_pass)['wall_s']:.4f} s")
    print("\n".join(span_report(spans_pass["spans"])))
    quiet = sum(1 for value in row["metrics"].values() if value == 0)
    print(f"  {quiet} per-layer metrics read 0: this workload does not exercise"
          " them, or cannot see them from outside")
    for metric, value in row["metrics"].items():
        if value == 0:
            continue
        note = row["notes"].get(metric)
        suffix = "" if note is None else (
            f"  (base {note['base_s']:.4f} s, spread {note['spread']:.1%}"
            f"{', unresolved' if note['unresolved'] else ''})")
        print(f"  {metric:<40} {value:>18.6f} {units[metric]}{suffix}")


def report_plain(row: dict, passes: list[dict], units: dict) -> None:
    """Fill and print one workload's row of the end-to-end passes."""
    row["metrics"] = end_to_end(passes)
    totals = [pass_totals(one) for one in passes]
    row["raw_wall_s"] = summarize([t["raw_wall_s"] for t in totals])
    row["host_slowdown"] = summarize([t["slowdown"] for t in totals])
    print(f"  raw wall_s {row['raw_wall_s']['median']:.4f} s at host slow-down"
          f" {row['host_slowdown']['median']:.3f}"
          f" [{row['host_slowdown']['min']:.3f}, {max(row['host_slowdown']['values']):.3f}]")
    for metric, stats in row["metrics"].items():
        print(f"  {metric:<20} {stats['median']:>14.4f} {units[metric]:<9}"
              f" min {stats['min']:.4f}  q1 {stats['q1']:.4f}"
              f"  q3 {stats['q3']:.4f}  n {stats['n']}")


def result_line(row: dict, units: dict) -> str:
    """The result object ``BENCHMARK.json`` describes, for one workload."""
    return json.dumps({
        "correct": row["failed_ops"] == 0,
        "attempted": row["ops"],
        "failed": row["failed_ops"],
        "metrics": {
            metric: {
                "value": value["median"] if isinstance(value, dict) else value,
                "unit": units[metric],
            }
            for metric, value in row["metrics"].items()
        },
    })


def run(args: argparse.Namespace) -> int:
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}; choose from {', '.join(known)}",
              file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    header = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "loadavg": os.getloadavg(),
        "scrubbed": {k: k in os.environ for k in SCRUBBED},
        "seed": args.seed,
        "trace": args.trace,
    }
    were_set = [k for k, was_set in header["scrubbed"].items() if was_set]
    print(f"# perf.run seed={args.seed} trace={args.trace} nproc={header['nproc']} "
          f"python={header['python']} numpy={header['numpy']} loadavg={header['loadavg'][0]:.2f} "
          f"scrubbed={','.join(were_set) or 'none set'}")

    traced: dict[str, tuple[dict, dict]] = {}
    try:
        if args.trace:
            for name in names:
                traced[name] = (spawn(name, args.seed, "spans"), spawn(name, args.seed, "profile"))
            passes = {name: [pair[0]] for name, pair in traced.items()}
        else:
            passes = plain_passes(names, args.seed, args.reps, args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark pass broke: {exc}", file=sys.stderr)
        return 2

    report: dict = {"header": header, "workloads": {}}
    for name in names:
        attempted, failed, why = check_operations(passes[name])
        row = report["workloads"][name] = {
            "passes": len(passes[name]),
            "ops": attempted,
            "failed_ops": failed,
            "failures": why,
            "sim_digest": sim_digest(passes[name][0]),
        }
        print(f"\n{name}: passes {row['passes']}  ops {attempted}  failed_ops {failed}"
              f"  failed_op_share {failed / attempted:.3f}  sim_digest {row['sim_digest'][:16]}")
        for line in why:
            print(f"  FAILED {line}")
        if args.trace:
            report_traced(row, *traced[name], units)
        else:
            report_plain(row, passes[name], units)

    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        spans_path = OUT_DIR / "spans.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({name: row.pop("spans") for name, row in report["workloads"].items()}, fh)
        print(f"\nspans written to {spans_path.relative_to(ROOT)}")
    default_out = OUT_DIR / ("layers.json" if args.trace else "run.json")
    out_path = Path(args.out) if args.out else default_out
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"report written to {out_path}")

    if len(names) == 1:
        print(result_line(report["workloads"][names[0]], units))
    return 1 if any(row["failed_ops"] for row in report["workloads"].values()) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=5,
                        help="passes per workload (default 5)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget per workload, in place of --reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced pass (per-layer metrics)")
    parser.add_argument("--layers", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--out", default=None,
                        help="report file (default perf/out/run.json, or layers.json)")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
