#!/usr/bin/env python
"""Application-aware checkpointing in action.

Runs SignalGuru (the heaviest-state application) twice with identical
checkpoint budgets:

* MS-src+ap   — checkpoints at fixed instants, oblivious to state;
* MS-src+ap+aa — profiles the motion filters' bursty state, enters alert
  mode when the aggregate drops below smax, and fires each round at the
  first rising turning point (aggregated ICR > 0).

Prints the profiling outcome, each round's trigger, and the checkpointed
dynamic state of both runs — the aa rounds should be much lighter.

Run:  python examples/aware_checkpointing.py
"""

from repro.harness import run_experiment
from repro.harness.figures import figure_config

WINDOW = 150.0
WARMUP = 30.0
ROUNDS = 2


def run(scheme_name: str):
    # aa warms up one period longer, so its profile sees a full period
    cfg = figure_config("signalguru", scheme_name, ROUNDS, WINDOW, WARMUP)
    return run_experiment(cfg, trace_state=True)


def dynamic_ckpt_mb(res) -> list:
    sizes = []
    for log in res.checkpoint_logs:
        dyn = sum(bd.state_bytes for h, bd in log.haus.items() if h.startswith("M"))
        if log.haus:
            sizes.append(dyn / 1e6)
    return sizes


def main() -> None:
    print("=== MS-src+ap (fixed-time checkpoints) ===")
    ap = run("ms-src+ap")
    ap_sizes = dynamic_ckpt_mb(ap)
    print(f"  checkpointed motion-filter state per round: "
          f"{[f'{s:.0f}MB' for s in ap_sizes]}")

    print("\n=== MS-src+ap+aa (application-aware) ===")
    aa = run("ms-src+ap+aa")
    scheme = aa.scheme
    print(f"  profiling: dynamic HAUs = {scheme.dynamic_haus}")
    print(f"  smax = {scheme.profile_result.smax / 1e6:.0f} MB "
          f"(smin {scheme.profile_result.smin / 1e6:.0f} MB, "
          f"relaxation {scheme.profile_result.relaxation:.2f})")
    for t, reason in scheme.record.decisions:
        print(f"  round fired at t={t:.1f}s because: "
              f"{'aggregated ICR turned positive in alert mode' if reason == 'icr' else 'period-end fallback'}")
    aa_sizes = dynamic_ckpt_mb(aa)
    print(f"  checkpointed motion-filter state per round: "
          f"{[f'{s:.0f}MB' for s in aa_sizes]}")

    series = aa.state_series("M")
    values = [s for (_t, s) in series]
    avg = sum(values) / len(values) / 1e6
    peak = max(values) / 1e6
    print(f"\nMotion-filter state over the run: avg {avg:.0f} MB, peak {peak:.0f} MB")
    if aa_sizes:
        print(f"Aware rounds averaged {sum(aa_sizes)/len(aa_sizes):.0f} MB — below the "
              f"average and far below the peak a fixed-time round can hit.")
    if ap_sizes:
        print(f"(This run's fixed-time rounds drew {[f'{s:.0f}MB' for s in ap_sizes]} — "
              "fixed timing is a lottery between the minima and the peak;")
        print(" aware timing is anchored near the minima every period.)")
    print("Smaller checkpoints mean shorter writes, less storage contention")
    print("and (Fig. 16) proportionally faster worst-case recovery.")


if __name__ == "__main__":
    main()
