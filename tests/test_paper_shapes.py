"""The correctness scoreboard: does each figure point the paper's way?

One test per direction of the paper's figures, on a reduced fast grid:
every cell is built by ``figure_cell`` at window 150 s / warm-up 30 s,
seed 1, and all of them run in one ``run_cells`` call (nineteen cells,
about 11 s cold on two cores).  A direction that fails today is a strict
xfail naming the ROADMAP item that owns its fix, so a fix shows up as an
XPASS that fails this file until the PR removes the marker.  No
direction is loosened to pass.

The committed fast numbers these read are ``BENCH_baseline.json``'s
(Fig. 12 throughput, tuples in the window).
"""

import math

import pytest

from repro.harness.figures import figure_cell
from repro.harness.sweep import run_cells

WINDOW, WARMUP = 150.0, 30.0
APPS = ("tmi", "bcp", "signalguru")
MS_SCHEMES = ("ms-src", "ms-src+ap", "ms-src+ap+aa")

CELLS = {
    **{(app, "baseline", 0): figure_cell(app, "baseline", 0, WINDOW, WARMUP) for app in APPS},
    **{(app, "ms-src", 0): figure_cell(app, "ms-src", 0, WINDOW, WARMUP) for app in APPS},
    **{
        (app, scheme, 3): figure_cell(app, scheme, 3, WINDOW, WARMUP)
        for app in APPS for scheme in MS_SCHEMES
    },
    **{
        ("signalguru", scheme, n): figure_cell("signalguru", scheme, n, WINDOW, WARMUP)
        for scheme, n in (("baseline", 8), ("ms-src+ap+aa", 1))
    },
    # Fig. 16: every node hosting the application fails 0.6 into the window
    **{
        ("bcp", scheme, "fig16"): figure_cell(
            "bcp", scheme, 2, WINDOW, WARMUP, fail_at=0.6, enable_recovery=True
        )
        for scheme in ("ms-src+ap", "ms-src+ap+aa")
    },
}


def red(item):
    """A direction that fails today, until ROADMAP ``item`` fixes it."""
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}", raises=AssertionError)


@pytest.fixture(scope="module")
def cells():
    return dict(zip(CELLS, run_cells(list(CELLS.values()))))


def throughput(cells, app, scheme, n):
    return cells[(app, scheme, n)]["throughput"]


def test_every_cell_is_finite_and_positive(cells):
    for key, payload in cells.items():
        for metric in ("throughput", "latency"):
            value = payload[metric]
            assert math.isfinite(value) and value > 0, f"{key} {metric} = {value}"


@pytest.mark.parametrize("app", APPS)
def test_source_preservation_gains_ten_percent_without_checkpoints(cells, app):
    """Fig. 12 at n = 0: 1.197 / 1.254 / 1.213 committed."""
    assert throughput(cells, app, "ms-src", 0) >= 1.10 * throughput(cells, app, "baseline", 0)


@pytest.mark.parametrize("app", APPS)
def test_asynchronous_checkpoints_do_not_cost_throughput(cells, app):
    """Fig. 12 at n = 3: ``+ap`` ≥ ``ms-src``."""
    assert throughput(cells, app, "ms-src+ap", 3) >= throughput(cells, app, "ms-src", 3)


@red(18)
def test_baseline_checkpoints_cost_signalguru_ten_percent(cells):
    """Fig. 12: the paper's SG baseline falls to 0.21 at n = 8; 0.944
    committed."""
    sg = "signalguru"
    assert throughput(cells, sg, "baseline", 8) <= 0.90 * throughput(cells, sg, "baseline", 0)


# ms-src completes 2 of 3 rounds on every app; aa's period grid starts at
# its profile's end, so its third round opens 135 s into the 150 s window.
ROUNDS_RED = {
    **{(app, "ms-src"): 20 for app in APPS},
    ("tmi", "ms-src+ap+aa"): 14,
    ("signalguru", "ms-src+ap+aa"): 14,
}


@pytest.mark.parametrize(
    "app, scheme",
    [
        pytest.param(
            app, scheme,
            marks=[red(ROUNDS_RED[(app, scheme)])] if (app, scheme) in ROUNDS_RED else [],
        )
        for app in APPS for scheme in MS_SCHEMES
    ],
)
def test_a_cell_completes_the_rounds_it_is_labelled_with(cells, app, scheme):
    assert cells[(app, scheme, 3)]["rounds_completed"] == 3


@red(14)
def test_aware_checkpointing_costs_at_least_no_checkpoint(cells):
    """A cell with one checkpoint cannot beat one with none: SG aa@1
    reads 1.313 committed against ms-src@0's 1.213."""
    sg = "signalguru"
    assert throughput(cells, sg, "ms-src+ap+aa", 1) <= throughput(cells, sg, "ms-src", 0)


@red(14)
def test_aware_checkpoints_are_cheaper_to_recover_on_bcp(cells):
    """Fig. 16: aa picks small cuts, so it reads back no more than ap
    (today 137.6 MB against 96.9 MB)."""
    aa = cells[("bcp", "ms-src+ap+aa", "fig16")]["recovery"]
    ap = cells[("bcp", "ms-src+ap", "fig16")]["recovery"]
    assert aa["bytes_read"] <= ap["bytes_read"]
