"""The catalogue of nondeterminism sources the per-file determinism
rules (DET001 / DET002 / DET005) match calls against.

Leaf module (no intra-package imports), plain frozen sets.
"""

from __future__ import annotations

# Canonical dotted names whose *call* reads the wall clock (or stalls on
# it): any of these in model code couples simulated behaviour to real
# time and breaks same-seed reproducibility.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

# numpy.random module-level functions that draw from (or reseed) the
# process-global legacy RandomState.  Constructors of independent
# generators (default_rng, SeedSequence, Generator, PCG64, ...) are the
# supported path and are deliberately absent.
NUMPY_GLOBAL_RNG = frozenset(
    {
        "seed",
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "random_integers",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "poisson",
        "exponential",
        "binomial",
        "beta",
        "gamma",
    }
)

# Module-level functions that enumerate the filesystem in an order the
# OS does not define (directory order is filesystem- and history-
# dependent).  Safe only when the result is immediately sorted.
FS_ENUM_CALLS = frozenset(
    {
        "os.listdir",
        "os.scandir",
        "os.walk",
        "glob.glob",
        "glob.iglob",
    }
)

# Method names with the same hazard on pathlib.Path receivers (and
# anything Path-like).  Matched by attribute name: a ``.glob(...)`` on a
# non-path receiver in this codebase is still an enumeration.
FS_ENUM_METHODS = frozenset({"iterdir", "glob", "rglob"})

__all__ = [
    "FS_ENUM_CALLS",
    "FS_ENUM_METHODS",
    "NUMPY_GLOBAL_RNG",
    "WALL_CLOCK_CALLS",
]
