"""Determinism rules: no wall clock, no global RNG, ordered exports, no
salted ``hash()``.

The byte-identical-artifact contract (DESIGN.md, "Determinism contract")
holds only if every value that reaches a trace event, telemetry metric
or bench artifact derives from simulation state.  These rules catch the
ways real code has historically broken that: reading the wall clock,
drawing from process-global randomness, serialising unordered
collections, and routing on a ``PYTHONHASHSEED``-salted ``hash()``.
Each is per-file: a source is reported at the line it is written,
whoever calls it.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.engine import ModuleContext, receiver_tail
from repro.analysis.findings import Severity
from repro.analysis.nondet import (
    FS_ENUM_CALLS,
    FS_ENUM_METHODS,
    NUMPY_GLOBAL_RNG,
    WALL_CLOCK_CALLS,
)
from repro.analysis.registry import Rule, register


@register
class WallClockRule(Rule):
    """DET001 — model and harness code must never read the wall clock."""

    id = "DET001"
    title = "no wall-clock calls (`time.time`, `datetime.now`, `perf_counter`, `sleep`, ...)"
    rationale = (
        "simulated time is `env.now`; host timing in model code breaks the byte-identical "
        "same-seed contract"
    )
    severity = Severity.ERROR
    node_types = (ast.Call,)

    def visit(self, ctx: ModuleContext, node: ast.Call) -> None:
        name = ctx.canonical(node.func)
        if name in WALL_CLOCK_CALLS:
            ctx.report(self, node, f"wall-clock call `{name}()` — use simulated time (`env.now`)")


@register
class GlobalRandomRule(Rule):
    """DET002 — all randomness must come from seeded named streams."""

    id = "DET002"
    title = "no global `random` module, no legacy `numpy.random.<fn>` global-state draws"
    rationale = (
        "all randomness flows through seeded named streams (`repro.simulation.rng.RngRegistry`); "
        "one stray draw perturbs every pinned seed"
    )
    severity = Severity.ERROR
    node_types = (ast.Import, ast.ImportFrom, ast.Call)

    def visit(self, ctx: ModuleContext, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "random" or a.name.startswith("random."):
                    ctx.report(
                        self,
                        node,
                        "import of the global `random` module — use "
                        "`repro.simulation.rng.RngRegistry` streams",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module == "random" or (node.module or "").startswith("random.")):
                ctx.report(
                    self,
                    node,
                    "import from the global `random` module — use "
                    "`repro.simulation.rng.RngRegistry` streams",
                )
        elif isinstance(node, ast.Call):
            name = ctx.canonical(node.func)
            if name is None:
                return
            parts = name.split(".")
            if len(parts) == 3 and parts[0] == "numpy" and parts[1] == "random":
                if parts[2] in NUMPY_GLOBAL_RNG:
                    ctx.report(
                        self,
                        node,
                        f"legacy global-state RNG call `{name}()` — draw from a "
                        "named `RngRegistry` stream instead",
                    )


# Method calls returning a view whose iteration order is the dict's:
# fine on sorted input, a reproducibility hazard in a serialiser.
_DICT_VIEWS = ("keys", "values", "items")

# Order-insensitive consumers: a set/view iterated *directly inside* one
# of these folds to the same value whatever the iteration order.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "set", "frozenset", "sum", "min", "max", "len", "any", "all"}
)

# Functions with these name fragments produce the byte-contract
# artifacts (JSONL traces, telemetry snapshots, bench JSON); inside them
# even a dict view must be explicitly ordered.
_SERIALIZER_NAME = re.compile(
    r"(^|_)(as_dict|to_|dump|dumps|write_|export|serialize|snapshot|series_dict|jsonl)"
)


@register
class UnorderedExportRule(Rule):
    """DET003 — export paths iterate collections in sorted order."""

    id = "DET003"
    title = (
        "no set iteration in export paths; dict views inside serialiser functions must be "
        "`sorted(...)`"
    )
    rationale = (
        "trace JSONL / telemetry snapshots / bench artifacts promise byte-identical output per "
        "seed"
    )
    severity = Severity.ERROR
    node_types = (
        ast.FunctionDef,
        ast.Call,
        ast.For,
        ast.GeneratorExp,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
    )
    path_globs = (
        "src/repro/observability/*",
        "src/repro/telemetry/*",
        "src/repro/harness/*",
        "benchmarks/*",
    )

    def begin_module(self, ctx: ModuleContext) -> None:
        # comprehension nodes whose result feeds an order-insensitive
        # builtin (`sorted(x for ...)`), pre-marked because the shared
        # walk visits parents before children
        self._sanctified: set[int] = set()
        # line spans of serializer-named functions
        self._serializer_spans: list[tuple[int, int]] = []

    def _in_serializer(self, node: ast.AST) -> bool:
        line = getattr(node, "lineno", 0)
        return any(lo <= line <= hi for lo, hi in self._serializer_spans)

    def visit(self, ctx: ModuleContext, node: ast.AST) -> None:
        if isinstance(node, ast.FunctionDef):
            if _SERIALIZER_NAME.search(node.name):
                self._serializer_spans.append((node.lineno, node.end_lineno or node.lineno))
            return
        if isinstance(node, ast.Call):
            # everything fed to an order-insensitive builtin is exempt;
            # the shared walk visits parents before children, so the
            # marks land before the inner comprehensions are dispatched
            if isinstance(node.func, ast.Name) and node.func.id in _ORDER_INSENSITIVE:
                for sub in ast.walk(node):
                    if sub is not node:
                        self._sanctified.add(id(sub))
            return
        iterables = (
            [node.iter] if isinstance(node, ast.For) else [c.iter for c in node.generators]
        )
        for it in iterables:
            self._check_iterable(ctx, node, it)

    def _check_iterable(self, ctx: ModuleContext, loop: ast.AST, it: ast.AST) -> None:
        if id(it) in self._sanctified or id(loop) in self._sanctified:
            return
        if isinstance(it, (ast.Set, ast.SetComp)):
            ctx.report(self, it, "iteration over a set literal/comprehension in an export path")
            return
        if not isinstance(it, ast.Call):
            return
        if isinstance(it.func, ast.Name) and it.func.id in ("set", "frozenset"):
            ctx.report(self, it, f"iteration over `{it.func.id}(...)` in an export path")
            return
        if (
            isinstance(it.func, ast.Attribute)
            and it.func.attr in _DICT_VIEWS
            and not it.args
            and self._in_serializer(it)
        ):
            recv = receiver_tail(it.func) or "<dict>"
            ctx.report(
                self,
                it,
                f"unsorted iteration over `{recv}.{it.func.attr}()` in a "
                "serialiser — wrap in sorted()",
            )


@register
class UnsortedFsEnumerationRule(Rule):
    """DET005 — filesystem enumeration must be explicitly ordered."""

    id = "DET005"
    title = (
        "no unsorted filesystem enumeration (`os.listdir`, `os.scandir`, "
        "`Path.glob`/`iterdir`/`rglob`) unless wrapped in `sorted(...)`"
    )
    rationale = (
        "directory order is filesystem-dependent; sweep caches, bundle loaders and campaign "
        "aggregation must see files in the same order on every host"
    )
    severity = Severity.ERROR
    node_types = (ast.Call,)

    def begin_module(self, ctx: ModuleContext) -> None:
        # subtrees of a sorted(...) call, pre-marked because the shared
        # walk visits parents before children
        self._sanctified: set[int] = set()

    def visit(self, ctx: ModuleContext, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "sorted":
            for sub in ast.walk(node):
                if sub is not node:
                    self._sanctified.add(id(sub))
            return
        if id(node) in self._sanctified:
            return
        name = ctx.canonical(node.func)
        if name in FS_ENUM_CALLS:
            ctx.report(
                self,
                node,
                f"unsorted filesystem enumeration `{name}(...)` — wrap in sorted()",
            )
            return
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in FS_ENUM_METHODS
            and (name is None or name not in FS_ENUM_CALLS)
        ):
            recv = receiver_tail(node.func) or "<path>"
            ctx.report(
                self,
                node,
                f"unsorted filesystem enumeration `{recv}.{node.func.attr}(...)` — "
                "wrap in sorted()",
            )


@register
class SaltedHashRule(Rule):
    """DET006 — model code never calls the builtin ``hash()``."""

    id = "DET006"
    title = "no builtin `hash()` call in `src/` (`str` / `bytes` hashes are `PYTHONHASHSEED`-salted)"
    rationale = (
        "a salted hash that picks a route, an order or a key differs between processes; "
        "`python -m repro.sanitize` catches the drift at run time, this names the line"
    )
    suppress_hint = (
        "use `zlib.crc32` of a stable encoding; a call on numerics only (unsalted in CPython) "
        "takes `# repro-lint: disable=DET006`"
    )
    severity = Severity.ERROR
    node_types = (ast.Call,)
    dirs = ("src",)
    extra_dirs_ok = False

    def visit(self, ctx: ModuleContext, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            ctx.report(self, node, "builtin `hash()` is salted per process for `str` / `bytes`")


__all__ = [
    "WallClockRule",
    "GlobalRandomRule",
    "UnorderedExportRule",
    "UnsortedFsEnumerationRule",
    "SaltedHashRule",
    "WALL_CLOCK_CALLS",
    "NUMPY_GLOBAL_RNG",
]
