"""Tests for repro.analysis (repro-lint): rules, engine, CLI.

Each rule gets at least one seeded-violation fixture (must fire) and
false-positive guards (must stay quiet).  The engine plumbing (inline
suppression, alias resolution, syntax-error reporting) and the CLI
exit-code / JSON-report contracts are covered separately.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis.cli import list_rules_text, main
from repro.analysis.engine import (
    AnalysisConfig,
    import_aliases,
    parse_suppressions,
    run_analysis,
)
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.registry import Rule, all_rules, get_rule, register
from repro.analysis.docs import BLOCKS, VOCABULARY_RELPATH, check_blocks, load_vocabulary
from repro.analysis.vocab import VocabularyRule

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_fixture(tmp_path, files, design=None, rule_ids=None, dirs=("src",)):
    """Materialise ``files`` under ``tmp_path`` and run the analysis."""
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text), encoding="utf-8")
    if design is not None:
        (tmp_path / "DESIGN.md").write_text(textwrap.dedent(design), encoding="utf-8")
    config = AnalysisConfig(
        root=tmp_path,
        dirs=dirs,
        rule_ids=tuple(rule_ids) if rule_ids else None,
    )
    return run_analysis(config)


def rules_of(project):
    return [f.rule for f in project.findings]


# ---------------------------------------------------------------------------
# DET001 — wall-clock calls
# ---------------------------------------------------------------------------


def test_det001_flags_time_time(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            import time

            def tick(env):
                return time.time()
            """
        },
        rule_ids=["DET001"],
    )
    assert rules_of(project) == ["DET001"]
    assert "time.time" in project.findings[0].message


def test_det001_resolves_import_aliases(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            from time import perf_counter as pc
            from datetime import datetime

            def stamp():
                return pc(), datetime.now()
            """
        },
        rule_ids=["DET001"],
    )
    msgs = [f.message for f in project.findings]
    assert len(msgs) == 2
    assert any("time.perf_counter" in m for m in msgs)
    assert any("datetime.datetime.now" in m for m in msgs)


def test_det001_ignores_non_wall_clock_receivers(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            def tick(env, clock):
                now = env.now
                t = clock.time()       # not the time module
                env.timeout(1.0)
                return now, t
            """
        },
        rule_ids=["DET001"],
    )
    assert project.findings == []


# ---------------------------------------------------------------------------
# DET002 — global random module / legacy numpy global RNG
# ---------------------------------------------------------------------------


def test_det002_flags_random_imports_and_numpy_global(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            import random
            from random import choice
            import numpy as np

            def jitter():
                np.random.seed(7)
                return random.random() + np.random.uniform()
            """
        },
        rule_ids=["DET002"],
    )
    # import random, from random import, np.random.seed, np.random.uniform
    assert rules_of(project) == ["DET002"] * 4


def test_det002_allows_generator_construction_and_named_streams(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            import numpy as np

            def make(registry):
                rng = np.random.default_rng(0)
                stream = registry.stream("arrivals")
                return rng.normal() + stream.choice([1, 2])
            """
        },
        rule_ids=["DET002"],
    )
    assert project.findings == []


# ---------------------------------------------------------------------------
# DET003 — unordered iteration in export paths
# ---------------------------------------------------------------------------


def test_det003_flags_set_iteration_in_export_path(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/repro/telemetry/x.py": """\
            def build(items):
                out = [x for x in {1, 2, 3}]
                for x in set(items):
                    out.append(x)
                return out
            """
        },
        rule_ids=["DET003"],
    )
    assert rules_of(project) == ["DET003"] * 2


def test_det003_flags_dict_view_in_serializer(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/repro/telemetry/x.py": """\
            def to_payload(d):
                return [k for k in d.keys()]
            """
        },
        rule_ids=["DET003"],
    )
    assert rules_of(project) == ["DET003"]
    assert "d.keys()" in project.findings[0].message


def test_det003_ignores_dict_view_outside_serializer(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/repro/telemetry/x.py": """\
            def fill(d):
                for k, v in d.items():
                    d[k] = v + 1
            """
        },
        rule_ids=["DET003"],
    )
    assert project.findings == []


def test_det003_ignores_sorted_and_order_insensitive_wraps(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/repro/telemetry/x.py": """\
            def to_payload(d):
                a = [k for k in sorted(d.keys())]
                b = sorted(v for k, v in d.items())
                c = sum(v for v in d.values())
                return a, b, c
            """
        },
        rule_ids=["DET003"],
    )
    assert project.findings == []


def test_det003_scoped_to_export_paths_only(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/repro/dsps/x.py": """\
            def to_payload(d):
                return [k for k in d.keys()] + [x for x in {1, 2}]
            """
        },
        rule_ids=["DET003"],
    )
    assert project.findings == []


# ---------------------------------------------------------------------------
# DET005 — unsorted filesystem enumeration
# ---------------------------------------------------------------------------


def test_det005_fires_on_bare_listdir(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            import os

            def load_all(path):
                return [open(path + "/" + n) for n in os.listdir(path)]
            """
        },
        rule_ids=["DET005"],
    )
    assert rules_of(project) == ["DET005"]
    assert "os.listdir" in project.findings[0].message


def test_det005_quiet_when_sorted(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            import os
            from pathlib import Path

            def load_all(path):
                names = sorted(os.listdir(path))
                files = sorted(Path(path).glob("*.json"))
                return names, files
            """
        },
        rule_ids=["DET005"],
    )
    assert rules_of(project) == []


def test_det005_suppression(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            import os

            def load_all(path):
                return os.listdir(path)  # repro-lint: disable=DET005
            """
        },
        rule_ids=["DET005"],
    )
    assert rules_of(project) == []
    assert project.inline_suppressed == 1


# ---------------------------------------------------------------------------
# DET006 — builtin hash()
# ---------------------------------------------------------------------------


def test_det006_flags_hash_in_src_and_honours_the_disable(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            def route(key, n):
                return hash("x") % n

            def numeric(key):
                return hash(key)  # repro-lint: disable=DET006

            class K:
                def __hash__(self):
                    return 7

            def crc(key):
                return key.hash()
            """,
            "benchmarks/b.py": "def f(k):\n    return hash(k)\n",
        },
        rule_ids=["DET006"],
        dirs=("src", "benchmarks"),
    )
    assert [(f.rule, f.path, f.line) for f in project.findings] == [("DET006", "src/m.py", 2)]
    assert project.inline_suppressed == 1


# ---------------------------------------------------------------------------
# a source is reported where it is written, whoever calls it
# ---------------------------------------------------------------------------

# The shapes the transitive walker (DET004 / PUR001, deleted) was written
# for: a nondeterministic helper behind a serialiser, a scheme hook or an
# operator snapshot.  The per-file rules scan every file of src/, so each
# is a finding at the *source* line with no call graph.
_PLANTS = {
    "wall clock, helper behind a snapshot": (
        """\
        import time

        def _stamp():
            return time.time()

        class Operator:
            pass

        class Windowed(Operator):
            def snapshot(self):
                return {"at": _stamp()}

            def restore(self, blob):
                pass
        """,
        ("DET001", 4),
    ),
    "wall clock, directly in a serialiser": (
        """\
        import time

        def to_json(run):
            return {"t": time.time(), "run": run}
        """,
        ("DET001", 4),
    ),
    # DET002 reports the `import random` the draw needs, not each call
    "global RNG, helper behind a scheme hook": (
        """\
        import random

        def _coin():
            return random.random() < 0.5

        class SchemeHooks:
            pass

        class MyScheme(SchemeHooks):
            def on_control(self, hau, token):
                if _coin():
                    yield None
        """,
        ("DET002", 1),
    ),
    "global RNG, directly in a scheme hook": (
        """\
        import random

        class SchemeHooks:
            pass

        class MyScheme(SchemeHooks):
            def on_control(self, hau, token):
                if random.random() < 0.5:
                    yield None
        """,
        ("DET002", 1),
    ),
    "unsorted enumeration, helper behind a serialiser": (
        """\
        import os

        def _names(path):
            return os.listdir(path)

        def to_json(path):
            return {"names": _names(path)}
        """,
        ("DET005", 4),
    ),
    "salted hash, helper behind a serialiser": (
        """\
        def _bucket(key):
            return hash("x" + key) % 8

        def to_json(key):
            return {"bucket": _bucket(key)}
        """,
        ("DET006", 2),
    ),
}


@pytest.mark.parametrize("plant", sorted(_PLANTS))
def test_planted_source_is_a_finding_at_its_own_line(tmp_path, plant):
    source, expected = _PLANTS[plant]
    project = run_fixture(tmp_path, {"src/pkg/m.py": source})
    assert [(f.rule, f.line) for f in project.findings] == [expected]
    assert project.findings[0].severity == Severity.ERROR


def test_pure_scheme_hook_is_quiet(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/pkg/scheme.py": """\
            class SchemeHooks:
                pass

            class MyScheme(SchemeHooks):
                def on_control(self, hau, token):
                    yield None
            """
        },
    )
    assert project.findings == []


# ---------------------------------------------------------------------------
# SIM001 — process generators yield engine events only
# ---------------------------------------------------------------------------


def test_sim001_flags_literal_yield_in_driven_generator(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            def worker(env):
                yield 1
                yield env.timeout(1.0)

            def main(env):
                env.process(worker(env))
            """
        },
        rule_ids=["SIM001"],
    )
    assert rules_of(project) == ["SIM001"]
    assert "worker" in project.findings[0].message
    assert project.findings[0].line == 2


def test_sim001_flags_bare_yield_and_spawn_and_process_ctor(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            def a(env):
                yield

            def b(env):
                yield "tick"

            def main(env, sched):
                sched.spawn(a(env))
                Process(env, b(env))
            """
        },
        rule_ids=["SIM001"],
    )
    assert rules_of(project) == ["SIM001"] * 2


def test_sim001_allows_return_yield_idiom_and_event_yields(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            def hook(env):
                return
                yield

            def worker(env):
                yield env.timeout(1.0)
                yield from hook(env)

            def main(env):
                env.process(hook(env))
                env.process(worker(env))
            """
        },
        rule_ids=["SIM001"],
    )
    assert project.findings == []


def test_sim001_ignores_undriven_generators(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            def plain_iterator():
                yield 1
                yield 2
            """
        },
        rule_ids=["SIM001"],
    )
    assert project.findings == []


# ---------------------------------------------------------------------------
# PROTO001 — scheme hook protocol / operator save-restore pairing
# ---------------------------------------------------------------------------


def test_proto001_flags_generator_hook_overridden_as_plain(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            class BadScheme(CheckpointScheme):
                def on_emit(self, hau, tup):
                    return tup
            """
        },
        rule_ids=["PROTO001"],
    )
    assert rules_of(project) == ["PROTO001"]
    assert "on_emit" in project.findings[0].message
    assert "yield from" in project.findings[0].message


def test_proto001_flags_yield_in_plain_hook(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            class BadScheme(SchemeHooks):
                def on_hau_started(self, hau):
                    yield hau
            """
        },
        rule_ids=["PROTO001"],
    )
    assert rules_of(project) == ["PROTO001"]
    assert "on_hau_started" in project.findings[0].message


def test_proto001_flags_missing_initiate_round(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            class HalfVariant(MeteorShowerBase):
                def write_checkpoint(self, hau, reason):
                    yield from ()
            """
        },
        rule_ids=["PROTO001"],
    )
    assert any("initiate_round" in f.message for f in project.findings)


def test_proto001_abstract_intermediate_not_flagged(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            class AbstractVariant(MeteorShowerBase):
                pass

            class Concrete(AbstractVariant):
                def initiate_round(self, reason):
                    yield from ()
            """
        },
        rule_ids=["PROTO001"],
    )
    assert project.findings == []


def test_proto001_return_yield_idiom_is_a_generator(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            class GoodScheme(CheckpointScheme):
                def on_emit(self, hau, tup):
                    return
                    yield
            """
        },
        rule_ids=["PROTO001"],
    )
    assert project.findings == []


def test_proto001_operator_snapshot_without_restore(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            class HalfOp(Operator):
                def snapshot(self):
                    return {}

            class FullOp(Operator):
                def snapshot(self):
                    return {}

                def restore(self, blob):
                    pass
            """
        },
        rule_ids=["PROTO001"],
    )
    assert rules_of(project) == ["PROTO001"]
    assert "HalfOp" in project.findings[0].message
    assert "restore" in project.findings[0].message


# ---------------------------------------------------------------------------
# engine plumbing
# ---------------------------------------------------------------------------


def test_inline_suppression_single_rule_and_all(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            import time

            def tick():
                a = time.time()  # repro-lint: disable=DET001
                b = time.time()  # repro-lint: disable=all
                return a + b
            """
        },
        rule_ids=["DET001"],
    )
    assert project.findings == []
    assert project.inline_suppressed == 2


def test_inline_suppression_does_not_hide_other_rules(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            import time

            def tick():
                return time.time()  # repro-lint: disable=VOC001
            """
        },
        rule_ids=["DET001"],
    )
    assert rules_of(project) == ["DET001"]


def test_syntax_error_reported_as_e000(tmp_path):
    project = run_fixture(tmp_path, {"src/broken.py": "def f(:\n    pass\n"})
    assert [f.rule for f in project.findings] == ["E000"]
    assert "syntax error" in project.findings[0].message


def test_parse_suppressions_and_import_aliases():
    supp = parse_suppressions("x = 1\ny = 2  # repro-lint: disable=A1, B2\n")
    assert supp == {2: {"A1", "B2"}}
    tree = ast.parse(
        "import numpy as np\nfrom time import monotonic as mono\nimport os.path\n"
    )
    aliases = import_aliases(tree)
    assert aliases["np"] == "numpy"
    assert aliases["mono"] == "time.monotonic"
    assert aliases["os"] == "os"


def test_findings_sort_by_location():
    a = Finding("DET001", Severity.ERROR, "src/a.py", 10, 1, "msg")
    b = Finding("DET001", Severity.ERROR, "src/a.py", 2, 1, "msg")
    assert sort_findings([a, b]) == [b, a]


def test_registry_rejects_duplicates_and_lists_sorted():
    assert [cls.id for cls in all_rules()] == sorted(cls.id for cls in all_rules())
    assert get_rule("DET001").id == "DET001"
    with pytest.raises(ValueError):

        @register
        class Dup(Rule):  # noqa: F811 - intentionally conflicting id
            id = "DET001"


def violation_files():
    return {
        "src/m.py": """\
        import time

        def tick():
            return time.time()
        """
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def write_repo(tmp_path, files, design=None):
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text), encoding="utf-8")
    if design is not None:
        (tmp_path / "DESIGN.md").write_text(textwrap.dedent(design), encoding="utf-8")


def test_cli_exit_zero_on_clean_repo(tmp_path, capsys):
    write_repo(tmp_path, {"src/m.py": "def f():\n    return 1\n"})
    assert main(["--root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "repro-lint:" in out and "0 finding(s)" in out


def test_cli_exit_one_on_violation(tmp_path, capsys):
    write_repo(tmp_path, violation_files())
    assert main(["--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "src/m.py:4" in out


def test_cli_strict_gates_warnings(tmp_path, capsys):
    # telemetry emitted with no vocabulary.py -> a single VOC001 *warning*
    write_repo(
        tmp_path,
        {"src/m.py": 'def f(env):\n    env.telemetry.counter("ms_x_total").inc()\n'},
    )
    assert main(["--root", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["--root", str(tmp_path), "--strict"]) == 1


def test_cli_exit_two_on_bad_root(tmp_path, capsys):
    assert main(["--root", str(tmp_path / "missing")]) == 2


def test_cli_json_report_schema(tmp_path, capsys):
    write_repo(tmp_path, violation_files())
    assert main(["--root", str(tmp_path), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {
        "version",
        "strict",
        "dirs",
        "extra_dirs",
        "files_scanned",
        "rules",
        "findings",
        "counts",
        "suppressed_inline",
    }
    assert doc["counts"] == {"DET001": 1}
    (finding,) = doc["findings"]
    assert set(finding) == {
        "rule",
        "severity",
        "path",
        "line",
        "col",
        "message",
    }
    assert doc["rules"] == [cls.id for cls in all_rules()]


def test_cli_output_writes_json_regardless_of_format(tmp_path, capsys):
    write_repo(tmp_path, violation_files())
    report = tmp_path / "report.json"
    assert main(["--root", str(tmp_path), "--output", str(report)]) == 1
    doc = json.loads(report.read_text())
    assert doc["counts"] == {"DET001": 1}


def test_cli_rules_filter(tmp_path, capsys):
    write_repo(
        tmp_path,
        {
            "src/m.py": """\
            import time
            import random

            def f():
                return time.time() + random.random()
            """
        },
    )
    assert main(["--root", str(tmp_path), "--rules", "DET002"]) == 1
    out = capsys.readouterr().out
    assert "DET002" in out and "DET001" not in out


def test_cli_list_rules_covers_every_rule(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for cls in all_rules():
        assert cls.id in out
        assert cls.title in out
    assert "repro-lint rules" in out


def test_list_rules_text_contains_rationale_and_suppress_hint():
    text = list_rules_text()
    assert "why:" in text and "suppress:" in text


def test_cli_bad_flag_returns_two(capsys):
    assert main(["--no-such-flag"]) == 2


def test_cli_include_dirs_extends_scope(tmp_path, capsys):
    write_repo(
        tmp_path,
        {
            "src/m.py": "def f():\n    return 1\n",
            "tests/t.py": """\
            import os

            def helper(path):
                return os.listdir(path)
            """,
        },
    )
    # default scope: tests/ invisible
    assert main(["--root", str(tmp_path)]) == 0
    capsys.readouterr()
    # opted in: the DET005 in tests/ fires
    assert main(["--root", str(tmp_path), "--include-dirs", "tests"]) == 1
    out = capsys.readouterr().out
    assert "tests/t.py" in out and "DET005" in out


def test_cli_include_dirs_skips_inventory_rules(tmp_path, capsys):
    # VOC001 does not apply to opted-in extra dirs: telemetry in a test
    # helper needs no vocabulary entry.
    write_repo(
        tmp_path,
        {
            "src/m.py": "def f():\n    return 1\n",
            "tests/t.py": 'def probe(env):\n    env.telemetry.counter("ms_x_total").inc()\n',
        },
    )
    assert main(["--root", str(tmp_path), "--include-dirs", "tests", "--strict"]) == 0


def test_cli_github_format(tmp_path, capsys):
    write_repo(tmp_path, violation_files())
    assert main(["--root", str(tmp_path), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=src/m.py,line=4," in out
    assert "title=DET001::" in out


# ---------------------------------------------------------------------------
# the repo itself stays clean
# ---------------------------------------------------------------------------


def test_repo_is_clean_under_strict(capsys):
    """The acceptance gate: the real tree passes --strict."""
    assert main(["--root", str(ROOT), "--strict"]) == 0


# ---------------------------------------------------------------------------
# VOC001 — names at emission sites and in kind comparisons, and DESIGN.md's
# generated blocks, vs src/repro/vocabulary.py
#
# One planted drift per behaviour, on a fixture tree that is clean without
# it.  Many ids still carry the number of the rule that used to catch the
# same drift by parsing a DESIGN.md table (tel001, trc00x, scn001, ins001,
# mon001): the tier-1 floor list names them, so the names stay and each
# now plants its drift against the one rule that replaced that parser.
# ---------------------------------------------------------------------------

REAL_VOCABULARY = (ROOT / VOCABULARY_RELPATH).read_text(encoding="utf-8")

VOCABULARY = """\
TRACE_KINDS = {
    "ckpt.round_started": "a round began",
    "ckpt.round_done": "a round ended",
}
TRACE_DYNAMIC = {"metrics.": "forwarded verbatim"}
METRICS = (
    ({"ms_good_total": "counter", "ms_other_total": "counter"}, "—", "m.py"),
)
SERIES_METRICS = ()
TRACE_TABLE_NOTES = {}
PHASES = ("a-wait",)
SLOS = {"p99": (1.0, "max")}
HEALTH = {}
FAILURE_KINDS = ("node",)
SCENARIO_FIELDS = {}
"""

MODULE = """\
def run(env, name):
    env.telemetry.counter("ms_good_total").inc()
    env.telemetry.counter("ms_other_total").inc()
    env.trace.emit("ckpt.round_started", t=env.now)
    env.trace.emit("ckpt.round_done", t=env.now)
    env.trace.emit("metrics." + name, t=env.now)

def consume(events):
    return [e for e in events if e.kind == "ckpt.round_done"]
"""


SKELETON = "# design\n" + "".join(
    f"\n<!-- generated:{name} -->stale<!-- /generated:{name} -->\n" for name in BLOCKS
)


def voc_tree(tmp_path, old="", new="", vocabulary=VOCABULARY, **more):
    """The clean fixture — code, vocabulary and a DESIGN.md generated from
    it — with ``old`` -> ``new`` planted in whichever of the module / the
    vocabulary holds ``old``."""
    assert old in MODULE or old in vocabulary
    write_repo(tmp_path, {"src/m.py": MODULE.replace(old, new), **more})
    if vocabulary is not None:
        write_repo(tmp_path, {VOCABULARY_RELPATH: vocabulary.replace(old, new)}, design=SKELETON)
        assert main(["--root", str(tmp_path), "--write-docs"]) == 0
    return tmp_path


def voc001(root, **config):
    return run_analysis(AnalysisConfig(root=root, rule_ids=("VOC001",), **config)).findings


def voc(tmp_path, *args, **kwargs):
    return voc001(voc_tree(tmp_path, *args, **kwargs))


def test_tel001_clean_when_in_sync(tmp_path):
    assert voc(tmp_path) == []


def test_tel001_flags_undocumented_and_dead_metrics(tmp_path):
    rogue, dead = voc(
        tmp_path, 'counter("ms_other_total").inc()', 'gauge("ms_rogue_bytes").set(1.0)'
    )
    # emitted but undeclared: at the call, naming the file to edit
    assert (rogue.path, rogue.line) == ("src/m.py", 3)
    assert "`ms_rogue_bytes`" in rogue.message and VOCABULARY_RELPATH in rogue.message
    # declared but never emitted: at the vocabulary row
    assert (dead.path, dead.line) == (VOCABULARY_RELPATH, 7)
    assert "`ms_other_total`" in dead.message and "never emitted" in dead.message


def test_voc001_flags_metric_created_as_another_kind(tmp_path):
    (f,) = voc(tmp_path, 'counter("ms_good_total").inc()', 'gauge("ms_good_total").set(1.0)')
    assert (f.path, f.line) == ("src/m.py", 2)
    assert "`ms_good_total`" in f.message and "gauge" in f.message and "counter" in f.message


def test_tel001_flags_dynamic_metric_name(tmp_path):
    (f,) = voc(tmp_path, "def consume", "def more(env, name):\n"
               "    env.telemetry.counter(name).inc()\n\ndef consume")
    assert (f.path, f.line) == ("src/m.py", 9) and "computed metric name" in f.message
    # ... except where the names are taken from the declared series
    sampler = {
        "src/sampler.py": """\
        from repro.vocabulary import SERIES_METRICS

        def record(registry, metric, hau):
            registry.gauge(metric, hau=hau).set(0.0)
        """
    }
    series = VOCABULARY.replace("SERIES_METRICS = ()", 'SERIES_METRICS = ("ms_depth",)')
    assert voc(tmp_path / "ok", vocabulary=series, **sampler) == []
    (f,) = voc(tmp_path / "dead", vocabulary=series)  # declared, nobody creates them
    assert f.path == VOCABULARY_RELPATH and "SERIES_METRICS" in f.message


def test_tel001_warns_when_design_missing(tmp_path):
    # names are emitted but the tree has no vocabulary to check them against
    (f,) = voc(tmp_path, vocabulary=None)
    assert f.severity == Severity.WARNING and VOCABULARY_RELPATH in f.message


def test_tel001_ignores_non_telemetry_receivers(tmp_path):
    assert voc(tmp_path, "def consume", 'def other(geiger, bus):\n'
               '    geiger.counter("clicks").inc()\n    bus.emit("no.such")\n\ndef consume') == []


def test_trc001_clean_when_in_sync(tmp_path):
    # an f-string head and a literal kind under a dynamic namespace both count
    assert voc(tmp_path, '"metrics." + name', 'f"metrics.{name}"') == []
    assert voc(tmp_path / "b", "def consume", 'def more(env):\n'
               '    env.trace.emit("metrics.legacy", t=0)\n\ndef consume') == []


def test_trc001_flags_emitted_but_undeclared_kind(tmp_path):
    (f,) = voc(tmp_path, "def consume", 'def more(env):\n'
               '    env.trace.emit("ckpt.ghost", t=0)\n\ndef consume')
    assert (f.path, f.line) == ("src/m.py", 9)
    assert "`ckpt.ghost`" in f.message and VOCABULARY_RELPATH in f.message


def test_trc001_flags_declared_but_never_emitted(tmp_path):
    (f,) = voc(tmp_path, '    env.trace.emit("ckpt.round_done", t=env.now)\n', "")
    assert (f.path, f.line) == (VOCABULARY_RELPATH, 3)
    assert "`ckpt.round_done`" in f.message and "never emitted" in f.message


def test_trc001_flags_undeclared_dynamic_prefix(tmp_path):
    site, dead = voc(tmp_path, '"metrics." + name', '"legacy." + name')
    assert site.path == "src/m.py" and "`legacy.`" in site.message
    assert "TRACE_DYNAMIC" in site.message
    assert dead.path == VOCABULARY_RELPATH and "`metrics.`" in dead.message


def test_trc001_flags_dynamic_kind_without_constant_prefix(tmp_path):
    found = voc(tmp_path, '"metrics." + name', "name")
    assert any("without a constant dotted prefix" in f.message for f in found)


CONSUMER = '''
_DONE = ("ckpt.round_done", "KIND")

def fold(events, kind):
    for e in events:
        k = e.kind
        if k == "ckpt.round_started" or kind in ("ckpt.round_done",) or e.kind in _DONE:
            yield e
'''


def test_trc002_clean_when_span_kinds_subset_of_kinds(tmp_path):
    # `x.kind`, a name bound to one, a parameter called kind; a literal,
    # a literal tuple, a module constant: every form, every kind declared
    module = {"src/spans.py": CONSUMER.replace("KIND", "ckpt.round_started")}
    assert voc(tmp_path, **module) == []


def test_trc002_flags_span_kind_missing_from_kinds(tmp_path):
    clean = CONSUMER.replace("KIND", "ckpt.round_started")
    for i, text in enumerate(
        (
            clean.replace('k == "ckpt.round_started"', 'k == "ckpt.ghost"'),
            clean.replace('("ckpt.round_done",)', '("ckpt.ghost",)'),
            CONSUMER.replace("KIND", "ckpt.ghost"),
        )
    ):
        (f,) = voc(tmp_path / str(i), **{"src/spans.py": text})
        assert f.path == "src/spans.py" and "`ckpt.ghost`" in f.message
        assert "can never match" in f.message and VOCABULARY_RELPATH in f.message


def test_trc002_quiet_without_a_kinds_inventory(tmp_path):
    # comparisons alone (nothing emitted) in a tree with no vocabulary
    files = {"src/spans.py": CONSUMER}
    assert run_fixture(tmp_path, files, rule_ids=["VOC001"]).findings == []


def test_trc002_ignores_computed_and_non_name_assignments(tmp_path):
    module = {
        "src/other.py": """\
        def f(event, path, kind, name):
            a = event.kind == "rack"              # a failure kind: not dotted
            b = path.name == "metrics.json"       # dotted, but not against a kind
            c = kind.startswith("ckpt.")          # a prefix test, not a comparison
            d = name == "no.such"
            return a or b or c or d or kind > "ckpt.zzz"
        """
    }
    assert voc(tmp_path, **module) == []


def test_repo_span_kinds_match_tracer_kinds():
    """On the real tree the comparison check is not vacuous: it sees the
    span builder's, critical-path walker's, exporters' and monitor's
    branches, and every kind they wait for is one the tracer declares."""
    from repro.observability.tracer import KINDS

    rule = VocabularyRule()
    project = run_analysis(AnalysisConfig(root=ROOT), rules=[rule])
    assert project.findings == []
    assert len({kind for kind, _ in rule._compared}) >= 25
    assert {kind for kind, _ in rule._compared} <= set(KINDS)
    files = {site[0].rsplit("/", 1)[-1] for _, site in rule._compared}
    assert {"spans.py", "critical_path.py", "summary.py", "plane.py"} <= files


def test_mon001_non_literal_vocabulary_rejected(tmp_path):
    computed = VOCABULARY.replace("SERIES_METRICS = ()", "SERIES_METRICS = tuple(sorted([]))")
    files = {"src/m.py": MODULE, VOCABULARY_RELPATH: computed}
    (f,) = run_fixture(tmp_path, files, design="# d\n").findings  # every rule: one finding
    assert (f.rule, f.path, f.line) == ("VOC001", VOCABULARY_RELPATH, 9)
    assert "`SERIES_METRICS`" in f.message and "plain literal" in f.message


def test_ins001_ignores_tuples_outside_tracked_paths(tmp_path):
    # only <root>/src/repro/vocabulary.py is the vocabulary
    (f,) = voc(tmp_path, vocabulary=None, **{"src/other/vocabulary.py": VOCABULARY})
    assert f.severity == Severity.WARNING and "was not found" in f.message


def test_live_tree_mon001_clean():
    """What the rules read from the file is what the program imports."""
    import repro.vocabulary as module

    public = {k: v for k, v in vars(module).items() if k.isupper()}
    assert load_vocabulary(ROOT)[0] == public
    assert set(module.DEGRADATION_KINDS) <= set(module.FAILURE_KINDS)


# -- generated blocks --------------------------------------------------------

def docs_tree(tmp_path, vocabulary=REAL_VOCABULARY, design=SKELETON):
    """A tree whose DESIGN.md blocks are current for ``vocabulary``."""
    write_repo(tmp_path, {VOCABULARY_RELPATH: vocabulary}, design=design)
    assert main(["--root", str(tmp_path), "--write-docs"]) == 0
    return tmp_path


def plant(root, relpath, old, new):
    text = (root / relpath).read_text(encoding="utf-8")
    assert old in text
    (root / relpath).write_text(text.replace(old, new, 1), encoding="utf-8")


def doc(root):
    """``(line, message)`` per generated block of DESIGN.md that is not current."""
    text = (root / "DESIGN.md").read_text(encoding="utf-8")
    return check_blocks(text, load_vocabulary(root)[0])[1]


def stale(root, block):
    """The one problem: names the block, the file to edit and the command."""
    ((line, message),) = doc(root)
    assert f"`{block}` is stale" in message and f"edit {VOCABULARY_RELPATH}" in message
    assert "--write-docs" in message and line > 1
    return message


def test_scn001_quiet_when_everything_in_sync(tmp_path):
    assert doc(docs_tree(tmp_path / "real")) == []
    assert voc001(voc_tree(tmp_path / "wired")) == []


def test_ins001_quiet_when_everything_in_sync(tmp_path, capsys):
    # a stale block is one warning (strict gates it) that prints the diff;
    # --write-docs repairs a stale file, and only a stale file
    root = voc_tree(tmp_path)
    plant(root, "DESIGN.md", "| `p99` |", "| `p90` |")
    before = (root / "DESIGN.md").read_text()
    (f,) = voc001(root)
    assert (f.path, f.severity) == ("DESIGN.md", Severity.WARNING)
    assert "`slo-kinds` is stale" in f.message and "\n-| `p90` | 1.0 s | max |" in f.message
    assert main(["--root", str(root)]) == 0
    assert main(["--root", str(root), "--strict"]) == 1
    capsys.readouterr()
    assert main(["--root", str(root), "--write-docs"]) == 0
    assert "1 generated block(s) rewritten" in capsys.readouterr().out
    assert (root / "DESIGN.md").read_text() == before.replace("| `p90` |", "| `p99` |")
    assert main(["--root", str(root), "--write-docs"]) == 0
    assert "0 generated block(s) rewritten" in capsys.readouterr().out
    assert main(["--root", str(root), "--strict"]) == 0


def test_mon001_quiet_when_in_sync(tmp_path, capsys):
    # --write-docs without a vocabulary or a DESIGN.md is a usage error
    write_repo(tmp_path, {"src/m.py": "x = 1\n"})
    assert main(["--root", str(tmp_path), "--write-docs"]) == 2
    write_repo(tmp_path, {VOCABULARY_RELPATH: REAL_VOCABULARY})
    assert main(["--root", str(tmp_path), "--write-docs"]) == 2
    assert capsys.readouterr().err.count("error:") == 2


def test_trc001_flags_design_doc_drift_both_directions(tmp_path):
    # a hand edit inside a generated block ...
    root = docs_tree(tmp_path / "a")
    plant(root, "DESIGN.md", "`send` / `recv` — checkpoint", "`send` / `receive` — checkpoint")
    message = stale(root, "trace-schema")
    assert "-| `token.` | `send` / `receive`" in message
    assert "+| `token.` | `send` / `recv`" in message
    # ... and a vocabulary row added without --write-docs
    root = docs_tree(tmp_path / "b")
    plant(root, VOCABULARY_RELPATH, '    "token.send":', '    "token.lost": "dropped",\n    "token.send":')
    assert "+| `token.` | `lost` / `send` / `recv`" in stale(root, "trace-schema")


def test_scn001_field_drift_both_directions(tmp_path):
    root = docs_tree(tmp_path / "a")
    plant(root, VOCABULARY_RELPATH, '    "seed": (', '    "tenant": ("string", "owner"),\n    "seed": (')
    assert "+| `tenant` | string | owner |" in stale(root, "scenario-fields")
    root = docs_tree(tmp_path / "b")
    plant(root, "DESIGN.md", "| `seed` | int | experiment seed (default 1) |\n", "")
    assert "+| `seed` | int |" in stale(root, "scenario-fields")


def test_scn001_documented_kind_not_declared(tmp_path):
    # the failure kinds are spelt once: the `failures` row's kind list, the
    # `failure.inject` payload note and the injector metric's label cell are
    # all FAILURE_KINDS rendered, not prose
    root = docs_tree(tmp_path)
    plant(root, VOCABULARY_RELPATH, '"partition", "straggler")', '"partition", "straggler", "meteor")')
    problems = {message.split("`")[1]: message for _line, message in doc(root)}
    assert sorted(problems) == ["metric-schema", "scenario-fields", "trace-schema"]
    assert "`straggler`, `meteor` —" in problems["scenario-fields"]
    assert "(node/rack/partition/straggler/meteor, cause)" in problems["trace-schema"]
    assert "`kind=node\\|rack\\|partition\\|straggler\\|meteor`" in problems["metric-schema"]


def test_ins001_documented_drift_both_directions(tmp_path):
    root = docs_tree(tmp_path / "a")
    plant(root, "DESIGN.md", "`snapshot`, `disk-io`", "`snapshot`")
    stale(root, "phases")
    root = docs_tree(tmp_path / "b")
    plant(root, VOCABULARY_RELPATH, '"snapshot", "disk-io")', '"snapshot", "disk-io", "fsync")')
    assert "`disk-io`, `fsync`" in stale(root, "phases")


def test_ins001_order_mismatch(tmp_path):
    root = docs_tree(tmp_path)
    plant(root, VOCABULARY_RELPATH, '"token-wait", "safepoint-wait"', '"safepoint-wait", "token-wait"')
    assert "+`safepoint-wait`, `token-wait`, `snapshot`" in stale(root, "phases")


def test_mon001_declared_but_undocumented(tmp_path):
    root = docs_tree(tmp_path)
    plant(root, VOCABULARY_RELPATH, '    "recovery-time": (', '    "backlog": (9.5, "queue"),\n    "recovery-time": (')
    assert "+| `backlog` | 9.5 s | queue |" in stale(root, "slo-kinds")


def test_mon001_documented_but_undeclared(tmp_path):
    root = docs_tree(tmp_path)
    plant(root, "DESIGN.md", "| `degraded` |", "| `zombie` | undead |\n| `degraded` |")
    assert "-| `zombie` | undead |" in stale(root, "health-states")


def test_ins001_profiler_phase_missing_from_bundle(tmp_path):
    # the rule table is generated too: from the registry, not the vocabulary
    root = docs_tree(tmp_path)
    plant(root, "DESIGN.md", "| `DET001` | no wall-clock calls", "| `DET001` | no clocks")
    assert "+| `DET001` | no wall-clock calls" in stale(root, "lint-rules")


def test_scn001_warns_without_design_section(tmp_path):
    # a DESIGN.md without the markers: every table in it is hand-written
    write_repo(tmp_path, {VOCABULARY_RELPATH: REAL_VOCABULARY}, design="| metric | kind |\n|---|---|\n")
    assert [message.split("`")[1] for _, message in doc(tmp_path)] == [
        f"<!-- generated:{name} -->" for name in sorted(BLOCKS)
    ]
    assert main(["--root", str(tmp_path), "--write-docs"]) == 1  # nothing it can rewrite


def test_ins001_warns_without_design_table(tmp_path):
    root = voc_tree(tmp_path)
    (root / "DESIGN.md").unlink()
    (f,) = voc001(root)
    assert (f.path, f.severity) == (VOCABULARY_RELPATH, Severity.WARNING)
    assert "DESIGN.md" in f.message and "not found" in f.message


def test_mon001_warns_when_design_missing(tmp_path):
    # --design moves the file the blocks are checked (and written) in
    root = voc_tree(tmp_path)
    moved = root / "docs" / "design.md"
    moved.parent.mkdir()
    (root / "DESIGN.md").rename(moved)
    assert voc001(root, design_path=moved) == []
    plant(root, "docs/design.md", "`a-wait`", "`b-wait`")
    (f,) = voc001(root, design_path=moved)
    assert f.path == "docs/design.md" and "`phases` is stale" in f.message
    assert main(["--root", str(root), "--design", str(moved), "--write-docs"]) == 0
    assert voc001(root, design_path=moved) == []


def test_ins001_bundle_phase_profiler_never_emits(tmp_path):
    # a vocabulary a block cannot be rendered from is that block's finding
    root = docs_tree(tmp_path)
    plant(root, VOCABULARY_RELPATH, '    "token.": "checkpoint', '    "tokn.": "checkpoint')
    ((_, message),) = doc(root)
    assert "`trace-schema` cannot be rendered" in message and "tokn." in message


def test_scn001_silent_without_scenario_dsl(tmp_path):
    # no vocabulary: nothing in DESIGN.md is generated, markers or not
    write_repo(tmp_path, {"src/m.py": "x = 1\n"}, design=SKELETON)
    assert voc001(tmp_path) == []


def test_ins001_silent_without_inspect_layer(tmp_path):
    write_repo(tmp_path, {"src/m.py": "x = 1\n"})
    assert run_analysis(AnalysisConfig(root=tmp_path)).findings == []


def test_mon001_ignores_vocabulary_outside_monitor_paths(tmp_path):
    # a literal that merely shares a vocabulary name is not the vocabulary
    root = docs_tree(tmp_path)
    write_repo(root, {"src/repro/monitor/slo.py": 'SLOS = {"decoy": (1.0, "x")}\n'})
    assert doc(root) == []


def rendered(block, **values):
    return BLOCKS[block](values).strip("\n").split("\n")


def test_parse_metric_schema_first_cell_only():
    rows = (
        ({"ms_a_total": "counter", "ms_b_total": "counter"}, "`hau`", "`x.py` per tuple"),
        ({"ms_c_total": "counter", "ms_c_seconds": "histogram"}, "—", "the watcher"),
    )
    assert rendered("metric-schema", METRICS=rows) == [
        "| metric | kind | labels | emitted by |",
        "|---|---|---|---|",
        "| `ms_a_total`, `ms_b_total` | counter | `hau` | `x.py` per tuple |",
        "| `ms_c_total`, `ms_c_seconds` | counter / histogram | — | the watcher |",
    ]


def test_parse_trace_schema_kinds_and_dynamic_prefixes():
    kinds = {"hau.start": "came up", "token.send": "left", "token.recv": "landed",
             "ckpt.start": "began", "ckpt.commit": "done"}
    notes = {"token.": "hops", "ckpt.commit": "bytes"}
    table = rendered("trace-schema", TRACE_KINDS=kinds, TRACE_TABLE_NOTES=notes,
                     TRACE_DYNAMIC={"metrics.": "forwarded"})
    assert table[2:] == [
        "| `hau.` | `start` — came up |",  # alone and unannotated: its meaning
        "| `token.` | `send` / `recv` — hops |",
        "| `ckpt.` | `start`, `commit` (bytes) |",
        "| `metrics.` | forwarded |",
    ]


def test_parse_scenario_schema_fields_and_kinds():
    fields = {"id": ("slug", "required"), "failures": ("list", "kinds {FAILURE_KINDS} — more")}
    table = rendered("scenario-fields", SCENARIO_FIELDS=fields, FAILURE_KINDS=("node", "rack"))
    assert table[2:] == [
        "| `id` | slug | required |",
        "| `failures` | list | kinds `node`, `rack` — more |",
    ]


def test_parse_bundle_phases_table(tmp_path):
    # an inline block: the list sits inside a hand-written table row
    row = "| `phases.json` | over <!-- generated:phases -->?<!-- /generated:phases --> |\n"
    fresh, problems = check_blocks(row, {"PHASES": ("a-wait", "b-io")})
    assert fresh == row.replace("?", "`a-wait`, `b-io`")
    ((_, message),) = [p for p in problems if "stale" in p[1]]
    assert "`phases` is stale" in message


def test_mon001_first_cell_and_subsection_scoping():
    assert rendered("slo-kinds", SLOS={"p99": (1.0, "max p99"), "stale": (60.0, "age")})[2:] == [
        "| `p99` | 1.0 s | max p99 |",
        "| `stale` | 60.0 s | age |",
    ]
    assert rendered("health-states", HEALTH={"healthy": "fine"})[2:] == ["| `healthy` | fine |"]


def test_live_tree_scn001_clean():
    """--write-docs is idempotent on the committed DESIGN.md."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    assert check_blocks(text, load_vocabulary(ROOT)[0]) == (text, [])


def test_live_tree_ins001_clean():
    """The committed DESIGN.md holds every generated block exactly once."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    for name in BLOCKS:
        assert text.count(f"<!-- generated:{name} -->") == 1
        assert text.count(f"<!-- /generated:{name} -->") == 1


# -- kinds vs handlers: the check a lint rule made, now made by the injector --


def test_scn001_kind_without_inject_handler(monkeypatch):
    """A declared kind with no ``_inject_<kind>`` fails at import."""
    import runpy

    import repro.failures.injector
    import repro.vocabulary

    monkeypatch.setattr(
        repro.vocabulary, "FAILURE_KINDS", (*repro.vocabulary.FAILURE_KINDS, "meteor")
    )
    with pytest.raises(AssertionError, match="meteor"):
        runpy.run_path(repro.failures.injector.__file__)


def test_scn001_handler_without_declared_kind():
    """The vocabulary is the gate: a handler alone does not make a kind."""
    from repro.failures.injector import FailureInjector, PlannedFailure

    class Meteoric(FailureInjector):
        def _inject_meteor(self, event):  # pragma: no cover - unreachable
            raise AssertionError

    with pytest.raises(ValueError, match="node, rack, partition, straggler"):
        PlannedFailure(at=1.0, kind="meteor", target="w0")


def test_scn001_degradation_kind_must_be_failure_kind():
    from repro.scenarios import schema

    assert set(schema.DEGRADATION_KINDS) < set(schema.FAILURE_KINDS)
    kill = {"at": 1.0, "kind": "node", "target": "w0", "duration": 2.0}
    document = {"id": "x", "version": 1, "app": {"name": "bcp"}, "scheme": "none"}
    (error,) = schema.validate({**document, "failures": [kill]})
    assert "partition / straggler" in error.message
