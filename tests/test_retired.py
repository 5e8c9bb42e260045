"""RET001 — every ``vocabulary.RETIRED`` row refuses its name's return.

Each row is planted in a small tree that holds the real vocabulary: its
``example`` inside the row's scope is one finding naming the row, the
same line beside the scope (and in each ``!path`` it excludes) is none, a
bounded row is quiet at its bound and fails one line past it, an exact
row also fails one line short of it, and a path row fails when its path
exists.  The repository itself gives no finding.
"""

from __future__ import annotations

import re
from pathlib import Path, PurePosixPath

import pytest

from repro.analysis import AnalysisConfig, run_analysis
from repro.analysis.docs import VOCABULARY_RELPATH, load_vocabulary

ROOT = Path(__file__).resolve().parents[1]
ROWS = load_vocabulary(ROOT)[0]["RETIRED"]
PATTERN_ROWS = [row for row in ROWS if "pattern" in row]
PATH_ROWS = [row for row in ROWS if "paths" in row]


def row_id(row):
    """``PR<n>-<its example or first path, as a slug>``."""
    slug = re.sub(r"\W+", "-", row.get("example") or row["paths"][0]).strip("-")
    return f"PR{row['pr']}-{slug}"


def bound_of(row):
    kind, _, n = row.get("bound", "at most 0").rpartition(" ")
    return kind, int(n)


def as_file(entry, name):
    """``entry`` itself when it names a file, else ``name`` inside it."""
    return entry if PurePosixPath(entry).suffix else f"{entry}/{name}"


def inside(row):
    return as_file(next(e for e in row["scope"] if not e.startswith("!")), "planted.py")


def outside(row):
    """Beside the first scope entry (in its parent directory), and in every
    path the scope excludes."""
    parent = PurePosixPath(row["scope"][0]).parent.as_posix()
    beside = "outside.py" if parent == "." else f"{parent}/outside.py"
    return [beside] + [as_file(e[1:], "planted.py") for e in row["scope"] if e.startswith("!")]


def plant(root, relpath, line, times=1):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as f:
        f.write((line + "\n") * times)


def tree(tmp_path):
    """The real vocabulary, plus each exact row's example as many times as
    it must appear: a tree with no RET001 finding."""
    (tmp_path / VOCABULARY_RELPATH).parent.mkdir(parents=True)
    (tmp_path / VOCABULARY_RELPATH).write_text(
        (ROOT / VOCABULARY_RELPATH).read_text(encoding="utf-8"), encoding="utf-8"
    )
    for row in PATTERN_ROWS:
        kind, n = bound_of(row)
        if kind == "exactly":
            plant(tmp_path, inside(row), row["example"], n)
    return tmp_path


def ret001(root):
    """RET001's findings (a planted line need not parse: E000 is not asked about)."""
    findings = run_analysis(AnalysisConfig(root=root, rule_ids=("RET001",))).findings
    return [f for f in findings if f.rule == "RET001"]


def naming(root, row):
    """The findings that name ``row``: its pattern or path and its reason."""
    names = [row["pattern"]] if "pattern" in row else list(row["paths"])
    return [
        f
        for f in ret001(root)
        if row["reason"] in f.message and any(f"`{name}`" in f.message for name in names)
    ]


def test_every_row_is_well_formed():
    assert ROWS
    for row in PATTERN_ROWS:
        assert set(row) <= {"pattern", "scope", "bound", "example", "pr", "reason"}
        assert re.search(row["pattern"], row["example"]), row_id(row)
        assert re.fullmatch(r"(at most|exactly) [1-9]\d*", row.get("bound", "at most 1"))
    for row in PATH_ROWS:
        assert set(row) == {"paths", "pr", "reason"}


def test_the_repository_gives_no_finding():
    assert ret001(ROOT) == []


def test_the_planting_tree_gives_no_finding(tmp_path):
    assert ret001(tree(tmp_path)) == []


@pytest.mark.parametrize("row", PATTERN_ROWS, ids=row_id)
def test_a_pattern_row_refuses_its_example_only_inside_its_scope(tmp_path, row):
    kind, n = bound_of(row)
    root = tree(tmp_path)
    for relpath in outside(row):
        plant(root, relpath, row["example"], n + 1)
    assert naming(root, row) == []
    if kind == "at most":
        plant(root, inside(row), row["example"], n)  # at the bound: quiet
        assert naming(root, row) == []
    plant(root, inside(row), row["example"])  # one line past it
    (finding,) = naming(root, row)
    assert f"PR {row['pr']}" in finding.message and finding.path == inside(row)
    lines = (root / finding.path).read_text(encoding="utf-8").splitlines()
    assert lines[finding.line - 1] == row["example"]


@pytest.mark.parametrize(
    "row", [row for row in PATTERN_ROWS if bound_of(row)[0] == "exactly"], ids=row_id
)
def test_an_exact_row_also_fails_one_line_short(tmp_path, row):
    root = tree(tmp_path)
    (root / inside(row)).write_text(
        (row["example"] + "\n") * (bound_of(row)[1] - 1), encoding="utf-8"
    )
    (finding,) = naming(root, row)
    assert finding.path == VOCABULARY_RELPATH and "`exactly " in finding.message


@pytest.mark.parametrize("row", PATH_ROWS, ids=row_id)
def test_a_path_row_refuses_each_of_its_paths(tmp_path, row):
    root = tree(tmp_path)
    for path in row["paths"]:
        plant(root, as_file(path, "__init__.py"), "")
    assert [f.path for f in naming(root, row)] == sorted(row["paths"])
