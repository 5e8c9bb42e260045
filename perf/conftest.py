"""Lets ``python -m pytest perf/ -q`` collect ``selftest.py``, which the
repo-wide ``python_files`` patterns (``test_*.py``, ``bench_*.py``) skip
on purpose: the self-test is not part of tier-1."""

import pytest


def pytest_collect_file(file_path, parent):
    if file_path.name == "selftest.py":
        return pytest.Module.from_parent(parent, path=file_path)
    return None
