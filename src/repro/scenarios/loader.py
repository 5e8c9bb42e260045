"""Load scenario documents from YAML/JSON files or inline text.

Thin on purpose: parsing lives here, meaning lives in
:mod:`repro.scenarios.schema`.  ``load_path`` / ``load_text`` return the
raw document; callers pass it through :func:`repro.scenarios.schema.check`
(the loaders do not validate, so tooling can load known-bad fixtures).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import yaml

SCENARIO_SUFFIXES = (".yaml", ".yml", ".json")

# Library-metadata files living next to the scenario documents.
NON_SCENARIO_FILES = ("GOLDENS.json",)

# libyaml's scanner and parser under PyYAML's own SafeConstructor and
# resolver: the same documents as yaml.safe_load, parsed ~8x faster.  The
# pure-Python parser only where PyYAML was built without libyaml.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class ScenarioParseError(ValueError):
    """The file/text is not parseable YAML/JSON at all."""


def load_text(text: str, source: str = "<text>") -> Any:
    """Parse one scenario document from YAML (a superset of JSON)."""
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"{source}: not valid YAML/JSON: {exc}") from exc


def load_path(path: str | Path) -> Any:
    """Parse one scenario document from a ``.yaml``/``.yml``/``.json`` file."""
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    if p.suffix == ".json":
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioParseError(f"{p}: not valid JSON: {exc}") from exc
    return load_text(text, source=str(p))


def scenario_paths(directory: str | Path) -> list[Path]:
    """Every scenario file under ``directory``, sorted for determinism."""
    d = Path(directory)
    if not d.is_dir():
        return []
    return sorted(p for p in d.iterdir()
                  if p.suffix in SCENARIO_SUFFIXES and p.is_file()
                  and p.name not in NON_SCENARIO_FILES)
