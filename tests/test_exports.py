from __future__ import annotations

import importlib
import re
from pathlib import Path

import pengeo
from pengeo import cli

SUBMODULES = ("diagnostics", "drift", "functionals", "geometry", "optimizer", "problems")


def test_package_exports_are_exactly_the_submodule_exports():
    # The package re-exports each submodule's public names, no more and no
    # fewer, so a deleted function cannot leave a stale name behind.
    union = set()
    for name in SUBMODULES:
        module = importlib.import_module(f"pengeo.{name}")
        for attr in module.__all__:
            assert hasattr(module, attr), f"pengeo.{name}.__all__ lists missing {attr!r}"
        union.update(module.__all__)
    assert len(pengeo.__all__) == len(set(pengeo.__all__))
    assert set(pengeo.__all__) - {"__version__"} == union
    for attr in pengeo.__all__:
        assert hasattr(pengeo, attr), f"pengeo.__all__ lists missing {attr!r}"


def test_readme_entry_points_are_exported():
    # Each "Key entry points" bullet of the README's library quick start
    # leads with backticked names; every one must be a package attribute,
    # so deleting a name without editing the README fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    bullets = section.split("Key entry points:", 1)[1].split("\n- ")[1:]
    assert bullets
    for bullet in bullets:
        lead = re.match(r"(?:`[^`]+`[,\s]*)+", bullet)
        assert lead, f"entry-point bullet does not lead with a name: {bullet[:40]!r}"
        for quoted in re.findall(r"`([^`]+)`", lead.group(0)):
            name = quoted.split("(")[0]
            assert hasattr(pengeo, name), f"README entry point {name!r} is not in pengeo"


def test_readme_catalogue_table_lists_exactly_the_presets():
    # The README's problem-catalogue table names every preset of
    # problem_names() once and nothing else, so a preset cannot be added or
    # removed without the doc.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Problem catalogue", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert sorted(names) == sorted(pengeo.problem_names())


def test_readme_config_key_table_lists_exactly_the_keys():
    # The README's config-key table has one row per key of cli._KEYS, and a
    # typed key's row names its reader, so a key cannot be added, removed or
    # retyped without the doc.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| (\w+) \|", section, flags=re.MULTILINE)
    names = {float: "float", int: "int", bool: "bool", cli._parse_vector: "vector"}
    keys = {(s, k): reader for s, table in cli._KEYS.items() for k, reader in table.items()}
    assert sorted((s, k) for s, k, _ in rows) == sorted(keys)
    typed = {(s, k): kind for s, k, kind in rows if keys[s, k] is not None}
    assert typed == {key: names[reader] for key, reader in keys.items() if reader is not None}
