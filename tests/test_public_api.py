"""API-stability tests: the documented public surface must stay
importable from the documented locations."""

import importlib
import re
from pathlib import Path

import pytest

import repro


def _api_table() -> dict[str, list[str]]:
    """The README's "Public API" table: package -> listed exports."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Public API", 1)[1]
    table = {}
    for line in section.split("\n## ", 1)[0].splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`repro"):
            table[cells[1].strip(" `")] = re.findall(r"`([^`]+)`", cells[2])
    return table


API = _api_table()
TOP_LEVEL = API["repro"]
SUBMODULE_NAMES = {mod: names for mod, names in API.items() if mod != "repro"}

#: names the package root re-exported for one deprecation cycle
REMOVED_TOP_LEVEL = [
    "AsyncAccessSession", "LatencyModel", "SimulatedListService",
    "assemble_remote_database", "services_for_database",
    "services_for_sources",
]


@pytest.mark.parametrize("module", sorted(API))
def test_api_table_is_exactly_all(module):
    mod = importlib.import_module(module)
    assert len(API[module]) == len(set(API[module])), module
    assert set(API[module]) == set(mod.__all__), module


@pytest.mark.parametrize("name", TOP_LEVEL)
def test_top_level_export(name):
    assert hasattr(repro, name), name
    assert name in repro.__all__


@pytest.mark.parametrize(
    "module,name",
    [(mod, name) for mod, names in SUBMODULE_NAMES.items() for name in names],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_submodule_export(module, name):
    mod = importlib.import_module(module)
    assert hasattr(mod, name), f"{module}.{name}"
    assert name in mod.__all__, f"{module}.__all__ missing {name}"


@pytest.mark.parametrize("name", REMOVED_TOP_LEVEL)
def test_removed_alias_no_longer_imports(name):
    """The deprecation cycle is over: these import only from
    :mod:`repro.services`."""
    import repro.services

    with pytest.raises(ImportError):
        exec(f"from repro import {name}", {})
    assert hasattr(repro.services, name)


def test_unknown_top_level_attribute_still_raises():
    with pytest.raises(AttributeError):
        repro.definitely_not_a_symbol


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_py_typed_marker_ships():
    from pathlib import Path

    assert (Path(repro.__file__).parent / "py.typed").exists()
