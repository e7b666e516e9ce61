"""Each command loads only the modules it runs, and the package loads the rest
on first access.  A command's import set is compared with that of a bare start
under the same flags; no timing is gated."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qtorus

ROOT = Path(__file__).resolve().parent.parent
# what only ``apply`` and ``check`` need: the library beyond algebra and phases,
# and the dataclasses machinery, which imports inspect, ast, dis and tokenize
NOT_FOR_ALGEBRA = {"qtorus.rewrite", "qtorus.maps", "qtorus.suite", "dataclasses", "inspect"}
COMMAND = ("import sys, qtorus.cli; code = qtorus.cli.main(sys.argv[1:]); "
           "print(*sorted(sys.modules)); sys.exit(code)")
BARE = "import sys; print(*sorted(sys.modules))"
ALGEBRA_COMMANDS = [
    ("normalize", "--algebra", "torus", "V U"),
    ("mul", "--algebra", "p2", "U1 V2", "V1 U2^-1"),
    ("eval", "--theta", "0.1375", "--algebra", "torus", "q^(1/2) U + V^-1"),
]


@functools.cache
def _modules(code: str, *argv: str) -> frozenset[str]:
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True, check=True)
    return frozenset(run.stdout.splitlines()[-1].split())


def _loaded_by(*argv: str) -> set[str]:
    """The modules a command loads beyond a bare start."""
    return _modules(COMMAND, *argv) - _modules(BARE)


@pytest.mark.parametrize("argv", ALGEBRA_COMMANDS, ids=lambda argv: argv[0])
def test_an_algebra_command_loads_only_algebra_and_phases(argv):
    loaded = _loaded_by(*argv)
    assert {"qtorus", "qtorus.algebra", "qtorus.phases", "qtorus.cli"} <= loaded
    assert not loaded & NOT_FOR_ALGEBRA


@pytest.mark.parametrize("argv", ALGEBRA_COMMANDS, ids=lambda argv: argv[0])
def test_a_text_format_command_loads_no_json(argv):
    assert "json" not in _loaded_by(*argv)
    assert "json" in _loaded_by(*argv, "--format", "json")


def test_apply_loads_the_maps_and_not_the_suite():
    loaded = _loaded_by("apply", "--map", "delta", "U^2 V")
    assert "qtorus.maps" in loaded
    assert "qtorus.suite" not in loaded and "qtorus.rewrite" not in loaded


def test_check_loads_the_suite():
    loaded = _loaded_by("check", "--suite", "torus-relation", "--seed", "7")
    assert {"qtorus.suite", "qtorus.rewrite", "qtorus.maps"} <= loaded


def test_dir_of_the_package_lists_every_exported_name():
    names = dir(qtorus)
    assert set(qtorus.__all__) <= set(names)
    assert {"algebra", "phases", "rewrite", "maps", "suite", "cli"} <= set(names)
    assert names == sorted(names)


def test_an_unknown_package_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        qtorus.no_such_name
    assert not hasattr(qtorus, "no_such_name")
