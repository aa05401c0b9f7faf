"""Which layers a process loads, and the package namespace that defers them.

``mgbar`` loads ``psi`` and ``koszul`` with the package and the other
layers on first use, so a short ``mgbar`` process pays only for the
layers its command runs.  Module sets are read in fresh interpreters,
since the test process has long since loaded every layer.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mgbar

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("divclass", "tautring", "psi", "bn", "koszul")

# Prints the mgbar modules loaded by ``import mgbar.cli``, then those
# that running the command in argv[1:] (if any) added, as one JSON line.
PROBE = """
import contextlib, io, json, sys
import mgbar.cli
def loaded():
    return {name for name in sys.modules if name.split(".")[0] == "mgbar"}
before = loaded()
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert mgbar.cli.main(sys.argv[1:]) == 0
print(json.dumps([sorted(before), sorted(loaded() - before)]))
"""


def probe(*argv: str) -> tuple[set, set]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    before, added = json.loads(proc.stdout)
    return set(before), set(added)


def test_importing_the_cli_loads_only_psi_and_koszul():
    before, _ = probe()
    assert before == {"mgbar", "mgbar.cli", "mgbar.psi", "mgbar.koszul"}


@pytest.mark.parametrize("argv, added", [
    (["bn", "rho", "22", "1", "11"], {"mgbar.bn"}),
    (["taut", "reduce", "--expr", "eta"], {"mgbar.tautring"}),
    (["divclass", "slope", "--class", "d22"],
     {"mgbar.divclass", "mgbar.tautring"}),
])
def test_a_command_loads_only_the_layers_it_uses(argv, added):
    assert probe(*argv)[1] == added


def test_every_exported_name_is_its_layers_own_object():
    layers = [importlib.import_module(f"mgbar.{name}") for name in LAYERS]
    for name in mgbar.__all__:
        if name == "__version__":
            continue
        owners = [layer for layer in layers if name in layer.__all__]
        assert len(owners) == 1, name
        assert getattr(mgbar, name) is getattr(owners[0], name), name


def test_layers_resolve_as_package_attributes():
    for name in LAYERS:
        assert getattr(mgbar, name) is importlib.import_module(f"mgbar.{name}")


def test_dir_lists_the_exports():
    names = dir(mgbar)
    assert "__all__" in names
    assert set(mgbar.__all__) <= set(names)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from mgbar import *", namespace)
    assert set(mgbar.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        mgbar.no_such_name
