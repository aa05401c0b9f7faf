"""Which modules a process loads, and the package namespace that defers
the layers.

``mgbar`` loads ``psi`` and ``koszul`` with the package and the other
layers on first use, so a short ``mgbar`` process pays only for the
layers its command runs.  The standard library follows the same rule:
no ``dataclasses`` (and with it ``inspect``) at all, ``json`` only for
``--json`` output and Koszul module input, no ``hashlib`` (and with it
OpenSSL) at all, not even for the pushforward-table checksum, and
argparse parsers only for the command run, and no module outside the
standard library anywhere in the package.  Module sets are read in fresh
interpreters, since the test process has long since loaded every layer.
"""

import argparse
import ast
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import mgbar
from mgbar import cli, koszul

# The directory holding the mgbar these tests import: src/ in a checkout,
# site-packages once the package is installed.
PACKAGES = Path(mgbar.__file__).resolve().parent.parent
LAYERS = ("divclass", "tautring", "psi", "bn", "koszul")

# Prints the modules loaded by ``import mgbar.cli``, then those that
# running the command in argv[1:] (if any) added, as one JSON line.  The
# probe's own json import comes after both are read.
PROBE = """
import contextlib, io, sys
import mgbar.cli
before = set(sys.modules)
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = mgbar.cli.main(sys.argv[1:])
        except SystemExit as exc:  # --version exits from argparse
            code = exc.code
    assert code == 0
added = set(sys.modules) - before
import json
print(json.dumps([sorted(before), sorted(added)]))
"""

# Prints the modules of a bare interpreter, which may already hold some
# of those watched here (a site hook, say).
BARE = "import sys; print(' '.join(sorted(sys.modules)))"


def _python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(PACKAGES))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def probe(*argv: str) -> tuple[set, set]:
    before, added = json.loads(_python("-c", PROBE, *argv))
    return set(before), set(added)


def mgbar_modules(names: set) -> set:
    return {name for name in names if name.split(".")[0] == "mgbar"}


@pytest.fixture(scope="module")
def bare() -> set:
    return set(_python("-c", BARE).split())


def test_importing_the_cli_loads_only_psi_and_koszul():
    before, _ = probe()
    assert mgbar_modules(before) == {
        "mgbar", "mgbar.cli", "mgbar.psi", "mgbar.koszul"
    }


@pytest.mark.parametrize("argv, added", [
    (["bn", "rho", "22", "1", "11"], {"mgbar.bn"}),
    (["taut", "reduce", "--expr", "eta"], {"mgbar.tautring"}),
    (["divclass", "slope", "--class", "d22"],
     {"mgbar.divclass", "mgbar.tautring"}),
])
def test_a_command_loads_only_the_layers_it_uses(argv, added):
    assert mgbar_modules(probe(*argv)[1]) == added


# (argv, loads json); the module file is written by the test.  The
# pushforward-table checksum runs under --version, taut d22-solve,
# taut table-verify, taut integrate --over W and divclass d22;
# divclass pair --class d22 builds the same class without it.
STDLIB_CASES = [
    ([], False),
    (["--version"], False),
    (["bn", "rho", "22", "1", "11"], False),
    (["--json", "bn", "rho", "22", "1", "11"], True),
    (["taut", "reduce", "--expr", "eta"], False),
    (["taut", "integrate", "--expr", "theta^3", "--over", "C"], False),
    (["taut", "integrate", "--expr", "theta^18", "--over", "W"], False),
    (["taut", "table-verify"], False),
    (["taut", "d22-solve"], False),
    (["divclass", "d22"], False),
    (["divclass", "pair", "--class", "d22", "--curve", "B"], False),
    (["divclass", "slope", "--class", "canonical", "--g", "4"], False),
    (["psi", "pand-bound", "--g", "5", "--json"], True),
    (["koszul", "np", "--input", "MODULE", "--p", "1"], True),
]


@pytest.mark.parametrize("argv, loads_json", STDLIB_CASES)
def test_a_command_loads_no_stdlib_module_it_does_not_use(
    argv, loads_json, bare, tmp_path
):
    module = tmp_path / "module.json"
    module.write_text(json.dumps(koszul.module_to_json(
        koszul.veronese_module(3, 3))), encoding="utf-8")
    before, added = probe(*[str(module) if a == "MODULE" else a for a in argv])
    loaded = before | added
    assert {"dataclasses", "inspect"} & loaded <= bare
    assert {"hashlib", "_hashlib"} & loaded <= bare
    if loads_json:
        assert "json" in loaded
    else:
        assert "json" not in loaded - bare


# argv, its exit code, and the most ArgumentParsers it may build: the
# shared flags and the top level, then the one group and subcommand it
# reaches.
PARSER_CASES = [
    (["bn", "rho", "22", "1", "11"], 0, 4),
    # An error below the subcommand comes from the subcommand's parser.
    (["bn", "rho", "22", "6"], 2, 4),
    (["bn", "rho", "22", "1", "11", "--bogus"], 2, 4),
    (["psi", "eval", "--help"], 0, 4),
    (["psi", "--help"], 0, 3),
    (["psi", "nope"], 2, 3),
    (["--help"], 0, 2),
    (["--json", "bogus"], 2, 2),
]


def test_a_routed_command_builds_one_branch_of_the_parser():
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    for argv, code, most in PARSER_CASES:
        built.clear()
        with mock.patch.object(argparse.ArgumentParser, "__init__", counting), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                assert cli.main(argv) == code, argv
            except SystemExit as exc:
                assert exc.code == code, argv
        assert len(built) <= most, (argv, built)


# Encodes a named result and a record of types the package has never
# seen, then prints which of divclass and bn that loaded.
ENCODE = """
import sys
import mgbar
from mgbar import cli

class Answer(mgbar._Named):
    _name, _text = "ANSWER", "forty-two"

class Record:
    def to_json_dict(self):
        return {"a": 1}

    def __str__(self):
        return "a=1"

assert cli._encode(Answer()) == ("forty-two", "forty-two")
assert cli._encode(Record()) == ({"a": 1}, "a=1")
print(sorted({"mgbar.divclass", "mgbar.bn"} & set(sys.modules)))
"""


def test_encode_reads_results_by_protocol_without_loading_layers():
    assert _python("-c", ENCODE).strip() == "[]"


def test_the_package_imports_only_the_standard_library():
    # CPython's builtin SHA-256 module is _sha256 up to 3.11 and _sha2
    # from 3.12, and stdlib_module_names lists only one of the two.
    allowed = {"mgbar", "_sha2", "_sha256", *sys.stdlib_module_names}
    sources = sorted(Path(mgbar.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)


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
