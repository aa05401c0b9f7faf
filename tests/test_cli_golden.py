"""Byte-for-byte golden corpus of the ``mgbar`` command line.

``cli_golden.json`` lists invocations of :func:`mgbar.cli.main` with
the exit code, stdout and stderr each must produce: every subcommand in
human form and with ``--json``, ``--tolerance`` with and without
``--json``, ``--json`` before the group, ``key=value`` tokens, domain
errors (exit 1) and usage errors (exit 2).  The corpus was captured
from the hand-written CLI before it became table-driven; the entries
whose input used to be accepted or to crash (float and malformed Koszul
module JSON, exponents above ``tautring.MAX_EXPONENT``, zero
denominators in module JSON and ``taut`` expressions, and zero
denominators and huge decimal exponents in ``--coeffs`` (exit 1) and
``--tolerance`` (exit 2)) were added when those inputs started failing
closed.  ``--tolerance abc`` was captured before that change and pins
the message of a malformed tolerance.  The entries for a module whose
multiplication tensors do not commute pin its refusal (exit 1), and so
do those for a module whose commutativity check would visit more than
``koszul.MAX_COMMUTATIVITY_WORK`` product terms.

Koszul module files are written under fixed relative names into a
scratch working directory, because ``inputs.input`` echoes the path.
After an intended output change, recapture the corpus with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from mgbar import cli, koszul

CORPUS = Path(__file__).with_name("cli_golden.json")


def write_modules(directory: Path) -> None:
    module = koszul.module_to_json(koszul.veronese_module(3, 3))
    files = {
        "module.json": module,
        "malformed.json": {"base_dim": 2, "pieces": [1, 2], "mult": 5},
        "float.json": {
            "base_dim": 1, "pieces": [1, 1, 1], "mult": [[[[0.1]]], [[[2]]]],
        },
        "zero.json": {"base_dim": 1, "pieces": [1, 1], "mult": [[[["1/0"]]]]},
        # f_1 f_0 sends M_0 to the third basis vector of M_2, f_0 f_1 to
        # the second.
        "noncommuting.json": {
            "base_dim": 2, "pieces": [1, 2, 3],
            "mult": [[[[1, 0]], [[0, 1]]],
                     [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [0, 1, 0]]]],
        },
        # Every f_l = 1: a commutativity check of 2 000 * 1 999 terms.
        "wide.json": {
            "base_dim": 2000, "pieces": [1, 1, 1],
            "mult": [[[[1]]] * 2000] * 2,
        },
    }
    for name, data in files.items():
        (directory / name).write_text(json.dumps(data), encoding="utf-8")


def capture(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps usage lines at the terminal width.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _entries() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "entry", _entries(), ids=lambda entry: " ".join(entry["argv"]) or "<none>"
)
def test_invocation(entry, tmp_path, monkeypatch):
    write_modules(tmp_path)
    monkeypatch.chdir(tmp_path)
    expected = {k: entry[k] for k in ("code", "stdout", "stderr")}
    assert capture(entry["argv"]) == expected


def readme_commands() -> set[str]:
    """The commands named in the README's "Subcommands:" paragraph."""
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    paragraph = readme.split("Subcommands:", 1)[1].split("\n\n", 1)[0]
    return {
        f"{group} {name.strip()}"
        for group, names in re.findall(r"`(\w+) \{([^}]*)\}`", paragraph)
        for name in names.split(",")
    }


def test_corpus_covers_every_command():
    runs = [entry["argv"] for entry in _entries() if entry["code"] == 0]
    commands = readme_commands()
    assert commands
    for command in commands:
        mine = [argv for argv in runs if " ".join(argv[:2]) == command]
        assert any("--json" not in argv for argv in mine), command
        assert any("--json" in argv for argv in mine), command


def test_readme_lists_the_registry():
    assert readme_commands() == {command.name for command in cli.COMMANDS}


def _recapture() -> None:
    entries = _entries()
    with tempfile.TemporaryDirectory() as scratch:
        write_modules(Path(scratch))
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            for entry in entries:
                entry.update(capture(entry["argv"]))
        finally:
            os.chdir(cwd)
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"recaptured {len(entries)} invocations into {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    _recapture()
