"""Each demo prints exactly its recorded output.

The files under ``tests/demo_golden/`` were captured from the demos before
the psi recursion moved to integer arithmetic; regenerate one with

    PYTHONPATH=src python demos/<name>.py > tests/demo_golden/<name>.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mgbar

ROOT = Path(__file__).resolve().parent.parent
# The directory holding the mgbar these tests import: src/ in a checkout,
# site-packages once the package is installed.
PACKAGES = Path(mgbar.__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "demo_golden"


def test_every_demo_has_a_golden_file():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=str(PACKAGES))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
