"""Pinned outputs: demos 01-04 print exactly what ``tests/golden`` holds.

The JSON report of ``qtorus check --seed 20260809`` is pinned to
``golden/check_seed_20260809.json`` by acceptance criterion 10, which already
runs that command.  After a deliberate change of output, regenerate a file
with e.g. ``PYTHONPATH=src python demos/01_torus_basics.py >
tests/golden/01_torus_basics.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_four_demos_are_pinned():
    assert [d.stem[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_matches_golden(demo):
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == (GOLDEN / f"{demo.stem}.txt").read_text()
