"""The README's walkthroughs: every script in ``demos/`` runs to exit 0 against the library in ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lpbounds

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_four_walkthroughs_are_found():
    assert [d.name for d in DEMOS] == ["bounds_tour.py", "decision_tree_synthesis.py",
                                       "oracle_comparison.py", "protocol_synthesis.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    """Run in an empty directory with no solution cache, so a demo can only read the library."""
    env = {k: v for k, v in os.environ.items() if k != "LPBOUNDS_CACHE"}
    env["PYTHONPATH"] = str(Path(lpbounds.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and list(tmp_path.iterdir()) == []
