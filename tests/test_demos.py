from pathlib import Path

import pytest

from oracles import run_child

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = run_child(str(demo), timeout=60)
    assert proc.returncode == 0, proc.stderr
