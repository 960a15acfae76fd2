"""Each demo script, and the README's quick start, runs to completion.

The demos call the public API the way a reader would, so a change to a
contract they use (per-point callables, eigenstate derivatives, the orbit
family) shows here.  Each runs in its own process on one BLAS thread.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
QUICK_START = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize(
    "args", [[str(d)] for d in DEMOS] + [["-c", QUICK_START]], ids=[d.stem for d in DEMOS] + ["readme"]
)
def test_demo_runs(args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, **ONE_THREAD)
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
