"""The quick demos run to completion against the current library."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Demo 04 trains for 20k epochs and is left out for time.
QUICK_DEMOS = (
    "01_oracle_basics.py",
    "02_fermi_statistics.py",
    "03_sweep_and_surrogate.py",
    "05_autodiff_playground.py",
)


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
