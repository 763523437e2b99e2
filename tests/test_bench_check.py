"""The benchmark's own quick check, run as part of the suite.

The benchmark in ``confbench/`` calls ``calibrate`` with keyword arguments
and ``evaluate``; a change to either that breaks it should fail here, not
only when the benchmark runs.  The check writes only under the git-ignored
``.confbench/`` directory.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_check_passes():
    proc = subprocess.run([sys.executable, "confbench/check.py"], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
