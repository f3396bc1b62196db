"""The benchmark's own test: its smoke mode must pass.

Smoke mode runs every workload at a tiny size in both trace modes, with all
output checks, and compares every metric name and unit with BENCHMARK.json.

  python3 -m pytest perfbench
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert '"correct": true' in proc.stdout.splitlines()[-1]
