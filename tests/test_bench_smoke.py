"""The benchmark harness runs every workload once at a tiny size.

This guards what the harness looks up in the package (the tracer wraps
named functions and methods) and the golden verdict digests it checks.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_run_passes():
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert result.stdout.strip().splitlines()[-1] == "smoke: ok"
