"""The benchmark harness and the layer rows run once at a tiny size.

This guards what the harness looks up in the package (the tracer wraps
named functions and methods), the golden verdict digests it checks, and
the shape of the file ``tools/bench_layers.py`` writes.
"""

import json
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


def test_bench_layers_writes_the_write_row(tmp_path):
    out = tmp_path / "BENCH_layers.json"
    out.write_text(json.dumps({"rows": {"other": {}}}))
    result = subprocess.run(
        [sys.executable, "tools/bench_layers.py", "--sizes", "2", "4", "--rounds", "3",
         "--dir", str(tmp_path / "files"), "--out", str(out), "--against", str(ROOT / "src")],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    rows = json.loads(out.read_text())["rows"]
    assert rows["other"] == {}
    row = rows["write"]
    assert row["n"] == [2, 4] and row["rounds"] == 3 and set(row["commits"]) == {"this", "against"}
    quartiles = {"median", "q1", "q3"}
    for version in ("this", "against"):
        assert set(row[version]["loglog_slope"]) == {"wall_ms", "cpu_ms"}
        for n in ("2", "4"):
            for clock in ("wall_ms", "cpu_ms"):
                stats = row[version]["by_n"][n][clock]
                assert set(stats) == quartiles and stats["q1"] <= stats["median"] <= stats["q3"]
    for n in ("2", "4"):
        assert set(row["paired_against_over_this"][n]["wall_ms"]) == quartiles
