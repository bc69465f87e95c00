"""The benchmark harness and the layer rows run once at a tiny size.

This guards what the harness looks up in the package (the tracer wraps
named functions and methods), the golden verdict digests it checks, and
the shape of the file ``tools/bench_layers.py`` writes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.fixture(scope="module")
def layer_rows(tmp_path_factory):
    """Every row of ``tools/bench_layers.py`` at n = 2/4, written into a file
    that already holds another row."""
    tmp_path = tmp_path_factory.mktemp("layers")
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
    return json.loads(out.read_text())["rows"]


QUARTILES = {"median", "q1", "q3"}


def test_bench_layers_writes_the_write_row(layer_rows):
    assert layer_rows["other"] == {}
    row = layer_rows["write"]
    assert row["n"] == [2, 4] and row["rounds"] == 3 and set(row["commits"]) == {"this", "against"}
    for version in ("this", "against"):
        assert set(row[version]["loglog_slope"]) == {"wall_ms", "cpu_ms"}
        for n in ("2", "4"):
            for clock in ("wall_ms", "cpu_ms"):
                stats = row[version]["by_n"][n][clock]
                assert set(stats) == QUARTILES and stats["q1"] <= stats["median"] <= stats["q3"]
    for n in ("2", "4"):
        assert set(row["paired_against_over_this"][n]["wall_ms"]) == QUARTILES


@pytest.mark.parametrize("name", ["scan", "parse_emr", "parse_bare", "layout", "canonical_units", "validate", "repair"])
def test_bench_layers_writes_the_front_end_rows(layer_rows, name):
    row = layer_rows[name]
    assert row["n"] == [2, 4] and row["rounds"] == 3 and set(row["commits"]) == {"this", "against"}
    for version in ("this", "against"):
        stats = [row[version]["bundled"]["cpu_us"], *(row[version]["by_n"][n]["cpu_ms"] for n in ("2", "4"))]
        assert all(set(s) == QUARTILES and 0 < s["q1"] <= s["median"] <= s["q3"] for s in stats)
        assert set(row[version]["loglog_slope"]) == {"cpu_ms"}
    paired = row["paired_against_over_this"]
    assert set(paired) == {"bundled", "2", "4"}
    assert set(paired["bundled"]["cpu_us"]) == QUARTILES and set(paired["4"]["cpu_ms"]) == QUARTILES


def check_cpu_ms_row(row, what):
    """A row timed in thread-CPU ms on ``bundled`` and at n = 2/4, paired."""
    assert row["n"] == [2, 4] and row["rounds"] == 3 and set(row["commits"]) == {"this", "against"}
    assert what in row["what"]
    for version in ("this", "against"):
        stats = [row[version]["bundled"]["cpu_ms"], *(row[version]["by_n"][n]["cpu_ms"] for n in ("2", "4"))]
        assert all(set(s) == QUARTILES and 0 < s["q1"] <= s["median"] <= s["q3"] for s in stats)
        assert set(row[version]["loglog_slope"]) == {"cpu_ms"}
    paired = row["paired_against_over_this"]
    assert set(paired) == {"bundled", "2", "4"}
    assert all(set(paired[case]["cpu_ms"]) == QUARTILES for case in paired)


@pytest.mark.parametrize("config", ["mock", "mock:ignore-filter", "mock:off-by-one-pagination", "mock:stale-results"])
def test_bench_layers_writes_the_run_suite_rows(layer_rows, config):
    check_cpu_ms_row(layer_rows[f"run_suite:{config}"], config)


def test_bench_layers_writes_the_pipeline_row(layer_rows):
    check_cpu_ms_row(layer_rows["pipeline"], "pipeline --mock")


def test_bench_layers_writes_the_check_row(layer_rows):
    check_cpu_ms_row(layer_rows["check"], "emrkit check")


def test_bench_layers_writes_the_load_annotations_row(layer_rows):
    check_cpu_ms_row(layer_rows["load_annotations"], "grading.load_annotations")


def test_bench_layers_writes_the_cassette_load_row(layer_rows):
    check_cpu_ms_row(layer_rows["cassette_load"], "Cassette.load")


def test_bench_layers_writes_the_import_row(layer_rows):
    row = layer_rows["import"]
    assert "n" not in row and row["rounds"] == 3 and set(row["commits"]) == {"this", "against"}
    assert "emrkit.cli" in row["what"]
    for version in ("this", "against"):
        assert set(row[version]) == {"bundled"}  # no size, so no by_n and no slope
        stats = row[version]["bundled"]["cpu_ms"]
        assert set(stats) == QUARTILES and 0 < stats["q1"] <= stats["median"] <= stats["q3"]
    assert set(row["paired_against_over_this"]) == {"bundled"}
    assert set(row["paired_against_over_this"]["bundled"]["cpu_ms"]) == QUARTILES
