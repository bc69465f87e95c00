#!/usr/bin/env python3
"""Per-layer scaling rows, written to ``BENCH_layers.json``.

One row so far, ``write``: one round rewrites n existing output files
through ``emrkit.cli._write``, the path every whole-file output of the CLI
takes, with the contents of the bundled ``.smrl`` fixtures. The files are
created before the first round and each round writes the bytes they
already hold, as a rerun into the same ``--out`` does. Before each round
the files are flushed to disk (``fsync``, untimed), as the benchmark's
steps start after ``os.sync()``: rewriting a file whose blocks are on disk
is what a rerun pays for.

Each round is timed in wall-clock time and in the thread's CPU time. The
row records, per n, the median with the quartiles of each, in
milliseconds per round, and the log-log slope of the median over n (1.0 is
linear).

    PYTHONPATH=src python tools/bench_layers.py [--sizes 50 200 400] [--rounds 50] [--against OTHER/src]

``--against`` loads a second checkout's ``emrkit`` into the same process
and interleaves its rounds with this one's (the order flips every round),
so both come from one machine state, and adds the paired ratio
against/this of each round as the median with the quartiles: a ratio above
1 means this checkout is faster. The files live under ``--dir`` (default
``.bench_build/layers``), which should be on the disk that outputs go to.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import ModuleType
from typing import Any

ROOT = Path(__file__).resolve().parents[1]


def load_emrkit(src: str) -> dict[str, ModuleType]:
    """``emrkit.cli`` and ``emrkit.resources`` imported from ``src``."""
    for name in [m for m in sys.modules if m == "emrkit" or m.startswith("emrkit.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        importlib.invalidate_caches()
        return {name: importlib.import_module(f"emrkit.{name}") for name in ("cli", "resources")}
    finally:
        sys.path.remove(src)


def commit_of(src: str) -> str | None:
    """The HEAD commit of the checkout holding ``src``, marked ``+dirty``
    when its ``src`` differs from HEAD; None outside a git checkout."""
    def git(*argv: str) -> str:
        return subprocess.run(["git", *argv], cwd=src, capture_output=True, text=True, check=True).stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--", ".")
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty else "")


def fixture_texts(resources: ModuleType) -> list[str]:
    suite = resources.fixture_path("suite")
    paths = [*sorted(suite.glob("*.smrl")), *sorted(suite.parent.glob("*.smrl"))]
    return [path.read_text(encoding="utf-8") for path in paths]


class WriteRow:
    """n output files of one checkout, rewritten once per round."""

    def __init__(self, modules: dict[str, ModuleType], directory: Path, n: int):
        self.write = modules["cli"]._write
        texts = fixture_texts(modules["resources"])
        self.files = [(directory / f"emr{i:04d}.smrl", texts[i % len(texts)]) for i in range(n)]
        for path, text in self.files:
            self.write(path, text, False)

    def round(self) -> tuple[float, float]:
        """Wall and CPU milliseconds of one round."""
        for path, _ in self.files:
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        write = self.write
        wall, cpu = time.perf_counter_ns(), time.thread_time_ns()
        for path, text in self.files:
            write(path, text, False)
        return (time.perf_counter_ns() - wall) / 1e6, (time.thread_time_ns() - cpu) / 1e6


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def loglog_slope(sizes: list[int], medians: list[float]) -> float:
    """Least-squares slope of log(median) over log(n)."""
    xs, ys = [math.log(n) for n in sizes], [math.log(max(m, 1e-9)) for m in medians]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return round(sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs), 3)


def measure_write(versions: dict[str, dict[str, ModuleType]], sizes: list[int], rounds: int,
                  directory: Path) -> dict[str, Any]:
    per_n: dict[int, dict[str, dict[str, list[float]]]] = {}
    for n in sizes:
        rows = {v: WriteRow(modules, directory / f"{v}-n{n}", n) for v, modules in versions.items()}
        order = list(rows.items())
        for _, row in order:  # warm-up: first calls and the page cache
            row.round()
        samples: dict[str, dict[str, list[float]]] = {v: {"wall_ms": [], "cpu_ms": []} for v in rows}
        for _ in range(rounds):
            order.reverse()  # neither version always runs first
            for v, row in order:
                wall, cpu = row.round()
                samples[v]["wall_ms"].append(wall)
                samples[v]["cpu_ms"].append(cpu)
        per_n[n] = samples
    result: dict[str, Any] = {}
    for v in versions:
        stats = {str(n): {k: summary(per_n[n][v][k]) for k in ("wall_ms", "cpu_ms")} for n in sizes}
        slopes = {k: loglog_slope(sizes, [stats[str(n)][k]["median"] for n in sizes]) for k in ("wall_ms", "cpu_ms")}
        result[v] = {"by_n": stats, "loglog_slope": slopes}
    if "against" in versions:
        result["paired_against_over_this"] = {
            str(n): {k: summary([a / t for a, t in zip(per_n[n]["against"][k], per_n[n]["this"][k])])
                     for k in ("wall_ms", "cpu_ms")}
            for n in sizes
        }
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[50, 200, 400], metavar="N")
    ap.add_argument("--rounds", type=int, default=50)
    ap.add_argument("--against", metavar="SRC", help="another checkout's src directory to time alongside")
    ap.add_argument("--dir", type=Path, default=Path(".bench_build") / "layers", help="where the files are written")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = ap.parse_args()
    if len(args.sizes) < 2 or min(args.sizes) < 1 or args.rounds < 2:
        ap.error("need two or more sizes of at least 1, and two or more rounds")
    srcs = {"this": str(ROOT / "src")}
    if args.against:
        srcs["against"] = str(Path(args.against).resolve())
    versions = {v: load_emrkit(src) for v, src in srcs.items()}
    row = {
        "what": "rewrite n existing output files through emrkit.cli._write; ms per round",
        "rounds": args.rounds,
        "n": args.sizes,
        "commits": {v: commit_of(src) for v, src in srcs.items()},
        **measure_write(versions, args.sizes, args.rounds, args.dir.resolve()),
    }
    document = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    document.setdefault("rows", {})["write"] = row
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for v in versions:
        cells = [f"n={n} wall {s['wall_ms']['median']:.2f} [{s['wall_ms']['q1']:.2f}-{s['wall_ms']['q3']:.2f}] ms"
                 for n, s in row[v]["by_n"].items()]
        print(f"write {v:<8} " + "   ".join(cells) + f"   slope {row[v]['loglog_slope']['wall_ms']}")
    if args.against:
        cells = [f"n={n} {p['wall_ms']['median']:.3f}x [{p['wall_ms']['q1']:.3f}-{p['wall_ms']['q3']:.3f}]"
                 for n, p in row["paired_against_over_this"].items()]
        print("write paired against/this wall " + "   ".join(cells))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
