#!/usr/bin/env python3
"""Per-layer scaling rows, written to ``BENCH_layers.json``.

``write``: one round rewrites n existing output files through
``emrkit.jsonl.rewrite``, which the CLI's writer calls for every whole-file
output, with the contents of the bundled ``.smrl`` fixtures. The files are created
before the first round and each round writes the bytes they already hold,
as a rerun into the same ``--out`` does. Before each round the files are
flushed to disk (``fsync``, untimed), as the benchmark's steps start after
``os.sync()``: rewriting a file whose blocks are on disk is what a rerun
pays for. Timed in wall-clock and in thread-CPU milliseconds per round.

The other rows are timed in thread-CPU time, which leaves out the time the
machine gives to other processes. The front-end rows time one DSL layer each:

- ``scan``: ``dsl.tokens.scan`` on the source;
- ``parse_emr``: the whole parse, comment attachment included;
- ``parse_bare``: ``parse_emr(..., explanations=False)``, the parse that
  ``run``, ``check`` and ``grade`` make;
- ``layout``: the printer's canonical lines with their owners, before any
  text is read;
- ``canonical_units``: the logic-bearing canonical lines;
- ``validate``: ``dsl.validate`` without a catalog;
- ``repair``: ``dsl.repair`` on the source with the comma of its first
  IMPLIES replaced by `` &`` (the WLC-AMP defect, as the benchmark's
  ``author`` workload injects it), where it has one.

Each runs on the 13 bundled EMRs (``bundled``: microseconds per EMR of one
round over all of them) and on one ``tests/astgen.py`` ``long_emr`` of n
statements with a trailing comment on every line (``by_n``: milliseconds
per call). Layers after the parse get the ASTs their own checkout parsed.

The ``run_suite:CONFIG`` rows time ``runtime.run_suite`` with
``emrkit.shopstubs`` against the mock shop in ``CONFIG`` (``mock`` and each
of its faults), on the 13 EMRs of the benchmark's ``suite-run`` workload
(``bench/workloads.py``) and input sequences drawn as it draws them, with
seed 1. ``bundled``: its 64 inputs in 4 chunks, each chunk against a fresh
``MockShopSut``, as one ``emrkit run`` step runs them (milliseconds per
round of the 4 chunks); ``by_n``: n inputs in one call against a fresh
``MockShopSut`` (milliseconds per call).

The ``pipeline`` row times ``emrkit.cli.main`` running ``pipeline --mock``
in-process, derive and generate with their transcripts and output files, as
the benchmark's ``author`` workload runs it: ``bundled`` is one 32-MR round
of that workload with seed 1 (milliseconds per round), ``by_n`` one round of
the same workload drawn with n MRs a round, 30 % of the replies with the
WLC-AMP defect (milliseconds per call). Each round writes into the same
``--out``, as a rerun does. The ``check`` row times ``emrkit.cli.main``
running ``check`` in-process, as that workload's check step does, on the
EMRs of the same round, which ``pipeline --mock`` generates once before
the first timed round.

The ``load_annotations`` row times ``grading.load_annotations`` with the
EMRs given, as ``emrkit grade --emrs`` calls it, each EMR's canonical units
included where the checkout takes them: ``bundled`` on the bundled
annotations and the 10 bundled suite EMRs, ``by_n`` on n annotation lines,
the bundled lines repeated over renamed copies of those EMRs (every copy an
annotated line names is given). The ``cassette_load`` row times
``Cassette.load``: ``bundled`` on the cassette that the first round of the
benchmark's ``record-replay`` workload (seed 1) records, ``by_n`` on a
cassette of n interactions recorded from the mock shop, one per action of
the ``suite-run`` inputs seeded 1. Both are thread-CPU ms per call; the
files are written before the first round.

The ``import`` row times one fresh import of ``emrkit.cli`` from a
checkout's ``src``, with every ``emrkit`` module it imports, as each
``emrkit`` process starts (thread-CPU ms per import). The interpreter's
bytecode settings hold, so where no bytecode is cached each import
compiles the sources as well. After each import the modules loaded before
it are put back, so the other rows keep calling their own checkout's. The
row has no size: its one case is named ``bundled``.

Every row records, per n, the median with the quartiles of each clock, and
the log-log slope of the median over n (1.0 is linear, 2.0 quadratic).

    PYTHONPATH=src python tools/bench_layers.py [--rows ROW ...] [--sizes 50 200 400]
        [--rounds 100] [--against OTHER/src] [--check]

``--against`` loads a second checkout's ``emrkit`` into the same process
and interleaves its rounds with this one's (the order flips every round),
so both come from one machine state, and adds the paired ratio
against/this of each round as the median with the quartiles: a ratio above
1 means this checkout is faster. ``--check`` exits 1 when a slope of this
checkout is above 1.3; timings on a shared machine are too noisy for it to
gate the test suite. The ``write`` files and the ``pipeline`` workspaces
live under ``--dir`` (default ``.bench_build/layers``), which should be on
the disk that outputs go to.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from workloads import (  # noqa: E402
    AUTHOR_EXIT,
    AUTHOR_ROUNDS,
    CHUNKS,
    RUN_EXIT,
    SIZES,
    SUT_CONFIGS,
    build,
    emr_sources,
    inject_amp_defect,
    make_inputs,
    suite_ids,
)

MAX_SLOPE = 1.3
SEED = 1  # of the run_suite rows' input sequences and the pipeline row's mock scripts

Modules = dict[str, ModuleType]
Sampler = Callable[[], dict[str, float]]


def load_emrkit(src: str) -> Modules:
    """The ``emrkit`` modules the rows call, imported from ``src``."""
    for name in [m for m in sys.modules if m == "emrkit" or m.startswith("emrkit.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        importlib.invalidate_caches()
        names = ("cli", "jsonl", "resources", "dsl", "dsl.tokens", "dsl.printer", "dsl.repair", "dsl.validate",
                 "grading", "runtime", "shopstubs", "sut")
        return {name: importlib.import_module(f"emrkit.{name}") for name in names}
    finally:
        sys.path.remove(src)


def long_emr(n: int) -> str:
    """``tests/astgen.py``'s n-statement EMR, every line commented."""
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        return importlib.import_module("astgen").long_emr(n)
    finally:
        sys.path.remove(str(ROOT / "tests"))


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


def timed(fn: Callable[[Any], Any], items: list[Any], clock: str) -> Sampler:
    """One round calls ``fn`` once on each item; the sample is the mean per
    item in ``clock``'s unit (us or ms)."""
    scale = len(items) * (1e3 if clock == "cpu_us" else 1e6)

    def sample() -> dict[str, float]:
        start = time.thread_time_ns()
        for item in items:
            fn(item)
        return {clock: (time.thread_time_ns() - start) / scale}

    return sample


def write_sampler(modules: Modules, n: int, directory: Path) -> Sampler:
    """One round rewrites n output files of one checkout."""
    rewrite = modules["jsonl"].rewrite
    texts = fixture_texts(modules["resources"])
    files = [(directory / f"emr{i:04d}.smrl", texts[i % len(texts)]) for i in range(n)]
    for path, text in files:
        rewrite(path, text.encode("utf-8"))

    def sample() -> dict[str, float]:
        for path, _ in files:
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        wall, cpu = time.perf_counter_ns(), time.thread_time_ns()
        for path, text in files:
            rewrite(path, text.encode("utf-8"))  # as the CLI's writer encodes each text
        return {"wall_ms": (time.perf_counter_ns() - wall) / 1e6, "cpu_ms": (time.thread_time_ns() - cpu) / 1e6}

    return sample


# Front-end layer -> (its function in a checkout, the argument it takes for a source).
FRONTEND: dict[str, tuple[Callable[[Modules], Callable[[Any], Any]], Callable[[Modules, str], Any]]] = {
    "scan": (lambda m: m["dsl.tokens"].scan, lambda m, source: source),
    "parse_emr": (lambda m: m["dsl"].parse_emr, lambda m, source: source),
    "parse_bare": (lambda m: partial(m["dsl"].parse_emr, explanations=False), lambda m, source: source),
    "layout": (lambda m: m["dsl.printer"].layout, lambda m, source: m["dsl"].parse_emr(source)),
    "canonical_units": (lambda m: m["dsl"].canonical_units, lambda m, source: m["dsl"].parse_emr(source)),
    "validate": (lambda m: m["dsl.validate"].validate, lambda m, source: m["dsl"].parse_emr(source)),
    "repair": (lambda m: m["dsl.repair"].repair, lambda m, source: inject_amp_defect(source) or source),
}


def frontend_sampler(modules: Modules, layer: str, sources: list[str], clock: str) -> Sampler:
    function, argument = FRONTEND[layer]
    return timed(function(modules), [argument(modules, source) for source in sources], clock)


def run_suite_sampler(modules: Modules, config: str, count: int, chunks: int) -> Sampler:
    """One round runs the ``suite-run`` EMRs of one checkout on ``count``
    seeded inputs, in ``chunks`` calls, each against a fresh mock shop."""
    dsl, runtime, sut, stubs = modules["dsl"], modules["runtime"], modules["sut"], modules["shopstubs"].STUBS
    asts = [dsl.parse_emr(text, emr_id) for emr_id, text in emr_sources(modules["resources"]).items()]
    inputs = [runtime.ActionSequence.from_json(actions) for actions in make_inputs(random.Random(SEED), count)]
    size = count // chunks
    parts = [inputs[i * size : (i + 1) * size] for i in range(chunks)]
    fault = config.partition(":")[2] or None

    def run(parts: list[list[Any]]) -> None:
        for part in parts:
            runtime.run_suite(asts, part, sut.MockShopSut(fault), stubs)

    return timed(run, [parts], "cpu_ms")


def author_sampler(modules: Modules, mrs: int, directory: Path, command: str) -> Sampler:
    """One round runs ``emrkit COMMAND`` of one checkout in-process on the
    first round of an ``author`` workspace with ``mrs`` MRs a round:
    ``pipeline --mock`` into the same ``--out`` every time, or ``check`` on
    the EMRs that pipeline generated (untimed, once)."""
    plan = build("author", SEED, mrs * AUTHOR_ROUNDS, directory, modules["resources"])
    main = modules["cli"].main
    if command == "check":
        run_cli(main, plan.step("pipeline-1").argv, AUTHOR_EXIT)
    return timed(lambda argv: run_cli(main, argv, AUTHOR_EXIT), [plan.step(f"{command}-1").argv], "cpu_ms")


def run_cli(main: Callable[[list[str]], int], argv: list[str], expected: int) -> None:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != expected:
        raise RuntimeError(f"emrkit {' '.join(argv)} exited {code}")


def annotations_sampler(modules: Modules, count: int | None, directory: Path) -> Sampler:
    """One call loads ``count`` annotation lines of one checkout with their
    EMRs given (None: the bundled file and suite)."""
    resources, parse_emr = modules["resources"], modules["dsl"].parse_emr
    sources = emr_sources(resources)
    asts = {emr_id: parse_emr(sources[emr_id], emr_id) for emr_id in suite_ids(resources)}
    path = resources.fixture_path("suite_annotations.jsonl")
    emrs = asts
    if count is not None:
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
        records, emrs = [], {}
        for i in range(count):
            line = lines[i % len(lines)]
            copy = f"{line['emr']}-{i // len(lines)}"  # the line's EMR in copy number i // len(lines)
            records.append({**line, "emr": copy})
            emrs[copy] = asts[line["emr"]]
        path = directory / "annotations.jsonl"
        directory.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    load_annotations = modules["grading"].load_annotations
    # A checkout that takes each EMR's canonical units, not its AST, is timed
    # laying them out as well, as ``grade`` does before it calls the function.
    takes_asts = "emrs" in inspect.signature(load_annotations).parameters
    lay_out = (lambda ast: ast) if takes_asts else modules["dsl"].canonical_units
    return timed(lambda emrs: load_annotations(path, {emr_id: lay_out(ast) for emr_id, ast in emrs.items()}),
                 [emrs], "cpu_ms")


def cassette_sampler(modules: Modules, count: int | None, directory: Path) -> Sampler:
    """One call loads a cassette of one checkout: ``count`` interactions
    recorded from the mock shop (None: one ``record-replay`` round's)."""
    sut = modules["sut"]
    if count is None:
        plan = build("record-replay", SEED, SIZES["record-replay"], directory, modules["resources"])
        run_cli(modules["cli"].main, plan.step("record-1").argv, RUN_EXIT)
        path = Path(plan.step("record-1").argv[-1])
    else:
        path = directory / "cassette.jsonl"
        directory.mkdir(parents=True, exist_ok=True)
        session = sut.record_replay("record", path, sut.MockShopSut())()
        actions = [action for actions in make_inputs(random.Random(SEED), count)
                   for action in modules["runtime"].ActionSequence.from_json(actions).actions]
        for action in actions[:count]:
            session.execute(action)
    return timed(lambda cassette: cassette.load(), [sut.Cassette(path)], "cpu_ms")


def import_sampler(modules: Modules, _: Path) -> Sampler:
    """One round imports ``emrkit.cli`` afresh from the checkout of ``modules``."""
    src = str(Path(modules["cli"].__file__).resolve().parents[1])

    def sample() -> dict[str, float]:
        loaded = dict(sys.modules)
        for name in [m for m in sys.modules if m == "emrkit" or m.startswith("emrkit.")]:
            del sys.modules[name]
        sys.path.insert(0, src)
        try:
            start = time.thread_time_ns()
            importlib.import_module("emrkit.cli")
            return {"cpu_ms": (time.thread_time_ns() - start) / 1e6}
        finally:
            sys.path.remove(src)
            for name in [m for m in sys.modules if m not in loaded]:
                del sys.modules[name]
            sys.modules.update(loaded)

    return sample


class Row(NamedTuple):
    what: str
    by_n: Callable[[Modules, int, Path], Sampler] | None = None  # (checkout, n, its own scratch directory)
    bundled: Callable[[Modules, Path], Sampler] | None = None


def frontend_row(layer: str) -> Row:
    return Row(f"{layer} on the bundled EMRs (thread-CPU us per EMR) and on an n-statement long_emr "
               "(thread-CPU ms per call)",
               lambda m, n, _: frontend_sampler(m, layer, [long_emr(n)], "cpu_ms"),
               lambda m, _: frontend_sampler(m, layer, fixture_texts(m["resources"]), "cpu_us"))


def run_suite_row(config: str) -> Row:
    count = SIZES["suite-run"]
    return Row(f"run_suite with emrkit.shopstubs against {config}: the suite-run EMRs on its {count} inputs "
               f"in {CHUNKS} calls (thread-CPU ms per round) and on n inputs in one call (thread-CPU ms per "
               f"call); inputs seeded {SEED}",
               lambda m, n, _: run_suite_sampler(m, config, n, 1),
               lambda m, _: run_suite_sampler(m, config, count, CHUNKS))


def author_row(what: str, command: str) -> Row:
    per_round = SIZES["author"] // AUTHOR_ROUNDS
    return Row(f"{what} (seed {SEED}, {per_round} MRs a round, 30% with the WLC-AMP defect; thread-CPU ms per "
               "round) and on an n-MR script drawn the same way (thread-CPU ms per call)",
               lambda m, n, directory: author_sampler(m, n, directory, command),
               lambda m, directory: author_sampler(m, per_round, directory, command))


ROWS: dict[str, Row] = {
    "write": Row("rewrite n existing output files through emrkit.jsonl.rewrite; ms per round", write_sampler),
    **{layer: frontend_row(layer) for layer in FRONTEND},
    **{f"run_suite:{config}": run_suite_row(config) for config in SUT_CONFIGS},
    "pipeline": author_row("emrkit pipeline --mock in-process on the author workload's mock script", "pipeline"),
    "check": author_row("emrkit check in-process on the EMRs that pipeline --mock generates from the author "
                        "workload's mock script", "check"),
    "load_annotations": Row("grading.load_annotations with the EMRs given: the bundled annotations and suite "
                            "(thread-CPU ms per call) and n annotation lines over copies of the suite (thread-CPU "
                            "ms per call)",
                            annotations_sampler, lambda m, directory: annotations_sampler(m, None, directory)),
    "cassette_load": Row(f"Cassette.load on one record-replay round's cassette (seed {SEED}; thread-CPU ms per call) "
                         "and on n interactions recorded from the mock shop (thread-CPU ms per call)",
                         cassette_sampler, lambda m, directory: cassette_sampler(m, None, directory)),
    "import": Row("one fresh import of emrkit.cli with every emrkit module it imports (thread-CPU ms per import)",
                  bundled=import_sampler),
}


def interleaved(samplers: dict[tuple[str, str], Sampler], rounds: int) -> dict[str, dict[str, dict[str, list[float]]]]:
    """Case -> version -> clock -> samples of the (case, version) samplers:
    one untimed warm-up call each, then ``rounds`` calls each. Every round
    calls every sampler once, the order flipped every round, so a change
    in machine speed during the run moves every case and version alike."""
    order = list(samplers.items())
    for _, sample in order:
        sample()
    samples: dict[str, dict[str, dict[str, list[float]]]] = {}
    for _ in range(rounds):
        order.reverse()  # no version or case always runs first
        for (case, v), sample in order:
            for clock, value in sample().items():
                samples.setdefault(case, {}).setdefault(v, {}).setdefault(clock, []).append(value)
    return samples


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def loglog_slope(sizes: list[int], medians: list[float]) -> float:
    """Least-squares slope of log(median) over log(n)."""
    xs, ys = [math.log(n) for n in sizes], [math.log(max(m, 1e-9)) for m in medians]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return round(sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs), 3)


def measure(row: Row, versions: dict[str, Modules], sizes: list[int], rounds: int,
            directory: Path) -> dict[str, Any]:
    """The row's statistics per version and, with two versions, the paired ratios."""
    samplers: dict[tuple[str, str], Sampler] = {}
    if row.bundled is not None:
        for v, modules in versions.items():
            samplers["bundled", v] = row.bundled(modules, directory / f"{v}-bundled")
    sizes = sizes if row.by_n is not None else []
    for n in sizes:
        for v, modules in versions.items():  # a case's versions run next to each other
            samplers[str(n), v] = row.by_n(modules, n, directory / f"{v}-n{n}")
    cases = interleaved(samplers, rounds)
    result: dict[str, Any] = {}
    for v in versions:
        result[v] = {}
        if sizes:
            by_n = {str(n): {clock: summary(s) for clock, s in cases[str(n)][v].items()} for n in sizes}
            result[v]["by_n"] = by_n
            result[v]["loglog_slope"] = {clock: loglog_slope(sizes, [by_n[str(n)][clock]["median"] for n in sizes])
                                         for clock in by_n[str(sizes[0])]}
        if "bundled" in cases:
            result[v]["bundled"] = {clock: summary(s) for clock, s in cases["bundled"][v].items()}
    if "against" in versions:
        result["paired_against_over_this"] = {
            case: {clock: summary([a / t for a, t in zip(samples["against"][clock], samples["this"][clock])])
                   for clock in samples["this"]}
            for case, samples in cases.items()
        }
    return result


def report(name: str, row: dict[str, Any]) -> None:
    def cell(clocks: dict[str, dict[str, float]], digits: int, unit: bool = True) -> str:
        clock, stats = next(iter(clocks.items()))  # wall-clock first where a row has it
        text = f"{stats['median']:.{digits}f} [{stats['q1']:.{digits}f}-{stats['q3']:.{digits}f}]"
        return text + (" " + clock.rpartition("_")[2] if unit else "x")

    for v in row["commits"]:
        cells = [f"bundled {cell(row[v]['bundled'], 1)}"] if "bundled" in row[v] else []
        cells += [f"n={n} {cell(clocks, 2)}" for n, clocks in row[v].get("by_n", {}).items()]
        cells += [f"slope {row[v]['loglog_slope']}"] if "loglog_slope" in row[v] else []
        print(f"{name} {v}: " + "   ".join(cells))
    if "paired_against_over_this" in row:
        cells = [f"{case} {cell(ratios, 3, unit=False)}" for case, ratios in row["paired_against_over_this"].items()]
        print(f"{name} against/this: " + "   ".join(cells))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rows", nargs="+", choices=ROWS, default=list(ROWS), metavar="ROW",
                    help=f"rows to measure (default: all of {', '.join(ROWS)})")
    ap.add_argument("--sizes", type=int, nargs="+", default=[50, 200, 400], metavar="N")
    ap.add_argument("--rounds", type=int, default=100)
    ap.add_argument("--against", metavar="SRC", help="another checkout's src directory to time alongside")
    ap.add_argument("--check", action="store_true", help=f"exit 1 if a slope of this checkout is above {MAX_SLOPE}")
    ap.add_argument("--dir", type=Path, default=Path(".bench_build") / "layers", help="where the files are written")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = ap.parse_args()
    if len(args.sizes) < 2 or min(args.sizes) < 1 or args.rounds < 2:
        ap.error("need two or more sizes of at least 1, and two or more rounds")
    srcs = {"this": str(ROOT / "src")}
    if args.against:
        srcs["against"] = str(Path(args.against).resolve())
    versions = {v: load_emrkit(src) for v, src in srcs.items()}
    commits = {v: commit_of(src) for v, src in srcs.items()}
    document = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    steep = []
    for name in args.rows:
        row = {"what": ROWS[name].what, "rounds": args.rounds, "commits": commits,
               **({"n": args.sizes} if ROWS[name].by_n is not None else {}),
               **measure(ROWS[name], versions, args.sizes, args.rounds, args.dir.resolve())}
        document.setdefault("rows", {})[name] = row
        report(name, row)
        slopes = row["this"].get("loglog_slope", {})
        steep += [f"{name} {clock} slope {s}" for clock, s in slopes.items() if s > MAX_SLOPE]
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    if args.check and steep:
        sys.exit(f"slope above {MAX_SLOPE}: " + "; ".join(steep))


if __name__ == "__main__":
    main()
