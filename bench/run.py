"""emrkit benchmark: three in-process CLI workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload suite-run --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload author --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --smoke

One process, one thread, sequential runs. Set-up re-imports the package
from ``src/`` and writes the seeded workspace under ``.bench_build/``,
several times, and reports the median as ``setup_s``. An untraced check
pass then runs every step once and checks its outputs; timed passes follow
until ``--seconds`` is used up, and each must reproduce the check pass's
exit codes, stdout and output files byte for byte. Times are reported in
reference-speed seconds (see Reference). With ``--trace 1`` half the time
goes to untraced passes and one traced pass follows; its spans give the
per-layer metrics and ``tracing.overhead_share``. The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--smoke`` runs every workload once at a tiny size and checks
that every metric of BENCHMARK.json is printed with its unit. See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = Path(".bench_build") / "emrkit"
SETUP_REPEATS = 7

sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Every module the tracer wraps; imported during set-up.
MODULES = tuple(module for module, _ in tracing.LAYERS.values()) + ("emrkit.resources", "emrkit.dsl")


class BenchError(Exception):
    pass


@dataclass
class StepResult:
    code: int
    wall_seconds: float
    seconds: float  # reference-speed seconds
    stdout: str
    digest: str
    interactions: int = 0  # mock-shop actions, counted in the check pass


@dataclass
class PassResult:
    steps: dict[str, StepResult] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.steps.values())

    @property
    def wall_seconds(self) -> float:
        return sum(s.wall_seconds for s in self.steps.values())

    def digest(self) -> dict[str, tuple[int, str]]:
        return {name: (s.code, s.digest) for name, s in self.steps.items()}


# --- reference speed ----------------------------------------------------------------

# A shared 2-core machine's speed swings by up to 2x from one second to the
# next, so every time the benchmark reports is converted to reference-speed
# seconds: wall-clock seconds x the nominal time of a fixed piece of
# reference work / the mean of its timings right before and right after.
# Every CLI step is kept short so that these timings track the speed during
# it. The reference work has a Python part and a file-rewrite part; steps
# that rewrite files on every interaction or turn (Step.rewrites_files) are
# converted with both parts, the others with the Python part alone, which
# is what tracked each kind of step best on the machine this was built on.
# The nominal times are about what each part takes on a 2-core Xeon at
# 2.0 GHz running Python 3.11, so there the figures read close to wall-clock
# seconds.
NOMINAL_PYTHON_S = 0.003
NOMINAL_FILES_S = 0.0015
REFERENCE_TEXT = "reference work\n" * 256


@dataclass
class Reference:
    """Timings of the two parts of the reference work (median of three)."""

    python_s: float
    files_s: float

    @classmethod
    def measure(cls) -> "Reference":
        python, files = [], []
        for _ in range(3):
            start = time.perf_counter()
            _python_work()
            middle = time.perf_counter()
            _file_work()
            python.append(middle - start)
            files.append(time.perf_counter() - middle)
        return cls(statistics.median(python), statistics.median(files))


def to_reference(wall_seconds: float, before: Reference, after: Reference, rewrites_files: bool) -> float:
    nominal = NOMINAL_PYTHON_S
    measured = (before.python_s + after.python_s) / 2
    if rewrites_files:
        nominal += NOMINAL_FILES_S
        measured += (before.files_s + after.files_s) / 2
    return wall_seconds * nominal / measured


def _python_work() -> int:
    data = [{"id": i, "name": f"item{i}", "tags": [i % 7, i % 11]} for i in range(600)]
    back = json.loads(json.dumps(data, sort_keys=True))
    return sum(d["id"] for d in back if d["tags"][0] < 3)


def _file_work() -> None:
    directory = WORK / "reference"
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(8):
        (directory / f"file{i}.txt").write_text(REFERENCE_TEXT, encoding="utf-8")


# --- set-up ---------------------------------------------------------------------


def fresh_import() -> dict[str, Any]:
    """Drop every loaded emrkit module and import the package from src/."""
    for name in [n for n in sys.modules if n == "emrkit" or n.startswith("emrkit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {name: importlib.import_module(name) for name in MODULES}
    origin = Path(sys.modules["emrkit"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise BenchError(f"emrkit was imported from {origin}, not from this checkout's src/")
    return modules


def set_up(workload: str, seed: int, size: int) -> tuple[dict[str, Any], workloads.Plan, float]:
    """Set up SETUP_REPEATS times; returns the last set-up and setup_s."""
    times = []
    before = Reference.measure()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        modules = fresh_import()
        plan = workloads.build(workload, seed, size, WORK / f"{workload}-s{seed}", modules["emrkit.resources"])
        wall = time.perf_counter() - start
        after = Reference.measure()
        times.append(to_reference(wall, before, after, rewrites_files=True))
        before = after
    return modules, plan, statistics.median(times)


# --- passes -----------------------------------------------------------------------


def _out_digest(step: workloads.Step, stdout: str) -> str:
    digest = hashlib.sha256(stdout.encode("utf-8"))
    if step.out_dir.exists():
        digest.update(workloads.tree_sha256(step.out_dir).encode("ascii"))
    return digest.hexdigest()


def run_pass(modules: dict[str, Any], plan: workloads.Plan, tracer: tracing.Tracer | None = None,
             counter: "CountInteractions | None" = None) -> PassResult:
    cli = modules["emrkit.cli"]
    result = PassResult()
    before = Reference.measure()
    for step in plan.steps:
        counted = counter.count if counter is not None else 0
        buffer = io.StringIO()
        os.sync()
        gc.collect()
        if tracer is not None:
            tracer.step = step.name
        with redirect_stdout(buffer), redirect_stderr(buffer):
            start = time.perf_counter()
            code = cli.main(step.argv)
            wall = time.perf_counter() - start
        after = Reference.measure()
        stdout = buffer.getvalue()
        result.steps[step.name] = StepResult(
            code, wall, to_reference(wall, before, after, step.rewrites_files), stdout, _out_digest(step, stdout),
            counter.count - counted if counter is not None else 0)
        before = after
    return result


class CountInteractions:
    """Counts SUT actions executed by the mock shop while active."""

    def __init__(self, modules: dict[str, Any]):
        self.session_cls = modules["emrkit.sut.mockshop"].MockShopSession
        self.count = 0

    def __enter__(self) -> "CountInteractions":
        original = self.original = self.session_cls.execute

        def execute(session, action):
            self.count += 1
            return original(session, action)

        self.session_cls.execute = execute
        return self

    def __exit__(self, *exc) -> None:
        self.session_cls.execute = self.original


def check_pass(modules: dict[str, Any], plan: workloads.Plan) -> PassResult:
    """The untimed first pass; it sets each record step's ops to the
    interactions it recorded."""
    with CountInteractions(modules) as counter:
        first = run_pass(modules, plan, counter=counter)
    for step in plan.steps:
        if step.group == "record":
            step.ops = first.steps[step.name].interactions
    return first


# --- metrics ----------------------------------------------------------------------


def _median_seconds(passes: list[PassResult], names: list[str], wall: bool = False) -> float:
    """Median time of the named steps over the passes, in reference-speed
    seconds (or in wall-clock seconds)."""
    return statistics.median(sum(p.steps[n].wall_seconds if wall else p.steps[n].seconds for n in names)
                             for p in passes)


def _ops(plan: workloads.Plan, names: list[str]) -> int:
    return sum(plan.step(n).ops for n in names)


def _rate(plan: workloads.Plan, passes: list[PassResult], names: list[str], wall: bool = False) -> float:
    return _ops(plan, names) / _median_seconds(passes, names, wall)


def end_to_end(plan: workloads.Plan, passes: list[PassResult], setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "main_step.ops_per_s": (_rate(plan, passes, plan.names(plan.main_groups)), "1/s"),
        "later_steps.ops_per_s": (_rate(plan, passes, plan.names(plan.later_groups)), "1/s"),
    }


def named_rates(plan: workloads.Plan, passes: list[PassResult]) -> list[tuple[str, float, float, str, str]]:
    """The per-command rates of the workload: (name, value, wall-clock value, unit, base)."""
    def rate(name: str, groups: tuple[str, ...], what: str) -> tuple[str, float, float, str, str]:
        names = plan.names(groups)
        return (name, _rate(plan, passes, names), _rate(plan, passes, names, wall=True), "1/s",
                f"{_ops(plan, names)} {what} in {len(names)} runs")

    if plan.workload == "suite-run":
        return [rate("run.pairs_per_s", workloads.SUT_CONFIGS, "pairs")]
    if plan.workload == "record-replay":
        return [rate("record.interactions_per_s", ("record",), "interactions"),
                rate("replay.pairs_per_s", ("replay",), "pairs")]
    return [rate("generate.mrs_per_s", ("pipeline",), "MRs"),
            rate("check.emrs_per_s", ("check",), "EMRs"),
            rate("grade.annotations_per_s", ("grade",), "annotations")]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quarter_means(per_step: list[list[int]]) -> tuple[float, float]:
    """Mean of the first and of the last quarter of each step's values
    (each cassette, each conversation), pooled over the steps."""
    first: list[int] = []
    last: list[int] = []
    for values in per_step:
        k = max(1, len(values) // 4)
        first += values[:k]
        last += values[-k:]
    return (statistics.fmean(first), statistics.fmean(last)) if first else (0.0, 0.0)


def per_layer(plan: workloads.Plan, tr: tracing.Tracer, overhead: float, speed: float) -> dict[str, tuple[float, str]]:
    """Layer metrics of the traced pass; ``speed`` converts its raw seconds
    to reference-speed seconds."""
    run_steps = {s.name for s in plan.steps if s.input_names}
    pairs = sum(len(plan.facts["emr_ids"]) * len(s.input_names) for s in plan.steps if s.input_names)
    grade_steps = {s.name for s in plan.steps if s.group == "grade"}
    annotations = tr.sum_extra("annotations", grade_steps)
    tokenize_s = tr.sum_total("dsl.tokens:tokenize")
    record_steps = tr.bytes_by_step("sut.cassette:record")
    record_bytes = [b for values in record_steps for b in values]
    q1, q4 = _quarter_means(record_steps)
    write_steps = tr.bytes_by_step("pipeline.conversation:TranscriptStore.write")
    write_bytes = [b for values in write_steps for b in values]
    w1, w4 = _quarter_means(write_steps)
    repair_calls = tr.sum_calls("dsl.repair:repair")
    m = {
        "dsl.tokens.calls": (tr.sum_calls("dsl.tokens:tokenize"), "count"),
        "dsl.tokens.self_s": (tr.sum_self("dsl.tokens:"), "s"),
        "dsl.tokens.tokens_per_s": (_ratio(tr.sum_extra("tokens"), tokenize_s), "1/s"),
        "dsl.parser.calls": (tr.sum_calls("dsl.parser:parse_emr"), "count"),
        "dsl.parser.self_s": (tr.sum_self("dsl.parser:"), "s"),
        "dsl.validate.calls": (tr.sum_calls("dsl.validate:validate"), "count"),
        "dsl.validate.self_s": (tr.sum_self("dsl.validate:"), "s"),
        "dsl.validate.calls_per_pair": (_ratio(tr.sum_calls("dsl.validate:validate", run_steps), pairs), "calls/pair"),
        "dsl.printer.calls": (tr.sum_calls("dsl.printer:"), "count"),
        "dsl.printer.self_s": (tr.sum_self("dsl.printer:"), "s"),
        "dsl.printer.calls_per_annotation": (_ratio(tr.sum_calls("dsl.printer:", grade_steps), annotations),
                                             "calls/annotation"),
        "dsl.repair.calls": (repair_calls, "count"),
        "dsl.repair.self_s": (tr.sum_self("dsl.repair:"), "s"),
        "dsl.repair.fixes_per_call": (_ratio(tr.sum_extra("fixes"), repair_calls), "fixes/call"),
        "runtime.evaluate.calls": (tr.sum_calls("runtime.evaluate:evaluate_emr"), "count"),
        "runtime.evaluate.self_s": (tr.sum_self("runtime.evaluate:"), "s"),
        "runtime.evaluate.sessions_per_pair": (
            _ratio(tr.sum_calls("runtime.evaluate:Evaluator.register_and_execute", run_steps), pairs),
            "sessions/pair"),
        "runtime.suite.self_s": (tr.sum_self("runtime.suite:"), "s"),
        "shopstubs.calls": (tr.sum_calls("shopstubs:"), "count"),
        "shopstubs.self_s": (tr.sum_self("shopstubs:"), "s"),
        "sut.mockshop.actions": (tr.sum_calls("sut.mockshop:MockShopSession.execute"), "count"),
        "sut.mockshop.self_s": (tr.sum_self("sut.mockshop:"), "s"),
        "sut.mockshop.items_copied": (tr.sum_extra("items_copied"), "count"),
        "sut.cassette.appends": (tr.sum_calls("sut.cassette:Cassette.append"), "count"),
        "sut.cassette.append_self_s": (tr.sum_self("sut.cassette:Cassette.append"), "s"),
        "sut.cassette.bytes_written": (sum(record_bytes) + sum(b for values in tr.bytes_by_step(
            "sut.cassette:record_replay") for b in values), "B"),
        "sut.cassette.bytes_per_interaction": (_ratio(sum(record_bytes), len(record_bytes)), "B/interaction"),
        "sut.cassette.bytes_per_interaction.first_quarter": (q1, "B/interaction"),
        "sut.cassette.bytes_per_interaction.last_quarter": (q4, "B/interaction"),
        "sut.cassette.replay_self_s": (tr.sum_self("sut.cassette:replay"), "s"),
        "sut.cassette.load_self_s": (tr.sum_self("sut.cassette:Cassette.load"), "s"),
        "pipeline.conversation.writes": (len(write_bytes), "count"),
        "pipeline.conversation.self_s": (tr.sum_self("pipeline.conversation:"), "s"),
        "pipeline.conversation.bytes_written": (sum(write_bytes), "B"),
        "pipeline.conversation.writes_per_turn": (_ratio(len(write_bytes), tr.sum_calls("pipeline.conversation:run_turn")),
                                                  "writes/turn"),
        "pipeline.conversation.bytes_per_write.first_quarter": (w1, "B/write"),
        "pipeline.conversation.bytes_per_write.last_quarter": (w4, "B/write"),
        "pipeline.client.calls": (tr.sum_calls("pipeline.client:MockChatClient.complete"), "count"),
        "pipeline.client.self_s": (tr.sum_self("pipeline.client:"), "s"),
        "pipeline.derive.self_s": (tr.sum_self("pipeline.derive:"), "s"),
        "pipeline.generate.self_s": (tr.sum_self("pipeline.generate:"), "s"),
        "grading.annotations": (annotations, "count"),
        "grading.self_s": (tr.sum_self("grading:"), "s"),
        "cli.self_s": (tr.sum_self("cli:"), "s"),
        "tracing.overhead_share": (overhead, "ratio"),
    }
    for name, (value, unit) in m.items():
        if unit == "s":
            m[name] = (value * speed, unit)
    m["dsl.tokens.tokens_per_s"] = (m["dsl.tokens.tokens_per_s"][0] / speed, "1/s")
    return {name: (float(value), unit) for name, (value, unit) in m.items()}


# --- one workload run -------------------------------------------------------------


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    report: list[str]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: int,
                 min_passes: int = 3, use_golden: bool = True) -> Outcome:
    modules, plan, setup_s = set_up(workload, seed, size)
    first = check_pass(modules, plan)
    verdict = workloads.check(plan, first, modules, BENCH / "golden" if use_golden else None)
    expected = first.digest()

    timed_budget = seconds / 2 if trace else seconds
    passes: list[PassResult] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < timed_budget:
        passes.append(run_pass(modules, plan))
    errors = list(verdict.errors)
    for i, p in enumerate(passes, start=1):
        if p.digest() != expected:
            errors.append(f"timed pass {i} did not reproduce the check pass's outputs")

    report = [f"workload {workload} seed {seed} size {size} passes {len(passes)} "
              f"inputs_sha256 {plan.inputs_sha256}"]
    ops_per_pass = sum(s.ops for s in plan.steps)
    attempted = ops_per_pass * len(passes)
    failed = verdict.failed * len(passes)
    if trace:
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = run_pass(modules, plan, tr)
        finally:
            tr.uninstall()
        if traced.digest() != expected:
            errors.append("the traced pass did not reproduce the check pass's outputs")
        overhead = traced.seconds / statistics.median(p.seconds for p in passes) - 1.0
        spans = tr.write_spans(plan.root / "trace.jsonl")
        report.append(f"traced pass: {spans} spans written to {plan.root / 'trace.jsonl'}")
        metrics = per_layer(plan, tr, overhead, traced.seconds / traced.wall_seconds)
    else:
        metrics = end_to_end(plan, passes, setup_s)
        for name, value, raw, unit, base in named_rates(plan, passes):
            report.append(f"  {name:<28} {value:14.4f} {unit:<6} ({base}; median of {len(passes)} passes; "
                          f"{raw:.4f} in wall-clock seconds)")
        report.append(f"  {'failed_share':<28} {_ratio(failed, attempted):14.4f} ratio  "
                      f"({failed} of {attempted} operations)")
    report.extend(verdict.notes)
    report.extend(f"ERROR: {e}" for e in errors)
    return Outcome(not errors, attempted, failed, metrics, report)


def _result_json(outcome: Outcome) -> str:
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    })


def smoke() -> int:
    """Every workload once at a tiny size; every metric printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            outcome = run_workload(workload, 0, 0.0, trace, workloads.SMOKE_SIZES[workload],
                                   min_passes=1, use_golden=False)
            print("\n".join(outcome.report))
            print(_result_json(outcome))
            if not outcome.correct:
                problems.append(f"{workload}: a correctness check failed")
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: unit for name, (_, unit) in outcome.metrics.items()}
            if got != wanted:
                problems.append(f"{workload} {kind}: printed {sorted(got.items())}, wanted {sorted(wanted.items())}")
    for problem in problems:
        print(f"SMOKE FAIL: {problem}")
    print("smoke: ok" if not problems else "smoke: failed")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload once at a tiny size")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "emrkit" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'emrkit'} is missing; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.smoke:
            return smoke()
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               workloads.SIZES[args.workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(outcome.report))
    print(_result_json(outcome))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
