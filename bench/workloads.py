"""Workload definitions: seeded input generation, CLI steps and checks.

Every workload is a list of CLI steps run in-process through
``emrkit.cli.main``. ``build`` writes every file the program reads into a
fresh workspace, so the program receives only generated files; the same
seed gives byte-identical files. Inputs are drawn by permuting a fixed
multiset of input parts (shapes, query words, preset filters, EMR
sources), so every seed asks for the same amount of work and figures from
different seeds are comparable.

Nothing here imports ``emrkit`` at module level: the runner re-imports the
package during set-up, and the checks take the modules they need as
arguments.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

WORKLOADS = ("suite-run", "record-replay", "author")

# Per workload: input count (suite-run), rounds of one input each
# (record-replay) or MR count (author).
SIZES = {"suite-run": 64, "record-replay": 10, "author": 256}
SMOKE_SIZES = {"suite-run": 4, "record-replay": 2, "author": 8}

# Every CLI step is kept to a few tenths of a second, so that the reference
# timing right before and after it tracks the machine speed during it (see
# run.py): suite-run splits its inputs into CHUNKS runs per SUT config, and
# author splits its MRs into AUTHOR_ROUNDS pipeline runs.
CHUNKS = 4
AUTHOR_ROUNDS = 8

# The 13 EMRs of the run workloads: the bundled 10-EMR suite (in manifest
# order) followed by these three fixtures.
EXTRA_EMRS = ("filter_subset", "pagination", "order_independence")

SUT_CONFIGS = ("mock", "mock:ignore-filter", "mock:off-by-one-pagination", "mock:stale-results")

# The EMR that targets each fault; each fault must yield a Fail on it.
FAULT_TARGETS = {
    "mock:ignore-filter": "emr03",
    "mock:off-by-one-pagination": "pagination",
    "mock:stale-results": "order_independence",
}

# Exit codes of `emrkit run` and of the authoring commands at the seed:
# 8 of the 13 EMRs call stubs that emrkit.shopstubs does not bind, so
# every run exits 7 (EMRs not executable); pipeline, check and grade exit 0.
RUN_EXIT = 7
AUTHOR_EXIT = 0

# Input shapes: one tuple of action kinds per input sequence (1-4 actions).
SHAPES = (
    ("search",),
    ("search", "search"),
    ("login", "search"),
    ("search", "login"),
    ("search", "search", "search"),
    ("login", "search", "search"),
    ("search", "login", "search", "search"),
    ("login",),
)

# Query words and how many of the 12 catalog items they match (0-12).
QUERIES = (
    "",  # 12
    "chair",  # 5
    "desk",  # 3
    "table",  # 2
    "stand",  # 2
    "lamp",  # 1
    "oak",  # 1
    "mesh",  # 1
    "sofa",  # 0
    "e",  # 9
    "o",  # 8
    "pro",  # 1
)

# Preset filters carried by a third of the searches. A preset `category` or
# `brand` that differs from the value `applyFilter` sets is overwritten by
# it, so emr10 and filter_subset Fail on the correct mock for those inputs:
# a known finding that stays in the draw.
PRESET_FILTERS = (
    ("category", "living"),
    ("category", "outdoor"),
    ("category", "office"),
    ("brand", "WoodWorks"),
    ("max_price", 150),
    ("min_rating", 4.0),
    ("in_stock", True),
    ("in_stock", False),
)

# Share of author phase-6 replies that carry the WLC-AMP defect.
DEFECT_SHARE = 0.3

# Label distribution `grade` must reproduce (tests/test_acceptance.py).
GRADE_LABEL_COUNTS = {"C": 52, "CLC": 54, "AI": 1, "WS": 3, "IE": 3, "INE": 1,
                      "ITE": 9, "ES": 1, "ENO": 2, "WLC": 10, "MISS": 3}
GRADE_TOTALS = {"statement_count": 136, "label_count": 139,
                "correct_statement_count": 107, "correct_rate_percent": 78.6}


@dataclass
class Step:
    """One `emrkit` invocation and what it counts as operations."""

    name: str
    group: str  # the command the step belongs to: a SUT config, record, replay, pipeline, check, grade
    argv: list[str]
    expected_exit: int
    ops: int  # operations the step completes; interactions are counted in the check pass
    out_dir: Path
    input_names: list[str] = field(default_factory=list)  # run steps: the inputs, in order
    rewrites_files: bool = False  # rewrites a file on every interaction or turn


@dataclass
class Plan:
    workload: str
    seed: int
    size: int
    root: Path
    steps: list[Step]
    main_groups: tuple[str, ...]  # step groups behind main_step.ops_per_s
    later_groups: tuple[str, ...]  # step groups behind later_steps.ops_per_s
    inputs_sha256: str = ""
    facts: dict[str, Any] = field(default_factory=dict)  # what checks need to know

    def step(self, name: str) -> Step:
        return next(s for s in self.steps if s.name == name)

    def names(self, groups: tuple[str, ...]) -> list[str]:
        return [s.name for s in self.steps if s.group in groups]


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("utf-8"))


def _dump(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def tree_sha256(root: Path) -> str:
    """Digest of every file under ``root``: relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def emr_sources(resources) -> dict[str, str]:
    """The 13 run-workload EMR sources by id, suite first."""
    suite = json.loads(resources.read_fixture("emr_suite.json"))
    sources = {e["id"]: resources.read_fixture(*e["file"].split("/")) for e in suite}
    for name in EXTRA_EMRS:
        sources[name] = resources.read_fixture(f"{name}.smrl")
    return sources


def suite_ids(resources) -> list[str]:
    return [e["id"] for e in json.loads(resources.read_fixture("emr_suite.json"))]


def make_inputs(rng: random.Random, count: int,
                shapes_from: tuple[tuple[str, ...], ...] = SHAPES) -> list[list[dict[str, Any]]]:
    """``count`` action sequences permuted from a fixed multiset of parts."""
    shapes = [shapes_from[i % len(shapes_from)] for i in range(count)]
    rng.shuffle(shapes)
    searches = sum(shape.count("search") for shape in shapes)
    queries = [QUERIES[i % len(QUERIES)] for i in range(searches)]
    rng.shuffle(queries)
    presets: list[tuple[str, Any] | None] = [
        PRESET_FILTERS[i % len(PRESET_FILTERS)] for i in range(searches // 3)
    ]
    presets += [None] * (searches - len(presets))
    rng.shuffle(presets)
    sequences = []
    k = 0
    for shape in shapes:
        actions = []
        for kind in shape:
            if kind == "login":
                actions.append({"kind": "login", "parameters": {"user": f"user{rng.randrange(1000):03d}"}})
                continue
            params: dict[str, Any] = {"query": queries[k]}
            if presets[k] is not None:
                param, value = presets[k]
                params[param] = value
            actions.append({"kind": "search", "parameters": params})
            k += 1
        sequences.append(actions)
    return sequences


# Query words that match the same number of items, so swapping them keeps
# the size of every SUT output.
SAME_SIZE_QUERIES = (("table", "stand"), ("lamp", "oak", "mesh", "pro"))


def vary_inputs(sequences: list[list[dict[str, Any]]], rng: random.Random) -> None:
    """Seeded changes that keep every output's size: input order, user
    names and query words of equal match count."""
    rng.shuffle(sequences)
    swaps = {}
    for group in SAME_SIZE_QUERIES:
        shuffled = list(group)
        rng.shuffle(shuffled)
        swaps.update(zip(group, shuffled))
    for actions in sequences:
        for action in actions:
            params = action["parameters"]
            if action["kind"] == "login":
                params["user"] = f"user{rng.randrange(1000):03d}"
            else:
                params["query"] = swaps.get(params["query"], params["query"])


def inject_amp_defect(source: str) -> str | None:
    """Replace the comma splitting the first IMPLIES with ' &' (WLC-AMP)."""
    head, sep, tail = source.partition("IMPLIES(")
    if not sep:
        return None
    depth = 1
    for i, ch in enumerate(tail):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return None
        elif ch == "," and depth == 1:
            return head + sep + tail[:i] + " &" + tail[i + 1 :]
    return None


def _run_step(plan: Plan, name: str, group: str, inputs: Path, input_names: list[str], sut: str,
              record: Path | None = None) -> Step:
    out = plan.root / "out" / name
    argv = ["--out", str(out), "run", str(plan.root / "emrs"), "--inputs", str(inputs),
            "--sut", sut, "--stubs", "emrkit.shopstubs"]
    if record is not None:
        argv += ["--record", str(record)]
    pairs = len(plan.facts["emr_ids"]) * len(input_names)
    return Step(name, group, argv, RUN_EXIT, pairs, out, input_names)


def _write_run_files(plan: Plan, resources, sequences: list[list[dict[str, Any]]], parts: int) -> list[tuple[Path, list[str]]]:
    """Write the 13 EMRs and the inputs, split into ``parts`` directories."""
    sources = emr_sources(resources)
    for emr_id, text in sources.items():
        _write(plan.root / "emrs" / f"{emr_id}.smrl", text)
    plan.facts["emr_ids"] = sorted(sources)
    per_part = len(sequences) // parts
    chunks = []
    for part in range(parts):
        directory = plan.root / "inputs" / f"part{part + 1}"
        names = []
        for i in range(part * per_part, (part + 1) * per_part):
            names.append(f"in{i + 1:04d}")
            _write(directory / f"{names[-1]}.json", _dump(sequences[i]))
        chunks.append((directory, names))
    return chunks


def build(workload: str, seed: int, size: int, root: Path, resources) -> Plan:
    """Write the workspace for one workload run and return its steps."""
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    plan = Plan(workload, seed, size, root, [], (), ())
    if workload == "suite-run":
        sequences = make_inputs(_rng(workload, seed, "inputs"), size)
        chunks = _write_run_files(plan, resources, sequences, CHUNKS)
        for sut in SUT_CONFIGS:
            slug = sut.replace(":", "-")
            plan.steps += [_run_step(plan, f"run-{slug}-{i}", sut, directory, names, sut)
                           for i, (directory, names) in enumerate(chunks, start=1)]
        plan.main_groups = SUT_CONFIGS[:1]
        plan.later_groups = SUT_CONFIGS[1:]
    elif workload == "record-replay":
        # Recording time grows with the square of the cassette length, so
        # each round records one input of at most 2 actions (60-160
        # interactions) to its own cassette and replays it. The seed varies
        # the inputs within one fixed draw (vary_inputs), so that the order
        # and sizes of the few outputs do not swamp the figure.
        sequences = make_inputs(_rng(workload, 0, "inputs"), size,
                                tuple(shape for shape in SHAPES if len(shape) <= 2))
        vary_inputs(sequences, _rng(workload, seed, "inputs"))
        chunks = _write_run_files(plan, resources, sequences, size)
        for i, (directory, names) in enumerate(chunks, start=1):
            cassette = root / "out" / f"cassette-{i}.json"
            record = _run_step(plan, f"record-{i}", "record", directory, names, "mock", record=cassette)
            record.ops = 0
            record.rewrites_files = True
            plan.steps += [record, _run_step(plan, f"replay-{i}", "replay", directory, names, f"replay:{cassette}")]
        plan.main_groups = ("record",)
        plan.later_groups = ("replay",)
    elif workload == "author":
        _build_author(plan, resources)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan.inputs_sha256 = tree_sha256(root)
    return plan


def _build_author(plan: Plan, resources) -> None:
    root = plan.root
    rng = _rng(plan.workload, plan.seed, "author")
    document_text = resources.read_fixture("requirements_shop.md")
    document = root / "requirements_shop.md"
    _write(document, document_text)
    sentences = [line.split(". ", 1)[1] for line in document_text.splitlines()
                 if line[:1] == "R" and ". " in line]

    sources = emr_sources(resources)
    drawn = [sorted(sources)[i % len(sources)] for i in range(plan.size)]
    rng.shuffle(drawn)
    injectable = [i for i, name in enumerate(drawn) if inject_amp_defect(sources[name]) is not None]
    defective = set(rng.sample(injectable, round(DEFECT_SHARE * len(drawn))))
    plan.facts["rounds"] = []

    per_round = plan.size // AUTHOR_ROUNDS
    for r in range(1, AUTHOR_ROUNDS + 1):
        indexes = range((r - 1) * per_round, r * per_round)
        items = []
        replies = []
        for n, i in enumerate(indexes, start=1):
            sentence = rng.choice(sentences)
            items.append(
                f"{n}. MR: Relation {i + 1} ({drawn[i]}) between a search and its follow-up input.\n"
                f"   SOURCE: \"{sentence}\"\n"
                f"   REQ: R{sentences.index(sentence) + 1}"
            )
            source = inject_amp_defect(sources[drawn[i]]) if i in defective else sources[drawn[i]]
            replies.append(f"Here is the EMR.\n```\n{source.rstrip(chr(10))}\n```\n")
        scripts = [
            {"pipeline": "derive", "phase": 1, "response": "Understood."},
            {"pipeline": "derive", "phase": 2, "response": "The document describes an online shop."},
            {"pipeline": "derive", "phase": 3, "response": "\n".join(sentences)},
            {"pipeline": "derive", "phase": 4, "response": "\n".join(items)},
            {"pipeline": "generate", "phase": 1, "response": "Understood."},
            {"pipeline": "generate", "phase": 2, "response": "Noted; I will use exactly these constructs."},
            {"pipeline": "generate", "phase": 3, "response": "Noted; one MR block per reply."},
            {"pipeline": "generate", "phase": 4, "response": "I see how each MR maps onto the language."},
            {"pipeline": "generate", "phase": 5, "response": "Noted; I will invent functions where needed."},
        ] + [{"pipeline": "generate", "phase": 6, "response": reply} for reply in replies]
        scripts_path = root / f"mock_scripts_{r}.json"
        _write(scripts_path, json.dumps(scripts, indent=1, sort_keys=True) + "\n")
        config_path = root / f"config_{r}.json"
        _write(config_path, _dump({"mock": True, "mock_scripts": str(scripts_path)}))
        gen_out = root / "out" / f"pipeline-{r}"
        plan.steps += [
            Step(f"pipeline-{r}", "pipeline", ["--config", str(config_path), "--mock", "--out", str(gen_out),
                                               "pipeline", str(document)], AUTHOR_EXIT, per_round, gen_out,
                 rewrites_files=True),
            Step(f"check-{r}", "check", ["--out", str(root / "out" / f"check-{r}"), "check", str(gen_out / "emrs")],
                 AUTHOR_EXIT, per_round, root / "out" / f"check-{r}"),
        ]
        plan.facts["rounds"].append(list(indexes))

    suite_dir = root / "suite"
    for emr_id in suite_ids(resources):
        _write(suite_dir / f"{emr_id}.smrl", sources[emr_id])
    annotations = root / "suite_annotations.jsonl"
    annotation_text = resources.read_fixture("suite_annotations.jsonl")
    _write(annotations, annotation_text)
    grade_out = root / "out" / "grade"
    plan.steps.append(
        Step("grade", "grade", ["--out", str(grade_out), "grade", str(annotations), "--emrs", str(suite_dir)],
             AUTHOR_EXIT, sum(1 for line in annotation_text.splitlines() if line.strip()), grade_out))
    plan.main_groups = ("pipeline",)
    plan.later_groups = ("check", "grade")
    plan.facts["drawn"] = drawn
    plan.facts["defective"] = sorted(defective)


# --- checks ---------------------------------------------------------------------

OUTCOME_CODES = {"Pass": "P", "Fail": "F", "Inapplicable": "I", "NotExecutable": "N", "Error": "E"}


@dataclass
class CheckResult:
    errors: list[str] = field(default_factory=list)
    failed: int = 0  # failed operations in one pass
    notes: list[str] = field(default_factory=list)


def _encode_row(codes: list[str]) -> str:
    if codes and all(c == codes[0] for c in codes):
        return f"{codes[0]}*{len(codes)}"
    return "".join(codes)


def _run_tables(plan: Plan, result: CheckResult) -> dict[str, dict[str, Any]]:
    """Per run step: the report's results and the verdict table (EMR -> codes)."""
    emr_ids = plan.facts["emr_ids"]
    tables: dict[str, dict[str, Any]] = {}
    for step in plan.steps:
        path = step.out_dir / "report.json"
        if not path.is_file():
            result.errors.append(f"{step.name}: no report.json")
            continue
        results = json.loads(path.read_text(encoding="utf-8"))["results"]
        rows = {emr: ["?"] * len(step.input_names) for emr in emr_ids}
        for entry in results:
            rows[entry["emr"]][entry["input_index"]] = OUTCOME_CODES[entry["outcome"]]
        missing = sum(row.count("?") for row in rows.values())
        if missing or len(results) != len(emr_ids) * len(step.input_names):
            result.errors.append(f"{step.name}: {len(results)} entries for "
                                 f"{len(emr_ids)} EMRs x {len(step.input_names)} inputs")
        errors = sum(row.count("E") for row in rows.values())
        if errors:
            result.failed += errors
            result.errors.append(f"{step.name}: {errors} Error entries")
        tables[step.name] = {"results": results, "rows": rows}
    return tables


def _group_rows(plan: Plan, tables: dict[str, dict[str, Any]], group: str) -> dict[str, str]:
    """A SUT config's verdict codes per EMR over all its input chunks."""
    rows: dict[str, str] = {}
    for step in plan.steps:
        if step.group == group and step.name in tables:
            for emr, codes in tables[step.name]["rows"].items():
                rows[emr] = rows.get(emr, "") + "".join(codes)
    return rows


def _check_suite_run(plan: Plan, tables: dict[str, dict[str, Any]], result: CheckResult) -> None:
    for sut, target in FAULT_TARGETS.items():
        if "F" not in _group_rows(plan, tables, sut).get(target, ""):
            result.errors.append(f"{sut}: no Fail on {target}, the EMR that targets it")
    fails = {emr: row.count("F") for emr, row in _group_rows(plan, tables, "mock").items() if "F" in row}
    listed = ", ".join(f"{emr} {n}" for emr, n in sorted(fails.items())) or "none"
    result.notes.append(f"finding: Fail verdicts on the correct mock shop (pairs): {listed}")


def _check_record_replay(plan: Plan, tables: dict[str, dict[str, Any]], result: CheckResult) -> None:
    for step in plan.steps:
        if step.group != "replay":
            continue
        recorded = tables.get(step.name.replace("replay", "record"))
        replayed = tables.get(step.name)
        if recorded is not None and replayed is not None and replayed["results"] != recorded["results"]:
            result.errors.append(f"{step.name}: replay results differ from record results")


def _check_author(plan: Plan, modules: dict[str, Any], first, result: CheckResult) -> dict[str, Any]:
    dsl = modules["emrkit.dsl"]
    sources = emr_sources(modules["emrkit.resources"])
    canonical = {name: dsl.pretty_print(dsl.parse_emr(text)) for name, text in sources.items()}
    drawn = plan.facts["drawn"]
    defective = set(plan.facts["defective"])

    statuses = []
    severities: dict[str, int] = {}
    for r, indexes in enumerate(plan.facts["rounds"], start=1):
        pipeline = plan.step(f"pipeline-{r}")
        items = []
        for line in first.steps[pipeline.name].stdout.splitlines():
            mr_id, sep, status = line.rpartition(": ")
            if sep and "-mr" in mr_id and status in ("ok", "repaired", "unparseable"):
                items.append((mr_id, status))
        if len(items) != len(indexes):
            result.errors.append(f"{pipeline.name}: {len(items)} EMR statuses for {len(indexes)} MRs")
        for i, (mr_id, status) in zip(indexes, items):
            statuses.append(status[0])
            want = "repaired" if i in defective else "ok"
            if status != want:
                result.errors.append(f"{pipeline.name}: {mr_id} is {status}, expected {want}")
            path = pipeline.out_dir / "emrs" / f"{mr_id}.smrl"
            try:
                printed = dsl.pretty_print(dsl.parse_emr(path.read_text(encoding="utf-8")))
            except (OSError, dsl.DslError) as exc:
                result.failed += 1
                result.errors.append(f"{pipeline.name}: {path} does not parse although its source did: {exc}")
                continue
            if printed != canonical[drawn[i]]:
                result.errors.append(f"{pipeline.name}: {path} does not print like its source {drawn[i]}")

        files = set()
        for line in first.steps[f"check-{r}"].stdout.splitlines():
            record = json.loads(line)
            files.add(record["file"])
            severities[record["severity"]] = severities.get(record["severity"], 0) + 1
        if len(files) != len(indexes):
            result.errors.append(f"check-{r}: {len(files)} files reported for {len(indexes)} generated EMRs")
    if severities.get("error"):
        result.failed += severities["error"]
        result.errors.append(f"check: {severities['error']} error diagnostics")

    grade_path = plan.step("grade").out_dir / "grade.json"
    grade = json.loads(grade_path.read_text(encoding="utf-8")) if grade_path.is_file() else {}
    counts = {label: v["count"] for label, v in grade.get("labels", {}).items() if v["count"]}
    if counts != GRADE_LABEL_COUNTS or any(grade.get(k) != v for k, v in GRADE_TOTALS.items()):
        result.errors.append(f"grade: distribution {counts} does not match the paper's")
    return {"statuses": "".join(statuses), "check": severities, "grade": counts}


def check(plan: Plan, first, modules: dict[str, Any], golden_dir: Path | None) -> CheckResult:
    """Check the check pass's outputs; ``golden_dir`` adds the golden table."""
    result = CheckResult()
    for step in plan.steps:
        code = first.steps[step.name].code
        if code != step.expected_exit:
            result.failed += 1
            result.errors.append(f"{step.name}: exit code {code}, documented {step.expected_exit}")
    if plan.workload == "author":
        table = _check_author(plan, modules, first, result)
    else:
        tables = _run_tables(plan, result)
        if plan.workload == "suite-run":
            _check_suite_run(plan, tables, result)
        else:
            _check_record_replay(plan, tables, result)
        # Replays are checked against their record step above, so the
        # golden table keeps the record steps only.
        table = {name: {emr: _encode_row(row) for emr, row in t["rows"].items()}
                 for name, t in tables.items() if plan.step(name).group != "replay"}
    plan.facts["golden"] = {"size": plan.size, "inputs_sha256": plan.inputs_sha256,
                            "verdicts_sha256": _table_sha256(table), "table": table}
    if golden_dir is not None:
        _compare_golden(plan, golden_dir, result)
    return result


def _compare_golden(plan: Plan, golden_dir: Path, result: CheckResult) -> None:
    path = golden_dir / f"{plan.workload}.json"
    golden = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    want = golden.get(str(plan.seed))
    if want is None or want["size"] != plan.size:
        result.notes.append(f"golden: no entry for seed {plan.seed} at size {plan.size}; independent checks only")
        return
    got = plan.facts["golden"]
    if want["inputs_sha256"] != got["inputs_sha256"]:
        result.errors.append("golden: the generated inputs differ from the ones the golden table was recorded on")
    elif want["verdicts_sha256"] != got["verdicts_sha256"]:
        where = _first_difference(want["table"], got["table"]) if "table" in want else "see the digest"
        result.errors.append(f"golden: verdicts differ from {path.name} seed {plan.seed}: {where}")
    else:
        result.notes.append(f"golden: verdicts match {path.name} seed {plan.seed}")


def _table_sha256(table: dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(table, sort_keys=True).encode("utf-8")).hexdigest()


def _first_difference(want: Any, got: Any, where: str = "") -> str:
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                return _first_difference(want.get(key), got.get(key), f"{where}/{key}")
    return f"{where}: recorded {want!r}, now {got!r}"
