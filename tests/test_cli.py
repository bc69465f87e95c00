import errno
import gc
import importlib
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from astgen import NESTINGS, ProgramGen, nested_emr
from conftest import open_fds
from run_corpus import seeded_input
import emrkit
from emrkit import cli, jsonl
from emrkit.cli import main
from emrkit.dsl import DslError, parse_emr, pretty_print
from emrkit.dsl.parser import MAX_NESTING
from emrkit.dsl.printer import _Layout
from emrkit.dsl.tokens import comments, scan
from emrkit.pipeline import ingest_document
from emrkit.resources import fixture_path
from emrkit.runtime import ActionSequence, run_suite
from emrkit.runtime.suite import SuiteReport
from emrkit.shopstubs import STUBS
from emrkit.sut import MockShopSut
from emrkit.sut.cassette import Cassette
from emrkit.sut.mockshop import FAULTS

DOC = str(fixture_path("requirements_shop.md"))
FIG4 = str(fixture_path("search_filter.smrl"))
INPUTS = str(fixture_path("inputs"))
ANNOTATIONS = str(fixture_path("suite_annotations.jsonl"))
SURVEY = str(fixture_path("survey_responses.csv"))


def run(*argv) -> int:
    return main([str(a) for a in argv])


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# Errors are told apart by what handles them: the CLI maps a ValueError from
# reading an input to exit 2 and an LlmError during a conversation to exit 3,
# run_suite reads EvalError, AdapterFailure and PositionOutOfRange, and a
# RunAborted (a cassette line that cannot be written) ends its run. A new
# kind of failure is a new message on one of these, not a new class, unless a
# handler or a caller needs to tell it apart.
def test_emrkit_defines_exactly_the_exception_classes_its_handlers_tell_apart():
    defined = {}
    for info in pkgutil.walk_packages(emrkit.__path__, "emrkit."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == info.name:
                defined[value.__name__] = value
    assert sorted(defined) == [
        "AdapterFailure", "CliError", "DslError", "EvalError", "IllegalCharacter", "LlmError", "ParseError",
        "PositionOutOfRange", "RunAborted",
    ]
    assert issubclass(defined["DslError"], ValueError)
    assert issubclass(defined["RunAborted"], OSError)


def test_derive_writes_catalog_and_transcript(tmp_path, capsys):
    code = run("--mock", "--out", tmp_path / "out", "derive", DOC)
    assert code == 0
    mrs = json.loads((tmp_path / "out" / "mrs.json").read_text())
    assert len(mrs) == 1 and mrs[0]["requirement_ref"] == "R1"
    transcripts = list((tmp_path / "out" / "transcripts").glob("derive-*.jsonl"))
    assert len(transcripts) == 1
    assert "1 MR(s) derived" in capsys.readouterr().out


def test_derive_missing_file_exits_2(tmp_path, capsys):
    code = run("--mock", "--out", tmp_path / "out", "derive", tmp_path / "nope.md")
    assert code == 2
    assert "nope.md" in capsys.readouterr().err


def test_derive_two_documents_two_transcripts_one_catalog(tmp_path):
    second = tmp_path / "second.md"
    second.write_text("# Another system\n\nNothing relevant here.\n", encoding="utf-8")
    scripts = json.loads(fixture_path("mock_scripts.json").read_text())
    scripts += [
        {"pipeline": "derive", "phase": 1, "response": "ok"},
        {"pipeline": "derive", "phase": 2, "response": "summary"},
        {"pipeline": "derive", "phase": 3, "response": ""},
    ]
    scripts_path = tmp_path / "scripts.json"
    scripts_path.write_text(json.dumps(scripts))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mock": True, "mock_scripts": str(scripts_path)}))
    code = run("--config", config, "--out", tmp_path / "out", "derive", DOC, second, "--allow-empty")
    assert code == 0
    assert len(list((tmp_path / "out" / "transcripts").glob("derive-*.jsonl"))) == 2
    assert len(json.loads((tmp_path / "out" / "mrs.json").read_text())) == 1


def test_derive_of_no_mrs_without_allow_empty_exits_3(tmp_path, capsys):
    scripts = tmp_path / "scripts.json"
    scripts.write_text(json.dumps([
        {"pipeline": "derive", "phase": 1, "response": "ok"},
        {"pipeline": "derive", "phase": 2, "response": "summary"},
        {"pipeline": "derive", "phase": 3, "response": ""},
    ]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mock": True, "mock_scripts": str(scripts)}))
    assert run("--config", config, "--out", tmp_path / "out", "derive", DOC) == 3
    captured = capsys.readouterr()
    assert captured.out == "requirements_shop: 0 MR(s) derived\n"
    assert captured.err == f"error: no MRs derived from {DOC} (use --allow-empty to accept)\n"
    assert not (tmp_path / "out" / "mrs.json").exists()


def test_derive_merges_an_mr_that_two_documents_repeat(tmp_path, capsys):
    second = tmp_path / "second.md"
    second.write_text(Path(DOC).read_text(encoding="utf-8") + "\nA later revision.\n", encoding="utf-8")
    scripts = [s for s in json.loads(fixture_path("mock_scripts.json").read_text()) if s["pipeline"] == "derive"]
    (tmp_path / "scripts.json").write_text(json.dumps(scripts * 2))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mock": True, "mock_scripts": str(tmp_path / "scripts.json")}))
    assert run("--config", config, "--out", tmp_path / "out", "derive", DOC, second) == 0
    assert capsys.readouterr().out == (
        "requirements_shop: 1 MR(s) derived\nsecond: 1 MR(s) derived\nmerged 1 duplicate MR(s)\n")
    (mr,) = json.loads((tmp_path / "out" / "mrs.json").read_text())
    assert mr["document_id"] == ingest_document(DOC).doc_id


def test_generate_writes_emr_stub_and_repair_files(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("--mock", "--out", out, "derive", DOC) == 0
    assert run("--mock", "--out", out, "generate", out / "mrs.json") == 0
    (smrl,) = (out / "emrs").glob("*.smrl")
    stubs = json.loads(smrl.with_suffix(".stubs.json").read_text())
    assert stubs[0] == "isSearchAction" and len(stubs) == 6
    assert smrl.with_suffix(".repairs.json").exists()
    assert ": ok" in capsys.readouterr().out


def test_generate_reports_repaired_status(tmp_path, capsys):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mock": True,
        "mock_scripts": str(fixture_path("mock_scripts_amp_defect.json")),
    }))
    assert run("--config", config, "--out", out, "derive", DOC) == 0
    assert run("--config", config, "--out", out, "generate", out / "mrs.json") == 0
    assert ": repaired" in capsys.readouterr().out
    (smrl,) = (out / "emrs").glob("*.smrl")
    repairs = json.loads(smrl.with_suffix(".repairs.json").read_text())
    assert [r["rule"] for r in repairs] == ["WLC-AMP"]


def test_generate_empty_catalog_notice(tmp_path, capsys):
    mrs = tmp_path / "mrs.json"
    mrs.write_text("[]")
    assert run("--mock", "--out", tmp_path / "out", "generate", mrs) == 0
    assert "nothing to generate" in capsys.readouterr().out


def test_generate_without_mock_or_endpoint_exits_2(tmp_path, capsys):
    mrs = tmp_path / "mrs.json"
    mrs.write_text(json.dumps([{"id": "mr-1", "text": "A relation.", "document_id": "doc"}]))
    assert run("--out", tmp_path / "out", "generate", mrs) == 2
    assert capsys.readouterr().err == "error: live mode needs llm.endpoint in the config (or pass --mock)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scripts, catalog", [
    ("mock_scripts.json", None),
    ("mock_scripts_amp_defect.json", "api_catalog_search_filter.json"),
], ids=["ok", "repaired-with-catalog"])
def test_pipeline_writes_what_derive_then_generate_write(tmp_path, capsys, scripts, catalog):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mock": True, "mock_scripts": str(fixture_path(scripts))}))
    options = ["--catalog", str(fixture_path(catalog))] if catalog else []
    piped, stepwise = tmp_path / "piped", tmp_path / "stepwise"
    assert run("--config", config, "--out", piped, "pipeline", DOC, *options) == 0
    piped_out = capsys.readouterr().out
    assert run("--config", config, "--out", stepwise, "derive", DOC) == 0
    assert run("--config", config, "--out", stepwise, "generate", stepwise / "mrs.json", *options) == 0
    assert capsys.readouterr().out == piped_out
    assert tree_bytes(piped) == tree_bytes(stepwise)
    assert {path.split("/")[0] for path in tree_bytes(piped)} == {"emrs", "mrs.json", "transcripts"}


def test_pipeline_mock_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run("--mock", "--out", out1, "pipeline", DOC) == 0
    assert run("--mock", "--out", out2, "pipeline", DOC) == 0
    assert tree_bytes(out1) == tree_bytes(out2)


def test_a_pipeline_run_reads_the_mock_scripts_once(tmp_path, monkeypatch):
    from emrkit.pipeline.client import MockChatClient

    reads = []
    from_file = MockChatClient.from_file
    monkeypatch.setattr(MockChatClient, "from_file", lambda path: reads.append(path) or from_file(path))
    assert run("--mock", "--out", tmp_path / "out", "pipeline", DOC) == 0
    assert len(reads) == 1


# Every bundled EMR and input file, in the order ``run`` reads their directories.
BUNDLED_EMRS = [*sorted(fixture_path("suite").glob("*.smrl")), *sorted(fixture_path().glob("*.smrl"))]
INPUT_FILES = sorted(fixture_path("inputs").glob("*.json"))


def run_report(out: Path, emrs, inputs, sut: str) -> dict:
    run("--out", out, "run", *emrs, "--inputs", *inputs, "--sut", sut)
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.permutations(BUNDLED_EMRS), st.permutations(INPUT_FILES),
       st.sampled_from(["mock", "mock:ignore-filter", "mock:off-by-one-pagination", "mock:stale-results"]))
def test_permuting_the_run_files_permutes_the_results_and_keeps_per_emr(tmp_path, emrs, inputs, sut):
    base = run_report(tmp_path / "sorted", BUNDLED_EMRS, INPUT_FILES, sut)
    permuted = run_report(tmp_path / "permuted", emrs, inputs, sut)
    by_pair = {(r["emr"], r["input"]): r for r in base["results"]}
    expected = [by_pair[(e.stem, i.stem)] for e in emrs for i in inputs]
    assert [dict(r, input_index=None) for r in permuted["results"]] == [dict(r, input_index=None) for r in expected]
    assert permuted["per_emr"] == base["per_emr"]


SUTS = ["mock", *(f"mock:{fault}" for fault in FAULTS)]


def write_run_case(root: Path, seed: int) -> tuple[list[Path], list[Path]]:
    """The bundled EMRs and three typed ``astgen`` programs, and four seeded
    input files, the new ones written under ``root``."""
    rng = random.Random(seed)
    (root / "emrs").mkdir(parents=True)
    (root / "inputs").mkdir()
    emrs = list(BUNDLED_EMRS)
    for k in range(3):
        emrs.append(root / "emrs" / f"typed{k}.smrl")
        emrs[-1].write_text(pretty_print(ProgramGen(seed + k, typed=True).program()), encoding="utf-8")
    inputs = []
    for k in range(4):
        actions = [{"kind": a.kind, "parameters": a.parameters} for a in seeded_input(rng).actions]
        inputs.append(root / "inputs" / f"in{k}.json")
        inputs[-1].write_text(json.dumps(actions), encoding="utf-8")
    return emrs, inputs


def without_input(result: dict) -> dict:
    return dict(result, input=None, input_index=None)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 10**6), st.sampled_from(SUTS), st.data())
def test_a_copied_input_adds_entries_equal_to_the_originals(tmp_path, seed, sut, data):
    with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
        root = Path(scratch)
        emrs, inputs = write_run_case(root, seed)
        original = data.draw(st.sampled_from(inputs))
        copy = root / "copies" / f"{original.stem}-copy.json"
        copy.parent.mkdir()
        copy.write_bytes(original.read_bytes())
        at = data.draw(st.integers(0, len(inputs)))
        base = run_report(root / "base", emrs, inputs, sut)["results"]
        more = run_report(root / "more", emrs, [*inputs[:at], copy, *inputs[at:]], sut)["results"]
    copied = [without_input(r) for r in more if r["input"] == copy.stem]
    assert copied == [without_input(r) for r in base if r["input"] == original.stem]
    rest = [dict(r, input_index=None) for r in more if r["input"] != copy.stem]
    assert rest == [dict(r, input_index=None) for r in base]


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 10**6), st.sampled_from(SUTS), st.lists(st.booleans(), min_size=4, max_size=4))
def test_inputs_split_across_two_runs_merge_into_one_run(tmp_path, seed, sut, first):
    assume(0 < sum(first) < len(first))
    with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
        root = Path(scratch)
        emrs, inputs = write_run_case(root, seed)
        whole = run_report(root / "whole", emrs, inputs, sut)
        parts = [run_report(root / f"part{side}", emrs, [i for i, f in zip(inputs, first) if f == side], sut)
                 for side in (True, False)]
    order = {(emr.stem, i.stem): n for n, (emr, i) in enumerate((e, i) for e in emrs for i in inputs)}
    merged = sorted((r for part in parts for r in part["results"]), key=lambda r: order[(r["emr"], r["input"])])
    assert [dict(r, input_index=None) for r in merged] == [dict(r, input_index=None) for r in whole["results"]]
    for emr, counts in whole["per_emr"].items():
        assert Counter(counts) == sum((Counter(part["per_emr"].get(emr, {})) for part in parts), Counter())


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.randoms(use_true_random=False))
def test_shuffling_the_annotation_lines_changes_no_grade_output(tmp_path, capsys, rnd):
    lines = Path(ANNOTATIONS).read_text(encoding="utf-8").splitlines()
    rnd.shuffle(lines)
    with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
        root = Path(scratch)
        shuffled = root / "annotations.jsonl"
        shuffled.write_text("\n".join(lines) + "\n", encoding="utf-8")
        seen = []
        for name, annotations in (("given", ANNOTATIONS), ("shuffled", shuffled)):
            code = run("--out", root / name, "grade", annotations, "--emrs", bundled_suite(tmp_path))
            seen.append((code, capsys.readouterr().out, tree_bytes(root / name)))
    assert seen[0][0] == 0
    assert seen[0] == seen[1]
    assert sorted(seen[0][2]) == ["grade.json", "sizes.json"]


def strip_comments(source: str) -> str:
    """``source`` without its trailing ``//`` comments; every line stays."""
    for at, text in reversed(comments(source, *scan(source))):
        source = source[:at].rstrip(" \t") + source[at + len(text):]
    return source


def reading_outputs(capsys, out: Path, emrs: Path, suite: Path) -> dict[str, object]:
    """The exit codes, stdout, stderr and output files of ``check`` and of
    ``run`` on the mock and each fault over the EMRs in ``emrs``, and of
    ``grade --emrs`` over the annotated ``suite``, with the three paths in
    them replaced by placeholders."""
    commands = {
        "check": ["check", emrs],
        "grade": ["grade", ANNOTATIONS, "--emrs", suite],
        **{f"run-{sut}": ["run", emrs, "--inputs", INPUTS, "--sut", sut, "--stubs", "emrkit.shopstubs"]
           for sut in ["mock", *(f"mock:{fault}" for fault in FAULTS)]},
    }
    seen = {}
    for name, argv in commands.items():
        code = run("--out", out / name, *argv)
        captured = capsys.readouterr()
        seen[name] = (code, captured.out, captured.err, tree_bytes(out / name))
    text = json.dumps(seen, default=bytes.decode)
    for path, placeholder in ((emrs, "<emrs>"), (suite, "<suite>"), (out, "<out>")):
        text = text.replace(str(path), placeholder)
    return json.loads(text)


def test_check_run_and_grade_read_no_explanation(tmp_path, capsys):
    suite_files = {entry["id"]: fixture_path(*entry["file"].split("/"))
                   for entry in json.loads(fixture_path("emr_suite.json").read_text())}
    seen = []
    for transform in (lambda source: source, strip_comments):
        emrs, suite = tmp_path / f"emrs{len(seen)}", tmp_path / f"suite{len(seen)}"
        for directory, files in ((emrs, {p.stem: p for p in BUNDLED_EMRS}), (suite, suite_files)):
            directory.mkdir()
            for emr_id, path in files.items():
                (directory / f"{emr_id}.smrl").write_text(transform(path.read_text(encoding="utf-8")))
        seen.append(reading_outputs(capsys, tmp_path / f"out{len(seen)}", emrs, suite))
    sources = [path.read_text(encoding="utf-8") for path in BUNDLED_EMRS]
    assert [source.count("\n") for source in sources] == [strip_comments(s).count("\n") for s in sources]
    assert sum(source != strip_comments(source) for source in sources) == 12
    assert all("//" not in strip_comments(source) for source in sources)
    assert [code for code, *_ in seen[0].values()] == [0, 0, 7, 7, 7, 7]
    assert seen[1] == seen[0]


def bundled_suite(work: Path) -> Path:
    """``work/suite``, holding the annotated EMR suite's .smrl files (made on first use)."""
    suite = work / "suite"
    if not suite.exists():
        suite.mkdir(parents=True)
        for entry in json.loads(fixture_path("emr_suite.json").read_text()):
            (suite / f"{entry['id']}.smrl").write_text(fixture_path(*entry["file"].split("/")).read_text())
    return suite


def test_grade_lays_out_each_emr_once(tmp_path, monkeypatch, capsys):
    suite = bundled_suite(tmp_path)
    walks = []
    walk = _Layout.walk
    monkeypatch.setattr(_Layout, "walk", lambda self, ast: walks.append(ast.id) or walk(self, ast))
    assert run("--out", tmp_path / "out", "grade", ANNOTATIONS, "--emrs", suite) == 0
    # The line checks and the size statistics read each EMR's one layout.
    assert sorted(walks) == sorted(path.stem for path in suite.glob("*.smrl"))
    assert "sizes: min 10 mean 13.6 max 20 total 136" in capsys.readouterr().out


def write_every_output(out: Path, work: Path) -> None:
    """Every command that writes whole-file outputs, run into ``out``; its
    inputs are made under ``work`` on first use."""
    suite, broken = bundled_suite(work), work / "broken.smrl"
    if not broken.exists():
        broken.write_text("MR {{ IMPLIES(a() & b()); }}")
    assert run("--mock", "--out", out, "pipeline", DOC) == 0
    assert run("--out", out, "run", FIG4, "--inputs", INPUTS, "--sut", "mock") == 0
    assert run("--out", out, "grade", ANNOTATIONS, "--emrs", suite) == 0
    assert run("--out", out, "survey", SURVEY) == 0
    assert run("--out", out, "repair", broken) == 0


def test_rerunning_into_one_out_writes_the_bytes_of_a_fresh_run(tmp_path):
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    write_every_output(reused, tmp_path)
    for path in reused.rglob("*"):
        if path.is_file():  # a longer previous output: the rerun must cut its tail
            path.write_bytes(path.read_bytes() + b"stale tail\n" * 50)
    write_every_output(reused, tmp_path)
    write_every_output(fresh, tmp_path)
    files = tree_bytes(fresh)
    assert {"report.json", "sizes.json", "survey.json", "repaired/broken.smrl"} <= files.keys()
    assert tree_bytes(reused) == files


def test_rerunning_opens_no_existing_output_with_o_trunc(tmp_path, monkeypatch):
    out = tmp_path / "out"
    write_every_output(out, tmp_path)
    whole_files = {str(out / name) for name in tree_bytes(out) if not name.startswith("transcripts")}
    opened: dict[str, int] = {}
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        opened[str(path)] = opened.get(str(path), 0) | flags
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    write_every_output(out, tmp_path)
    assert whole_files <= opened.keys()
    assert [path for path in whole_files if opened[path] & os.O_TRUNC] == []


def test_run_correct_sut_exits_zero(tmp_path, capsys):
    code = run("--out", tmp_path / "out", "run", FIG4, "--inputs", INPUTS, "--sut", "mock")
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["per_emr"]["search_filter"] == {"Pass": 4, "Inapplicable": 1}
    assert (tmp_path / "out" / "report.txt").exists()


@pytest.mark.parametrize("sut, code", [("mock", 0), ("mock:ignore-filter", 5)])
def test_run_tallies_its_report_in_one_pass(tmp_path, monkeypatch, sut, code):
    """The per-EMR counts, the unbound stubs and the exit code come from one
    ``tally``, which ``report.json`` and ``report.txt`` reuse."""
    calls = []
    tally = SuiteReport.tally
    monkeypatch.setattr(SuiteReport, "tally", lambda report: calls.append(report) or tally(report))
    assert run("--out", tmp_path, "run", FIG4, "--inputs", INPUTS, "--sut", sut) == code
    assert len(calls) == 1 and len(calls[0].entries) == 5


def test_report_json_is_compact_and_parses_back_to_the_report(tmp_path):
    suite = fixture_path("suite")
    run("--out", tmp_path, "run", suite, FIG4, "--inputs", INPUTS, "--sut", "mock:ignore-filter")
    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert text.endswith("}\n") and text.count("\n") == 1
    emr_files = [*sorted(suite.glob("*.smrl")), Path(FIG4)]
    emrs = [parse_emr(path.read_text(encoding="utf-8"), path.stem) for path in emr_files]
    input_files = sorted(Path(INPUTS).glob("*.json"))
    inputs = [ActionSequence.from_json(json.loads(path.read_text(encoding="utf-8"))) for path in input_files]
    names = [path.stem for path in input_files]
    report = run_suite(emrs, inputs, MockShopSut("ignore-filter"), STUBS, input_names=names)
    per_emr, unbound = report.tally()
    assert any("Fail" in counts for counts in per_emr.values()) and unbound
    assert json.loads(text) == report.to_json(per_emr)


def test_importing_the_cli_loads_no_http_modules():
    probe = "import sys, emrkit.cli; print(sorted(m for m in HEAVY if m in sys.modules))"
    heavy = ["http.client", "ssl", "email.parser"]
    result = subprocess.run(
        [sys.executable, "-c", f"HEAVY = {heavy!r}; {probe}"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.stdout.strip() == "[]"


# The commands a user runs end to end, each with its documented exit code,
# in order: ``check`` reads what ``pipeline`` wrote, and the replay reads the
# cassette that the run before it recorded.
CLEAN_COMMANDS = [
    (["--mock", "--out", "out", "pipeline", DOC], 0),
    (["check", "out/emrs"], 0),
    (["--out", "out", "run", FIG4, "--inputs", INPUTS, "--record", "cassette.jsonl"], 0),
    (["--out", "out", "run", FIG4, "--inputs", INPUTS, "--sut", "replay:cassette.jsonl"], 0),
    (["--out", "out", "grade", ANNOTATIONS], 0),
    (["--out", "out", "survey", SURVEY], 0),
]


def test_the_commands_run_clean_under_python_dev_mode(tmp_path):
    """Under ``-X dev`` every unclosed file is a ResourceWarning, made an
    error here, and any other warning is printed: no command may print one."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for argv, code in CLEAN_COMMANDS:
        result = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "emrkit.cli",
                                 *argv], cwd=tmp_path, capture_output=True, text=True, env=env)
        assert result.returncode == code, (argv, result.stderr)
        assert "Warning" not in result.stderr, (argv, result.stderr)


def test_run_faulty_sut_exits_five_with_binding(tmp_path, capsys):
    code = run("--out", tmp_path / "out", "run", FIG4, "--inputs", INPUTS, "--sut", "mock:ignore-filter")
    assert code == 5
    assert "filterType" in capsys.readouterr().out


def test_run_unbound_stub_exits_seven(tmp_path, capsys):
    code = run("--out", tmp_path / "out", "run", FIG4, "--inputs", INPUTS, "--sut", "mock", "--stubs", "none")
    assert code == 7
    assert "isSearchAction" in capsys.readouterr().err


def test_run_adapter_failure_exits_six(tmp_path):
    bad_input = tmp_path / "purchase.json"
    bad_input.write_text(json.dumps([{"kind": "purchase", "parameters": {}}]))
    code = run("--out", tmp_path / "out", "run", FIG4, "--inputs", bad_input, "--sut", "mock")
    assert code == 6


def nested_input(depth: int) -> list:
    value: object = 0
    for _ in range(depth):
        value = [value]
    return [{"kind": "search", "parameters": {"query": "chair", "deep": value}}]


# Each case used to end `emrkit run` in a traceback: (an EMR run next to
# search_filter, or an input added to the bundled ones; how the message of
# each Error entry it gives begins). ``boom`` is a stub that raises.
BAD_PAIRS = {
    "invalid-emr": ("MR {{ NOT(true, false); }}", None,
                    "EMR 'bad' has validation errors: NOT expects 1 argument (line 1)"),
    "unbound-identifier": ("MR {{ var y = zz; y; }}", None, "unbound identifier 'zz'"),
    "unknown-method": ("MR {{ Input(1).foo(); }}", None, "method 'foo' is not defined on ActionSequence(len="),
    "position-out-of-range": ("MR {{ var x = Output(Input(1), 7); }}", None, "position 7 out of range"),
    "stub-raised": ("MR {{ IMPLIES(boom(), true); }}", None, "ZeroDivisionError: "),
    "nested-input": (None, nested_input(600), "RecursionError: maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("case", BAD_PAIRS.values(), ids=BAD_PAIRS.keys())
def test_a_bad_pair_is_an_error_entry_and_exit_six(tmp_path, capsys, monkeypatch, case):
    source, extra_input, message = case
    (tmp_path / "boom_stubs.py").write_text("from emrkit.shopstubs import STUBS as SHOP\n"
                                           "STUBS = {**SHOP, 'boom': lambda: 1 // 0}\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "boom_stubs", raising=False)
    emrs, inputs = tmp_path / "emrs", tmp_path / "inputs"
    emrs.mkdir()
    inputs.mkdir()
    (emrs / "search_filter.smrl").write_text(Path(FIG4).read_text())
    for path in Path(INPUTS).glob("*.json"):
        (inputs / path.name).write_text(path.read_text())
    if source is not None:
        (emrs / "bad.smrl").write_text(source + "\n")
    if extra_input is not None:
        (inputs / "bad.json").write_text(json.dumps(extra_input))

    def results(out: Path, *argv) -> tuple[int, list[dict]]:
        code = run("--out", out, "run", *argv, "--sut", "mock", "--stubs", "boom_stubs")
        printed, err = capsys.readouterr()
        assert "Traceback" not in printed + err
        entries = json.loads((out / "report.json").read_text())["results"]
        # report.txt, which run also prints, gives each Error entry's reason.
        text = (out / "report.txt").read_text()
        reasons = [f"  {e['emr']} on {e['input']}: {e['error']}" for e in entries if e["outcome"] == "Error"]
        assert printed == text and ("errors:" in text) == bool(reasons)
        if reasons:
            assert text.endswith("\nerrors:\n" + "".join(f"{r}\n" for r in reasons))
        return code, [{k: v for k, v in e.items() if k != "input_index"} for e in entries]

    code, entries = results(tmp_path / "out", emrs, "--inputs", inputs)
    assert code == 6
    bad = [e for e in entries if "bad" in (e["emr"], e["input"])]
    assert [e for e in entries if e["outcome"] == "Error"] == bad and len(bad) == (5 if source else 1)
    assert all(e["error"].startswith(message) for e in bad)
    assert [e for e in entries if e not in bad] == results(tmp_path / "alone", FIG4, "--inputs", INPUTS)[1]


# JSON nested deeper than the decoder's recursion limit, read through each
# way a JSON file reaches `emrkit run`.
@pytest.mark.parametrize("where", ["--inputs", "--config", "--sut replay:"])
def test_too_deeply_nested_json_exits_two_naming_the_file(tmp_path, capsys, where):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "\n")
    argv = ["--out", tmp_path / "out", "run", FIG4, "--inputs", INPUTS]
    if where == "--inputs":
        argv[-1] = deep
    elif where == "--config":
        argv = ["--config", deep, *argv]
    else:
        argv += ["--sut", f"replay:{deep}"]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"{deep}: maximum recursion depth exceeded" in err and "Traceback" not in err


def broken_smrl(tmp_path: Path) -> Path:
    emr_dir = tmp_path / "emrs"
    emr_dir.mkdir()
    (emr_dir / "search_filter.smrl").write_text(Path(FIG4).read_text())
    broken = emr_dir / "broken.smrl"
    broken.write_text("MR {{\n    IMPLIES(true, ;\n}}\n")
    return broken


def test_run_unparseable_smrl_exits_two(tmp_path, capsys):
    broken = broken_smrl(tmp_path)
    code = run("--out", tmp_path / "out", "run", broken.parent, "--inputs", INPUTS, "--sut", "mock")
    assert code == 2
    err = capsys.readouterr().err
    assert str(broken) in err and "2:" in err and "Traceback" not in err


def test_run_missing_live_config_exits_two(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = run("--out", tmp_path / "out", "run", FIG4, "--inputs", INPUTS, "--sut", f"live:{missing}")
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_run_malformed_live_config_exits_two(tmp_path, capsys):
    config = tmp_path / "adapter.json"
    config.write_text("{}")
    code = run("--out", tmp_path / "out", "run", FIG4, "--inputs", INPUTS, "--sut", f"live:{config}")
    assert code == 2
    assert "base_url" in capsys.readouterr().err


@pytest.mark.parametrize("document", ["5", "[]", '{"base_url": 1, "actions": {}}'])
def test_run_live_config_of_wrong_shape_exits_two(tmp_path, capsys, document):
    config = tmp_path / "adapter.json"
    config.write_text(document)
    code = run("--out", tmp_path / "out", "run", FIG4, "--inputs", INPUTS, "--sut", f"live:{config}")
    assert code == 2
    assert str(config) in capsys.readouterr().err


@pytest.mark.parametrize("actions", [
    {"search": {}}, {"search": "/search"}, {"search": {"path": 5}}, {"search": {"path": "/s", "method": 1}},
])
def test_run_live_action_mapping_of_wrong_shape_exits_two(tmp_path, capsys, actions):
    config = tmp_path / "adapter.json"
    config.write_text(json.dumps({"base_url": "http://127.0.0.1:9", "actions": actions}))
    code = run("--out", tmp_path / "out", "run", FIG4, "--inputs", INPUTS, "--sut", f"live:{config}")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count(str(config)) == 1 and "'search'" in err and "Traceback" not in err


def test_run_unknown_mock_fault_exits_two(tmp_path, capsys):
    code = run("--out", tmp_path / "out", "run", FIG4, "--inputs", INPUTS, "--sut", "mock:bogus")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("bogus") == 1 and "stale-results" in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["directory", "under-a-file"])
def test_run_record_to_unwritable_path_exits_two_before_any_pair(tmp_path, capsys, where):
    (tmp_path / "file").write_text("")
    cassette = tmp_path if where == "directory" else tmp_path / "file" / "c.jsonl"
    code = run("--out", tmp_path / "out", "run", FIG4, "--inputs", INPUTS, "--record", cassette)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count(str(cassette)) == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["run", FIG4, "--inputs", INPUTS],
    ["--mock", "derive", DOC],
], ids=["run", "derive"])
@pytest.mark.parametrize("where", ["a-file", "under-a-file"])
def test_out_that_is_not_a_directory_exits_two_before_any_work(tmp_path, capsys, monkeypatch, command, where):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" if where == "a-file" else tmp_path / "file" / "sub"
    blocker = "it" if where == "a-file" else str(tmp_path / "file")
    monkeypatch.chdir(tmp_path)
    assert run("--out", out, *command) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot use output directory {out}: {blocker} is not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("blocked, kind, command", [
    ("report.json", "directory", ["run", FIG4, "--inputs", INPUTS]),
    ("transcripts", "file", ["--mock", "derive", DOC]),
    ("mrs.json", "directory", ["--mock", "derive", DOC]),
    ("grade.json", "directory", ["grade", ANNOTATIONS]),
    ("derive", "full-disk", ["--mock", "derive", DOC]),
    ("generate", "full-disk", ["--mock", "pipeline", DOC]),
], ids=["run-report", "derive-transcripts", "derive-catalog", "grade", "derive-transcript-append",
        "generate-transcript-append"])
def test_output_that_cannot_be_written_exits_two(tmp_path, capsys, monkeypatch, blocked, kind, command):
    out = tmp_path / "out"
    out.mkdir()
    path = out / blocked
    if kind == "full-disk":
        # The disk fills up after the first write of a `blocked` transcript:
        # its handle's second write fails, and the OS names no file.
        path = out / "transcripts"

        class FillingAppender(jsonl.Appender):
            def __init__(self, target):
                super().__init__(target)
                self.fills, self.written = Path(target).name.startswith(f"{blocked}-"), False

            def write(self, records):
                if self.fills and self.written:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                super().write(records)
                self.written = True

        monkeypatch.setattr(jsonl, "Appender", FillingAppender)
    else:
        path.mkdir() if kind == "directory" else path.write_text("")
    assert run("--out", out, *command) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["run", "{smrl}", "--inputs", INPUTS, "--sut", "mock"],
    ["check", "{smrl}"],
    ["repair", "{smrl}"],
    ["grade", ANNOTATIONS, "--emrs", "{smrl}"],
], ids=["run", "check", "repair", "grade"])
def test_non_utf8_smrl_exits_two(tmp_path, capsys, command):
    smrl = tmp_path / "bad.smrl"
    smrl.write_bytes(b"\xff\xfe")
    argv = [str(smrl) if a == "{smrl}" else a for a in command]
    assert run("--out", tmp_path / "out", *argv) == 2
    assert f"cannot read {smrl}" in capsys.readouterr().err


@pytest.mark.parametrize("source, reason", [
    ("STUBS = {'x': undefined_name}\n", "NameError: name 'undefined_name' is not defined"),
    ("STUBS = {\n", "SyntaxError: "),
], ids=["name-error", "syntax-error"])
def test_stubs_module_that_raises_on_import_exits_two(tmp_path, capsys, monkeypatch, source, reason):
    (tmp_path / "raising_stubs.py").write_text(source)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "raising_stubs", raising=False)
    argv = ["--out", tmp_path / "out", "run", FIG4, "--inputs", INPUTS, "--stubs", "raising_stubs"]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot import stubs module 'raising_stubs': {reason}")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_stubs_module_without_a_stubs_dict_exits_two(tmp_path, capsys, monkeypatch):
    (tmp_path / "listed_stubs.py").write_text("STUBS = ['isSearchAction']\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "listed_stubs", raising=False)
    argv = ["--out", tmp_path / "out", "run", FIG4, "--inputs", INPUTS, "--stubs", "listed_stubs"]
    assert run(*argv) == 2
    assert capsys.readouterr().err == "error: stubs module 'listed_stubs' does not define a STUBS dict\n"
    assert not (tmp_path / "out").exists()


# The replay's cassette need not exist: the combination is refused before it is read.
@pytest.mark.parametrize("spec, message", [
    (["live:"], "--sut live:<adapter-config.json> needs a config path"),
    (["replay:"], "--sut replay:<cassette.jsonl> needs a cassette path"),
    (["http://shop"], "unknown SUT spec 'http://shop' (use mock[:fault], live:<config>, replay:<cassette.jsonl>)"),
    (["replay:{tmp}/c.jsonl", "--record", "{tmp}/r.jsonl"],
     "--record cannot be combined with --sut replay: a replay never reaches the SUT"),
], ids=["live-without-path", "replay-without-path", "unknown", "replay-with-record"])
def test_a_sut_spec_that_names_no_sut_exits_two(tmp_path, capsys, spec, message):
    spec = [arg.format(tmp=tmp_path) for arg in spec]
    assert run("--out", tmp_path / "out", "run", FIG4, "--inputs", INPUTS, "--sut", *spec) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def same_stem_dirs(tmp_path: Path, name: str, content: str) -> tuple[Path, Path]:
    first, second = tmp_path / "a" / name, tmp_path / "b" / name
    for path in (first, second):
        path.parent.mkdir(exist_ok=True)
        path.write_text(content)
    return first, second


# Every command takes a file's stem as its id: two files with one stem would
# overwrite each other's output or report entry.
@pytest.mark.parametrize("command", ["check", "repair", "grade", "run-emrs", "run-inputs"])
def test_two_input_files_with_one_stem_exit_two(tmp_path, capsys, command):
    if command == "run-inputs":
        first, second = same_stem_dirs(tmp_path, "s.json", (Path(INPUTS) / "search_chair.json").read_text())
        argv = ["run", FIG4, "--inputs", first.parent, second.parent]
        noun = "input-sequence"
    else:
        first, second = same_stem_dirs(tmp_path, "y.smrl", Path(FIG4).read_text())
        argv = {
            "check": ["check", first.parent, second.parent],
            "repair": ["repair", first, second],
            "grade": ["grade", ANNOTATIONS, "--emrs", first.parent, second.parent],
            "run-emrs": ["run", first.parent, second.parent, "--inputs", INPUTS],
        }[command]
        noun = ".smrl"
    assert run("--out", tmp_path / "out", *argv) == 2
    assert capsys.readouterr().err == f"error: two {noun} files named {first.stem}: {first} and {second}\n"
    assert not (tmp_path / "out").exists()


def test_a_missing_emr_path_exits_two(tmp_path, capsys):
    missing = tmp_path / "nope.smrl"
    assert run("--out", tmp_path / "out", "check", FIG4, missing) == 2
    assert capsys.readouterr().err == f"error: no such .smrl file or directory: {missing}\n"


def test_a_directory_without_matching_files_exits_two(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("not an EMR")
    assert run("--out", tmp_path / "out", "run", FIG4, "--inputs", empty) == 2
    assert capsys.readouterr().err == f"error: no input-sequence files found in {empty}\n"
    assert not (tmp_path / "out").exists()


def test_run_record_then_replay(tmp_path):
    cassette = tmp_path / "cassette.json"
    assert run("--out", tmp_path / "a", "run", FIG4, "--inputs", INPUTS,
               "--sut", "mock", "--record", cassette) == 0
    assert run("--out", tmp_path / "b", "run", FIG4, "--inputs", INPUTS,
               "--sut", f"replay:{cassette}") == 0
    live = (tmp_path / "a" / "report.json").read_bytes()
    replayed = (tmp_path / "b" / "report.json").read_bytes()
    assert live == replayed


def test_check_clean_and_stub_output(tmp_path, capsys):
    code = run("check", FIG4, "--catalog", fixture_path("api_catalog_search_filter.json"))
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out.strip().split("\n")[-1])["severity"] == "none"


def test_check_and_repair_records_are_the_bytes_of_json_dumps_with_sorted_keys(tmp_path, capsys):
    unbound = tmp_path / "prüfe.smrl"
    unbound.write_text("MR {{\n    IMPLIES(prüfe(Input(1)), true);\n}}\n", encoding="utf-8")
    defective = tmp_path / "größe.smrl"
    defective.write_text("MR {{\n    IMPLIES(prüfe(Input(1)) & true);\n}}\n", encoding="utf-8")
    assert run("check", unbound) == 0
    assert run("--out", tmp_path / "out", "repair", defective) == 0
    stub, fix = capsys.readouterr().out.splitlines()
    assert stub == json.dumps({"file": str(unbound), "line": 2, "severity": "stub", "symbol": "prüfe",
                               "message": "unresolved function 'prüfe'; bind it or add it to the API catalog"},
                              sort_keys=True)
    assert fix == json.dumps({"file": str(defective), "line": 2, "rule": "WLC-AMP", "before": " &", "after": ",",
                              "message": "replaced ' &' with ','"}, sort_keys=True)
    assert "\\u00fc" in stub and "\\u00f6" in fix


# Sources that used to end in a RecursionError traceback.
TOO_DEEP = {"paren": 2000, "bang": 3000, "not": 1500, "if": 1500}


@pytest.mark.parametrize("kind", NESTINGS)
def test_check_on_too_deep_a_source_exits_two_naming_the_file_and_position(tmp_path, capsys, kind):
    deep = tmp_path / "deep.smrl"
    deep.write_text(nested_emr(kind, TOO_DEEP[kind]))
    assert run("check", deep) == 2
    out, err = capsys.readouterr()
    (line,) = [json.loads(row) for row in out.splitlines()]
    assert line["file"] == str(deep) and line["severity"] == "error"
    assert re.fullmatch(rf"1:\d+: nesting deeper than {MAX_NESTING} levels", line["message"])
    assert "Traceback" not in out + err


@pytest.mark.parametrize("command", ["run", "grade"])
def test_run_and_grade_on_too_deep_a_source_exit_two(tmp_path, capsys, command):
    deep = tmp_path / "deep.smrl"
    deep.write_text(nested_emr("not", TOO_DEEP["not"]))
    if command == "run":
        argv = ["run", deep, "--inputs", INPUTS, "--sut", "mock"]
    else:
        argv = ["grade", ANNOTATIONS, "--emrs", deep]
    assert run("--out", tmp_path / "out", *argv) == 2
    err = capsys.readouterr().err
    assert f"cannot read {deep}: 1:{18 + 4 * MAX_NESTING}: nesting deeper than" in err and "Traceback" not in err


def test_pipeline_records_a_too_deep_reply_as_unparseable(tmp_path, capsys):
    scripts = json.loads(fixture_path("mock_scripts.json").read_text())
    (reply,) = [s for s in scripts if s["pipeline"] == "generate" and s["phase"] == 6]
    reply["response"] = "```\n" + nested_emr("not", 400) + "\n```"
    (tmp_path / "scripts.json").write_text(json.dumps(scripts))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mock": True, "mock_scripts": str(tmp_path / "scripts.json")}))
    assert run("--config", config, "--out", tmp_path / "out", "pipeline", DOC) == 4
    out, err = capsys.readouterr()
    assert ": unparseable" in out and "every EMR failed to parse" in err and "Traceback" not in err
    assert re.search(r"^warning: \S+-mr01: reply does not parse: \d+:\d+: nesting deeper than 100 levels$", err, re.M)


def test_a_rerun_keeps_only_the_files_of_its_own_outcome(tmp_path, capsys):
    out, emrs = tmp_path / "out", tmp_path / "out" / "emrs"
    emrs.mkdir(parents=True)
    (emrs / "other-mr09.smrl").write_text("MR {{ }}\n")  # an MR id no run here produces
    scripts = json.loads(fixture_path("mock_scripts.json").read_text())
    (reply,) = [s for s in scripts if s["pipeline"] == "generate" and s["phase"] == 6]
    reply["response"] = "not an EMR at all"
    (tmp_path / "rejected.json").write_text(json.dumps(scripts))
    rejecting = tmp_path / "config.json"
    rejecting.write_text(json.dumps({"mock": True, "mock_scripts": str(tmp_path / "rejected.json")}))

    assert run("--mock", "--out", out, "pipeline", DOC) == 0
    parsed = tree_bytes(emrs)
    (smrl,) = [name for name in parsed if name.endswith("-mr01.smrl")]
    mr_id = smrl.removesuffix(".smrl")
    assert sorted(parsed) == sorted([f"{mr_id}{suffix}" for suffix in (
        ".explanations.json", ".repairs.json", ".smrl", ".stubs.json")] + ["other-mr09.smrl"])
    assert run("--config", rejecting, "--out", out, "pipeline", DOC) == 4
    assert sorted(tree_bytes(emrs)) == [f"{mr_id}.rejected.txt", "other-mr09.smrl"]
    assert run("check", emrs) == 0  # the rejected EMR is not checked
    assert run("--mock", "--out", out, "pipeline", DOC) == 0
    assert tree_bytes(emrs) == parsed

    # Removing a stale file can fail like a write: exit 2, naming it.
    assert run("--config", rejecting, "--out", out, "pipeline", DOC) == 4
    (emrs / f"{mr_id}.rejected.txt").unlink()
    (emrs / f"{mr_id}.rejected.txt").mkdir()
    (emrs / f"{mr_id}.rejected.txt" / "x").write_text("")
    capsys.readouterr()
    assert run("--mock", "--out", out, "pipeline", DOC) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {emrs / mr_id}.rejected.txt: ") and err.count("\n") == 1


def test_check_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.smrl"
    bad.write_text("MR {{ IMPLIES(true); }}")
    assert run("check", bad) == 2
    assert "IMPLIES expects 2" in capsys.readouterr().out


# A follow-up bound to a name and read back through ``Output(s, 0)``: that
# read took the outputs of the source of ``s``, so the check compared the
# source with itself and failed on the correct shop. ``Output`` names its
# input as ``CREATE`` does, ``Output(Input(2), 0)``.
NAMED_FOLLOW_UP = ('MR {{ var s = applyFilter(Input(1), 0, "price"); '
                   'IMPLIES(CREATE(Input(2), s), fewerResults(%s, Output(Input(1), 0))); }}')
NOT_AN_INPUT = "Output sequence must be an Input(i) expression"


def named_follow_up(tmp_path: Path, output: str) -> Path:
    emr = tmp_path / "named.smrl"
    emr.write_text(NAMED_FOLLOW_UP % output, encoding="utf-8")
    return emr


@pytest.mark.parametrize("output, stubs", [("Output(s, 0)", ["applyFilter", "fewerResults"]),
                                           ("Output(In0ut(2), 0)", ["applyFilter", "fewerResults", "In0ut"])])
def test_check_refuses_a_two_argument_output_of_anything_but_an_input_call(tmp_path, capsys, output, stubs):
    emr = named_follow_up(tmp_path, output)
    assert run("check", emr) == 2
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r for r in records if r["severity"] == "error"] == [
        {"file": str(emr), "severity": "error", "line": 1, "message": NOT_AN_INPUT, "symbol": "Output"}]
    assert [r["symbol"] for r in records if r["severity"] == "stub"] == stubs


@pytest.mark.parametrize("sut", SUTS)
def test_run_gives_a_named_follow_up_output_the_invalid_emr_error_on_every_input(tmp_path, sut):
    emr = named_follow_up(tmp_path, "Output(s, 0)")
    assert run("--out", tmp_path / "out", "run", emr, "--inputs", INPUTS, "--sut", sut) == 6
    results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
    error = f"EMR 'named' has validation errors: {NOT_AN_INPUT} (line 1)"
    assert [(r["input"], r["outcome"], r["error"]) for r in results] == [
        (path.stem, "Error", error) for path in sorted(Path(INPUTS).glob("*.json"))]


def test_the_input_call_spelling_of_a_named_follow_up_passes(tmp_path):
    emr = named_follow_up(tmp_path, "Output(Input(2), 0)")
    chair = fixture_path("inputs") / "search_chair.json"
    assert run("--out", tmp_path / "out", "run", emr, "--inputs", chair, "--sut", "mock") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["per_emr"] == {"named": {"Pass": 1}}


@pytest.mark.parametrize("literal, message", [
    ("²", "1:15: illegal character '²'"),
    ("9" * 5000, "1:15: integer literal of 5000 digits is too long"),
], ids=["superscript-digit", "5000-digits"])
def test_check_integer_literal_int_refuses_exits_two(tmp_path, capsys, literal, message):
    bad = tmp_path / "bad.smrl"
    bad.write_text(f"MR {{{{ var x = {literal}; }}}}", encoding="utf-8")
    assert run("check", bad) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"file": str(bad), "severity": "error", "message": message}
    assert "Traceback" not in captured.err


def test_repair_subcommand_writes_fixed_source(tmp_path, capsys):
    broken = tmp_path / "broken.smrl"
    broken.write_text("MR {{ IMPLIES(a() & b()); }}")
    assert run("--out", tmp_path / "out", "repair", broken) == 0
    fixed = (tmp_path / "out" / "repaired" / "broken.smrl").read_text()
    assert "IMPLIES(a(), b())" in fixed
    assert "WLC-AMP" in capsys.readouterr().out


def test_repair_in_place(tmp_path):
    broken = tmp_path / "broken.smrl"
    broken.write_text("MR {{ IMPLIES(a() & b()); }}")
    assert run("repair", broken, "--in-place") == 0
    assert "IMPLIES(a(), b())" in broken.read_text()


def test_repair_in_place_that_cannot_write_exits_two(tmp_path, capsys, monkeypatch):
    broken = tmp_path / "broken.smrl"
    broken.write_text("MR {{ IMPLIES(a() & b()); }}")

    def refuse(path, data):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(jsonl, "rewrite", refuse)
    assert run("repair", broken, "--in-place") == 2
    err = capsys.readouterr().err
    assert f"cannot write {broken}" in err and "Traceback" not in err


def amp_broken_emr01(tmp_path: Path) -> Path:
    """The bundled emr01 with the comma of its first IMPLIES made `` &`` (WLC-AMP)."""
    source = (fixture_path("suite") / "emr01.smrl").read_text(encoding="utf-8")
    broken = tmp_path / "emr01.smrl"
    broken.write_text(source.replace("true,", "true &", 1), encoding="utf-8")
    assert broken.read_text(encoding="utf-8") != source
    return broken


def fail_writes_after(monkeypatch, budget: int) -> None:
    """Make ``os.write`` fail once ``budget`` bytes are written, as on a full disk."""
    write, left = os.write, budget

    def failing_write(fd, data):
        nonlocal left
        if not left:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        written = write(fd, bytes(data[:left]))
        left -= written
        return written

    monkeypatch.setattr(os, "write", failing_write)


@pytest.mark.parametrize("budget", [0, 1, 100, 366, 569])
def test_an_interrupted_repair_in_place_keeps_the_old_bytes(tmp_path, capsys, monkeypatch, budget):
    """The repaired text is 570 bytes long."""
    broken = amp_broken_emr01(tmp_path)
    before = broken.read_bytes()
    fail_writes_after(monkeypatch, budget)
    assert run("repair", broken, "--in-place") == 2
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: cannot write {broken}: No space left on device"
    assert "Traceback" not in err
    assert broken.read_bytes() == before
    assert list(tmp_path.iterdir()) == [broken]


# A clean ``run --record`` of FIG4 on INPUTS writes a cassette of 14,494
# bytes, then report.json (710 bytes) and report.txt.
@pytest.mark.parametrize("budget", [0, 1, 150, 7000, 14493, 14494, 15000, 15300])
def test_an_interrupted_run_record_keeps_a_prefix_of_the_cassette(tmp_path, capsys, monkeypatch, budget):
    clean = tmp_path / "clean.jsonl"
    assert run("--out", tmp_path / "a", "run", FIG4, "--inputs", INPUTS, "--record", clean) == 0
    assert clean.stat().st_size == 14494
    recorded = Cassette(clean).load()
    cassette, out = tmp_path / "cassette.jsonl", tmp_path / "b"
    capsys.readouterr()
    fail_writes_after(monkeypatch, budget)
    code = run("--out", out, "run", FIG4, "--inputs", INPUTS, "--record", cassette)
    monkeypatch.undo()
    err = capsys.readouterr().err
    failed = f"cassette {cassette}" if budget < 14494 else out / ("report.json" if budget < 14494 + 710 else "report.txt")
    assert code == 2
    assert err.splitlines()[-1] == f"error: cannot write {failed}: No space left on device"
    assert "Traceback" not in err
    loaded = Cassette(cassette).load()
    assert loaded == recorded[:len(loaded)]
    assert len(loaded) == len(recorded) or budget < 14494


def test_a_failed_cassette_write_ends_the_run_and_appends_nothing_after_it(tmp_path, capsys, monkeypatch):
    """The 5th and 6th writes fail, as on a disk that fills up and is freed
    again: the run ends at the 5th, and the cassette keeps the first four lines."""
    clean = tmp_path / "clean.jsonl"
    assert run("--out", tmp_path / "a", "run", FIG4, "--inputs", INPUTS, "--record", clean) == 0
    recorded = Cassette(clean).load()
    write, calls = os.write, 0

    def flaky_write(fd, data):
        nonlocal calls
        calls += 1
        if calls in (5, 6):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write(fd, data)

    cassette, out = tmp_path / "cassette.jsonl", tmp_path / "b"
    capsys.readouterr()
    monkeypatch.setattr(os, "write", flaky_write)
    code = run("--out", out, "run", FIG4, "--inputs", INPUTS, "--record", cassette)
    monkeypatch.undo()
    assert (code, capsys.readouterr().err) == (2, f"error: cannot write cassette {cassette}: No space left on device\n")
    assert Cassette(cassette).load() == recorded[:4]
    assert cassette.read_bytes().count(b"\n") == 4 and not out.exists()


def assert_whole_or_refused(path: Path, clean: bytes, tmp_path: Path) -> None:
    """``path``, written by an interrupted run into a fresh directory, holds
    a prefix of ``clean``: the whole data (perhaps less its final newline),
    or bytes that the command reading them refuses with exit 2. No command
    reads the other JSON outputs, so those must not decode."""
    data = path.read_bytes()
    assert clean.startswith(data), path
    if data.rstrip(b"\n") == clean.rstrip(b"\n"):
        return
    if path.name == "mrs.json":
        assert run("--mock", "--out", tmp_path / "reread", "generate", path) == 2
    elif path.suffix == ".smrl":
        assert run("check", path) == 2
    else:
        with pytest.raises(ValueError):
            json.loads(data)


# A clean ``pipeline --mock`` of DOC writes 11,421 bytes: the derive
# transcript (3,221), mrs.json (552), the generate transcript (5,593), then
# the EMR (685) and its stubs (115), repairs (3) and explanations (1,252)
# sidecars. A clean ``grade`` of the bundled suite writes grade.json (599)
# and sizes.json (63). Each budget stops a write in or at the end of a file.
@pytest.mark.parametrize("command, total, budget", [
    *(pytest.param(["--mock", "pipeline", DOC], 11421, budget, id=f"pipeline-{budget}") for budget in
      [0, 1, 2000, 3221, 3500, 3773, 6000, 9366, 9700, 10100, 10167, 11000, 11420, 11421, 12000]),
    *(pytest.param(["grade", ANNOTATIONS, "--emrs", "{suite}"], 662, budget, id=f"grade-{budget}") for budget in
      [0, 1, 300, 599, 630, 661, 662, 700]),
])
def test_an_interrupted_pipeline_or_grade_leaves_prefixes_or_refused_files(tmp_path, capsys, monkeypatch,
                                                                           command, total, budget):
    argv = [str(bundled_suite(tmp_path)) if a == "{suite}" else a for a in command]
    clean_out, out = tmp_path / "clean", tmp_path / "out"
    assert run("--out", clean_out, *argv) == 0
    clean = tree_bytes(clean_out)
    assert sum(map(len, clean.values())) == total
    capsys.readouterr()
    fail_writes_after(monkeypatch, budget)
    code = run("--out", out, *argv)
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if budget >= total:
        assert code == 0 and tree_bytes(out) == clean
        return
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 2 and len(errors) == 1 and err.endswith(errors[0] + "\n")
    named = re.fullmatch(r"error: cannot write (.+): No space left on device", errors[0]).group(1)
    assert named == str(out / "transcripts") or str(Path(named).relative_to(out)) in clean
    for name in tree_bytes(out):
        path = out / name
        if name.startswith("transcripts/"):
            records = jsonl.read(path)  # a torn final line is dropped
            assert records == jsonl.read(clean_out / name)[:len(records)]
        else:
            assert_whole_or_refused(path, clean[name], tmp_path)


# A command that leaves reference cycles hands them to the cyclic collector,
# whose passes then cost every later command; argparse's own cycles come from
# building the parser, which is built once per process.
@pytest.mark.parametrize("command", ["check", "run", "grade"])
def test_no_command_leaves_a_reference_cycle(tmp_path, capsys, command):
    suite = bundled_suite(tmp_path)
    argv = {
        "check": ["check", suite],
        "run": ["run", suite, "--inputs", INPUTS],
        "grade": ["grade", ANNOTATIONS, "--emrs", suite],
    }[command]
    cli.build_parser()
    gc.collect()
    gc.disable()
    try:
        run("--out", tmp_path / "out", *argv)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("case", ["pipeline", "derive-same-content", "derive-llm-error", "transcript-enospc",
                                  "run-record", "run-replay"])
def test_no_file_descriptor_stays_open(tmp_path, capsys, monkeypatch, case):
    copy = tmp_path / "copy.md"
    copy.write_text(Path(DOC).read_text())
    other = tmp_path / "other.md"
    other.write_text("# Another shop\n\nR1. A search returns the items that match its query.\n")
    cassette = tmp_path / "cassette.jsonl"
    argv, expected = {
        "pipeline": (["--mock", "pipeline", DOC], 0),
        "derive-same-content": (["--mock", "derive", DOC, copy], 0),  # the copy is not derived again
        "derive-llm-error": (["--mock", "derive", DOC, other], 3),  # the mock scripts answer one derive
        "transcript-enospc": (["--mock", "derive", DOC], 2),
        "run-record": (["run", FIG4, "--inputs", INPUTS, "--record", cassette], 0),
        "run-replay": (["run", FIG4, "--inputs", INPUTS, "--sut", f"replay:{cassette}"], 0),
    }[case]
    if case == "run-replay":
        assert run("--out", tmp_path / "recorded", "run", FIG4, "--inputs", INPUTS, "--record", cassette) == 0
    if case == "transcript-enospc":
        fail_writes_after(monkeypatch, 2000)  # in the derive transcript
    before = open_fds()
    assert run("--out", tmp_path / "out", *argv) == expected
    assert open_fds() == before
    monkeypatch.undo()
    transcripts = tmp_path / "out" / "transcripts"
    if case == "derive-same-content":
        (transcript,) = transcripts.glob("*.jsonl")
        assert len(jsonl.read(transcript)) == 1 + 8  # the header, then the messages
    if case == "derive-llm-error":
        assert len(list(transcripts.glob("*.jsonl"))) == 2
        transcript = transcripts / f"derive-{ingest_document(other).doc_id}.jsonl"
        assert len(jsonl.read(transcript)) == 1 + 1


def test_derive_skips_a_document_with_the_content_of_an_earlier_one(tmp_path, capsys):
    copy = tmp_path / "copy.md"
    copy.write_bytes(Path(DOC).read_bytes())
    assert run("--mock", "--out", tmp_path / "alone", "derive", DOC) == 0
    alone = capsys.readouterr()
    assert run("--mock", "--out", tmp_path / "out", "derive", DOC, copy) == 0
    both = capsys.readouterr()
    assert both.out == alone.out
    assert both.err == alone.err + f"warning: {copy} has the content of {DOC}; derived once\n"
    assert tree_bytes(tmp_path / "out") == tree_bytes(tmp_path / "alone")
    (transcript,) = (tmp_path / "out" / "transcripts").glob("*.jsonl")
    assert len(transcript.read_text().splitlines()) == 9


def test_repair_in_place_keeps_the_file_mode_and_leaves_no_temporary_file(tmp_path, capsys):
    broken = amp_broken_emr01(tmp_path)
    broken.chmod(0o640)
    assert run("repair", broken, "--in-place") == 0
    assert len(broken.read_bytes()) == 570 and (broken.stat().st_mode & 0o777) == 0o640
    assert list(tmp_path.iterdir()) == [broken]
    capsys.readouterr()
    assert run("check", broken) == 0


def test_repair_in_place_writes_through_a_symlink(tmp_path):
    real = amp_broken_emr01(tmp_path)
    link = tmp_path / "link.smrl"
    link.symlink_to(real)
    assert run("repair", link, "--in-place") == 0
    assert link.is_symlink() and len(real.read_bytes()) == 570
    assert sorted(p.name for p in tmp_path.iterdir()) == ["emr01.smrl", "link.smrl"]


def test_grade_matches_reference_table(tmp_path, capsys):
    code = run("--out", tmp_path / "out", "grade", ANNOTATIONS, "--statements", "136")
    assert code == 0
    out = capsys.readouterr().out
    assert "52" in out and "78.6%" in out
    data = json.loads((tmp_path / "out" / "grade.json").read_text())
    assert data["labels"]["CLC"]["count"] == 54


@pytest.mark.parametrize("count", ["1", "-5"])
def test_grade_statements_below_the_annotations_exits_two(tmp_path, capsys, count):
    assert run("--out", tmp_path / "out", "grade", ANNOTATIONS, "--statements", count) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot grade {ANNOTATIONS}: statement count {count} is below the 136 annotated statements\n"
    assert not (tmp_path / "out").exists()


def test_grade_with_emrs_checks_lines_and_prints_sizes(tmp_path, capsys):
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    manifest = json.loads(fixture_path("emr_suite.json").read_text())
    for entry in manifest:
        source = fixture_path(*entry["file"].split("/")).read_text()
        (suite_dir / f"{entry['id']}.smrl").write_text(source)
    code = run("--out", tmp_path / "out", "grade", ANNOTATIONS, "--emrs", suite_dir)
    assert code == 0
    out = capsys.readouterr().out
    assert "min 10 mean 13.6 max 20 total 136" in out


def test_grade_with_unparseable_emr_exits_two(tmp_path, capsys):
    broken = broken_smrl(tmp_path)
    assert run("--out", tmp_path / "out", "grade", ANNOTATIONS, "--emrs", broken.parent) == 2
    err = capsys.readouterr().err
    assert str(broken) in err and "2:" in err


def test_grade_schema_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "ann.jsonl"
    bad.write_text(json.dumps({"emr": "x", "line": 1, "labels": ["NOPE"]}) + "\n")
    assert run("--out", tmp_path / "out", "grade", bad) == 2


def test_grade_empty_annotations_exit_zero(tmp_path, capsys):
    empty = tmp_path / "ann.jsonl"
    empty.write_text("")
    assert run("--out", tmp_path / "out", "grade", empty) == 0


def test_survey_reproduces_reference_rates(tmp_path, capsys):
    assert run("--out", tmp_path / "out", "survey", SURVEY) == 0
    out = capsys.readouterr().out
    assert "77%" in out and "64%" in out and "28%" in out


def test_a_survey_that_starts_with_a_byte_order_mark_gives_the_same_report(tmp_path):
    marked = tmp_path / "survey.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(SURVEY).read_bytes())
    assert run("--out", tmp_path / "plain", "survey", SURVEY) == 0
    assert run("--out", tmp_path / "marked", "survey", marked) == 0
    assert (tmp_path / "marked" / "survey.json").read_bytes() == (tmp_path / "plain" / "survey.json").read_bytes()


def test_survey_schema_error_exits_two(tmp_path):
    bad = tmp_path / "survey.csv"
    bad.write_text("subject,statement,respondent,rating\nmr01,S9,p1,agree\n")
    assert run("--out", tmp_path / "out", "survey", bad) == 2


def test_show_config_materializes_defaults(capsys):
    assert run("show-config") == 0
    config = json.loads(capsys.readouterr().out)
    assert config["mock"] is False
    assert config["llm"]["temperature"] == 0.0
    assert config["out_dir"] == "out"
    assert Path(config["fewshot"]).exists()


def test_config_file_overrides_and_flags_win(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out_dir": "from-config", "llm": {"model": "gpt-test"}}))
    assert run("--config", config, "--out", tmp_path / "cli-out", "show-config") == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["llm"]["model"] == "gpt-test"
    assert resolved["out_dir"] == str(tmp_path / "cli-out")


@pytest.mark.parametrize("document, named", [
    ("[1]", "must be a JSON object"),
    ('{"llm": 5}', "'llm' in config"),
    ('{"turn_budget": "big"}', "'turn_budget' in config"),
    ('{"llm": {"temperature": null}}', "'llm.temperature' in config"),
    ('{"sut": 5}', "'sut' in config"),
    ('{"mock": "false"}', "'mock' in config"),
    ('{"turn_budget": true}', "'turn_budget' in config"),
    ('{"templates_dir": 5}', "'templates_dir' in config"),
    ('{"turn_budget": 0}', "'turn_budget' in config must be at least 1, not 0"),
    ('{"turn_budget": -3}', "'turn_budget' in config must be at least 1, not -3"),
])
def test_bad_config_exits_two(tmp_path, capsys, document, named):
    config = tmp_path / "config.json"
    config.write_text(document)
    assert run("--config", config, "show-config") == 2
    err = capsys.readouterr().err
    assert named in err and str(config) in err


def test_a_config_naming_a_retired_key_still_loads(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_mrs_per_document": 3, "merge_duplicate_mrs": False, "turn_budget": 500}))
    assert run("--config", config, "show-config") == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["turn_budget"] == 500
    assert "max_mrs_per_document" not in resolved and "merge_duplicate_mrs" not in resolved


def test_config_values_keep_their_types(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mock": False, "templates_dir": None, "llm": {"temperature": 0}}))
    assert run("--config", config, "show-config") == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["mock"] is False and resolved["templates_dir"] is None
    assert repr(resolved["llm"]["temperature"]) == "0.0"


# Each case writes one malformed input file (``relpath`` under tmp_path) and
# runs a command that reads it, directly or through the --config key named.
# Every one of them used to end in a traceback, name the file twice, or load
# a value of the wrong JSON type. The last field is the reason the error must
# give: the text of the loader's own check, so that a deleted check fails its
# row.
FEWSHOT_EMR = json.loads(fixture_path("fewshot.json").read_text(encoding="utf-8"))[0]["emr"]
MALFORMED_INPUTS = {
    "mr-catalog-entry-not-object": (
        "mrs.json", b"[5]", None, ["generate", "{path}"],
        "MR 1 must be a JSON object, not 5"),
    "mr-catalog-text-not-string": (
        "mrs.json", b'[{"id": "m1", "text": 5}]', None, ["generate", "{path}"],
        "MR field 'text' must be a string, not 5"),
    "mr-catalog-id-not-string": (
        "mrs.json", b'[{"id": 1, "text": "t"}]', None, ["generate", "{path}"],
        "MR field 'id' must be a string, not 1"),
    "fewshot-field-not-string": (
        "fewshot.json", b'[{"mr": 1}]', "fewshot", ["generate", "{empty}"],
        "few-shot example 1 field 'mr' must be a string, not 1"),
    "fewshot-not-list": (
        "fewshot.json", b'{"a": 1}', "fewshot", ["generate", "{empty}"],
        'the few-shot examples must be a JSON list, not {"a": 1}'),
    "fewshot-empty": (
        "fewshot.json", b"[]", "fewshot", ["generate", "{empty}"],
        "the file holds no examples; generation needs at least one"),
    "mock-script-not-object": (
        "scripts.json", b'["x"]', "mock_scripts", ["derive", DOC],
        'mock script 1 must be a JSON object, not "x"'),
    "mock-script-response-null": (
        "scripts.json", b'[{"pipeline": "derive", "phase": 1, "response": null}]', "mock_scripts", ["pipeline", DOC],
        "mock script field 'response' must be a string, not null"),
    "annotation-not-object": (
        "ann.jsonl", b"[1,2]\n", None, ["grade", "{path}"],
        "line 1 must be a JSON object, not [1, 2]"),
    "annotation-line-not-integer": (
        "ann.jsonl", b'{"emr": "x", "line": 3.7, "labels": ["C"]}\n', None, ["grade", "{path}"],
        "x: line must be an integer, not 3.7"),
    "annotation-emr-not-string": (
        "ann.jsonl", b'{"emr": 5, "line": 3, "labels": ["C"]}\n', None, ["grade", "{path}"],
        "emr must be a string, not 5"),
    "annotation-note-not-string": (
        "ann.jsonl", b'{"emr": "x", "line": 3, "labels": ["C"], "note": 7}\n', None, ["grade", "{path}"],
        "x line 3: note must be a string or null, not 7"),
    "survey-row-short": (
        "survey.csv", b"subject,statement,respondent,rating\nmr01,S1\n", None, ["survey", "{path}"],
        "line 2 field 'respondent' must be a string, not null"),
    "survey-rating-unknown": (
        "survey.csv", b"subject,statement,respondent,rating\nmr01,S1,p1,sort-of\n", None, ["survey", "{path}"],
        "unknown rating 'sort-of'"),
    "cassette-entry-not-object": (
        "cassette.json", b"[1]", None, ["run", FIG4, "--inputs", INPUTS, "--sut", "replay:{path}"],
        "line 1 must be a JSON object, not [1]"),
    "cassette-middle-line-not-json": (
        "cassette.jsonl", b'{"fingerprint":"a","output":{"status":"ok"}}\nnot json\n{"fingerprint":"b","output":{}}\n',
        None, ["run", FIG4, "--inputs", INPUTS, "--sut", "replay:{path}"],
        "line 2 is not valid JSON"),
    "template-not-utf8": (
        "templates/derive_phase1_context.txt", b"\xff\xfe", "templates_dir", ["derive", DOC],
        "derive_phase1_context.txt: 'utf-8' codec can't decode byte 0xff"),
    "template-unfilled-placeholder": (
        "templates/derive_phase4_mrs.txt", b"List the MRs for {{nope}}.", "templates_dir", ["derive", DOC],
        "derive_phase4_mrs.txt: placeholder {{nope}} is never filled"),
    "document-not-utf8": ("bad.md", b"\xff\xfe", None, ["derive", "{path}"], "not valid UTF-8"),
    "fewshot-mr-not-string": (
        "fewshot.json", json.dumps([{"mr": {"k": 1}, "emr": FEWSHOT_EMR}]).encode(), "fewshot",
        ["generate", "{empty}"],
        "few-shot example 1 field 'mr' must be a string, not {\"k\": 1}"),
    "fewshot-emr-invalid": (
        "fewshot.json", json.dumps([{"mr": "m", "emr": FEWSHOT_EMR}, {"mr": "m", "emr": "MR {{ IMPLIES(true); }}"}]
                                   ).encode(), "fewshot", ["generate", "{empty}"],
        "few-shot example 2 is invalid: IMPLIES expects 2 arguments (line 1)"),
    "api-catalog-parameter-type-not-string": (
        "catalog.json",
        b'[{"name": "isSearchAction", "parameters": [{"name": "action", "type": [null]}], "returns": "boolean",'
        b' "doc": "d"}]',
        None, ["check", FIG4, "--catalog", "{path}"],
        "catalog entry 'isSearchAction' parameter field 'type' must be a string, not [null]"),
    "api-catalog-parameters-not-list": (
        "catalog.json", b'[{"name": "isSearchAction", "parameters": "action", "returns": "boolean", "doc": "d"}]',
        None, ["check", FIG4, "--catalog", "{path}"],
        "catalog entry 'isSearchAction' field 'parameters' must be a JSON list, not \"action\""),
    "api-catalog-parameter-without-type": (
        "catalog.json",
        b'[{"name": "isSearchAction", "parameters": [{"name": "action"}], "returns": "boolean", "doc": "d"}]',
        None, ["check", FIG4, "--catalog", "{path}"],
        "catalog entry 'isSearchAction' parameter field 'type' must be a string, not null"),
    "api-catalog-not-list": (
        "catalog.json", b'{"name": "isSearchAction", "returns": "boolean", "doc": "d"}', None,
        ["check", FIG4, "--catalog", "{path}"],
        'the API catalog must be a JSON list, not {"name": "isSearchAction", "returns": "boolean", "doc": "d"}'),
    "cassette-output-of-wrong-types": (
        "cassette.jsonl", b'{"fingerprint":"a","output":{"status":5,"summary_size":true}}\n',
        None, ["run", FIG4, "--inputs", INPUTS, "--sut", "replay:{path}"],
        "line 1 output field 'status' must be a string, not 5"),
    "input-action-kind-not-string": (
        "input.json", b'[{"kind": ["search"]}]', None, ["run", FIG4, "--inputs", "{path}"],
        "action at position 0 field 'kind' must be a string, not [\"search\"]"),
    "input-action-parameters-not-object": (
        "input.json", b'[{"kind": "search", "parameters": [["query", "chair"]]}]', None,
        ["run", FIG4, "--inputs", "{path}"],
        "action at position 0 field 'parameters' must be a JSON object, not [[\"query\", \"chair\"]]"),
    # A missing field is refused as null is.
    "fewshot-example-without-emr": (
        "fewshot.json", b'[{"mr": "m"}]', "fewshot", ["generate", "{empty}"],
        "few-shot example 1 field 'emr' must be a string, not null"),
    "input-action-without-kind": (
        "input.json", b'[{"parameters": {}}]', None, ["run", FIG4, "--inputs", "{path}"],
        "action at position 0 field 'kind' must be a string, not null"),
    "cassette-output-without-status": (
        "cassette.jsonl", b'{"fingerprint":"a","output":{"payload":null}}\n',
        None, ["run", FIG4, "--inputs", INPUTS, "--sut", "replay:{path}"],
        "line 1 output field 'status' must be a string, not null"),
    "survey-header-without-respondent": (
        "survey.csv", b"subject,statement,rating\nmr01,S1,agree\n", None, ["survey", "{path}"],
        "line 2 field 'respondent' must be a string, not null"),
}


def test_malformed_mr_catalog_exits_before_any_turn(tmp_path, capsys):
    mrs = tmp_path / "mrs.json"
    mrs.write_text('[{"id": "m1", "text": 5}]')
    assert run("--mock", "--out", tmp_path / "out", "generate", mrs) == 2
    assert "MR field 'text' must be a string, not 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_input_file_exits_two_naming_it_once(tmp_path, capsys, case):
    relpath, content, config_key, command, reason = MALFORMED_INPUTS[case]
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(content)
    named = tmp_path / Path(relpath).parts[0]  # the file, or the templates directory
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    argv = ["--mock", "--out", tmp_path / "out"]
    if config_key:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({config_key: str(named)}))
        argv += ["--config", config]
    argv += [a.replace("{path}", str(named)).replace("{empty}", str(empty)) for a in command]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.count(str(named)) == 1 and "Traceback" not in err
    assert reason and reason in err


def test_verbose_reports_each_file_written_in_order(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("--mock", "--verbose", "--out", out, "pipeline", DOC) == 0
    (mr_id,) = [mr["id"] for mr in json.loads((out / "mrs.json").read_text())]
    suffixes = (".smrl", ".stubs.json", ".repairs.json", ".explanations.json")
    written = [out / "mrs.json", *(out / "emrs" / f"{mr_id}{suffix}" for suffix in suffixes)]
    assert capsys.readouterr().err == "".join(f"wrote {path}\n" for path in written)
    assert run("--verbose", "--out", out, "run", out / "emrs", "--inputs", INPUTS, "--sut", "mock") == 0
    assert capsys.readouterr().err == f"wrote {out / 'report.json'}\nwrote {out / 'report.txt'}\n"


def test_without_verbose_nothing_reports_a_write(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("--mock", "--out", out, "pipeline", DOC) == 0
    assert run("--out", out, "run", out / "emrs", "--inputs", INPUTS, "--sut", "mock") == 0
    assert capsys.readouterr().err == ""


def test_the_parser_is_built_once_and_survives_a_usage_error(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as usage:
        run("--out", tmp_path / "out", "frobnicate")
    assert usage.value.code == 2
    assert run("--out", tmp_path / "out", "check", FIG4) == 0
    with pytest.raises(SystemExit) as usage:
        run("--out", tmp_path / "out", "run", FIG4)  # --inputs is required
    assert usage.value.code == 2
    assert run("--out", tmp_path / "out", "survey", SURVEY) == 0
    assert run("show-config") == 0
