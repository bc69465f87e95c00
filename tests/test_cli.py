import json
from pathlib import Path

import pytest

from emrkit.cli import main
from emrkit.resources import fixture_path

DOC = str(fixture_path("requirements_shop.md"))
FIG4 = str(fixture_path("search_filter.smrl"))
INPUTS = str(fixture_path("inputs"))
ANNOTATIONS = str(fixture_path("suite_annotations.jsonl"))
SURVEY = str(fixture_path("survey_responses.csv"))


def run(*argv) -> int:
    return main([str(a) for a in argv])


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_derive_writes_catalog_and_transcript(tmp_path, capsys):
    code = run("--mock", "--out", tmp_path / "out", "derive", DOC)
    assert code == 0
    mrs = json.loads((tmp_path / "out" / "mrs.json").read_text())
    assert len(mrs) == 1 and mrs[0]["requirement_ref"] == "R1"
    transcripts = list((tmp_path / "out" / "transcripts").glob("derive-*.json"))
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
    assert len(list((tmp_path / "out" / "transcripts").glob("derive-*.json"))) == 2
    assert len(json.loads((tmp_path / "out" / "mrs.json").read_text())) == 1


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


def test_pipeline_mock_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run("--mock", "--out", out1, "pipeline", DOC) == 0
    assert run("--mock", "--out", out2, "pipeline", DOC) == 0
    assert tree_bytes(out1) == tree_bytes(out2)


def test_run_correct_sut_exits_zero(tmp_path, capsys):
    code = run("--out", tmp_path / "out", "run", FIG4, "--inputs", INPUTS, "--sut", "mock")
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["per_emr"]["search_filter"] == {"Pass": 4, "Inapplicable": 1}
    assert (tmp_path / "out" / "report.txt").exists()


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


def test_check_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.smrl"
    bad.write_text("MR {{ IMPLIES(true); }}")
    assert run("check", bad) == 2
    assert "IMPLIES expects 2" in capsys.readouterr().out


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


def test_grade_matches_reference_table(tmp_path, capsys):
    code = run("--out", tmp_path / "out", "grade", ANNOTATIONS, "--statements", "136")
    assert code == 0
    out = capsys.readouterr().out
    assert "52" in out and "78.6%" in out
    data = json.loads((tmp_path / "out" / "grade.json").read_text())
    assert data["labels"]["CLC"]["count"] == 54


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
    ('{"max_mrs_per_document": 2.7}', "'max_mrs_per_document' in config"),
    ('{"templates_dir": 5}', "'templates_dir' in config"),
])
def test_bad_config_exits_two(tmp_path, capsys, document, named):
    config = tmp_path / "config.json"
    config.write_text(document)
    assert run("--config", config, "show-config") == 2
    err = capsys.readouterr().err
    assert named in err and str(config) in err


def test_config_values_keep_their_types(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mock": False, "templates_dir": None, "llm": {"temperature": 0}}))
    assert run("--config", config, "show-config") == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["mock"] is False and resolved["templates_dir"] is None
    assert repr(resolved["llm"]["temperature"]) == "0.0"


# Each case writes one malformed input file (``relpath`` under tmp_path) and
# runs a command that reads it, directly or through the --config key named.
# Every one of them used to end in a traceback or name the file twice.
MALFORMED_INPUTS = {
    "mr-catalog-entry-not-object": ("mrs.json", b"[5]", None, ["generate", "{path}"]),
    "fewshot-field-not-string": ("fewshot.json", b'[{"mr": 1}]', "fewshot", ["generate", "{empty}"]),
    "fewshot-not-list": ("fewshot.json", b'{"a": 1}', "fewshot", ["generate", "{empty}"]),
    "mock-script-not-object": ("scripts.json", b'["x"]', "mock_scripts", ["derive", DOC]),
    "annotation-not-object": ("ann.jsonl", b"[1,2]\n", None, ["grade", "{path}"]),
    "survey-row-short": ("survey.csv", b"subject,statement,respondent,rating\nmr01,S1\n", None, ["survey", "{path}"]),
    "cassette-entry-not-object": (
        "cassette.json", b"[1]", None, ["run", FIG4, "--inputs", INPUTS, "--sut", "replay:{path}"]),
    "template-not-utf8": ("templates/derive_phase1_context.txt", b"\xff\xfe", "templates_dir", ["derive", DOC]),
    "template-unfilled-placeholder": (
        "templates/derive_phase4_mrs.txt", b"List the MRs for {{nope}}.", "templates_dir", ["derive", DOC]),
    "document-not-utf8": ("bad.md", b"\xff\xfe", None, ["derive", "{path}"]),
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_file_exits_two_naming_it_once(tmp_path, capsys, case):
    relpath, content, config_key, command = case
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
