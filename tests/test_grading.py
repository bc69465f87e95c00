import importlib.util
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from emrkit import jsonl
from emrkit.dsl import canonical_units, parse_emr
from emrkit.grading import (
    CORRECT_LABELS,
    LABELS,
    SIMPLE_LABELS,
    StatementAnnotation,
    check_annotation,
    emr_size_stats,
    load_annotations,
    load_survey,
    summarize_annotations,
    summarize_survey,
)
from emrkit.resources import fixture_path

TABLE_COUNTS = {
    "C": 52, "CLC": 54, "AI": 1, "WS": 3, "WI": 0, "IE": 3, "INE": 1,
    "ITE": 9, "ES": 1, "ENO": 2, "WAU": 0, "WLC": 10, "MISS": 3,
}


def test_label_partition_correct_vs_incorrect():
    assert CORRECT_LABELS == {"C", "CLC", "AI"}
    assert len(LABELS) == 13
    incorrect = set(LABELS) - CORRECT_LABELS
    assert len(incorrect) == 10


def test_simple_labels_are_clc_and_wlc():
    assert SIMPLE_LABELS == {"CLC", "WLC"}


# --- loading and validation ------------------------------------------------


def test_empty_file_is_empty_list(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text("")
    assert load_annotations(path) == []


@pytest.fixture
def filter_classes(filter_emr_ast):
    return {"search_filter": {u.line: u.is_complex for u in canonical_units(filter_emr_ast)}}


def test_ine_accepted_on_search_filter_guard_line(filter_classes):
    # The if/continue guard is a Complex statement on canonical line 3.
    annotation = StatementAnnotation("search_filter", 3, ["INE"])
    check_annotation(annotation, filter_classes)


def test_clc_on_complex_statement_is_applicability_violation(filter_classes):
    message = "label CLC applies to Simple statements, but search_filter line 3 is Complex"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_annotation(StatementAnnotation("search_filter", 3, ["CLC"]), filter_classes)


def test_complex_label_on_simple_statement_rejected(filter_classes):
    # Canonical line 7 is the bare IMPLIES( opener, a Simple statement.
    message = "label C applies to Complex statements, but search_filter line 7 is Simple"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_annotation(StatementAnnotation("search_filter", 7, ["C"]), filter_classes)


def test_unknown_label(filter_classes):
    message = "unknown annotation label 'NOPE' (known: C, CLC, AI, WS, WI, IE, INE, ITE, ES, ENO, WAU, WLC, MISS)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_annotation(StatementAnnotation("search_filter", 3, ["NOPE"]), filter_classes)


def test_line_not_in_emr(filter_classes):
    with pytest.raises(ValueError, match="^line 999 is not a statement line of EMR 'search_filter'$"):
        check_annotation(StatementAnnotation("search_filter", 999, ["C"]), filter_classes)
    with pytest.raises(ValueError, match="^line 13 is not a statement line of EMR 'search_filter'$"):
        # Line 13 exists in the canonical text but is a structural closer.
        check_annotation(StatementAnnotation("search_filter", 13, ["C"]), filter_classes)


def test_empty_label_set_rejected_when_loading_and_summarizing(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps({"emr": "e", "line": 1, "labels": []}) + "\n")
    with pytest.raises(ValueError, match="^e line 1: empty label set$"):
        load_annotations(path)
    with pytest.raises(ValueError, match="^e line 1: empty label set$"):
        summarize_annotations([StatementAnnotation("e", 1, [])], 1)


def test_summarizing_an_unknown_label_gives_the_loading_message():
    message = "unknown annotation label 'NOPE' (known: C, CLC, AI, WS, WI, IE, INE, ITE, ES, ENO, WAU, WLC, MISS)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        summarize_annotations([StatementAnnotation("e", 1, ["C", "NOPE"])], 1)


def test_duplicate_annotation_rejected(tmp_path):
    path = tmp_path / "ann.jsonl"
    row = json.dumps({"emr": "x", "line": 3, "labels": ["C"]})
    path.write_text(row + "\n" + row + "\n")
    with pytest.raises(ValueError, match="^duplicate annotation for x line 3$"):
        load_annotations(path)


@pytest.mark.parametrize("labels", ["C", "CLC"])
def test_labels_given_as_a_string_rejected(tmp_path, labels):
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps({"emr": "x", "line": 3, "labels": labels}) + "\n")
    with pytest.raises(ValueError, match="labels must be a list of strings"):
        load_annotations(path)


@pytest.mark.parametrize("line", [3.7, True, "3", None])
def test_line_that_is_not_a_json_integer_rejected(tmp_path, line):
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps({"emr": "x", "line": line, "labels": ["C"]}) + "\n")
    with pytest.raises(ValueError, match="line must be an integer"):
        load_annotations(path)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"emr": 5}, "emr must be a string, not 5"),
        ({"emr": None}, "emr must be a string, not null"),
        ({"note": 7}, "note must be a string or null, not 7"),
        ({"note": ["n"]}, 'note must be a string or null, not ["n"]'),
    ],
    ids=["emr-int", "emr-null", "note-int", "note-list"],
)
def test_emr_and_note_of_the_wrong_type_rejected(tmp_path, fields, message):
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps({"emr": "x", "line": 3, "labels": ["C"], **fields}) + "\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        load_annotations(path)


def test_absent_or_null_note_accepted(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text('{"emr": "x", "line": 3, "labels": ["C"]}\n{"emr": "x", "line": 4, "labels": ["C"], "note": null}\n')
    assert [a.note for a in load_annotations(path)] == [None, None]


def test_annotations_round_trip_through_to_json_around_blank_lines(tmp_path):
    annotations = [StatementAnnotation("x", 3, ["C"], note="checked by hand"), StatementAnnotation("x", 4, ["AI", "ES"])]
    records = [{"emr": "x", "line": 3, "labels": ["C"], "note": "checked by hand"},
               {"emr": "x", "line": 4, "labels": ["AI", "ES"]}]
    path = tmp_path / "ann.jsonl"
    path.write_text("\n".join(["", json.dumps(records[0]), "   ", json.dumps(records[1]), ""]))
    assert load_annotations(path) == annotations


def test_a_note_holding_raw_line_breaks_of_splitlines_loads(tmp_path):
    note = "a\u2028b\u2029c\x85d\x1ce"  # JSON allows each raw inside a string
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps({"emr": "x", "line": 3, "labels": ["C"], "note": note}, ensure_ascii=False) + "\n",
                    encoding="utf-8")
    assert [a.note for a in load_annotations(path)] == [note]


def test_a_line_that_does_not_decode_is_named_by_its_line_in_the_file(tmp_path):
    lines = [json.dumps({"emr": "x", "line": n, "labels": ["C"]}) for n in (3, 4, 5)]
    path = tmp_path / "ann.jsonl"
    path.write_text("\n".join([*lines, '{"emr": "x", "line": 6, "labels": ["C"]', ""]), encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_annotations(path)
    assert str(excinfo.value).startswith("line 4 is not valid JSON: ")
    with pytest.raises(ValueError) as as_json_lines:
        jsonl.read(path)
    assert str(excinfo.value) == str(as_json_lines.value)


def test_a_last_line_without_newline_that_does_not_decode_is_refused(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps({"emr": "x", "line": 3, "labels": ["C"]}) + '\n{"emr": "x", "line"', encoding="utf-8")
    with pytest.raises(ValueError, match="^line 2 is not valid JSON: "):
        load_annotations(path)


def test_fixture_annotations_validate_against_the_suite(suite_units):
    annotations = load_annotations(fixture_path("suite_annotations.jsonl"), suite_units)
    assert len(annotations) == 136
    by_emr = Counter(a.emr_id for a in annotations)
    assert by_emr["emr03"] == 11  # the bundled search-filter EMR
    # Every statement of every suite EMR is annotated exactly once.
    for emr_id, units in suite_units.items():
        assert {a.line for a in annotations if a.emr_id == emr_id} == {u.line for u in units}


def test_make_fixtures_reproduces_the_bundled_annotations_and_survey(tmp_path, monkeypatch, capsys):
    script = Path(__file__).parent.parent / "tools" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "fixture_path", lambda name: tmp_path / name)
    tool.make_annotations()
    tool.make_survey()
    for name in ("suite_annotations.jsonl", "survey_responses.csv"):
        assert (tmp_path / name).read_bytes() == fixture_path(name).read_bytes(), name
    assert capsys.readouterr().out == "wrote 136 annotations\nwrote 192 survey rows\n"


# --- distribution report ------------------------------------------------------


def test_reference_distribution_reproduced(suite_units):
    annotations = load_annotations(fixture_path("suite_annotations.jsonl"), suite_units)
    report = summarize_annotations(annotations, 136)
    assert report.label_counts == TABLE_COUNTS
    assert report.label_count == 139
    assert report.correct_statement_count == 107
    assert report.correct_rate_percent == 78.6
    assert report.label_percentages["C"] == 38.2
    assert report.label_percentages["CLC"] == 39.7
    assert report.label_percentages["WLC"] == 7.4
    assert report.label_percentages["ITE"] == 6.6
    # True count/statement percentages at one decimal, nothing special-cased.
    assert report.label_percentages["INE"] == 0.7
    assert report.label_percentages["IE"] == 2.2


def test_single_correct_statement_is_hundred_percent():
    report = summarize_annotations([StatementAnnotation("e", 2, ["C"])], 1)
    assert report.correct_statement_count == 1
    assert report.correct_rate_percent == 100.0


def test_multi_labeled_statement_with_incorrect_label_is_incorrect():
    report = summarize_annotations([StatementAnnotation("e", 2, ["MISS", "ENO"])], 1)
    assert report.correct_statement_count == 0
    assert report.label_count == 2


def test_statement_count_must_cover_annotations():
    with pytest.raises(ValueError):
        summarize_annotations([StatementAnnotation("e", i, ["C"]) for i in range(3)], 2)


def test_randomized_label_sets_match_naive_tally():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 40)
        annotations = []
        for i in range(n):
            labels = [rng.choice(LABELS)]
            if rng.random() < 0.2:
                labels.append(rng.choice(LABELS))
            annotations.append(StatementAnnotation("e", i + 1, labels))
        statement_count = n + rng.randint(0, 5)
        report = summarize_annotations(annotations, statement_count)

        naive = Counter()
        for a in annotations:
            naive.update(a.labels)
        assert report.label_counts == {label: naive.get(label, 0) for label in LABELS}
        assert report.label_count == sum(naive.values())
        naive_correct = sum(1 for a in annotations if set(a.labels) <= CORRECT_LABELS)
        assert report.correct_statement_count == naive_correct
        assert report.label_count >= len(annotations)
        for label in LABELS:
            raw = 100 * report.label_counts[label] / statement_count
            assert abs(report.label_percentages[label] - raw) <= 0.05 + 1e-9


def test_report_text_table_shape():
    report = summarize_annotations([StatementAnnotation("e", 1, ["C"])], 1)
    lines = report.to_text().split("\n")
    assert lines[0].split() == list(LABELS)
    assert "correct: 1 (100.0%)" in lines[-1]


# --- survey -------------------------------------------------------------------


def test_survey_fixture_reproduces_reference_rates():
    report = summarize_survey(load_survey(fixture_path("survey_responses.csv")))
    expected = {
        "S1": ([3, 46, 12, 3, 0], 49, 77),
        "S2": ([0, 41, 10, 12, 1], 41, 64),
        "S3": ([0, 18, 19, 24, 3], 18, 28),
    }
    for statement, (counts, positive, rate) in expected.items():
        ratings = ["strongly agree", "agree", "neutral", "disagree", "strongly disagree"]
        assert [report.counts[statement].get(r, 0) for r in ratings] == counts
        assert report.responses_for(statement) == 64
        assert report.positive_count(statement) == positive
        assert report.positive_rate_percent(statement) == rate


def test_counts_sum_to_responses():
    report = summarize_survey(load_survey(fixture_path("survey_responses.csv")))
    for statement, ratings in report.counts.items():
        assert sum(ratings.values()) == report.responses_for(statement)


def test_absent_statement_reports_none_not_zero():
    report = summarize_survey([])
    assert report.positive_rate_percent("S1") is None
    assert "S1" not in report.to_json()


def test_duplicate_response_rejected(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text(
        "subject,statement,respondent,rating\n"
        "mr01,S1,p1,agree\n"
        "mr01,S1,p1,neutral\n"
    )
    with pytest.raises(ValueError, match="^duplicate response: p1 on mr01/S1$"):
        load_survey(path)


def test_missing_responses_allowed(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text("subject,statement,respondent,rating\nmr01,S1,p1,agree\n")
    report = summarize_survey(load_survey(path))
    assert report.responses_for("S1") == 1
    assert report.responses_for("S2") == 0


# --- size statistics -------------------------------------------------------------


def test_empty_suite_has_absent_stats():
    stats = emr_size_stats([])
    assert (stats.min, stats.mean, stats.max, stats.total) == (None, None, None, 0)


def test_single_emr_min_equals_max(filter_emr_ast):
    stats = emr_size_stats([canonical_units(filter_emr_ast)])
    assert stats.min == stats.max == 11
    assert stats.mean == 11.0


def test_suite_size_stats_reproduce_reference(suite_units):
    stats = emr_size_stats(suite_units.values())
    assert stats.count == 10
    assert stats.min == 10
    assert stats.mean == 13.6
    assert stats.max == 20
    assert stats.total == 136
