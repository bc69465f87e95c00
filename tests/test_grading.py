import json
import random
from collections import Counter

import pytest

from emrkit.dsl import canonical_units, parse_emr, statement_classes_by_line
from emrkit.grading import (
    AnnotationError,
    ApplicabilityViolation,
    CORRECT_LABELS,
    DuplicateAnnotation,
    DuplicateResponse,
    LABELS,
    LineNotInEmr,
    SIMPLE_LABELS,
    StatementAnnotation,
    UnknownLabel,
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
    return {"search_filter": statement_classes_by_line(filter_emr_ast)}


def test_ine_accepted_on_search_filter_guard_line(filter_classes):
    # The if/continue guard is a Complex statement on canonical line 3.
    annotation = StatementAnnotation("search_filter", 3, ["INE"])
    check_annotation(annotation, filter_classes)


def test_clc_on_complex_statement_is_applicability_violation(filter_classes):
    with pytest.raises(ApplicabilityViolation):
        check_annotation(StatementAnnotation("search_filter", 3, ["CLC"]), filter_classes)


def test_complex_label_on_simple_statement_rejected(filter_classes):
    # Canonical line 7 is the bare IMPLIES( opener, a Simple statement.
    with pytest.raises(ApplicabilityViolation):
        check_annotation(StatementAnnotation("search_filter", 7, ["C"]), filter_classes)


def test_unknown_label(filter_classes):
    with pytest.raises(UnknownLabel):
        check_annotation(StatementAnnotation("search_filter", 3, ["NOPE"]), filter_classes)


def test_line_not_in_emr(filter_classes):
    with pytest.raises(LineNotInEmr):
        check_annotation(StatementAnnotation("search_filter", 999, ["C"]), filter_classes)
    with pytest.raises(LineNotInEmr):
        # Line 13 exists in the canonical text but is a structural closer.
        check_annotation(StatementAnnotation("search_filter", 13, ["C"]), filter_classes)


def test_duplicate_annotation_rejected(tmp_path):
    path = tmp_path / "ann.jsonl"
    row = json.dumps({"emr": "x", "line": 3, "labels": ["C"]})
    path.write_text(row + "\n" + row + "\n")
    with pytest.raises(DuplicateAnnotation):
        load_annotations(path)


@pytest.mark.parametrize("labels", ["C", "CLC"])
def test_labels_given_as_a_string_rejected(tmp_path, labels):
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps({"emr": "x", "line": 3, "labels": labels}) + "\n")
    with pytest.raises(AnnotationError, match="labels must be a list of strings"):
        load_annotations(path)


def test_fixture_annotations_validate_against_the_suite(emr_suite):
    annotations = load_annotations(fixture_path("suite_annotations.jsonl"), emr_suite)
    assert len(annotations) == 136
    by_emr = Counter(a.emr_id for a in annotations)
    assert by_emr["emr03"] == 11  # the bundled search-filter EMR
    # Every statement of every suite EMR is annotated exactly once.
    for emr_id, ast in emr_suite.items():
        lines = {u.line for u in canonical_units(ast)}
        assert {a.line for a in annotations if a.emr_id == emr_id} == lines


def test_load_annotations_renders_each_emr_once(emr_suite, monkeypatch):
    import emrkit.dsl.classify as classify

    rendered = []
    original = classify.canonical_units

    def counting_units(ast):
        rendered.append(ast.id)
        return original(ast)

    monkeypatch.setattr(classify, "canonical_units", counting_units)
    annotations = load_annotations(fixture_path("suite_annotations.jsonl"), emr_suite)
    assert Counter(a.emr_id for a in annotations)["emr01"] > 1
    assert sorted(rendered) == sorted(emr_suite)


# --- distribution report ------------------------------------------------------


def test_reference_distribution_reproduced(emr_suite):
    annotations = load_annotations(fixture_path("suite_annotations.jsonl"), emr_suite)
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
    with pytest.raises(DuplicateResponse):
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
    stats = emr_size_stats([filter_emr_ast])
    assert stats.min == stats.max == 11
    assert stats.mean == 11.0


def test_suite_size_stats_reproduce_reference(emr_suite):
    stats = emr_size_stats(emr_suite.values())
    assert stats.count == 10
    assert stats.min == 10
    assert stats.mean == 13.6
    assert stats.max == 20
    assert stats.total == 136
