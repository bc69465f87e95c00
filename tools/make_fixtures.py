#!/usr/bin/env python3
"""Regenerate the bundled annotation and survey fixtures.

The annotation fixture labels every statement of the bundled ten-EMR suite:
correct-by-default (C for Complex, CLC for Simple) with a fixed set of
defect labels placed at chosen statements, reproducing the reference label
distribution the grader tests assert. Run from the repository root after
changing the suite; the tests will catch any drift.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from emrkit.dsl import canonical_units, statement_classes_by_line
from emrkit.grading import StatementAnnotation, check_annotation, save_annotations
from emrkit.resources import fixture_path, load_emr_suite

# (emr id, ordinal among its Complex statements) -> labels
COMPLEX_SPECIALS: dict[tuple[str, int], list[str]] = {
    ("emr01", 4): ["IE"],
    ("emr01", 6): ["ITE"],
    ("emr02", 4): ["WS"],
    ("emr02", 6): ["ITE"],
    ("emr03", 2): ["INE"],
    ("emr03", 8): ["ITE"],
    ("emr04", 4): ["AI"],
    ("emr04", 5): ["ITE"],
    ("emr04", 6): ["MISS", "ENO"],
    ("emr05", 6): ["ES"],
    ("emr05", 7): ["ITE"],
    ("emr06", 6): ["ITE"],
    ("emr06", 7): ["MISS", "ENO"],
    ("emr07", 5): ["IE"],
    ("emr07", 8): ["ITE"],
    ("emr08", 5): ["MISS", "WS"],
    ("emr08", 7): ["WS"],
    ("emr09", 4): ["IE"],
    ("emr09", 7): ["ITE"],
    ("emr10", 10): ["ITE"],
}

# (emr id, ordinal among its Simple statements) -> WLC
SIMPLE_WLC: dict[str, set[int]] = {
    "emr01": {1},
    "emr02": {2},
    "emr04": {2},
    "emr05": {1, 3},
    "emr06": {3},
    "emr07": {1},
    "emr08": {4},
    "emr09": {3},
    "emr10": {5},
}


def make_annotations() -> None:
    suite = load_emr_suite()
    classes = {emr_id: statement_classes_by_line(ast) for emr_id, ast in suite.items()}
    annotations: list[StatementAnnotation] = []
    for emr_id, ast in suite.items():
        simple_ordinal = complex_ordinal = 0
        for unit in canonical_units(ast):
            if unit.is_complex:
                complex_ordinal += 1
                labels = COMPLEX_SPECIALS.get((emr_id, complex_ordinal), ["C"])
            else:
                simple_ordinal += 1
                labels = ["WLC"] if simple_ordinal in SIMPLE_WLC.get(emr_id, set()) else ["CLC"]
            annotation = StatementAnnotation(emr_id, unit.line, list(labels))
            check_annotation(annotation, classes)
            annotations.append(annotation)
    save_annotations(annotations, fixture_path("suite_annotations.jsonl"))
    print(f"wrote {len(annotations)} annotations")


# Likert counts per statement: (strongly agree, agree, neutral, disagree, strongly disagree)
SURVEY_COUNTS = {
    "S1": (3, 46, 12, 3, 0),
    "S2": (0, 41, 10, 12, 1),
    "S3": (0, 18, 19, 24, 3),
}
RATINGS = ("strongly agree", "agree", "neutral", "disagree", "strongly disagree")


def make_survey() -> None:
    rows: list[tuple[str, str, str, str]] = []
    for statement, counts in SURVEY_COUNTS.items():
        ratings: list[str] = []
        for rating, n in zip(RATINGS, counts):
            ratings.extend([rating] * n)
        assert len(ratings) == 64
        for i, rating in enumerate(ratings, start=1):
            respondent = "p1" if i <= 28 else ("p2" if i <= 46 else "p3")
            rows.append((f"mr{i:02d}", statement, respondent, rating))
    path = fixture_path("survey_responses.csv")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["subject", "statement", "respondent", "rating"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} survey rows")


if __name__ == "__main__":
    make_annotations()
    make_survey()
