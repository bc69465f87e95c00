"""Annotation taxonomy, label distributions, survey aggregation, size stats.

Thirteen labels grade EMR statements. Three mark a statement correct: C
(implements its MR part exactly), CLC (correct use of a language
construct), AI (a valid alternative implementation). The other ten mark
defects. CLC and WLC apply to Simple statements, every other label to
Complex ones. Statements may carry several labels, so label totals can
exceed statement totals; a multi-labeled statement counts as correct only
when every one of its labels is a correct-class label.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from decimal import ROUND_FLOOR, ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Any, Iterable, Mapping

from .dsl.ast import EmrAst
from .dsl.classify import StatementClass, statement_classes_by_line
from .dsl.printer import canonical_units

# Column order of the distribution table.
LABELS = ("C", "CLC", "AI", "WS", "WI", "IE", "INE", "ITE", "ES", "ENO", "WAU", "WLC", "MISS")
CORRECT_LABELS = frozenset({"C", "CLC", "AI"})
SIMPLE_LABELS = frozenset({"CLC", "WLC"})

LABEL_DESCRIPTIONS = {
    "CLC": "correct use of a language construct",
    "C": "correct statement",
    "AI": "valid alternative implementation",
    "WLC": "misused language construct",
    "WS": "wrong statement",
    "WI": "does not implement its own explanation",
    "IE": "invented function although an adequate API exists",
    "INE": "invented function because no adequate API exists",
    "ITE": "invented function that swallows too much logic",
    "ES": "existing API called with swapped parameters",
    "ENO": "existing API called in a non-object-oriented way",
    "WAU": "misused a valid API",
    "MISS": "missing instruction for the explained behavior",
}


class AnnotationError(Exception):
    pass


class UnknownLabel(AnnotationError):
    def __init__(self, label: str):
        super().__init__(f"unknown annotation label '{label}' (known: {', '.join(LABELS)})")


class ApplicabilityViolation(AnnotationError):
    def __init__(self, label: str, cls: StatementClass, emr_id: str, line: int):
        applies = "Simple" if label in SIMPLE_LABELS else "Complex"
        super().__init__(
            f"label {label} applies to {applies} statements, but {emr_id} line {line} is {cls.value}"
        )


class LineNotInEmr(AnnotationError):
    def __init__(self, emr_id: str, line: int):
        super().__init__(f"line {line} is not a statement line of EMR '{emr_id}'")


class DuplicateAnnotation(AnnotationError):
    def __init__(self, emr_id: str, line: int):
        super().__init__(f"duplicate annotation for {emr_id} line {line}")


@dataclass
class StatementAnnotation:
    emr_id: str
    line: int  # canonical pretty-printed line number
    labels: list[str]
    note: str | None = None

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"emr": self.emr_id, "line": self.line, "labels": self.labels}
        if self.note:
            out["note"] = self.note
        return out

    @property
    def is_correct(self) -> bool:
        return all(label in CORRECT_LABELS for label in self.labels)


def check_annotation(
    annotation: StatementAnnotation, classes: Mapping[str, Mapping[int, StatementClass]] | None = None
) -> None:
    """Check the labels and, when ``classes`` maps each EMR id to its
    ``statement_classes_by_line``, line existence and applicability."""
    if not annotation.labels:
        raise AnnotationError(f"{annotation.emr_id} line {annotation.line}: empty label set")
    for label in annotation.labels:
        if label not in LABELS:
            raise UnknownLabel(label)
    if classes is None:
        return
    cls = classes.get(annotation.emr_id, {}).get(annotation.line)
    if cls is None:
        raise LineNotInEmr(annotation.emr_id, annotation.line)
    for label in annotation.labels:
        expected = StatementClass.SIMPLE if label in SIMPLE_LABELS else StatementClass.COMPLEX
        if cls is not expected:
            raise ApplicabilityViolation(label, cls, annotation.emr_id, annotation.line)


def load_annotations(
    path: str | Path, emrs: Mapping[str, EmrAst] | None = None
) -> list[StatementAnnotation]:
    """Load line-oriented JSON annotations, validating labels (and, when the
    EMRs are supplied, line existence and Simple/Complex applicability)."""
    classes = None if emrs is None else {i: statement_classes_by_line(ast) for i, ast in emrs.items()}
    annotations: list[StatementAnnotation] = []
    seen: set[tuple[str, int]] = set()
    for raw_line in Path(path).read_text(encoding="utf-8").splitlines():
        if not raw_line.strip():
            continue
        data = json.loads(raw_line)
        annotation = StatementAnnotation(
            emr_id=data["emr"],
            line=int(data["line"]),
            labels=data["labels"],
            note=data.get("note"),
        )
        if not isinstance(annotation.labels, list) or not all(isinstance(x, str) for x in annotation.labels):
            raise AnnotationError(f"{annotation.emr_id} line {annotation.line}: labels must be a list of strings")
        key = (annotation.emr_id, annotation.line)
        if key in seen:
            raise DuplicateAnnotation(*key)
        seen.add(key)
        check_annotation(annotation, classes)
        annotations.append(annotation)
    return annotations


def save_annotations(annotations: Iterable[StatementAnnotation], path: str | Path) -> None:
    lines = [json.dumps(a.to_json(), sort_keys=True, ensure_ascii=False) for a in annotations]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _percent_half_up(count: int, denominator: int) -> float:
    value = Decimal(count * 100) / Decimal(denominator)
    return float(value.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def _percent_floor(count: int, denominator: int) -> float:
    value = Decimal(count * 100) / Decimal(denominator)
    return float(value.quantize(Decimal("0.1"), rounding=ROUND_FLOOR))


@dataclass
class DistributionReport:
    statement_count: int
    label_counts: dict[str, int]
    label_percentages: dict[str, float]  # of statement_count, one decimal
    label_count: int
    correct_statement_count: int
    correct_rate_percent: float  # one decimal, floored (never rounds a rate up)

    def to_json(self) -> dict[str, Any]:
        return {
            "statement_count": self.statement_count,
            "label_count": self.label_count,
            "labels": {
                label: {"count": self.label_counts[label], "percent": self.label_percentages[label]}
                for label in LABELS
            },
            "correct_statement_count": self.correct_statement_count,
            "correct_rate_percent": self.correct_rate_percent,
        }

    def to_text(self) -> str:
        width = 7
        header = "".join(f"{label:>{width}}" for label in LABELS)
        counts = "".join(f"{self.label_counts[label]:>{width}}" for label in LABELS)
        percents = "".join(f"{self.label_percentages[label]:>{width}.1f}" for label in LABELS)
        summary = (
            f"statements: {self.statement_count}   labels: {self.label_count}   "
            f"correct: {self.correct_statement_count} ({self.correct_rate_percent:.1f}%)"
        )
        return "\n".join([header, counts, percents, summary])


def summarize_annotations(
    annotations: Iterable[StatementAnnotation], statement_count: int
) -> DistributionReport:
    annotations = list(annotations)
    if statement_count < len(annotations):
        raise ValueError(
            f"statement count {statement_count} is below the {len(annotations)} annotated statements"
        )
    counts = {label: 0 for label in LABELS}
    correct = 0
    for annotation in annotations:
        for label in annotation.labels:
            if label not in counts:
                raise UnknownLabel(label)
            counts[label] += 1
        if annotation.is_correct:
            correct += 1
    label_count = sum(counts.values())
    if statement_count == 0:
        percentages = {label: 0.0 for label in LABELS}
    else:
        percentages = {label: _percent_half_up(counts[label], statement_count) for label in LABELS}
    return DistributionReport(
        statement_count=statement_count,
        label_counts=counts,
        label_percentages=percentages,
        label_count=label_count,
        correct_statement_count=correct,
        correct_rate_percent=_percent_floor(correct, statement_count) if statement_count else 0.0,
    )


# --- survey -------------------------------------------------------------

RATINGS = ("strongly agree", "agree", "neutral", "disagree", "strongly disagree")
POSITIVE_RATINGS = frozenset({"strongly agree", "agree"})
SURVEY_STATEMENTS = ("S1", "S2", "S3", "S1E", "S2E", "S3E")


class SurveyError(Exception):
    pass


class DuplicateResponse(SurveyError):
    def __init__(self, respondent: str, subject: str, statement: str):
        super().__init__(f"duplicate response: {respondent} on {subject}/{statement}")


@dataclass
class LikertResponse:
    subject: str  # the MR or EMR being rated
    statement: str  # S1 | S2 | S3 | S1E | S2E | S3E
    respondent: str
    rating: str

    def __post_init__(self) -> None:
        if self.statement not in SURVEY_STATEMENTS:
            raise SurveyError(f"unknown survey statement '{self.statement}'")
        if self.rating not in RATINGS:
            raise SurveyError(f"unknown rating '{self.rating}' (known: {', '.join(RATINGS)})")


def load_survey(path: str | Path) -> list[LikertResponse]:
    """CSV with header subject,statement,respondent,rating."""
    responses: list[LikertResponse] = []
    seen: set[tuple[str, str, str]] = set()
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            response = LikertResponse(
                row["subject"].strip(), row["statement"].strip(), row["respondent"].strip(), row["rating"].strip()
            )
            key = (response.respondent, response.subject, response.statement)
            if key in seen:
                raise DuplicateResponse(*key)
            seen.add(key)
            responses.append(response)
    return responses


@dataclass
class SurveyReport:
    # statement -> rating -> count; statements with no responses are absent.
    counts: dict[str, dict[str, int]] = field(default_factory=dict)

    def responses_for(self, statement: str) -> int:
        return sum(self.counts.get(statement, {}).values())

    def positive_count(self, statement: str) -> int:
        ratings = self.counts.get(statement, {})
        return sum(ratings.get(r, 0) for r in POSITIVE_RATINGS)

    def positive_rate_percent(self, statement: str) -> int | None:
        """Whole-percent positive share; None when nobody rated the statement."""
        total = self.responses_for(statement)
        if total == 0:
            return None
        value = Decimal(self.positive_count(statement) * 100) / Decimal(total)
        return int(value.quantize(Decimal("1"), rounding=ROUND_HALF_UP))

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for statement in SURVEY_STATEMENTS:
            if statement not in self.counts:
                continue
            out[statement] = {
                "counts": {rating: self.counts[statement].get(rating, 0) for rating in RATINGS},
                "responses": self.responses_for(statement),
                "positive": self.positive_count(statement),
                "positive_rate_percent": self.positive_rate_percent(statement),
            }
        return out

    def to_text(self) -> str:
        width = max(len(r) for r in RATINGS) + 2
        lines = ["".join([f"{'':<6}"] + [f"{r:>{width}}" for r in RATINGS] + [f"{'positive':>10}"])]
        for statement in SURVEY_STATEMENTS:
            if statement not in self.counts:
                continue
            row = [f"{statement:<6}"]
            row += [f"{self.counts[statement].get(r, 0):>{width}}" for r in RATINGS]
            row.append(f"{self.positive_rate_percent(statement):>9}%")
            lines.append("".join(row))
        return "\n".join(lines)


def summarize_survey(responses: Iterable[LikertResponse]) -> SurveyReport:
    report = SurveyReport()
    for response in responses:
        per_statement = report.counts.setdefault(response.statement, {})
        per_statement[response.rating] = per_statement.get(response.rating, 0) + 1
    return report


# --- size statistics ---------------------------------------------------------


@dataclass
class SizeStats:
    count: int
    min: int | None
    mean: float | None
    max: int | None
    total: int

    def to_json(self) -> dict[str, Any]:
        return {"emrs": self.count, "min": self.min, "mean": self.mean, "max": self.max, "total": self.total}


def emr_size_stats(emrs: Iterable[EmrAst]) -> SizeStats:
    """Statement counts over the canonical statement enumeration."""
    sizes = [len(canonical_units(ast)) for ast in emrs]
    if not sizes:
        return SizeStats(0, None, None, None, 0)
    return SizeStats(len(sizes), min(sizes), sum(sizes) / len(sizes), max(sizes), sum(sizes))
