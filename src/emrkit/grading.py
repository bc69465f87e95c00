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
from dataclasses import dataclass, field
from decimal import ROUND_FLOOR, ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ._record import Record
from .dsl.printer import Unit
from .jsonl import check, decode

# Column order of the distribution table.
LABELS = ("C", "CLC", "AI", "WS", "WI", "IE", "INE", "ITE", "ES", "ENO", "WAU", "WLC", "MISS")
CORRECT_LABELS = frozenset({"C", "CLC", "AI"})
SIMPLE_LABELS = frozenset({"CLC", "WLC"})


@dataclass(eq=False, repr=False)
class StatementAnnotation(Record):
    """The labels given to one canonical line of an EMR."""

    emr_id: str
    line: int  # canonical pretty-printed line number
    labels: list[str]
    note: str | None = None

    @property
    def is_correct(self) -> bool:
        return all(label in CORRECT_LABELS for label in self.labels)


def check_annotation(
    annotation: StatementAnnotation, complex_lines: Mapping[str, Mapping[int, bool]] | None = None
) -> None:
    """Check the labels and, when ``complex_lines`` maps each EMR id to
    ``{unit.line: unit.is_complex}`` over its canonical units, line
    existence and applicability."""
    if not annotation.labels:
        raise ValueError(f"{annotation.emr_id} line {annotation.line}: empty label set")
    for label in annotation.labels:
        if label not in LABELS:
            raise ValueError(f"unknown annotation label '{label}' (known: {', '.join(LABELS)})")
    if complex_lines is None:
        return
    is_complex = complex_lines.get(annotation.emr_id, {}).get(annotation.line)
    if is_complex is None:
        raise ValueError(f"line {annotation.line} is not a statement line of EMR '{annotation.emr_id}'")
    for label in annotation.labels:
        if (label in SIMPLE_LABELS) == is_complex:
            wanted, actual = ("Simple", "Complex") if is_complex else ("Complex", "Simple")
            raise ValueError(
                f"label {label} applies to {wanted} statements, "
                f"but {annotation.emr_id} line {annotation.line} is {actual}"
            )


def load_annotations(
    path: str | Path, units: Mapping[str, Sequence[Unit]] | None = None
) -> list[StatementAnnotation]:
    """Load JSON Lines annotations, validating labels (and, when ``units``
    maps each EMR id to the EMR's ``canonical_units``, line existence and
    Simple/Complex applicability). Only "\n" ends a line: a note may hold U+2028."""
    complex_lines = None if units is None else {
        emr_id: {u.line: u.is_complex for u in emr_units} for emr_id, emr_units in units.items()
    }
    annotations: list[StatementAnnotation] = []
    seen: set[tuple[str, int]] = set()
    for number, raw_line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
        if not raw_line.strip():
            continue
        data = check(decode(raw_line, number), "a JSON object", f"line {number}")
        emr_id = check(data.get("emr"), "a string", "emr")
        line = check(data.get("line"), "an integer", f"{emr_id}: line")
        where = f"{emr_id} line {line}"
        annotation = StatementAnnotation(
            emr_id=emr_id,
            line=line,
            note=check(data.get("note"), "a string or null", f"{where}: note"),
            labels=check(data.get("labels"), "a list of strings", f"{where}: labels"),
        )
        key = (annotation.emr_id, annotation.line)
        if key in seen:
            raise ValueError(f"duplicate annotation for {key[0]} line {key[1]}")
        seen.add(key)
        check_annotation(annotation, complex_lines)
        annotations.append(annotation)
    return annotations


def _percent(count: int, denominator: int, quantum: str = "0.1", rounding: str = ROUND_HALF_UP) -> Decimal:
    """``count`` as a percentage of ``denominator``, rounded to ``quantum``."""
    return (Decimal(count * 100) / Decimal(denominator)).quantize(Decimal(quantum), rounding=rounding)


@dataclass(eq=False, repr=False)
class DistributionReport(Record):
    """How often each label was given over a set of annotated statements."""

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
        check_annotation(annotation)
        for label in annotation.labels:
            counts[label] += 1
        if annotation.is_correct:
            correct += 1
    label_count = sum(counts.values())
    if statement_count == 0:
        percentages = {label: 0.0 for label in LABELS}
    else:
        percentages = {label: float(_percent(counts[label], statement_count)) for label in LABELS}
    return DistributionReport(
        statement_count=statement_count,
        label_counts=counts,
        label_percentages=percentages,
        label_count=label_count,
        correct_statement_count=correct,
        correct_rate_percent=(float(_percent(correct, statement_count, rounding=ROUND_FLOOR))
                              if statement_count else 0.0),
    )


# --- survey -------------------------------------------------------------

RATINGS = ("strongly agree", "agree", "neutral", "disagree", "strongly disagree")
POSITIVE_RATINGS = frozenset({"strongly agree", "agree"})
SURVEY_STATEMENTS = ("S1", "S2", "S3", "S1E", "S2E", "S3E")


@dataclass(eq=False, repr=False)
class LikertResponse(Record):
    """One respondent's rating of one survey statement about an MR or EMR."""

    subject: str  # the MR or EMR being rated
    statement: str  # S1 | S2 | S3 | S1E | S2E | S3E
    respondent: str
    rating: str

    def __post_init__(self) -> None:
        if self.statement not in SURVEY_STATEMENTS:
            raise ValueError(f"unknown survey statement '{self.statement}'")
        if self.rating not in RATINGS:
            raise ValueError(f"unknown rating '{self.rating}' (known: {', '.join(RATINGS)})")


def _csv_rows(handle: Iterable[str]) -> Iterator[tuple[int, dict[str, str | None]]]:
    """``csv.DictReader`` rows and their last line numbers; a line the csv module
    cannot split (a field over its size limit, say) is a ValueError naming it."""
    reader = csv.DictReader(handle)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from exc


def load_survey(path: str | Path) -> list[LikertResponse]:
    """CSV with header subject,statement,respondent,rating, after any byte-order mark."""
    responses: list[LikertResponse] = []
    seen: set[tuple[str, str, str]] = set()
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for number, row in _csv_rows(handle):
            response = LikertResponse(*(check(row.get(key), "a string", f"line {number} field '{key}'").strip()
                                        for key in ("subject", "statement", "respondent", "rating")))
            key = (response.respondent, response.subject, response.statement)
            if key in seen:
                raise ValueError(f"duplicate response: {key[0]} on {key[1]}/{key[2]}")
            seen.add(key)
            responses.append(response)
    return responses


@dataclass(eq=False, repr=False)
class SurveyReport(Record):
    """The count of each rating per survey statement."""

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
        return int(_percent(self.positive_count(statement), total, "1"))

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


@dataclass(eq=False, repr=False)
class SizeStats(Record):
    """The count, minimum, mean, maximum and total of a list of sizes."""

    count: int
    min: int | None
    mean: float | None
    max: int | None
    total: int

    def to_json(self) -> dict[str, Any]:
        return {"emrs": self.count, "min": self.min, "mean": self.mean, "max": self.max, "total": self.total}


def emr_size_stats(units: Iterable[Sequence[Unit]]) -> SizeStats:
    """Statement counts: the number of each EMR's ``canonical_units``."""
    sizes = [len(emr_units) for emr_units in units]
    if not sizes:
        return SizeStats(0, None, None, None, 0)
    return SizeStats(len(sizes), min(sizes), sum(sizes) / len(sizes), max(sizes), sum(sizes))
