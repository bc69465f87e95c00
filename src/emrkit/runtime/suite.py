"""Whole-suite evaluation: every EMR against every source input."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from .._record import Record
from ..dsl.ast import EmrAst
from .errors import AdapterFailure, EvalError, RunAborted
from .evaluate import SessionFactory, compile_emr
from .values import ActionSequence, PositionOutOfRange, StubBindings, Verdict, VerdictValue

VERDICT_ORDER = [v.value for v in VerdictValue] + ["Error"]


@dataclass(eq=False, repr=False)
class SuiteEntry(Record):
    """The outcome of one EMR on one input: a verdict, or the error that stopped it."""

    emr_id: str
    input_index: int
    input_name: str
    verdict: Verdict | None
    error: str | None = None

    @property
    def outcome(self) -> str:
        # ``_value_`` is the attribute behind the enum's ``value`` property,
        # read directly because reports call this once per entry.
        return self.verdict.value._value_ if self.verdict else "Error"

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "emr": self.emr_id,
            "input_index": self.input_index,
            "input": self.input_name,
            "outcome": self.outcome,
        }
        if self.verdict is not None:
            out["failing_bindings"] = [b.to_json() for b in self.verdict.failing_bindings]
            out["stubs"] = self.verdict.stubs
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass(eq=False, repr=False)
class SuiteReport(Record):
    """The entries of one suite run, in the order the pairs ran."""

    entries: list[SuiteEntry] = field(default_factory=list)

    def tally(self) -> tuple[dict[str, dict[str, int]], list[str]]:
        """One pass over the entries: each EMR's outcome counts, in the order
        the EMRs first appear and without zero counts, and the unbound stubs
        the verdicts name, in the order they first appear. ``to_json`` and
        ``to_text`` take the counts, so that a caller tallies once."""
        per_emr: dict[str, dict[str, int]] = {}
        stubs: dict[str, None] = {}
        for entry in self.entries:
            counts = per_emr.get(entry.emr_id)
            if counts is None:
                counts = per_emr[entry.emr_id] = dict.fromkeys(VERDICT_ORDER, 0)
            counts[entry.outcome] += 1
            if entry.verdict is not None and entry.verdict.stubs:
                stubs.update(dict.fromkeys(entry.verdict.stubs))
        nonzero = {emr: {name: n for name, n in counts.items() if n} for emr, counts in per_emr.items()}
        return nonzero, list(stubs)

    def to_json(self, per_emr: dict[str, dict[str, int]]) -> dict[str, Any]:
        return {"per_emr": per_emr, "results": [e.to_json() for e in self.entries]}

    def to_text(self, per_emr: dict[str, dict[str, int]]) -> str:
        lines = []
        header = f"{'EMR':<24}" + "".join(f"{name:>14}" for name in VERDICT_ORDER)
        lines.append(header)
        lines.append("-" * len(header))
        for emr, counts in per_emr.items():
            row = f"{emr:<24}" + "".join(f"{counts.get(name, 0):>14}" for name in VERDICT_ORDER)
            lines.append(row)
        failing = [e for e in self.entries if e.outcome == "Fail"]
        if failing:
            lines.append("")
            lines.append("failing bindings:")
            for entry in failing:
                assert entry.verdict is not None
                for b in entry.verdict.failing_bindings:
                    bound = ", ".join(f"{k}={v}" for k, v in b.bindings.items()) or "<none>"
                    lines.append(
                        f"  {entry.emr_id} on {entry.input_name}: line {b.line} with {bound}"
                    )
        errors = [e for e in self.entries if e.verdict is None]
        if errors:
            lines.append("")
            lines.append("errors:")
            lines.extend(f"  {e.emr_id} on {e.input_name}: {e.error}" for e in errors)
        return "\n".join(lines)


def run_suite(
    emrs: Sequence[EmrAst],
    inputs: Sequence[ActionSequence],
    session_factory: SessionFactory,
    stubs: StubBindings | None = None,
    input_names: Sequence[str] | None = None,
) -> SuiteReport:
    """Evaluate every (EMR, input) pair sequentially and in order.

    Each EMR is validated and compiled once per call, not once per pair.
    Nothing a pair raises but ``RunAborted`` aborts the suite: it becomes
    that pair's Error entry, and an EMR that fails validation one per input.
    """
    names = list(input_names) if input_names else [f"input{i + 1}" for i in range(len(inputs))]
    report = SuiteReport()
    stubs = dict(stubs or {})
    for ast in emrs:
        try:
            program = compile_emr(ast, stubs)
        except Exception as exc:
            error = _error_message(exc)
            report.entries += [SuiteEntry(ast.id, i, names[i], None, error=error) for i in range(len(inputs))]
            continue
        for i, source in enumerate(inputs):
            try:
                entry = SuiteEntry(ast.id, i, names[i], program(source, session_factory))
            except RunAborted:
                raise
            except Exception as exc:
                entry = SuiteEntry(ast.id, i, names[i], None, error=_error_message(exc))
            report.entries.append(entry)
    return report


def _error_message(exc: Exception) -> str:
    """An Error entry's text: the message of emrkit's own errors; the class
    and the message of anything else (a stub that raised, say)."""
    if isinstance(exc, (EvalError, AdapterFailure, PositionOutOfRange)):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"
