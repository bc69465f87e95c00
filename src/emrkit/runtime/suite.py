"""Whole-suite evaluation: every EMR against every source input."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..dsl.ast import EmrAst
from .errors import AdapterFailure
from .evaluate import SessionFactory, compile_emr
from .values import ActionSequence, StubBindings, Verdict, VerdictValue

VERDICT_ORDER = [v.value for v in VerdictValue] + ["Error"]


@dataclass
class SuiteEntry:
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


@dataclass
class SuiteReport:
    entries: list[SuiteEntry] = field(default_factory=list)

    def tally(self) -> tuple[dict[str, dict[str, int]], list[str]]:
        """One pass over the entries: each EMR's outcome counts, in the order
        the EMRs first appear and without zero counts, and the unbound stubs
        the verdicts name, in the order they first appear."""
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

    def counts_for(self, emr_id: str) -> dict[str, int]:
        return self.tally()[0].get(emr_id, {})

    @property
    def emr_ids(self) -> list[str]:
        return list(self.tally()[0])

    @property
    def has_failures(self) -> bool:
        return any(e.outcome == "Fail" for e in self.entries)

    @property
    def has_errors(self) -> bool:
        return any(e.outcome == "Error" for e in self.entries)

    @property
    def not_executable_stubs(self) -> list[str]:
        return self.tally()[1]

    def to_json(self) -> dict[str, Any]:
        return {
            "per_emr": self.tally()[0],
            "results": [e.to_json() for e in self.entries],
        }

    def to_text(self) -> str:
        lines = []
        header = f"{'EMR':<24}" + "".join(f"{name:>14}" for name in VERDICT_ORDER)
        lines.append(header)
        lines.append("-" * len(header))
        for emr, counts in self.tally()[0].items():
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
    Adapter failures are recorded per pair and never abort the suite.
    """
    names = list(input_names) if input_names else [f"input{i + 1}" for i in range(len(inputs))]
    report = SuiteReport()
    if not inputs:
        return report
    stubs = dict(stubs or {})
    for ast in emrs:
        program = compile_emr(ast, stubs)
        for i, source in enumerate(inputs):
            try:
                verdict = program(source, session_factory)
                report.entries.append(SuiteEntry(ast.id, i, names[i], verdict))
            except AdapterFailure as exc:
                report.entries.append(SuiteEntry(ast.id, i, names[i], None, error=str(exc)))
    return report
