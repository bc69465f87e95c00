"""Source-level auto-repair for recurring generation defects.

The rule table currently holds one rule, WLC-AMP: a defect pattern where
the two sides of an IMPLIES are joined with a single ``&`` instead of the
separating comma. The repair splits exactly that case; sources it cannot
fix pass through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DslError
from .tokens import line_starts, position, scan

WLC_AMP = "WLC-AMP"


@dataclass
class RepairEntry:
    line: int
    rule: str
    before: str
    after: str

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "line": self.line,
            "before": self.before,
            "after": self.after,
            "message": f"replaced {self.before!r} with {self.after!r}",
        }


@dataclass
class RepairLog:
    entries: list[RepairEntry] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.entries)


def _implies_single_arg_amps(lexemes: list[str], starts: list[int]) -> list[int]:
    """Offsets of the '&' lexemes joining the two halves of one-argument
    IMPLIES calls."""
    fixes: list[int] = []
    for i, lexeme in enumerate(lexemes):
        if lexeme != "IMPLIES" or lexemes[i + 1] != "(":
            continue
        depth = 0
        commas = 0
        amps: list[int] = []
        for j in range(i + 1, len(lexemes)):
            inner = lexemes[j]
            if inner == "(":
                depth += 1
            elif inner == ")":
                depth -= 1
                if depth == 0:
                    break
            elif depth == 1 and inner == ",":
                commas += 1
            elif depth == 1 and inner == "&":
                amps.append(starts[j])
        if commas == 0 and len(amps) == 1:
            fixes.append(amps[0])
    return fixes


def repair(source: str) -> tuple[str, RepairLog]:
    """Apply the repair rule table to ``source``.

    Returns the (possibly unchanged) source and a log with one entry per
    applied fix, in line order. Idempotent; sources that don't lex are
    returned as-is.
    """
    log = RepairLog()
    try:
        lexemes, starts, _ = scan(source)
    except DslError:
        return source, log
    fixes = _implies_single_arg_amps(lexemes, starts)
    if not fixes:
        return source, log

    lines = line_starts(source)
    # Right-to-left, so each cut leaves the offsets before it valid; the
    # spaces before an '&' on its line go with it.
    for at in sorted(fixes, reverse=True):
        prefix = source[:at].rstrip(" \t\r")
        log.entries.append(RepairEntry(position(lines, at)[0], WLC_AMP, source[len(prefix) : at + 1], ","))
        source = prefix + "," + source[at + 1 :]
    log.entries.sort(key=lambda e: e.line)
    return source, log
