"""Source-level auto-repair for recurring generation defects.

The rule table currently holds one rule, WLC-AMP: a defect pattern where
the two sides of an IMPLIES are joined with a single ``&`` instead of the
separating comma. The repair splits exactly that case; sources it cannot
fix pass through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .._record import Record
from .errors import DslError
from .tokens import line_starts, position, scan

WLC_AMP = "WLC-AMP"


@dataclass(eq=False, repr=False)
class RepairEntry(Record):
    """One fix of ``repair``: the line, the rule applied, and the text before and after."""

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


@dataclass(eq=False, repr=False)
class RepairLog(Record):
    """The fixes of one repair in the order they were made; false when there are none."""

    entries: list[RepairEntry] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.entries)


# The lexemes that open, split and close a call's arguments.
_ARGUMENT_PUNCTUATION = frozenset({"(", ",", "&", ")"})


def _implies_single_arg_amps(lexemes: list[str], starts: list[int]) -> list[int]:
    """Offsets, in source order, of the '&' lexemes joining the two halves
    of one-argument IMPLIES calls (an IMPLIES left open at the end of the
    source counts as closed there).

    One pass with a stack of the open parentheses: the frame of an IMPLIES
    call lists the indices of the ',' and '&' lexemes directly inside it;
    any other parenthesis has the frame None."""
    frames: list[list[int] | None] = []
    closed: list[list[int] | None] = []
    for i, lexeme in enumerate(lexemes):
        if lexeme not in _ARGUMENT_PUNCTUATION:
            continue
        if lexeme == "(":
            frames.append([] if lexemes[i - 1] == "IMPLIES" else None)
        elif lexeme == ")":
            if frames:
                closed.append(frames.pop())
        elif frames and frames[-1] is not None:
            frames[-1].append(i)
    closed += frames
    return sorted(
        starts[frame[0]] for frame in closed
        if frame is not None and len(frame) == 1 and lexemes[frame[0]] == "&"
    )


def repair(source: str) -> tuple[str, RepairLog]:
    """Apply the repair rule table to ``source``.

    Returns the (possibly unchanged) source and a log with one entry per
    applied fix, in line order (fixes on one line from right to left).
    Idempotent; sources that don't lex are returned as-is.
    """
    # Every fix rewrites a '&' lexeme. A source whose runs of '&' all have
    # even length holds none (such a run lexes as '&&' pairs, or lies in a
    # string or comment), so it needs no scan.
    if "&" not in source.replace("&&", ""):
        return source, RepairLog()
    return _repair_scanned(source)


def _repair_scanned(source: str) -> tuple[str, RepairLog]:
    """``repair`` on a source that may hold a lone '&': scan it for the
    '&' lexemes to rewrite."""
    log = RepairLog()
    try:
        lexemes, starts = scan(source)
    except DslError:
        return source, log
    fixes = _implies_single_arg_amps(lexemes, starts)
    lines = line_starts(source)
    # Each '&' becomes a comma and takes the spaces before it on its line
    # along; those cannot reach back past the '&' of the fix before.
    pieces = []
    done = 0
    for at in fixes:
        kept = source[done:at].rstrip(" \t\r")
        pieces += [kept, ","]
        log.entries.append(RepairEntry(position(lines, at)[0], WLC_AMP, source[done + len(kept) : at + 1], ","))
        done = at + 1
    pieces.append(source[done:])
    log.entries.reverse()
    log.entries.sort(key=lambda e: e.line)
    return "".join(pieces), log
