"""Errors raised by the EMR DSL front end."""

from __future__ import annotations


class DslError(ValueError):
    """Base class for lexer/parser errors, carrying a source location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class IllegalCharacter(DslError):
    def __init__(self, char: str, line: int, column: int):
        super().__init__(f"illegal character {char!r}", line, column)
        self.char = char


class ParseError(DslError):
    """First grammar violation; optionally names a repair rule that may fix it."""

    def __init__(
        self,
        message: str,
        line: int,
        column: int,
        expected: frozenset[str] = frozenset(),
        repair_hint: str | None = None,
    ):
        if repair_hint:
            message = f"{message} (a '{repair_hint}' repair may fix this; run repair first)"
        super().__init__(message, line, column)
        self.expected = expected
        self.repair_hint = repair_hint
