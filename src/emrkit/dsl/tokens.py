"""Lexer for the EMR DSL.

One compiled pattern, scanned with ``finditer``, matches the whitespace and
comments before each token and then the token, in group 1, or a character
that starts no token, in group 2. ``scan`` keeps only each lexeme and its
start offset; a line and column are worked out from a table of line starts
where a position is needed. An illegal character raises
``IllegalCharacter`` at its position. ``comments`` finds the trailing ``//``
comments, which carry the per-statement explanations, in a source that
scans. ``tokenize`` is the same scan as ``Token`` objects with kinds,
positions and the whitespace before each one, for tests and tools.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .._record import Record
from .errors import IllegalCharacter

KEYWORDS = frozenset({"MR", "for", "if", "continue", "var", "true", "false"})

# A string literal's characters: a backslash escapes the character after
# it, and no newline, escaped or not. What an unterminated literal holds
# before its line or the input ends is that, with perhaps one backslash.
_STRING_BODY = r'(?:[^"\\\n]++|\\[^\n])*+'
_STRING_START = re.compile(_STRING_BODY + r"\\?")

# Python's ``\w`` is exactly ``str.isalnum()`` or ``_``, and ``\d`` exactly
# ``str.isdecimal()``, the digits ``int()`` accepts. An identifier starts
# with an ``isalpha()`` character or ``_``: ASCII ones match in group 1, any
# other word (group 2) is an identifier only if its first character is a
# letter, so a digit such as '²' cannot start a token. Group 2 takes any
# character the others do not, so each match begins where the last one
# ended; a source ending in whitespace or a comment gives one more, empty
# match after the end-of-input one. No part of a match ever has to give
# characters back for the rest to match, so every repeat is possessive
# (``*+``), which spares the regex engine its backtracking state.
_TOKEN = re.compile(
    r"[ \t\r\n]*+(?://[^\n]*+[ \t\r\n]*+)*+(?:("
    r"[A-Za-z_]\w*+"  # identifier or keyword
    r"|\{\{|\}\}|&&|\|\||[{}(),;:.!&=]"  # punctuation, longest first
    r'|"' + _STRING_BODY + r'"|\d++'  # string and integer literals
    r"|\Z"  # end of input
    r")|(\w++|[^ \t\r\n]))"  # a word that starts outside ASCII, or illegal
)


@dataclass(eq=False, repr=False)
class Token(Record):
    """One lexeme with its kind, line and column, and the whitespace before it."""

    kind: str  # keyword | identifier | integer-literal | string-literal | punctuation | comment | eof
    lexeme: str
    line: int
    column: int
    # Whitespace between the previous token and this one; lets callers
    # reconstruct the original source byte-for-byte.
    leading_trivia: str = field(default="", compare=False)


def scan(source: str) -> tuple[list[str], list[int]]:
    """Lex ``source`` once.

    Returns the lexemes other than comments with their start offsets, ending
    with the ``eof`` lexeme ``""`` at ``len(source)``. Raises IllegalCharacter
    for any character outside the grammar's alphabet.
    """
    matches = list(_TOKEN.finditer(source))
    if len(matches) > 1 and matches[-2][1] == "":
        matches.pop()
    lexemes = [match[1] for match in matches]
    starts = [match.start(1) for match in matches]
    if -1 in starts:  # a match of group 2
        for i, start in enumerate(starts):
            if start < 0:
                match = matches[i]
                if not match[2][0].isalpha():
                    raise _illegal(source, match.start(2))
                lexemes[i], starts[i] = match[2], match.start(2)
    return lexemes, starts


def comments(source: str, lexemes: list[str], starts: list[int]) -> list[tuple[int, str]]:
    """The (offset, lexeme) of each comment of ``source``, given its scan: a
    ``//`` runs to the end of its line unless the lexeme that starts at or
    before it holds it, as only a string literal can."""
    found = []
    at = source.find("//")
    while at >= 0:
        i = bisect_right(starts, at) - 1
        if i >= 0 and at < starts[i] + len(lexemes[i]):
            at = source.find("//", starts[i] + len(lexemes[i]))
            continue
        end = source.find("\n", at)
        if end < 0:
            end = len(source)
        found.append((at, source[at:end]))
        at = source.find("//", end)
    return found


def line_starts(source: str) -> list[int]:
    """The offset at which each line of ``source`` starts."""
    return [0, *accumulate(len(line) + 1 for line in source.split("\n")[:-1])]


def position(lines: list[int], offset: int) -> tuple[int, int]:
    """1-based (line, column) of ``offset``, given the source's ``line_starts``."""
    line = bisect_right(lines, offset)
    return line, offset - lines[line - 1] + 1


def kind_of(lexeme: str) -> str:
    """The kind of a lexeme ``scan`` returned, told by its first character
    (keywords apart from identifiers by name)."""
    head = lexeme[:1]
    if head.isalpha() or head == "_":
        return "keyword" if lexeme in KEYWORDS else "identifier"
    if head == '"':
        return "string-literal"
    if head.isdecimal():
        return "integer-literal"
    if lexeme.startswith("//"):
        return "comment"
    return "punctuation" if lexeme else "eof"


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into tokens, comments included, ending with a single
    ``eof`` token: a view of ``scan`` for callers that want kinds, lines and
    trivia.

    Raises IllegalCharacter for any character outside the grammar's alphabet.
    """
    lexemes, starts = scan(source)
    lines = line_starts(source)
    tokens: list[Token] = []
    end = 0
    for start, lexeme in sorted([*zip(starts, lexemes), *comments(source, lexemes, starts)]):
        tokens.append(Token(kind_of(lexeme), lexeme, *position(lines, start), source[end:start]))
        end = start + len(lexeme)
    return tokens


def _illegal(source: str, i: int) -> IllegalCharacter:
    """The error for ``source[i]``, which starts no token."""
    char = source[i]
    if char == '"':
        j = _STRING_START.match(source, i + 1).end()
        if source.startswith("\n", j):
            i, char = j, "\n"
    return IllegalCharacter(char, *position(line_starts(source), i))


def reconstruct(tokens: list[Token]) -> str:
    """Inverse of tokenize: concatenated trivia + lexemes give back the source."""
    return "".join(t.leading_trivia + t.lexeme for t in tokens)


def string_value(lexeme: str) -> str:
    """Decode a string-literal lexeme (strip quotes, resolve \\" and \\\\)."""
    body = lexeme[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def string_lexeme(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
