"""Lexer for the EMR DSL.

One compiled pattern, scanned with ``finditer``, matches the whitespace
before each token and then the token, named by the group that matched it.
``scan`` keeps only each lexeme and its start offset; a line and column are
worked out from a table of line starts where a position is needed. A
character that starts no token matches the last group and raises
``IllegalCharacter`` at its position. Comments come back on their own,
because trailing ``//`` comments carry the per-statement explanations.
``tokenize`` is the same scan as ``Token`` objects with kinds, positions and
the whitespace before each one, for tests and tools.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .errors import IllegalCharacter

KEYWORDS = frozenset({"MR", "for", "if", "continue", "var", "true", "false"})

# A string literal's characters: a backslash escapes the character after
# it, and no newline, escaped or not. What an unterminated literal holds
# before its line or the input ends is that, with perhaps one backslash.
_STRING_BODY = r'(?:[^"\\\n]|\\[^\n])*'
_STRING_START = re.compile(_STRING_BODY + r"\\?")

# Python's ``\w`` is exactly ``str.isalnum()`` or ``_``, and ``\d`` exactly
# ``str.isdecimal()``, the digits ``int()`` accepts. An identifier starts
# with an ``isalpha()`` character or ``_``: ASCII ones take group 2, any
# other word (group 8) is an identifier only if its first character is a
# letter, so a digit such as '²' cannot start a token. Group 1 is the
# whitespace before the token, and no alternative can start with
# whitespace, so each match begins where the last one ended.
_TOKEN = re.compile(
    r"([ \t\r\n]*)(?:"
    r"([A-Za-z_]\w*)"  # 2 identifier or keyword
    r"|(\{\{|\}\}|&&|\|\||[{}(),;:.!&=])"  # 3 punctuation, longest first
    r"|(//[^\n]*)"  # 4 comment
    r'|("' + _STRING_BODY + r'")'  # 5 string literal
    r"|(\d+)"  # 6 integer literal
    r"|(\Z)"  # 7 end of input
    r"|(\w+)"  # 8 a word that starts outside ASCII
    r"|([^ \t\r\n])"  # 9 illegal
    r")"
)


@dataclass
class Token:
    kind: str  # keyword | identifier | integer-literal | string-literal | punctuation | comment | eof
    lexeme: str
    line: int
    column: int
    # Whitespace between the previous token and this one; lets callers
    # reconstruct the original source byte-for-byte.
    leading_trivia: str = field(default="", compare=False)


def scan(source: str) -> tuple[list[str], list[int], list[tuple[int, str]]]:
    """Lex ``source`` once.

    Returns the lexemes other than comments with their start offsets, ending
    with the ``eof`` lexeme ``""`` at ``len(source)``, and the comments as
    (offset, lexeme) pairs. Raises IllegalCharacter for any character outside
    the grammar's alphabet.
    """
    lexemes: list[str] = []
    starts: list[int] = []
    comments: list[tuple[int, str]] = []
    for match in _TOKEN.finditer(source):
        group = match.lastindex
        if group == 4:
            comments.append((match.start(4), match.group(4)))
            continue
        if group > 6:
            if group == 7:
                break
            if group == 9 or not match.group(8)[0].isalpha():
                raise _illegal(source, match.start(group))
        lexemes.append(match.group(group))
        starts.append(match.start(group))
    lexemes.append("")
    starts.append(len(source))
    return lexemes, starts, comments


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
    lexemes, starts, comments = scan(source)
    lines = line_starts(source)
    tokens: list[Token] = []
    end = 0
    for start, lexeme in sorted([*zip(starts, lexemes), *comments]):
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
