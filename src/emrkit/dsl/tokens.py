"""Tokenizer for the EMR DSL.

One compiled pattern, scanned with ``finditer``, matches the whitespace
before each token and then the token, named by the group that matched it.
The whitespace becomes the token's ``leading_trivia``; its newlines advance
the line and set the column, so positions stay exact for diagnostics and the
repair pass. A character that starts no token matches the last group and
raises ``IllegalCharacter`` at its position. Comments are kept in the token
stream because trailing ``//`` comments carry the per-statement
explanations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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
_KINDS = (None, None, "identifier", "punctuation", "comment", "string-literal", "integer-literal", "eof")


@dataclass
class Token:
    kind: str  # keyword | identifier | integer-literal | string-literal | punctuation | comment | eof
    lexeme: str
    line: int
    column: int
    # Whitespace between the previous token and this one; lets callers
    # reconstruct the original source byte-for-byte.
    leading_trivia: str = field(default="", compare=False)

    def is_punct(self, lexeme: str) -> bool:
        return self.kind == "punctuation" and self.lexeme == lexeme


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into tokens, ending with a single ``eof`` token.

    Raises IllegalCharacter for any character outside the grammar's alphabet.
    """
    tokens: list[Token] = []
    line = 1
    col = 1
    for match in _TOKEN.finditer(source):
        group = match.lastindex
        trivia, lexeme = match.group(1, group)
        if trivia:
            newline = trivia.rfind("\n")
            if newline < 0:
                col += len(trivia)
            else:
                line += trivia.count("\n")
                col = len(trivia) - newline
        if group == 2:
            kind = "keyword" if lexeme in KEYWORDS else "identifier"
        elif group < 8:
            kind = _KINDS[group]
        elif group == 8 and lexeme[0].isalpha():
            kind = "identifier"
        else:
            raise _illegal(source, match.start(group), line, col)
        tokens.append(Token(kind, lexeme, line, col, trivia))
        if group == 7:
            break
        col += len(lexeme)
    return tokens


def _illegal(source: str, i: int, line: int, col: int) -> IllegalCharacter:
    """The error for ``source[i]``, at ``line``:``col``, which starts no token."""
    if source[i] == '"':
        j = _STRING_START.match(source, i + 1).end()
        if source.startswith("\n", j):
            return IllegalCharacter("\n", line, col + (j - i))
    return IllegalCharacter(source[i], line, col)


def reconstruct(tokens: list[Token]) -> str:
    """Inverse of tokenize: concatenated trivia + lexemes give back the source."""
    return "".join(t.leading_trivia + t.lexeme for t in tokens)


def string_value(lexeme: str) -> str:
    """Decode a string-literal lexeme (strip quotes, resolve \\" and \\\\)."""
    body = lexeme[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def string_lexeme(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
