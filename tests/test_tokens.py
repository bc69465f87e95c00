import re
import sys

import pytest

from astgen import ProgramGen
from emrkit.dsl import IllegalCharacter, pretty_print, reconstruct, tokenize


def kinds_and_lexemes(tokens):
    return [(t.kind, t.lexeme) for t in tokens if t.kind != "eof"]


def test_empty_mr_block():
    assert kinds_and_lexemes(tokenize("MR {{ }}")) == [
        ("keyword", "MR"),
        ("punctuation", "{{"),
        ("punctuation", "}}"),
    ]


def test_search_filter_line3_tokens(filter_emr_source):
    line3 = filter_emr_source.split("\n")[2]
    assert line3.strip().startswith("if")
    tokens = kinds_and_lexemes(tokenize(line3))
    assert ("identifier", "isSearchAction") in tokens
    assert ("keyword", "continue") in tokens
    assert tokens[-1] == ("comment", "//(2)")


def test_positions_locate_lexemes(filter_emr_source):
    lines = filter_emr_source.split("\n")
    for token in tokenize(filter_emr_source):
        if token.kind == "eof":
            continue
        line = lines[token.line - 1]
        assert line[token.column - 1 : token.column - 1 + len(token.lexeme)] == token.lexeme


def test_maximal_munch():
    tokens = kinds_and_lexemes(tokenize("a && b & c || d"))
    punct = [lex for kind, lex in tokens if kind == "punctuation"]
    assert punct == ["&&", "&", "||"]


def test_string_literals_and_escapes():
    tokens = kinds_and_lexemes(tokenize('applyFilter("cat a", "qu\\"ote")'))
    strings = [lex for kind, lex in tokens if kind == "string-literal"]
    assert strings == ['"cat a"', '"qu\\"ote"']


def test_illegal_character_reports_position():
    with pytest.raises(IllegalCharacter) as exc:
        tokenize("MR {{\n  @bad\n}}")
    assert exc.value.line == 2
    assert exc.value.column == 3


def test_crlf_and_tab_columns():
    tokens = tokenize("MR\r\n\t{{ x; // c\r\n\t}}\r\n")
    assert [(t.kind, t.lexeme, t.line, t.column, t.leading_trivia) for t in tokens] == [
        ("keyword", "MR", 1, 1, ""),
        ("punctuation", "{{", 2, 2, "\r\n\t"),
        ("identifier", "x", 2, 5, " "),
        ("punctuation", ";", 2, 6, ""),
        ("comment", "// c\r", 2, 8, " "),
        ("punctuation", "}}", 3, 2, "\n\t"),
        ("eof", "", 4, 1, "\r\n"),
    ]


@pytest.mark.parametrize("source, char, line, column", [
    ('MR\r\n\t{{ "ab', '"', 2, 5),  # unterminated string: the opening quote
    ('MR {{\r\n\tx("a\nb"); }}', "\n", 2, 6),  # newline inside a string
    ('MR {{ x("a\\\nb"); }}', "\n", 1, 12),  # an escaped newline too
    ('x("ab\\', '"', 1, 3),
    ("var x = ²;", "²", 1, 9),  # a digit int() refuses cannot start a token
    ("var x = 3²;", "²", 1, 10),
    ("var x = ½;", "½", 1, 9),
])
def test_illegal_character_positions(source, char, line, column):
    with pytest.raises(IllegalCharacter) as exc:
        tokenize(source)
    assert (exc.value.char, exc.value.line, exc.value.column) == (char, line, column)


def test_regex_classes_are_the_str_predicates_the_grammar_names():
    # The lexer's pattern relies on these identities for every code point.
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\w", everything) == [c for c in everything if c.isalnum() or c == "_"]
    assert re.findall(r"\d", everything) == [c for c in everything if c.isdecimal()]


def test_unicode_words_and_digits():
    assert kinds_and_lexemes(tokenize("x² é_1 ٣4")) == [
        ("identifier", "x²"),
        ("identifier", "é_1"),
        ("integer-literal", "٣4"),
    ]


def test_reconstruction_is_exact(filter_emr_source):
    assert reconstruct(tokenize(filter_emr_source)) == filter_emr_source


def test_reconstruction_property_over_generated_programs():
    for seed in range(60):
        source = pretty_print(ProgramGen(seed).program())
        assert reconstruct(tokenize(source)) == source


def test_retokenize_after_print_preserves_token_stream():
    # Printing the token stream (lexemes + trivia) and re-lexing is stable.
    for seed in range(40):
        source = pretty_print(ProgramGen(seed, explanations=False).program())
        once = [(t.kind, t.lexeme) for t in tokenize(source)]
        again = [(t.kind, t.lexeme) for t in tokenize(reconstruct(tokenize(source)))]
        assert once == again
