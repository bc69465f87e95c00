"""Hypothesis properties over the text-facing surfaces."""

from hypothesis import given, settings
from hypothesis import strategies as st

from emrkit.dsl import DslError, IllegalCharacter, parse_emr, reconstruct, repair, tokenize
from emrkit.dsl.tokens import KEYWORDS
from emrkit.pipeline import chunk_document
from emrkit.runtime import Action
from emrkit.sut import fingerprint

identifier = st.from_regex(r"[a-z][a-zA-Z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in {"for", "if", "continue", "var", "true", "false"}
)


@st.composite
def simple_bool_call(draw):
    name = draw(identifier)
    args = draw(st.lists(st.sampled_from(["true", "false", "Input(1)"]), max_size=2))
    return f"{name}({', '.join(args)})"


@given(antecedent=simple_bool_call(), consequent=simple_bool_call())
@settings(max_examples=60, deadline=None)
def test_injected_ampersand_defect_always_repairs(antecedent, consequent):
    parse_emr(f"MR {{{{ IMPLIES({antecedent}, {consequent}); }}}}")
    defective = f"MR {{{{ IMPLIES({antecedent} & {consequent}); }}}}"
    fixed, log = repair(defective)
    assert len(log.entries) == 1
    parse_emr(fixed)
    again, log2 = repair(fixed)
    assert again == fixed and not log2.entries


PUNCTUATION = {"{{", "}}", "&&", "||", "{", "}", "(", ")", ",", ";", ":", ".", "!", "&", "="}
# Single characters, including ones the grammar rejects or treats specially
# (a non-ASCII letter, two digits int() refuses and one it accepts), plus
# fragments that make whole tokens likely.
LEXER_PIECES = [*"{}(),;:.!&=|", *"abxMR_09", " ", "\t", "\r", "\n", '"', "\\", "/", "é", "²", "½", "٣",
                "MR", "for", "var", "true", "{{", "}}", "&&", "//", '"s"', "x²"]


def _position(source, offset):
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


def _is_identifier(lexeme):
    head, tail = lexeme[0], lexeme[1:]
    return (head.isalpha() or head == "_") and all(c.isalnum() or c == "_" for c in tail)


@given(pieces=st.lists(st.sampled_from(LEXER_PIECES), max_size=40))
@settings(max_examples=400, deadline=None)
def test_lexer_contract(pieces):
    source = "".join(pieces)
    try:
        tokens = tokenize(source)
    except IllegalCharacter as exc:
        lines = source.split("\n")
        offset = sum(len(line) + 1 for line in lines[: exc.line - 1]) + exc.column - 1
        assert source[offset] == exc.char
        return
    except DslError:
        return
    assert reconstruct(tokens) == source
    assert [t.kind for t in tokens].count("eof") == 1 and tokens[-1].kind == "eof" and tokens[-1].lexeme == ""
    offset = 0
    for t in tokens:
        assert t.leading_trivia.strip(" \t\r\n") == ""
        offset += len(t.leading_trivia)
        assert (t.line, t.column) == _position(source, offset), t
        offset += len(t.lexeme)
        if t.kind == "keyword":
            assert t.lexeme in KEYWORDS
        elif t.kind == "identifier":
            assert _is_identifier(t.lexeme) and t.lexeme not in KEYWORDS
        elif t.kind == "integer-literal":
            assert t.lexeme.isdecimal()
        elif t.kind == "string-literal":
            assert len(t.lexeme) >= 2 and t.lexeme[0] == t.lexeme[-1] == '"' and "\n" not in t.lexeme
        elif t.kind == "comment":
            assert t.lexeme.startswith("//") and "\n" not in t.lexeme
        elif t.kind == "punctuation":
            assert t.lexeme in PUNCTUATION
        else:
            assert t.kind == "eof"


@given(
    text=st.text(alphabet="ab c\n#", min_size=0, max_size=4000),
    budget=st.integers(min_value=20, max_value=500),
)
@settings(max_examples=80, deadline=None)
def test_chunks_fit_budget_and_lose_no_section(text, budget):
    chunks = chunk_document(text, budget)
    assert all(len(chunk) <= budget for chunk in chunks)
    if len(text) <= budget:
        assert chunks == [text]
    # No heading marker disappears.
    assert "".join(chunks).count("#") == text.count("#")


@given(
    kind=st.sampled_from(["search", "login", "view"]),
    params=st.dictionaries(identifier, st.one_of(st.integers(), st.text(max_size=5), st.booleans()), max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_fingerprint_ignores_parameter_order(kind, params):
    forward = Action(0, kind, dict(params))
    backward = Action(0, kind, dict(reversed(list(params.items()))))
    assert fingerprint(forward) == fingerprint(backward)
    different = Action(0, kind, {**params, "extra_marker_key": 1})
    assert fingerprint(different) != fingerprint(forward)
