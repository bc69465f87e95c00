from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from astgen import NESTINGS, ProgramGen, long_emr, messy_render, nested_emr, scatter_comments, split_calls
from emrkit.dsl import (
    BoolChain,
    BoolLit,
    Call,
    Continue,
    ExprStmt,
    ForEach,
    If,
    IntLit,
    MethodCall,
    Name,
    Not,
    ParseError,
    StringLit,
    VarDecl,
    canonical_units,
    parse_emr,
    pretty_print,
)
from emrkit.dsl.parser import MAX_NESTING
from emrkit.dsl.printer import layout
from emrkit.dsl.tokens import string_value, tokenize
from emrkit.dsl.validate import validate
from emrkit.runtime import run_suite
from emrkit.shopstubs import STUBS
from emrkit.sut import MockShopSut


def test_trivial_implies_statement():
    ast = parse_emr("MR {{ IMPLIES(NOT(false), true); }}")
    assert len(ast.statements) == 1
    stmt = ast.statements[0]
    assert isinstance(stmt, ExprStmt)
    assert isinstance(stmt.expr, Call) and stmt.expr.name == "IMPLIES"
    inner = stmt.expr.args[0]
    assert isinstance(inner, Call) and inner.name == "NOT"


def test_last_statement_semicolon_optional_before_close():
    bare = parse_emr("MR {{ IMPLIES(NOT(false), true) }}")
    strict = parse_emr("MR {{ IMPLIES(NOT(false), true); }}")
    assert bare.statements == strict.statements
    inline = parse_emr("MR {{ for (var x : xs) { probe(x) } }}")
    assert isinstance(inline.statements[0].body[0], ExprStmt)
    with pytest.raises(ParseError):
        parse_emr("MR {{ var x = 1 }}")  # only expression statements are lenient


def test_search_filter_shape(filter_emr_ast):
    (outer,) = filter_emr_ast.statements
    assert isinstance(outer, ForEach)
    assert outer.decl_type == "Action" and outer.var == "searchAction"
    assert isinstance(outer.iterable, MethodCall) and outer.iterable.name == "actions"

    kinds = [type(s).__name__ for s in outer.body]
    assert kinds == ["If", "VarDecl", "ForEach"]

    guard = outer.body[0]
    assert isinstance(guard, If)
    assert len(guard.body) == 1 and isinstance(guard.body[0], Continue)

    inner = outer.body[2]
    assert isinstance(inner, ForEach)
    assert [type(s).__name__ for s in inner.body] == ["VarDecl", "ExprStmt"]

    implies = inner.body[1].expr
    assert isinstance(implies, Call) and implies.name == "IMPLIES"
    antecedent, consequent = implies.args
    assert isinstance(antecedent, BoolChain) and antecedent.op == "&&"
    create = antecedent.operands[0]
    assert isinstance(create, Call) and create.name == "CREATE"
    assert isinstance(create.args[0], Call) and create.args[0].name == "Input"
    assert create.args[0].args[0] == IntLit(2)
    assert isinstance(consequent, Call) and consequent.name == "OR"
    assert [a.name for a in consequent.args] == ["fewerResults", "moreRelevantResults"]


def test_search_filter_explanations(filter_emr_ast):
    (outer,) = filter_emr_ast.statements
    assert outer.explanation == "(1)"
    assert outer.body[0].body[0].explanation == "(2)"  # attached to the inline continue
    assert outer.body[1].explanation == "(3)"
    inner = outer.body[2]
    assert inner.explanation == "(4)"
    assert inner.body[0].explanation == "(5)"
    implies = inner.body[1].expr
    antecedent, consequent = implies.args
    assert antecedent.operands[0].explanation == "(6)"
    assert antecedent.operands[1].explanation == "(7)"
    assert consequent.args[0].explanation == "(8)"
    assert consequent.args[1].explanation == "(9)"


def test_an_opener_breaks_after_its_parenthesis_on_whichever_line_that_stands():
    before = parse_emr("MR {{\n    IMPLIES // c\n    (a(), b());\n}}")
    assert [unit.explanation for unit in layout(before)] == [None] * 6
    assert "//" not in pretty_print(before)
    after = parse_emr("MR {{\n    IMPLIES\n    ( // c\n    a(), b());\n}}")
    assert after.statements[0].expr.explanation == "c"
    assert pretty_print(after).split("\n")[1] == "    IMPLIES( //c"


def test_a_double_slash_inside_a_string_literal_is_no_comment():
    source = 'MR {{\n    IMPLIES(q("a//b"), r());%s\n}}'
    explained = parse_emr(source % " // why")
    assert explained.statements[0].expr.args[0].args[0].value == "a//b"
    assert [unit.explanation for unit in layout(explained) if unit.explanation] == ["why"]
    assert explained.statements[0].explanation == "why"
    bare = parse_emr(source % "")
    assert bare.statements[0].expr.args[0].args[0].value == "a//b"
    assert [unit.explanation for unit in layout(bare) if unit.explanation] == []


def test_parse_error_location_and_expectations():
    with pytest.raises(ParseError) as exc:
        parse_emr("MR {{ var = 3; }}")
    assert exc.value.line == 1
    assert "identifier" in " ".join(exc.value.expected)
    cases = [
        ("MR {{ var = 3; }}", "1:11: expected identifier, found '='", {"identifier"}, None),
        ("MR {{ IMPLIES(a() & b()); }}",
         "1:19: expected ')', found '&' (a 'WLC-AMP' repair may fix this; run repair first)", {"')'"}, "WLC-AMP"),
        ("MR {{ for (3 x : y) { continue; } }}", "1:12: expected 'var', type name, found '3'",
         {"'var'", "type name"}, None),
        ("MR {{\n  x;", "2:5: expected '}}', statement, found end of input", {"'}}'", "statement"}, None),
        ("MR {{ var x = 1 }}", "1:17: expected ';', found '}}'", {"';'"}, None),
        ("MR {{ }} x", "1:10: expected end of input, found 'x'", {"end of input"}, None),
        ("MR {{ var x = ; }}", "1:15: expected expression, found ';'", {"expression"}, None),
        ("MR {{ for (var x : xs) { } }}", "1:7: loop body must not be empty", set(), None),
        # int() converts at most 4300 digits.
        ("MR {{ var x = " + "9" * 5000 + "; }}", "1:15: integer literal of 5000 digits is too long", set(), None),
    ]
    for source, message, expected, hint in cases:
        with pytest.raises(ParseError) as exc:
            parse_emr(source)
        assert (str(exc.value), exc.value.expected, exc.value.repair_hint) == (message, expected, hint)


def test_integer_literals_are_decimal_digits():
    (stmt,) = parse_emr("MR {{ var x = ٣; }}").statements
    assert stmt.init == IntLit(3)


def test_single_ampersand_suggests_repair():
    with pytest.raises(ParseError) as exc:
        parse_emr("MR {{ IMPLIES(a() & b()); }}")
    assert exc.value.repair_hint == "WLC-AMP"


def test_missing_mr_block():
    with pytest.raises(ParseError):
        parse_emr("for (var x : xs) { continue; }")


def test_empty_loop_body_rejected():
    with pytest.raises(ParseError):
        parse_emr("MR {{ for (var x : xs) { } }}")


def test_trailing_content_rejected():
    with pytest.raises(ParseError):
        parse_emr("MR {{ }} MR {{ }}")


def test_round_trip_property_over_generated_programs():
    checked = 0
    for seed in range(120):
        canonical = pretty_print(ProgramGen(seed).program())
        for source in (canonical, scatter_comments(canonical, seed)):
            # Every explanation the first parse attaches survives the print.
            first = parse_emr(source)
            second = parse_emr(pretty_print(first))
            assert first.statements == second.statements, f"seed {seed}:\n{source}"
        checked += 1
    assert checked >= 100


def test_round_trip_property_over_messy_layouts():
    for seed in range(60):
        base = pretty_print(ProgramGen(seed, explanations=False).program())
        source = messy_render(base, seed)
        first = parse_emr(source)
        second = parse_emr(pretty_print(first))
        assert first.statements == second.statements, f"seed {seed}"


def _children(node):
    for f in fields(node):
        if f.name not in ("lines", "start", "end", "explanation"):
            value = getattr(node, f.name)
            yield from (v for v in (value if isinstance(value, tuple) else (value,)) if is_dataclass(v))


def _is_lexeme(node, text: str) -> bool:
    if isinstance(node, Name):
        return text == node.ident
    if isinstance(node, IntLit):
        return text.isdecimal() and int(text) == node.value
    if isinstance(node, BoolLit):
        return text == ("true" if node.value else "false")
    return text[:1] == text[-1:] == '"' and len(text) > 1 and string_value(text) == node.value


@given(seed=st.integers(0, 10**6), typed=st.booleans(), render=st.sampled_from([messy_render, scatter_comments]),
       crlf=st.booleans(), explanations=st.booleans())
@settings(max_examples=150, deadline=None)
def test_positions_span_each_lexeme_and_nest_inside_their_parents(seed, typed, render, crlf, explanations):
    source = render(pretty_print(ProgramGen(seed, typed=typed).program()), seed)
    if crlf:
        source = source.replace("\n", "\r\n")
    stack = [(None, stmt) for stmt in parse_emr(source, explanations=explanations).statements]
    while stack:
        parent, node = stack.pop()
        text = source[node.start : node.end]
        if isinstance(node, (Name, IntLit, StringLit, BoolLit)):
            assert _is_lexeme(node, text), (node, text)
        assert node.line == source.count("\n", 0, node.start) + 1, (node, node.start)
        if parent is not None:
            assert parent.start <= node.start <= node.end <= parent.end, (parent, node)
        stack += [(node, child) for child in _children(node)]


def _token_offsets(tokens) -> list[int]:
    """The start offset of each token, from the lexemes and trivia alone."""
    offsets, at = [], 0
    for token in tokens:
        at += len(token.leading_trivia)
        offsets.append(at)
        at += len(token.lexeme)
    return offsets


def _line_break(unit, tokens, offsets) -> int:
    """The offset where ``unit``'s canonical line breaks in the source
    ``tokens`` came from: after an opener's '(', an ``if`` condition or a
    ``for`` iterable, and otherwise after the node."""
    node = unit.owner
    if unit.kind == "opener":
        at = offsets.index(node.start)
        paren = next(n for n in range(at + 1, len(tokens)) if tokens[n].kind != "comment")
        assert tokens[paren].lexeme == "("
        return offsets[paren] + 1
    last = node.iterable if isinstance(node, ForEach) else node.cond if isinstance(node, If) else node
    return last.end


@given(seed=st.integers(0, 10**6), typed=st.booleans())
@settings(max_examples=200, deadline=None)
def test_each_explanation_comes_from_the_line_where_its_canonical_line_breaks(seed, typed):
    canonical = pretty_print(ProgramGen(seed, typed=typed).program())
    source = split_calls(canonical, seed)
    tokens = tokenize(source)
    offsets = _token_offsets(tokens)
    comments = {t.line: (at, t) for t, at in zip(tokens, offsets) if t.kind == "comment"}
    ast = parse_emr(source)
    # Owned lines break in layout order, no two at one offset: so the last
    # owner on a comment's line is the one whose line breaks last.
    breaks = [_line_break(unit, tokens, offsets) for unit in layout(ast) if unit.owner is not None]
    assert breaks == sorted(set(breaks)), source
    for unit in layout(ast):
        if unit.explanation is not None:
            end = _line_break(unit, tokens, offsets)
            at, comment = comments.get(source.count("\n", 0, end) + 1, (-1, None))
            assert comment is not None and end <= at, (unit, source)
            assert comment.lexeme[2:].strip() == unit.explanation, (unit, source)
    assert pretty_print(ast) == canonical, source


def test_a_node_built_without_a_position_reads_zero():
    node = Name(ident="x")
    assert node.start == node.end == 0
    assert node.line == 0


def test_long_commented_emr_keeps_every_explanation():
    def explanations(ast):
        return [line.explanation for line in layout(ast) if line.explanation is not None]

    first = parse_emr(long_emr(2000))
    notes = explanations(first)
    assert len(notes) == 2000 + 2000 // 4  # a loop's body statement has its own
    assert len(set(notes)) == len(notes)
    second = parse_emr(pretty_print(first))
    assert explanations(second) == notes
    assert first.statements == second.statements


# The reproductions of sources that used to end in a RecursionError, and
# where each goes too deep: the opening lexeme of level MAX_NESTING + 1.
TOO_DEEP = {"paren": (2000, 15 + MAX_NESTING), "bang": (3000, 15 + MAX_NESTING),
            "not": (1500, 18 + 4 * MAX_NESTING), "if": (1500, 42 + 10 * MAX_NESTING)}


@pytest.mark.parametrize("kind", NESTINGS)
def test_too_deep_a_source_raises_parse_error_where_it_goes_too_deep(kind):
    depth, column = TOO_DEEP[kind]
    with pytest.raises(ParseError) as exc:
        parse_emr(nested_emr(kind, depth))
    assert (exc.value.line, exc.value.column) == (1, column)
    assert exc.value.message == f"nesting deeper than {MAX_NESTING} levels"
    with pytest.raises(ParseError):
        parse_emr(nested_emr(kind, MAX_NESTING + 1))


def test_a_closed_body_gives_back_its_nesting_level():
    closed = "if (a()) b(); " * 3
    at_limit = "(" * 100 + "true" + ")" * 100
    parse_emr(f"MR {{{{ {closed}var x = {at_limit}; }}}}")
    with pytest.raises(ParseError) as exc:
        parse_emr(f"MR {{{{ {closed}var x = ({at_limit}); }}}}")
    assert exc.value.message == "nesting deeper than 100 levels"


@pytest.mark.parametrize("kind", NESTINGS)
def test_a_source_at_the_nesting_limit_validates_prints_and_runs(kind, shop_inputs):
    ast = parse_emr(nested_emr(kind, MAX_NESTING), kind)
    assert not [d for d in validate(ast) if d.severity == "error"]
    assert parse_emr(pretty_print(ast)).statements == ast.statements
    assert repr(ast) and [u.is_complex for u in canonical_units(ast)]
    report = run_suite([ast], shop_inputs, MockShopSut(), STUBS)
    assert [entry.outcome for entry in report.entries] == ["Inapplicable"] * len(shop_inputs)


def test_nodes_built_without_their_class_match_constructed_ones():
    source = """MR {{
    for (var a : Input(1).actions()) {
        if (!check(a)) continue;
        if (x && (y || "s")) { var v = f(true, 2); }
        IMPLIES(a, b);
    }
}}"""
    seen = set()
    stack = list(parse_emr(source).statements)
    while stack:
        node = stack.pop()
        seen.add(type(node))
        assert all(hasattr(node, f.name) for f in fields(node))  # an unset slot has no value
        values = {f.name: getattr(node, f.name) for f in fields(node)}
        built = type(node)(**values)
        assert built == node and (built.start, built.end) == (node.start, node.end)
        for value in values.values():
            stack += [v for v in (value if isinstance(value, tuple) else (value,)) if is_dataclass(v)]
    assert seen == {ForEach, If, Continue, VarDecl, ExprStmt, Call, MethodCall, Name, IntLit, StringLit, BoolLit,
                    Not, BoolChain}


def test_a_node_takes_no_attribute_that_is_not_a_field():
    parsed = parse_emr("MR {{ var x = f(1); }}").statements[0]
    for node in (parsed, parsed.init, VarDecl("x", IntLit(1)), Name(ident="x")):
        with pytest.raises(AttributeError):
            node.extra = 1
