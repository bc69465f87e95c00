import pytest

from astgen import ProgramGen, long_emr, messy_render, scatter_comments
from emrkit.dsl import (
    BoolChain,
    Call,
    Continue,
    ExprStmt,
    ForEach,
    If,
    IntLit,
    MethodCall,
    ParseError,
    VarDecl,
    parse_emr,
    pretty_print,
    structurally_equal,
)
from emrkit.dsl.printer import layout


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
    assert structurally_equal(bare, strict)
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
            assert structurally_equal(first, second), f"seed {seed}:\n{source}"
        checked += 1
    assert checked >= 100


def test_round_trip_property_over_messy_layouts():
    for seed in range(60):
        base = pretty_print(ProgramGen(seed, explanations=False).program())
        source = messy_render(base, seed)
        first = parse_emr(source)
        second = parse_emr(pretty_print(first))
        assert structurally_equal(first, second), f"seed {seed}"


def test_long_commented_emr_keeps_every_explanation():
    def explanations(ast):
        return [line.explanation for line in layout(ast) if line.explanation is not None]

    first = parse_emr(long_emr(2000))
    notes = explanations(first)
    assert len(notes) == 2000 + 2000 // 4  # a loop's body statement has its own
    assert len(set(notes)) == len(notes)
    second = parse_emr(pretty_print(first))
    assert explanations(second) == notes
    assert structurally_equal(first, second)
