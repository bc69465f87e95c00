from astgen import ProgramGen
from emrkit.dsl import canonical_units, parse_emr, pretty_print


def test_empty_mr_block_prints_two_lines():
    assert pretty_print(parse_emr("MR {{ }}")) == "MR {{\n}}"


def test_search_filter_reprints_to_equal_ast(filter_emr_ast, filter_emr_source):
    printed = pretty_print(filter_emr_ast)
    assert parse_emr(printed).statements == filter_emr_ast.statements
    assert printed != filter_emr_source  # canonical layout, not source preservation


def test_printing_is_deterministic(filter_emr_ast):
    assert pretty_print(filter_emr_ast) == pretty_print(filter_emr_ast)
    for seed in range(20):
        ast = ProgramGen(seed).program()
        assert pretty_print(ast) == pretty_print(ast)


def test_one_statement_per_line_with_expansion(filter_emr_ast):
    lines = pretty_print(filter_emr_ast).split("\n")
    assert lines[0] == "MR {{"
    assert lines[-1] == "}}"
    # Fig. 4: 11 statement units plus MR braces, two block closers, the OR
    # closer and the IMPLIES closer.
    assert len(lines) == 17


def test_explanations_reprinted_as_trailing_comments(filter_emr_ast):
    printed = pretty_print(filter_emr_ast)
    for marker in ["//(1)", "//(2)", "//(6)", "//(9)"]:
        assert marker in printed


def test_units_carry_canonical_line_numbers(filter_emr_ast):
    printed = pretty_print(filter_emr_ast).split("\n")
    for unit in canonical_units(filter_emr_ast):
        line = printed[unit.line - 1]
        assert line.strip().startswith(unit.text.split(" //")[0].strip()[:10])


def test_nested_same_operator_chain_round_trips():
    source = "MR {{ IMPLIES(alpha && (beta && gamma), ok()); }}"
    first = parse_emr(source)
    assert parse_emr(pretty_print(first)).statements == first.statements


def test_single_line_expressions_keep_the_parentheses_their_nesting_needs():
    for statement in ("var x = (a() || b()) && (c() || d());", "var y = (a() && b()).m();", "var z = (!a()).m();"):
        first = parse_emr("MR {{ %s }}" % statement)
        printed = pretty_print(first)
        assert printed == "MR {{\n    %s\n}}" % statement
        assert parse_emr(printed).statements == first.statements
