import pytest

from astgen import ProgramGen
from emrkit.dsl import has_errors, parse_emr, stub_names
from emrkit.dsl.validate import validate
from emrkit.sut import ApiCatalog, ApiEntry, load_api_catalog
from emrkit.resources import fixture_path

FIG4_STUBS = [
    "isSearchAction",
    "getFilterTypes",
    "applyFilter",
    "notSameFilterApplied",
    "fewerResults",
    "moreRelevantResults",
]


def entry(name, params=0):
    return ApiEntry(name, [(f"p{i}", "Object") for i in range(params)], "Object", f"doc for {name}")


def test_search_filter_stubs_with_empty_catalog(filter_emr_ast):
    diags = validate(filter_emr_ast)
    assert stub_names(diags) == FIG4_STUBS
    assert not has_errors(diags)
    assert all(d.severity == "stub" for d in diags)


def test_search_filter_clean_with_full_catalog(filter_emr_ast):
    catalog = load_api_catalog(fixture_path("api_catalog_search_filter.json"))
    assert [e.name for e in catalog.entries] == FIG4_STUBS
    assert validate(filter_emr_ast, catalog) == []


def test_implies_arity_error():
    ast = parse_emr("MR {{ IMPLIES(true); }}")
    diags = validate(ast)
    assert any(d.severity == "error" and "IMPLIES expects 2" in d.message for d in diags)


def test_construct_arities():
    bad = [
        ("Input()", "Input"),
        ("Output(1, 2, 3)", "Output"),
        ("CREATE(Input(2))", "CREATE"),
        ("NOT(true, false)", "NOT"),
        ("OR(true)", "OR"),
        ("AND(true)", "AND"),
    ]
    for snippet, name in bad:
        diags = validate(parse_emr("MR {{ var x = %s; }}" % snippet))
        assert any(d.severity == "error" and d.symbol == name for d in diags), snippet


def test_create_target_must_be_input():
    diags = validate(parse_emr("MR {{ CREATE(probe, other); }}"))
    assert any(d.severity == "error" and d.symbol == "CREATE" for d in diags)


@pytest.mark.parametrize("first", ["3", "true", '"s"', "s", "k", "probe()", "Input(1).actions()", "Output(1)"])
def test_two_argument_output_names_its_input_as_an_input_call(first):
    """Like a CREATE target, the first argument of a two-argument Output is
    written ``Input(i)``; a name bound to a sequence or an integer is not."""
    source = f"MR {{{{\n    var s = Input(1); var k = 1;\n    var o = Output({first}, 0);\n}}}}"
    errors = [(d.message, d.line, d.symbol) for d in validate(parse_emr(source)) if d.severity == "error"]
    assert errors == [("Output sequence must be an Input(i) expression", 3, "Output")]


def test_two_argument_output_takes_any_integer_input_index():
    assert validate(parse_emr("MR {{ var o = Output(Input(3), 0); var k = 2; var p = Output(Input(k), k); }}")) == []


def test_boolean_position_literal_errors():
    diags = validate(parse_emr('MR {{ IMPLIES(1, "no"); }}'))
    errors = [d for d in diags if d.severity == "error"]
    assert len(errors) == 2


def test_integer_position_literal_errors():
    for use, message in [
        ('Input("one")', "Input index must be an integer"),
        ("Input(false)", "Input index must be an integer"),
        ('Output("x")', "Output index must be an integer"),
        ("Output(true)", "Output index must be an integer"),
        ('Output(Input(1), "p")', "Output position must be an integer"),
    ]:
        diags = validate(parse_emr(f"MR {{{{\n    var x = {use};\n}}}}"))
        assert [(d.severity, d.message, d.line) for d in diags] == [("error", message, 2)], use


def test_continue_outside_loop():
    diags = validate(parse_emr("MR {{ continue; }}"))
    assert any(d.severity == "error" and "continue" in d.message for d in diags)


def test_unknown_method_is_warning_not_error(filter_emr_ast):
    diags = validate(parse_emr("MR {{ var x = Input(1).frobnicate(); }}"))
    assert any(d.severity == "warning" and d.symbol == "frobnicate" for d in diags)
    assert not has_errors(diags)


def test_stub_diagnostics_deduplicated_by_name():
    ast = parse_emr("MR {{ var a = probe(); var b = probe(); }}")
    diags = validate(ast)
    assert stub_names(diags) == ["probe"]


def test_catalog_arity_checked_when_known():
    catalog = ApiCatalog([entry("probe", params=2)])
    diags = validate(parse_emr("MR {{ var a = probe(); }}"), catalog)
    assert has_errors(diags)


def test_monotonicity_adding_catalog_entries_never_adds_stubs():
    for seed in range(40):
        ast = ProgramGen(seed).program()
        base = stub_names(validate(ast))
        if not base:
            continue
        grown = ApiCatalog([entry(base[0])])
        # Catalog arity may disagree; only the stub count matters here.
        after = stub_names(validate(ast, grown))
        assert set(after) <= set(base)
        assert len(after) < len(base)


def test_typed_astgen_programs_are_valid_and_the_untyped_mode_is_unchanged():
    """The typed mode exists so that properties over generated programs run
    them; the untyped mode keeps testing the ``invalid-emr`` path."""
    typed = [ProgramGen(seed, typed=True).program() for seed in range(500)]
    untyped = [ProgramGen(seed).program() for seed in range(500)]
    assert sum(not has_errors(validate(ast)) for ast in typed) >= 475
    assert sum(has_errors(validate(ast)) for ast in untyped) == 276
    assert typed != untyped


def test_typed_astgen_puts_an_input_as_outputs_sequence():
    message = "Output sequence must be an Input(i) expression"
    seeds = [seed for seed in range(3000)
             if any(d.message == message for d in validate(ProgramGen(seed, typed=True).program()))]
    assert seeds == []


def test_lines_reference_symbol_bearing_source_lines(filter_emr_ast, filter_emr_source):
    lines = filter_emr_source.split("\n")
    for diag in validate(filter_emr_ast):
        assert diag.symbol in lines[diag.line - 1]
