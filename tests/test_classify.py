from astgen import ProgramGen
from emrkit.dsl import canonical_units, parse_emr


def classes(source):
    return [u.is_complex for u in canonical_units(parse_emr(source))]


def test_single_construct_statement_is_simple():
    assert classes("MR {{ NOT(x); }}") == [False]


def test_method_invocation_makes_complex():
    assert classes("MR {{ if (!isSearchAction(searchAction)) continue; }}") == [True]


def test_construct_only_tower_is_simple():
    source = "MR {{ IMPLIES(NOT(false), OR(true, ready)); }}"
    got = classes(source)
    assert got and not any(got)


def test_loop_header_classified_by_its_iterable():
    assert classes("MR {{ for (var x : items) { continue; } }}")[0] is False
    assert classes("MR {{ for (var x : getAll()) { continue; } }}")[0] is True


def test_search_filter_classification_counts(filter_emr_ast):
    result = [u.is_complex for u in canonical_units(filter_emr_ast)]
    assert len(result) == 11
    complex_count = sum(result)
    assert complex_count == 8
    assert complex_count >= 8  # spec floor


def test_search_filter_simple_statements_are_the_construct_lines(filter_emr_ast):
    simple_texts = sorted(u.text for u in canonical_units(filter_emr_ast) if not u.is_complex)
    assert simple_texts == ["CREATE(Input(2), filteredInput) &&", "IMPLIES(", "OR("]


def test_totality_every_statement_gets_exactly_one_class():
    for seed in range(40):
        units = canonical_units(ProgramGen(seed).program())
        assert [u.index for u in units] == list(range(1, len(units) + 1))
        assert all(type(u.is_complex) is bool for u in units)
        assert len({u.line for u in units}) == len(units)  # one class per annotation key

