"""The front end gives, on a seeded corpus, exactly the results pinned in
``frontend_digests.json``: the same ASTs, positions and explanations, and the
same errors (class, line, column, message, expected set, repair hint). On the
corpus and seeded WLC-AMP injections, ``repair`` and the canonical units give
exactly the results pinned in ``repair_units_digests.json``. On every corpus
source that parses, ``validate`` gives exactly the diagnostics pinned in
``validate_digests.json``, without a catalog and with one. Parsing without
explanations gives the same results with every explanation left out."""

import dataclasses
import json
from pathlib import Path

from emrkit.dsl import DslError, parse_emr
from emrkit.dsl.ast import Node
from emrkit.dsl.repair import repair
from emrkit.dsl.validate import validate
from emrkit.resources import fixture_path
from emrkit.sut.catalog import load_api_catalog
from frontend_corpus import (
    EDITS,
    GENERATED,
    INJECTIONS,
    corpus,
    digest,
    injections,
    outcome,
    repair_outcome,
    validate_outcome,
)

HERE = Path(__file__).parent
PINNED = json.loads((HERE / "frontend_digests.json").read_text(encoding="utf-8"))
PINNED_REPAIRS = json.loads((HERE / "repair_units_digests.json").read_text(encoding="utf-8"))
PINNED_DIAGNOSTICS = json.loads((HERE / "validate_digests.json").read_text(encoding="utf-8"))
CASES = corpus()
REPAIR_CASES = CASES + injections()


def test_corpus_is_the_pinned_one():
    assert len(CASES) == 13 + 2 * GENERATED + EDITS
    assert [name for name, _ in CASES] == list(PINNED)
    assert [name for name, source in CASES if digest(source) != PINNED[name][0]] == []


def test_every_case_gives_the_pinned_result():
    assert [name for name, source in CASES if digest(outcome(source)) != PINNED[name][1]] == []


def test_corpus_mixes_parses_and_both_error_kinds():
    def kind(text):
        return "parse" if text.startswith("EmrAst(") else text.split("'")[1]

    assert {kind(outcome(source)) for _, source in CASES} == {"parse", "ParseError", "IllegalCharacter"}


def test_injections_are_the_pinned_ones():
    assert len(REPAIR_CASES) == len(CASES) + INJECTIONS
    assert [name for name, _ in REPAIR_CASES] == list(PINNED_REPAIRS)
    assert [name for name, source in REPAIR_CASES if digest(source) != PINNED_REPAIRS[name][0]] == []


def test_every_case_repairs_and_lays_out_as_pinned():
    assert [name for name, s in REPAIR_CASES if digest(repair_outcome(s)) != PINNED_REPAIRS[name][1]] == []


def test_injections_give_fixes_that_parse_and_sources_left_alone():
    repairs = [repair(source) for _, source in injections()]
    assert {min(len(log.entries), 2) for _, log in repairs} == {0, 1, 2}
    assert sum(1 for fixed, log in repairs if log and outcome(fixed).startswith("EmrAst(")) > 50


def test_every_parsed_case_validates_as_pinned():
    catalog = load_api_catalog(fixture_path("api_catalog_search_filter.json"))
    parsed = [(name, source) for name, source in CASES if outcome(source).startswith("EmrAst(")]
    assert [name for name, _ in parsed] == list(PINNED_DIAGNOSTICS)
    assert [
        name for name, source in parsed
        if [digest(source), digest(validate_outcome(source, None)), digest(validate_outcome(source, catalog))]
        != PINNED_DIAGNOSTICS[name]
    ] == []


def test_pinned_diagnostics_cover_every_severity_and_the_catalog():
    catalog = load_api_catalog(fixture_path("api_catalog_search_filter.json"))
    asts = [parse_emr(source) for name, source in CASES if name in PINNED_DIAGNOSTICS]
    severities = {d.severity for ast in asts for d in validate(ast)}
    assert severities == {"error", "warning", "stub"}
    assert sum(1 for ast in asts if validate(ast) != validate(ast, catalog)) > 50


def without_explanations(value):
    """``value`` (an AST or a part of one) with every explanation set to None, in place."""
    if isinstance(value, tuple):
        for item in value:
            without_explanations(item)
    elif dataclasses.is_dataclass(value):
        if isinstance(value, Node):
            value.explanation = None
        for f in dataclasses.fields(value):
            without_explanations(getattr(value, f.name))
    return value


def parse_result(source: str, **options) -> str:
    """The AST dump, every position included, or the error's class, message, line and column."""
    try:
        return repr(parse_emr(source, "case", **options))
    except DslError as exc:
        return repr((type(exc).__name__, str(exc), exc.line, exc.column))


def test_parsing_without_explanations_is_the_parse_with_none_attached():
    differing = []
    explained = 0
    for name, source in CASES:
        bare = parse_result(source, explanations=False)
        try:
            full = parse_emr(source, "case")
        except DslError:
            expected = parse_result(source)
        else:
            dump = repr(full)
            expected = repr(without_explanations(full))
            explained += dump != expected
        if bare != expected:
            differing.append(name)
    assert differing == []
    assert explained > 300
