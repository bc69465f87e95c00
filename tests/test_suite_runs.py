import collections
import copy
import dataclasses
import errno
import json
import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from astgen import NAMES, ProgramGen
from conftest import INPUT_NAMES
from emrkit.dsl import parse_emr, pretty_print
from emrkit.dsl.ast import BoolLit, Call, EmrAst, ForEach, IntLit, Name, Node, StringLit, VarDecl
from emrkit.dsl.validate import has_errors, validate
from emrkit.runtime import (ActionSequence, SetParameter, VerdictValue, create_followup, evaluate_emr,
                            run_suite)
from emrkit.runtime.errors import RunAborted
from emrkit.runtime.evaluate import Evaluator
from emrkit.shopstubs import STUBS
from emrkit.sut import MockShopSut, record_replay
from emrkit.resources import fixture_path, read_fixture
from run_corpus import EXTRA_STUBS, FAULTS, MODES, SCOPED_NAMES, program, seeded_input

SUITE_EMRS = ["search_filter", "pagination", "order_independence", "filter_subset"]
# Every bundled EMR: the nine of the annotated suite's directory and the four above.
BUNDLED_EMRS = [*sorted(fixture_path("suite").glob("*.smrl")), *(fixture_path(f"{n}.smrl") for n in SUITE_EMRS)]

# Hand-derived from the mock shop's semantics: each seeded fault breaks
# exactly one property, on every input that contains a search action.
# (emr, fault) -> counts over the five bundled inputs.
EXPECTED_MATRIX = {
    (emr, fault): {"Pass": 4, "Inapplicable": 1}
    for emr in SUITE_EMRS
    for fault in [None, "ignore-filter", "off-by-one-pagination", "stale-results"]
}
EXPECTED_MATRIX[("search_filter", "ignore-filter")] = {"Fail": 4, "Inapplicable": 1}
EXPECTED_MATRIX[("pagination", "off-by-one-pagination")] = {"Fail": 4, "Inapplicable": 1}
EXPECTED_MATRIX[("order_independence", "stale-results")] = {"Fail": 4, "Inapplicable": 1}


@pytest.fixture(scope="module")
def suite_asts():
    return [parse_emr(read_fixture(f"{name}.smrl"), name) for name in SUITE_EMRS]


def test_fault_verdict_matrix(suite_asts, shop_inputs):
    for fault in [None, "ignore-filter", "off-by-one-pagination", "stale-results"]:
        report = run_suite(suite_asts, shop_inputs, MockShopSut(fault), STUBS, input_names=INPUT_NAMES)
        per_emr = report.tally()[0]
        for ast in suite_asts:
            assert per_emr[ast.id] == EXPECTED_MATRIX[(ast.id, fault)], (ast.id, fault)


def test_each_fault_is_caught_by_exactly_one_bundled_emr(suite_asts, shop_inputs):
    catchers = {}
    for fault in ["ignore-filter", "off-by-one-pagination", "stale-results"]:
        report = run_suite(suite_asts, shop_inputs, MockShopSut(fault), STUBS, input_names=INPUT_NAMES)
        catchers[fault] = [emr for emr, counts in report.tally()[0].items() if "Fail" in counts]
    assert catchers == {
        "ignore-filter": ["search_filter"],
        "off-by-one-pagination": ["pagination"],
        "stale-results": ["order_independence"],
    }


def test_empty_suite_is_empty_report():
    report = run_suite([], [], MockShopSut(), STUBS)
    assert report.entries == [] and report.tally() == ({}, [])


def test_zero_inputs_give_an_empty_report_even_for_an_invalid_emr():
    invalid = parse_emr("MR {{ IMPLIES(true); }}", "invalid")
    report = run_suite([invalid], [], MockShopSut(), STUBS)
    assert report.entries == []


def test_each_emr_is_validated_once_per_run(suite_asts, shop_inputs, monkeypatch):
    import emrkit.runtime.evaluate as evaluate

    calls = []
    original = evaluate.validate

    def counting_validate(ast, *args, **kwargs):
        calls.append(ast.id)
        return original(ast, *args, **kwargs)

    monkeypatch.setattr(evaluate, "validate", counting_validate)
    unbound = parse_emr("MR {{ IMPLIES(mystery(), true); }}", "unbound")
    invalid = parse_emr("MR {{ NOT(true, false); }}", "invalid")
    emrs = [*suite_asts, unbound, invalid]
    report = run_suite(emrs, shop_inputs, MockShopSut(), STUBS)
    assert calls == [ast.id for ast in emrs]
    per_emr = report.tally()[0]
    assert per_emr["unbound"] == {"NotExecutable": len(shop_inputs)}
    assert all(e.verdict.stubs == ["mystery"] for e in report.entries if e.emr_id == "unbound")
    assert per_emr["invalid"] == {"Error": len(shop_inputs)}
    assert {e.error for e in report.entries if e.emr_id == "invalid"} == {
        "EMR 'invalid' has validation errors: NOT expects 1 argument (line 1)"}


def test_a_mutating_stub_cannot_reach_the_catalog_the_caller_or_a_later_pair():
    from emrkit.sut import mockshop

    def vandal(action, output):
        for item in output.payload:
            item["price"] = 0
        action.parameters["tags"].append("b")
        return True

    def untouched(action, output):
        return action.parameters["tags"] == ["a"] and all(item["price"] > 0 for item in output.payload)

    def each_action(emr_id: str, check: str):
        return parse_emr(f"MR {{{{ for (var a : Input(1).actions()) {{ {check}; }} }}}}", emr_id)

    vandalize = each_action("vandalize", "IMPLIES(vandal(a, Output(Input(1), a.getPosition())), true)")
    observe = each_action("observe", "IMPLIES(true, untouched(a, Output(Input(1), a.getPosition())))")
    inputs = [
        ActionSequence.from_json([{"kind": "search", "parameters": {"query": "chair", "tags": ["a"]}}]),
        ActionSequence.from_json([{"kind": "search", "parameters": {"query": "", "tags": ["a"]}},
                                  {"kind": "search", "parameters": {"query": "desk", "tags": ["a"]}}]),
    ]
    before_items, before_inputs = copy.deepcopy(mockshop.ITEMS), copy.deepcopy(inputs)
    stubs = {"vandal": vandal, "untouched": untouched}
    for fault in [None, "stale-results"]:
        alone = run_suite([observe], inputs, MockShopSut(fault), stubs)
        after = run_suite([vandalize, observe, vandalize, observe], inputs, MockShopSut(fault), stubs)
        assert mockshop.ITEMS == before_items
        assert inputs == before_inputs
        assert [e.outcome for e in alone.entries] == ["Pass", "Pass"]
        observed = [e.to_json() for e in after.entries if e.emr_id == observe.id]
        assert observed == [e.to_json() for e in alone.entries] * 2


def test_counts_one_pass_one_inapplicable(shop_inputs):
    ast = parse_emr(read_fixture("search_filter.smrl"), "search_filter")
    inputs = [shop_inputs[0], shop_inputs[4]]  # search_chair, login_only
    report = run_suite([ast], inputs, MockShopSut(), STUBS)
    assert report.tally()[0]["search_filter"] == {"Pass": 1, "Inapplicable": 1}


def test_adapter_failure_recorded_per_pair_without_aborting(suite_asts):
    inputs = [
        ActionSequence.from_json([{"kind": "purchase", "parameters": {}}]),
        ActionSequence.from_json([{"kind": "search", "parameters": {"query": "chair"}}]),
    ]
    report = run_suite(suite_asts[:1], inputs, MockShopSut(), STUBS)
    assert [e.outcome for e in report.entries] == ["Error", "Pass"]


def test_get_parameter_reads_an_actions_parameter_and_is_an_error_on_an_input():
    reads = parse_emr(
        'MR {{ for (var a : Input(1).actions()) { IMPLIES(true, isChair(a.getParameter("query"))); } }}', "reads"
    )
    misuses = parse_emr('MR {{ var q = Input(1).getParameter("q"); IMPLIES(true, true); }}', "misuses")
    inputs = [ActionSequence.from_json([{"kind": "search", "parameters": {"query": "chair"}}])]
    report = run_suite([reads, misuses], inputs, MockShopSut(), {"isChair": lambda query: query == "chair"})
    assert [(e.emr_id, e.outcome, e.error) for e in report.entries] == [
        ("reads", "Pass", None),
        ("misuses", "Error", "method 'getParameter' is not defined on ActionSequence(len=1)"),
    ]


def test_failing_binding_names_the_filter_type(shop_inputs):
    ast = parse_emr(read_fixture("search_filter.smrl"), "search_filter")
    verdict = evaluate_emr(ast, shop_inputs[0], MockShopSut("ignore-filter"), STUBS)
    assert verdict.value is VerdictValue.FAIL
    named = {b.bindings.get("filterType", "").strip("'") for b in verdict.failing_bindings}
    assert named & {"category", "price", "brand", "rating", "availability"}


def test_replayed_suite_report_equals_live_report(suite_asts, shop_inputs, tmp_path):
    cassette = tmp_path / "suite.cassette.json"
    live = run_suite(
        suite_asts, shop_inputs, record_replay("record", cassette, MockShopSut()), STUBS,
        input_names=INPUT_NAMES,
    )
    replayed = run_suite(
        suite_asts, shop_inputs, record_replay("replay", cassette), STUBS, input_names=INPUT_NAMES
    )
    assert json.dumps(replayed.to_json(replayed.tally()[0]), sort_keys=True) == json.dumps(
        live.to_json(live.tally()[0]), sort_keys=True)


def test_a_stubs_oserror_is_an_error_entry_but_a_failed_cassette_line_ends_the_run(
        suite_asts, shop_inputs, tmp_path, monkeypatch):
    def full_disk(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    stubs = {**STUBS, "isSearchAction": full_disk}
    report = run_suite(suite_asts, shop_inputs, MockShopSut(), stubs, input_names=INPUT_NAMES)
    assert "OSError: [Errno 28] No space left on device" in {e.error for e in report.entries}
    cassette = tmp_path / "suite.cassette.jsonl"
    factory = record_replay("record", cassette, MockShopSut())
    monkeypatch.setattr(os, "write", full_disk)
    with pytest.raises(RunAborted) as excinfo:
        run_suite(suite_asts, shop_inputs, factory, STUBS, input_names=INPUT_NAMES)
    assert excinfo.value.errno == errno.ENOSPC and excinfo.value.strerror == os.strerror(errno.ENOSPC)
    monkeypatch.undo()
    assert cassette.read_bytes() == b""


def test_report_text_table_lists_every_emr(suite_asts, shop_inputs):
    report = run_suite(suite_asts, shop_inputs, MockShopSut("ignore-filter"), STUBS, input_names=INPUT_NAMES)
    text = report.to_text(report.tally()[0])
    for name in SUITE_EMRS:
        assert name in text
    assert "failing bindings:" in text and "filterType" in text


def test_report_text_is_the_table_then_the_failing_bindings_then_the_errors():
    emrs = [parse_emr("MR {{ for (var a : Input(1).actions()) { IMPLIES(true, false); } }}", "fails"),
            parse_emr("MR {{ var n = 3; IMPLIES(true, n); }}", "errs"),
            parse_emr("MR {{ IMPLIES(true, true); }}", "passes")]
    source = ActionSequence.from_json([{"kind": "search", "parameters": {"query": "chair"}}])
    header = f"{'EMR':<24}{'Pass':>14}{'Fail':>14}{'Inapplicable':>14}{'NotExecutable':>14}{'Error':>14}"
    report = run_suite(emrs, [source], MockShopSut(), {})
    assert report.to_text(report.tally()[0]).split("\n") == [
        header,
        "-" * 94,
        f"{'fails':<24}" + "".join(f"{n:>14}" for n in (0, 1, 0, 0, 0)),
        f"{'errs':<24}" + "".join(f"{n:>14}" for n in (0, 0, 0, 0, 1)),
        f"{'passes':<24}" + "".join(f"{n:>14}" for n in (1, 0, 0, 0, 0)),
        "",
        "failing bindings:",
        "  fails on input1: line 1 with a=search@0",
        "",
        "errors:",
        "  errs on input1: IMPLIES consequent evaluated to non-boolean 3",
    ]


def test_report_json_shape(suite_asts, shop_inputs):
    report = run_suite(suite_asts[:1], shop_inputs[:1], MockShopSut(), STUBS)
    data = report.to_json(report.tally()[0])
    assert data["per_emr"] == {"search_filter": {"Pass": 1}}
    (entry,) = data["results"]
    assert entry["outcome"] == "Pass" and entry["emr"] == "search_filter"


# --- metamorphic relations of emrkit itself --------------------------------------


def name_the_indices(ast: EmrAst) -> EmrAst:
    """``ast`` with each literal ``Input(k)``, k >= 2, replaced by ``Input(in_k)``
    and ``var in_k = k;`` declared first. Positions are kept, so the lines that
    failing bindings name do not move."""
    named: set[int] = set()

    def walk(node: Node) -> Node:
        if isinstance(node, Call) and node.name == "Input" and isinstance(node.args[0], IntLit):
            k = node.args[0].value
            if k >= 2:
                named.add(k)
                return dataclasses.replace(node, args=(Name(f"in_{k}"),))
        changes = {}
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            if isinstance(value, Node):
                changes[f.name] = walk(value)
            elif isinstance(value, tuple):
                changes[f.name] = tuple(walk(v) if isinstance(v, Node) else v for v in value)
        return dataclasses.replace(node, **changes)

    statements = tuple(map(walk, ast.statements))
    declarations = tuple(VarDecl(f"in_{k}", IntLit(k)) for k in sorted(named))
    return EmrAst(ast.id, declarations + statements)


def test_naming_an_index_keeps_every_verdict(shop_inputs):
    emrs = [parse_emr(path.read_text(encoding="utf-8"), path.stem) for path in BUNDLED_EMRS]
    renamed = list(map(name_the_indices, emrs))
    assert all(a != b for a, b in zip(emrs, renamed))  # each bundled EMR uses an Input(k), k >= 2
    assert not any(has_errors(validate(ast)) for ast in renamed)
    changed_rows = set()  # (EMR, fault) rows where some input's entry differs
    for fault in FAULTS:
        before = run_suite(emrs, shop_inputs, MockShopSut(fault), STUBS).entries
        after = run_suite(renamed, shop_inputs, MockShopSut(fault), STUBS).entries
        changed_rows |= {(a.emr_id, fault) for a, b in zip(before, after) if a.to_json() != b.to_json()}
    assert len(emrs) * len(FAULTS) == 52 and changed_rows == set()


# Where each kind of node keeps the variable it names.
VARIABLE_FIELDS = {Name: "ident", VarDecl: "name", ForEach: "var"}


def renamed(node: Node, names: dict[str, str]) -> Node:
    """``node`` with every variable it reads, declares or loops over renamed
    through ``names``; positions are kept."""
    changes = {}
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            changes[f.name] = renamed(value, names)
        elif isinstance(value, tuple):
            changes[f.name] = tuple(renamed(v, names) for v in value)
    if type(node) in VARIABLE_FIELDS:
        field = VARIABLE_FIELDS[type(node)]
        changes[field] = names[getattr(node, field)]
    return dataclasses.replace(node, **changes)


def entry_renamed(entry: dict, names: dict[str, str]) -> dict:
    """A ``SuiteEntry.to_json`` with the variables it names renamed through ``names``."""
    entry = dict(entry)
    if "failing_bindings" in entry:
        entry["failing_bindings"] = [{**b, "bindings": {names[k]: v for k, v in b["bindings"].items()}}
                                     for b in entry["failing_bindings"]]
    if "error" in entry:
        entry["error"] = re.sub(r"^unbound identifier '(\w+)'$", lambda m: f"unbound identifier '{names[m[1]]}'",
                                entry["error"])
    return entry


# The names the programs use, and the names a renaming may give them: the
# same ones, so that two can swap, and others.
VARIABLES = (*NAMES, *SCOPED_NAMES)
RENAME_POOL = (*VARIABLES, "x", "y2", "_v", "isSearchAction", "Input")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(MODES), st.permutations(RENAME_POOL), st.sampled_from(FAULTS))
def test_renaming_the_variables_renames_only_what_the_entries_name(seed, mode, pool, fault):
    """Renaming every variable of a program through one bijection leaves every
    verdict, failing-binding line and Error entry as it was, up to the names."""
    rng = random.Random(seed)
    ast = parse_emr(pretty_print(program(mode, rng.randrange(2**32))), "g")
    names = dict(zip(VARIABLES, pool))
    other = EmrAst(ast.id, tuple(renamed(stmt, names) for stmt in ast.statements))
    inputs = [seeded_input(rng) for _ in range(2)]
    stubs = {**STUBS, **EXTRA_STUBS}
    before = run_suite([ast], inputs, MockShopSut(fault), stubs).entries
    after = run_suite([other], inputs, MockShopSut(fault), stubs).entries
    assert json.dumps([entry_renamed(e.to_json(), names) for e in before]) == json.dumps([e.to_json() for e in after])


@pytest.mark.parametrize("use, rule", [
    ("var i = Input(t);", "Input index must be an integer"),
    ("var o = Output(t);", "Output index must be an integer"),
    ("var o = Output(Input(1), t);", "Output position must be an integer"),
    ("CREATE(Input(t), Input(1));", "CREATE index must be an integer"),
], ids=["input", "output", "output-position", "create"])
def test_a_boolean_index_is_an_error_entry_naming_the_integer_rule(use, rule, shop_inputs):
    ast = parse_emr(f"MR {{{{ var t = true; {use} IMPLIES(true, true); }}}}", "boolean_index")
    assert validate(ast) == []  # check calls it clean; run refuses it when reached
    report = run_suite([ast], shop_inputs, MockShopSut(), STUBS)
    assert [(e.outcome, e.error) for e in report.entries] == [("Error", rule)] * len(shop_inputs)


def two_argument_outputs(node: Node) -> list[Call]:
    """The two-argument ``Output`` calls in ``node``, in pre-order."""
    found = [node] if isinstance(node, Call) and node.name == "Output" and len(node.args) == 2 else []
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, Node):
                found += two_argument_outputs(child)
    return found


# What may stand where ``Output`` takes ``Input(i)``: a name (bound to a
# sequence, an integer or nothing), a stub call, or a literal.
NOT_INPUT_CALLS = st.one_of(
    st.sampled_from(NAMES).map(Name),
    st.sampled_from([Call("probe"), Call("applyFilter", (Call("Input", (IntLit(1),)), IntLit(0), StringLit("price")))]),
    st.integers(0, 3).map(IntLit), st.booleans().map(BoolLit), st.sampled_from(["", "s"]).map(StringLit),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), NOT_INPUT_CALLS, st.data())
def test_check_and_run_agree_on_a_two_argument_output_of_anything_but_an_input_call(seed, first, data):
    """The first valid typed program from ``seed`` on that holds a
    two-argument ``Output``, with that ``Output``'s ``Input(i)`` replaced:
    ``validate`` reports the one error, and ``run_suite`` gives exactly that
    error on every input, on the mock shop and under each fault."""
    while True:
        ast = ProgramGen(seed, typed=True).program()
        outputs = [call for stmt in ast.statements for call in two_argument_outputs(stmt)]
        if outputs and not has_errors(validate(ast)):
            break
        seed += 1
    chosen = outputs[data.draw(st.integers(0, len(outputs) - 1))]
    chosen.args = (first, chosen.args[1])
    ast = parse_emr(pretty_print(ast), "g")
    [line] = {call.line for stmt in ast.statements for call in two_argument_outputs(stmt)
              if not (isinstance(call.args[0], Call) and call.args[0].name == "Input")}
    message = "Output sequence must be an Input(i) expression"
    assert [(d.message, d.line) for d in validate(ast) if d.severity == "error"] == [(message, line)]
    rng = random.Random(seed)
    inputs = [seeded_input(rng) for _ in range(3)]
    error = f"EMR 'g' has validation errors: {message} (line {line})"
    for fault in FAULTS:
        entries = run_suite([ast], inputs, MockShopSut(fault), {**STUBS, **EXTRA_STUBS}).entries
        assert [(e.outcome, e.error) for e in entries] == [("Error", error)] * len(inputs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 3), st.sampled_from(FAULTS))
def test_run_suite_gives_one_entry_per_pair_and_never_raises(seed, emr_count, input_count, fault):
    """Half the programs are typed, so they pass validation and run; the
    others mostly test the Error entries of invalid EMRs."""
    rng = random.Random(seed)
    emrs = [dataclasses.replace(ProgramGen(rng.randrange(2**32), typed=rng.random() < 0.5).program(), id=f"g{i}")
            for i in range(emr_count)]
    inputs = [seeded_input(rng) for _ in range(input_count)]
    report = run_suite(emrs, inputs, MockShopSut(fault), STUBS)
    assert [(e.emr_id, e.input_index) for e in report.entries] == [
        (ast.id, i) for ast in emrs for i in range(input_count)]


def test_typed_programs_reach_verdicts():
    """Typed programs run: on four seeded inputs each, 100 programs give 323
    or more verdicts of the 400 entries, each kind of verdict occurs, the
    rare ``purchase`` still reaches the adapter Error, and no stub raises a
    bare Python exception."""
    counts: collections.Counter[str] = collections.Counter()
    for seed in range(100):
        rng = random.Random(seed)
        ast = ProgramGen(seed, typed=True).program()
        report = run_suite([ast], [seeded_input(rng) for _ in range(4)], MockShopSut(), STUBS)
        counts.update(entry.error or entry.outcome for entry in report.entries)
    assert counts["Pass"] and counts["Fail"] and counts["Inapplicable"]
    assert counts["Pass"] + counts["Fail"] + counts["Inapplicable"] >= 323
    assert counts["mock shop does not support action kind 'purchase'"]
    assert not [outcome for outcome in counts if re.match(r"\w+: ", outcome)]


# Statement-level runtime errors. Each index appears as a literal and as a
# variable, which compile to different closures.
@pytest.mark.parametrize("statements, error", [
    ("var n = 3; if (n) { NOT(false); }", "if condition evaluated to non-boolean 3"),
    ("var n = 3; IMPLIES(n, true);", "IMPLIES antecedent evaluated to non-boolean 3"),
    ("var n = 3; IMPLIES(true, n);", "IMPLIES consequent evaluated to non-boolean 3"),
    ('var n = "a"; !n;', "'!' operand evaluated to non-boolean 'a'"),
    ("var n = 3; true && n;", "'&&' operand evaluated to non-boolean 3"),
    ("var n = 3; false || n;", "'||' operand evaluated to non-boolean 3"),
    ("var s = Input(3);", "Input(3) is not registered; CREATE it first"),
    ("var k = 3; var s = Input(k);", "Input(3) is not registered; CREATE it first"),
    ("var o = Output(3);", "Input(3) is not registered; CREATE it first"),
    ("var k = 3; var o = Output(k);", "Input(3) is not registered; CREATE it first"),
    ("var o = Output(Input(3), 0);", "Input(3) is not registered; CREATE it first"),
    ("CREATE(Input(2), Input(1)); var o = Output(Input(2), 9);", "position 9 out of range for sequence of length 2"),
    ("var k = 2; var p = 9; CREATE(Input(k), Input(1)); var o = Output(Input(k), p);",
     "position 9 out of range for sequence of length 2"),
    ("CREATE(Input(2), 5);", "CREATE source must be an input sequence"),
    ("IMPLIES(Output(1), true);", "IMPLIES antecedent evaluated to non-boolean OutputSequence(len=2)"),
    ("IMPLIES(Input(1), true);", "IMPLIES antecedent evaluated to non-boolean ActionSequence(len=2)"),
    ('var s = applyFilter(Input(1), 0, "price"); IMPLIES(CREATE(Input(2), s), true); var x = s.foo();',
     "method 'foo' is not defined on ActionSequence(len=2)"),
    ("for (var o : Output(Input(1), 0)) { NOT(false); }", "cannot iterate over Output(status=ok, size=5)"),
], ids=["if", "implies-antecedent", "implies-consequent", "bang", "and", "or", "input", "input-var", "output",
        "output-var", "output-at-unregistered", "output-at-range", "output-at-range-var", "create-source",
        "render-output-sequence", "render-input", "render-created-follow-up", "render-output"])
def test_statement_level_run_time_errors_are_error_entries(statements, error):
    ast = parse_emr(f"MR {{{{ {statements} IMPLIES(true, true); }}}}", "statement_error")
    assert not has_errors(validate(ast))
    source = ActionSequence.from_json([{"kind": "search", "parameters": {"query": "chair"}},
                                       {"kind": "search", "parameters": {"query": "desk"}}])
    report = run_suite([ast], [source], MockShopSut(), STUBS)
    assert [(e.outcome, e.error) for e in report.entries] == [("Error", error)]


# A bare statement is a check only when its value is a boolean, and a
# ``continue`` in a multi-statement ``if`` body ends only that iteration: the
# loop's check fails once, on the second action.
@pytest.mark.parametrize("statements, verdict, failing", [
    ("Input(1);", "Inapplicable", []),
    ("three();", "Inapplicable", []),
    ("CREATE(Input(2), Input(1));", "Pass", []),
    ("for (var a : Input(1)) { if (isSearch(a)) { var k = 1; continue; IMPLIES(true, false); } IMPLIES(true, false); }",
     "Fail", [{"a": "login@1"}]),
], ids=["bare-input", "bare-number", "bare-create", "continue-in-if-body"])
def test_statement_level_verdicts(statements, verdict, failing):
    ast = parse_emr(f"MR {{{{ {statements} }}}}", "statement_verdict")
    assert not has_errors(validate(ast))
    source = ActionSequence.from_json([{"kind": "search", "parameters": {"query": "chair"}},
                                       {"kind": "login", "parameters": {"user": "tester"}}])
    stubs = {"three": lambda: 3, "isSearch": lambda action: action.kind == "search"}
    [entry] = run_suite([ast], [source], MockShopSut(), stubs).entries
    assert (entry.outcome, entry.error) == (verdict, None)
    assert [f.bindings for f in entry.verdict.failing_bindings] == failing


# Every name has one rule: a ``var`` binds in the innermost loop body or, outside
# any loop, in the EMR body (an ``if`` body is part of the enclosing one), and
# holds for one iteration; a read falls outward while a scope holds no value
# for the name; a failing check names each enclosing loop's variable once. The
# source is a search then a login; ``pq`` returns two strings.
@pytest.mark.parametrize("statements, outcome, error, failing", [
    ("var x = 1; for (var a : Input(1).actions()) { if (false) { var x = 2; } IMPLIES(true, x); }",
     "Error", "IMPLIES consequent evaluated to non-boolean 1", []),
    ("var x = 1; for (var a : Input(1).actions()) { if (true) { var x = 2; } IMPLIES(true, x); }",
     "Error", "IMPLIES consequent evaluated to non-boolean 2", []),
    ("for (var a : Input(1).actions()) { if (isSearch(a)) { var z = true; } IMPLIES(true, z); }",
     "Error", "unbound identifier 'z'", []),
    ("for (var a : Input(1).actions()) { IMPLIES(true, y); var y = true; }", "Error", "unbound identifier 'y'", []),
    ("var y = false; for (var a : Input(1).actions()) { IMPLIES(true, y); var y = true; }", "Fail", None,
     [{"a": "search@0"}, {"a": "login@1"}]),
    ("for (var a : Input(1).actions()) { var w = true; } IMPLIES(true, w);", "Error", "unbound identifier 'w'", []),
    ("for (var a : Input(1).actions()) { IMPLIES(true, t); } var t = true;", "Error", "unbound identifier 't'", []),
    ("for (var a : Input(1).actions()) { var a = 5; IMPLIES(true, false); }", "Fail", None, [{"a": "5"}] * 2),
    ("for (var a : Input(1).actions()) { for (var a : pq()) { IMPLIES(true, false); } }", "Fail", None,
     [{"a": "'p'"}, {"a": "'q'"}] * 2),
    ("for (var a : Input(1).actions()) { for (var b : pq()) { IMPLIES(isSearch(a), false); } }", "Fail", None,
     [{"a": "search@0", "b": "'p'"}, {"a": "search@0", "b": "'q'"}]),
    ("var x = false; IMPLIES(true, x && y);", "Fail", None, [{}]),
    ("var x = true; IMPLIES(true, x && y);", "Error", "unbound identifier 'y'", []),
], ids=["var-in-if-not-taken", "var-in-if-taken", "var-per-iteration", "read-before-var", "read-before-var-outer",
        "loop-var-not-after-loop", "var-after-loop", "var-redeclares-loop-var", "nested-loops-one-name",
        "nested-loops-two-names", "unbound-name-short-circuited", "unbound-name-reached"])
def test_every_name_has_one_rule(statements, outcome, error, failing):
    ast = parse_emr(f"MR {{{{ {statements} }}}}", "scoping")
    assert not has_errors(validate(ast))
    source = ActionSequence.from_json([{"kind": "search", "parameters": {"query": "chair"}},
                                       {"kind": "login", "parameters": {"user": "tester"}}])
    stubs = {"isSearch": lambda action: action.kind == "search", "pq": lambda: ["p", "q"]}
    [entry] = run_suite([ast], [source], MockShopSut(), stubs).entries
    bindings = [f.bindings for f in entry.verdict.failing_bindings] if entry.verdict else []
    assert (entry.outcome, entry.error, bindings) == (outcome, error, failing)


def test_every_registration_goes_through_register_and_execute(shop_inputs, monkeypatch):
    """The benchmark counts a pair's SUT sessions by wrapping
    ``Evaluator.register_and_execute``, so every session a run opens must be
    opened there."""
    from emrkit.runtime.evaluate import Evaluator

    registrations, sessions = [], []
    register, open_session = Evaluator.register_and_execute, MockShopSut.__call__

    def counting_register(self, index, sequence):
        registrations.append(index)
        return register(self, index, sequence)

    def counting_session(self):
        sessions.append(self.fault)
        return open_session(self)

    monkeypatch.setattr(Evaluator, "register_and_execute", counting_register)
    monkeypatch.setattr(MockShopSut, "__call__", counting_session)
    emrs = [parse_emr(path.read_text(encoding="utf-8"), path.stem) for path in BUNDLED_EMRS]
    for fault in FAULTS:
        run_suite(emrs, shop_inputs, MockShopSut(fault), STUBS)
    executed = registrations.count(1)  # the source input of each executed pair
    assert executed > 0 and len(registrations) > executed
    assert len(registrations) == len(sessions)


# -- which registrations copy ------------------------------------------------
#
# An input the EMR reads back is registered as a copy, and so is the source
# input; a CREATEd input whose outputs alone the EMR reads is executed as
# the stub built it, and only its outputs are kept.


def registration_copies(monkeypatch) -> list[int]:
    """The input index of each copy a registration makes from now on; a copy
    made outside a registration, as ``create_followup`` makes, is not listed."""
    copies, registering = [], []
    copy_sequence, register = ActionSequence.copy, Evaluator.register_and_execute

    def counting_copy(self):
        copies.extend(registering[-1:])
        return copy_sequence(self)

    def counting_register(self, index, sequence):
        registering.append(index)
        try:
            register(self, index, sequence)
        finally:
            registering.pop()

    monkeypatch.setattr(ActionSequence, "copy", counting_copy)
    monkeypatch.setattr(Evaluator, "register_and_execute", counting_register)
    return copies


def searches(*queries: str) -> ActionSequence:
    return ActionSequence.from_json([{"kind": "search", "parameters": {"query": q}} for q in queries])


def desk(sequence: ActionSequence) -> ActionSequence:
    return create_followup(sequence, [SetParameter(0, "query", "desk")])


COPY_STUBS = {
    "desk": desk,
    "isDesk": lambda sequence: sequence.actions[0].parameters["query"] == "desk",
    "found": lambda output: output.summary_size > 0,
    "isSearch": lambda action: action.kind == "search",
}


def test_an_input_read_back_is_the_snapshot_its_create_registered(monkeypatch):
    """The stub keeps the follow-up it handed to CREATE and changes it in a
    later call; the EMR reads Input(2) back and sees what was registered."""
    kept = []

    def keep(sequence):
        kept.append(desk(sequence))
        return kept[-1]

    def spoil():
        kept[-1].actions[0].parameters["query"] = "lamp"
        kept[-1].actions.append(kept[-1].actions[0])
        return True

    ast = parse_emr("MR {{ CREATE(Input(2), keep(Input(1))); IMPLIES(spoil(), isDesk(Input(2)) && "
                    "one(Input(2)) && three(Output(Input(2), 0))); }}", "snapshot")
    assert not has_errors(validate(ast))
    stubs = {**COPY_STUBS, "keep": keep, "spoil": spoil, "one": lambda sequence: len(sequence.actions) == 1,
             "three": lambda output: output.summary_size == 3}
    copies = registration_copies(monkeypatch)
    [entry] = run_suite([ast], [searches("chair")], MockShopSut(), stubs).entries
    assert (entry.outcome, entry.error) == ("Pass", None)
    assert [a.parameters["query"] for a in kept[0].actions] == ["lamp", "lamp"]
    assert copies == [1, 2]


def test_an_input_read_only_through_its_outputs_is_run_without_a_copy(suite_asts, shop_inputs, monkeypatch):
    """The four EMRs read Input(2) and Input(3) only through
    ``Output(Input(k), pos)``. Each gives the verdicts and failing bindings
    it gives with an ``Input`` read whose index is not a literal added on
    its first line, which makes every registration copy."""
    copying_asts = [parse_emr(read_fixture(f"{ast.id}.smrl").replace("MR {{", "MR {{ var one = 1; var "
                                                                       "everyInput = Input(one);", 1), ast.id)
                    for ast in suite_asts]
    copies = registration_copies(monkeypatch)
    runs = {}
    for name, emrs in [("outputs-only", suite_asts), ("copying", copying_asts)]:
        start = len(copies)
        entries = [e.to_json() for fault in FAULTS
                   for e in run_suite(emrs, shop_inputs, MockShopSut(fault), STUBS).entries]
        runs[name] = entries, collections.Counter(copies[start:])
    (outputs_only, read_copies), (copying, all_copies) = runs["outputs-only"], runs["copying"]
    assert outputs_only == copying
    assert {e["outcome"] for e in outputs_only} == {"Pass", "Fail", "Inapplicable"}
    assert any(e.get("failing_bindings") for e in outputs_only)
    assert set(read_copies) == {1} and read_copies[1] == all_copies[1] == len(outputs_only)
    assert all_copies[2] > 0 and all_copies[3] > 0


def test_the_source_input_is_copied_when_only_its_outputs_are_read(monkeypatch):
    ast = parse_emr("MR {{ IMPLIES(true, found(Output(Input(1), 0))); }}", "source_outputs")
    copies = registration_copies(monkeypatch)
    report = run_suite([ast], [searches("chair"), searches("desk")], MockShopSut(), COPY_STUBS)
    assert [(e.outcome, e.error) for e in report.entries] == [("Pass", None)] * 2
    assert copies == [1, 1]


# Each EMR passes; ``copies`` are the inputs its registrations copy, in order.
@pytest.mark.parametrize("statements, copies", [
    ("CREATE(Input(2), desk(Input(1))); IMPLIES(true, found(Output(Input(2), 0)));", [1]),
    ("CREATE(Input(2), desk(Input(1))); IMPLIES(true, isDesk(Input(2)));", [1, 2]),
    ("CREATE(Input(2), desk(Input(1))); for (var a : Input(2).actions()) { IMPLIES(true, isSearch(a)); }", [1, 2]),
    ("var j = 2; CREATE(Input(2), desk(Input(1))); CREATE(Input(3), desk(Input(1))); IMPLIES(true, isDesk(Input(j)));",
     [1, 2, 3]),
    ("var j = 2; CREATE(Input(2), desk(Input(1))); CREATE(Input(3), desk(Input(1))); "
     "IMPLIES(true, found(Output(Input(j), 0)));", [1]),
    ("var i = 2; CREATE(Input(i), desk(Input(1))); CREATE(Input(3), desk(Input(1))); IMPLIES(true, isDesk(Input(2)));",
     [1, 2]),
], ids=["outputs-only", "literal-read", "read-in-a-loop", "non-literal-read", "non-literal-output-at",
        "non-literal-create-index"])
def test_a_registration_copies_each_input_the_emr_reads_back(statements, copies, monkeypatch):
    ast = parse_emr(f"MR {{{{ {statements} }}}}", "reads")
    assert not has_errors(validate(ast))
    copied = registration_copies(monkeypatch)
    [entry] = run_suite([ast], [searches("chair")], MockShopSut(), COPY_STUBS).entries
    assert (entry.outcome, entry.error) == ("Pass", None)
    assert copied == copies


def test_output_at_an_input_before_its_create_is_an_error_entry():
    ast = parse_emr("MR {{ var o = Output(Input(2), 0); CREATE(Input(2), Input(1)); IMPLIES(true, true); }}",
                    "output_before_create")
    [entry] = run_suite([ast], [searches("chair")], MockShopSut(), STUBS).entries
    assert (entry.outcome, entry.error) == ("Error", "Input(2) is not registered; CREATE it first")
