import copy
import json

import pytest

from conftest import INPUT_NAMES
from emrkit.dsl import parse_emr
from emrkit.runtime import ActionSequence, VerdictValue, evaluate_emr, run_suite
from emrkit.shopstubs import STUBS
from emrkit.sut import MockShopSut, record_replay
from emrkit.resources import read_fixture

SUITE_EMRS = ["search_filter", "pagination", "order_independence", "filter_subset"]

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
        for ast in suite_asts:
            assert report.counts_for(ast.id) == EXPECTED_MATRIX[(ast.id, fault)], (ast.id, fault)


def test_each_fault_is_caught_by_exactly_one_bundled_emr(suite_asts, shop_inputs):
    catchers = {}
    for fault in ["ignore-filter", "off-by-one-pagination", "stale-results"]:
        report = run_suite(suite_asts, shop_inputs, MockShopSut(fault), STUBS, input_names=INPUT_NAMES)
        catchers[fault] = [emr for emr in report.emr_ids if "Fail" in report.counts_for(emr)]
    assert catchers == {
        "ignore-filter": ["search_filter"],
        "off-by-one-pagination": ["pagination"],
        "stale-results": ["order_independence"],
    }


def test_empty_suite_is_empty_report():
    report = run_suite([], [], MockShopSut(), STUBS)
    assert report.entries == [] and report.emr_ids == []
    assert not report.has_failures


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
    emrs = [*suite_asts, unbound]
    report = run_suite(emrs, shop_inputs, MockShopSut(), STUBS)
    assert calls == [ast.id for ast in emrs]
    assert report.counts_for("unbound") == {"NotExecutable": len(shop_inputs)}
    assert all(e.verdict.stubs == ["mystery"] for e in report.entries if e.emr_id == "unbound")


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
    assert report.counts_for("search_filter") == {"Pass": 1, "Inapplicable": 1}


def test_adapter_failure_recorded_per_pair_without_aborting(suite_asts):
    inputs = [
        ActionSequence.from_json([{"kind": "purchase", "parameters": {}}]),
        ActionSequence.from_json([{"kind": "search", "parameters": {"query": "chair"}}]),
    ]
    report = run_suite(suite_asts[:1], inputs, MockShopSut(), STUBS)
    assert [e.outcome for e in report.entries] == ["Error", "Pass"]
    assert report.has_errors


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
    assert json.dumps(replayed.to_json(), sort_keys=True) == json.dumps(live.to_json(), sort_keys=True)


def test_report_text_table_lists_every_emr(suite_asts, shop_inputs):
    report = run_suite(suite_asts, shop_inputs, MockShopSut("ignore-filter"), STUBS, input_names=INPUT_NAMES)
    text = report.to_text()
    for name in SUITE_EMRS:
        assert name in text
    assert "failing bindings:" in text and "filterType" in text


def test_report_json_shape(suite_asts, shop_inputs):
    report = run_suite(suite_asts[:1], shop_inputs[:1], MockShopSut(), STUBS)
    data = report.to_json()
    assert data["per_emr"] == {"search_filter": {"Pass": 1}}
    (entry,) = data["results"]
    assert entry["outcome"] == "Pass" and entry["emr"] == "search_filter"
