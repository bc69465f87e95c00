import copy
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import holds
from emrkit.dsl import parse_emr
from emrkit.runtime import (
    Action,
    ActionSequence,
    EvalError,
    InsertAction,
    Output,
    PositionOutOfRange,
    RemoveAction,
    SetParameter,
    VerdictValue,
    create_followup,
    evaluate_emr,
)
from emrkit.sut import MockShopSut


# --- boolean construct semantics ------------------------------------------------


def test_implies_truth_table_matches_not_x_or_y():
    for x, y in itertools.product([False, True], repeat=2):
        assert holds("IMPLIES(a, b)", a=x, b=y) == ((not x) or y)


def test_not_and_or_and_infix_tables():
    for x in [False, True]:
        assert holds("NOT(a)", a=x) == (not x)
    for x, y in itertools.product([False, True], repeat=2):
        assert holds("OR(a, b)", a=x, b=y) == (x or y)
        assert holds("AND(a, b)", a=x, b=y) == (x and y)
        assert holds("a && b", a=x, b=y) == (x and y)
        assert holds("a || b", a=x, b=y) == (x or y)


def test_or_identity():
    for x in [False, True]:
        assert holds("OR(false, a)", a=x) == x


def test_short_circuit_skips_right_side():
    calls = []

    def boom():
        calls.append("boom")
        return True

    assert holds("IMPLIES(false, explode())", {"explode": boom}) is True
    assert holds("OR(true, explode())", {"explode": boom}) is True
    assert holds("AND(false, explode())", {"explode": boom}) is False
    assert calls == []


def test_type_mismatch_on_non_boolean_operand():
    with pytest.raises(EvalError, match="^NOT operand evaluated to non-boolean 3$"):
        holds("NOT(n)", n=3)


@pytest.mark.parametrize(
    "snippet, context",
    [
        ("!n", "'!' operand"),
        ("t && n", "'&&' operand"),
        ("f || n", "'||' operand"),
        ("NOT(n)", "NOT operand"),
        ("AND(t, n)", "AND operand"),
        ("OR(n, t)", "OR operand"),
        ("IMPLIES(n, t)", "IMPLIES antecedent"),
        ("IMPLIES(t, n)", "IMPLIES consequent"),
        ("t && IMPLIES(n, t)", "IMPLIES antecedent"),
    ],
)
def test_type_mismatch_names_the_operand(snippet, context):
    with pytest.raises(EvalError) as info:
        holds(snippet, n=3, t=True, f=False)
    assert str(info.value) == f"{context} evaluated to non-boolean 3"


def test_infix_chains_short_circuit_left_to_right():
    calls = []

    def probe(value):
        calls.append(value)
        return value

    stubs = {"p": probe}
    assert holds("p(true) && p(false) && p(true)", stubs) is False
    assert holds("p(false) || p(true) || p(false)", stubs) is True
    assert calls == [True, False, False, True]


# --- follow-up construction ----------------------------------------------------


def seq(*kinds: str) -> ActionSequence:
    return ActionSequence([Action(i, k, {"query": k}) for i, k in enumerate(kinds)])


def test_building_a_sequence_from_anothers_actions_leaves_them_numbered():
    source = seq("search", "login")
    tail = ActionSequence(source.actions[1:])
    assert [a.position for a in source.actions] == [0, 1]
    assert [(a.position, a.kind) for a in tail.actions] == [(0, "login")]


def test_identity_copy_is_equal_but_isolated():
    source = seq("search", "login")
    clone = create_followup(source)
    assert clone == source and clone is not source
    clone.actions[0].parameters["query"] = "changed"
    assert source.actions[0].parameters["query"] == "search"


def test_set_parameter_edits_only_the_target_position():
    source = seq("search", "search")
    edited = create_followup(source, [SetParameter(1, "category", "office")])
    assert "category" not in edited.actions[0].parameters
    assert edited.actions[1].parameters["category"] == "office"
    assert source.actions[1].parameters == {"query": "search"}


def test_position_out_of_range():
    with pytest.raises(PositionOutOfRange):
        create_followup(seq("search"), [SetParameter(3, "x", 1)])
    with pytest.raises(PositionOutOfRange):
        create_followup(seq("search"), [RemoveAction(1)])
    with pytest.raises(PositionOutOfRange) as info:
        create_followup(seq("search"), [InsertAction(2, "login")])
    assert str(info.value) == "position 2 out of range for sequence of length 1"


def test_an_unknown_edit_raises():
    with pytest.raises(TypeError) as info:
        create_followup(seq("search"), ["login"])
    assert str(info.value) == "unknown edit: 'login'"


def test_insert_and_remove_redensify_positions():
    source = seq("a", "b", "c")
    inserted = create_followup(source, [InsertAction(1, "z", {})])
    assert [a.kind for a in inserted.actions] == ["a", "z", "b", "c"]
    assert [a.position for a in inserted.actions] == [0, 1, 2, 3]
    removed = create_followup(source, [RemoveAction(0)])
    assert [a.kind for a in removed.actions] == ["b", "c"]
    assert [a.position for a in removed.actions] == [0, 1]


def test_random_edit_property_non_edited_positions_unchanged():
    rng = random.Random(11)
    kinds = ["search", "login", "view"]
    for _ in range(50):
        source = ActionSequence(
            [
                Action(i, rng.choice(kinds), {"n": rng.randint(0, 9)})
                for i in range(rng.randint(1, 6))
            ],
        )
        before = copy.deepcopy(source)
        pos = rng.randrange(len(source.actions))
        edited = create_followup(source, [SetParameter(pos, "extra", rng.randint(0, 9))])
        assert source == before  # the source is never mutated
        for i, action in enumerate(edited.actions):
            if i != pos:
                assert action == source.actions[i]
            else:
                assert "extra" in action.parameters


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
ACTIONS = st.lists(st.tuples(st.integers(-2, 9), st.sampled_from(["search", "login"]),
                             st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=4)), max_size=5)


def mutable_ids(value) -> set[int]:
    """The ids of every mutable object reachable from a runtime value."""
    if isinstance(value, ActionSequence):
        return {id(value), id(value.actions)}.union(*map(mutable_ids, value.actions))
    if isinstance(value, Action):
        return {id(value)} | mutable_ids(value.parameters)
    if isinstance(value, dict):
        return {id(value)}.union(*map(mutable_ids, value.values()))
    if isinstance(value, list):
        return {id(value)}.union(*map(mutable_ids, value))
    return set()


@given(ACTIONS)
def test_a_copy_is_a_dense_deep_copy_that_shares_no_mutable_object(actions):
    source = ActionSequence([Action(0, kind, parameters) for _, kind, parameters in actions])
    for action, (position, _, _) in zip(source.actions, actions):
        action.position = position  # positions the copy must make dense again
    copied = source.copy()
    assert copied == ActionSequence(copy.deepcopy(source.actions))  # renumbered from 0
    assert [a.position for a in copied.actions] == list(range(len(actions)))
    assert all(list(vars(a)) == ["position", "kind", "parameters"] for a in copied.actions)
    assert list(vars(copied)) == ["actions"]
    assert not mutable_ids(copied) & mutable_ids(source)


def test_the_outputs_a_run_builds_equal_the_ones_a_class_call_builds():
    from emrkit.runtime.evaluate import Evaluator
    from emrkit.runtime.values import OutputSequence

    session = MockShopSut()()
    for parameters in ({"query": "chair"}, {"query": "", "page": 1, "page_size": 4}):
        output = session.execute(Action(0, "search", parameters))
        reference = Output(output.status, output.payload, output.summary_size)
        assert output == reference and list(vars(output)) == list(vars(reference))
    evaluator = Evaluator(MockShopSut(), 0, None)
    evaluator.register_and_execute(2, seq("search", "login"))
    outputs = evaluator.outputs[2]
    reference = OutputSequence(list(outputs.outputs))
    assert outputs == reference and list(vars(outputs)) == list(vars(reference))


# --- whole-EMR evaluation -------------------------------------------------------


def run_src(source: str, input_seq=None, stubs=None, fault=None):
    ast = parse_emr(source)
    source_input = input_seq or seq("search")
    return evaluate_emr(ast, source_input, MockShopSut(fault), stubs or {})


def test_vacuous_antecedent_is_inapplicable():
    verdict = run_src("MR {{ IMPLIES(false, false); }}")
    assert verdict.value is VerdictValue.INAPPLICABLE
    assert not verdict.failing_bindings


def test_consequent_failure_is_fail_with_binding():
    verdict = run_src("MR {{ IMPLIES(true, false); }}")
    assert verdict.value is VerdictValue.FAIL
    assert verdict.failing_bindings


def test_pass_when_an_antecedent_held():
    assert run_src("MR {{ IMPLIES(true, true); }}").value is VerdictValue.PASS


def test_bare_boolean_statement_asserts_itself():
    assert run_src("MR {{ NOT(false); }}").value is VerdictValue.PASS
    assert run_src("MR {{ NOT(true); }}").value is VerdictValue.FAIL


def test_loop_without_matching_actions_is_inapplicable():
    source = """MR {{
    for (var a : Input(1).actions()) {
        if (!isSearch(a)) continue;
        IMPLIES(true, false);
    }
    }}"""
    verdict = run_src(
        source,
        input_seq=ActionSequence([Action(0, "login", {})]),
        stubs={"isSearch": lambda a: a.kind == "search"},
    )
    assert verdict.value is VerdictValue.INAPPLICABLE


def test_unbound_stub_gives_not_executable_without_touching_sut():
    verdict = run_src("MR {{ IMPLIES(mystery(), true); }}")
    assert verdict.value is VerdictValue.NOT_EXECUTABLE
    assert verdict.stubs == ["mystery"]


def test_not_executable_iff_stubs_nonempty():
    executable = run_src("MR {{ IMPLIES(true, true); }}")
    assert executable.value is not VerdictValue.NOT_EXECUTABLE and not executable.stubs


def test_validation_errors_raise():
    with pytest.raises(EvalError):
        run_src("MR {{ IMPLIES(true); }}")


def test_create_registers_input_and_outputs_resolve():
    source = """MR {{
    var probe = Input(1);
    IMPLIES(
    CREATE(Input(2), withQuery(probe)) && true,
    hasSize(Output(Input(2), 0), 5)
    );
    }}"""
    stubs = {
        "withQuery": lambda s: create_followup(s, [SetParameter(0, "query", "chair")]),
        "hasSize": lambda out, n: out.summary_size == n,
    }
    verdict = run_src(source, input_seq=seq("search"), stubs=stubs)
    assert verdict.value is VerdictValue.PASS, verdict


def test_create_copy_isolation_source_untouched():
    captured = {}

    def grab(s):
        captured["seq"] = s
        return s

    source_input = seq("search")
    snapshot = copy.deepcopy(source_input)
    run_src("MR {{ IMPLIES(CREATE(Input(2), grab(Input(1))) && true, true); }}",
            input_seq=source_input, stubs={"grab": grab})
    assert source_input == snapshot


def test_a_short_circuited_create_executes_and_registers_nothing():
    sessions = []

    def open_session():
        sessions.append(1)
        return MockShopSut()()

    ast = parse_emr("MR {{ var f = false; IMPLIES(f && CREATE(Input(2), Input(1)), true); }}")
    verdict = evaluate_emr(ast, seq("search"), open_session)
    assert verdict.value is VerdictValue.INAPPLICABLE
    assert sessions == [1]  # the source input's session alone
    with pytest.raises(EvalError, match=r"^Input\(2\) is not registered; CREATE it first$"):
        run_src("MR {{ var f = false; IMPLIES(f && CREATE(Input(2), Input(1)), true); var o = Output(Input(2), 0); }}")


def test_output_position_out_of_range():
    with pytest.raises(PositionOutOfRange):
        run_src("MR {{ var x = Output(Input(1), 7); NOT(false); }}")


def test_one_argument_output_is_the_output_sequence_of_that_input():
    source = "MR {{ IMPLIES(true, outputs(Output(1), 2)); }}"
    stubs = {"outputs": lambda sequence, n: [o.status for o in sequence.outputs] == ["ok"] * n}
    assert run_src(source, input_seq=seq("search", "search"), stubs=stubs).value is VerdictValue.PASS
    assert run_src(source, input_seq=seq("search"), stubs=stubs).value is VerdictValue.FAIL


def test_a_loop_over_an_input_binds_its_actions():
    source = "MR {{ for (var a : Input(1)) { IMPLIES(true, isSearch(a)); } }}"
    verdict = run_src(source, input_seq=seq("search", "login"), stubs={"isSearch": lambda a: a.kind == "search"})
    assert verdict.value is VerdictValue.FAIL
    assert [(f.line, f.bindings) for f in verdict.failing_bindings] == [(1, {"a": "login@1"})]


def test_unregistered_input_errors():
    with pytest.raises(EvalError):
        run_src("MR {{ var x = Input(3); }}")


def test_nested_implies_is_pure_boolean_not_a_check():
    # The nested IMPLIES(true, false) is false, but it only feeds the outer
    # antecedent; no failure is recorded for it.
    verdict = run_src("MR {{ IMPLIES(IMPLIES(true, false), false); }}")
    assert verdict.value is VerdictValue.INAPPLICABLE


def test_vacuity_property_antecedent_false_never_fails():
    rng = random.Random(3)
    consequents = ["false", "true", "explode()"]
    for _ in range(30):
        consequent = rng.choice(consequents)
        verdict = run_src(
            f"MR {{{{ IMPLIES(false, {consequent}); }}}}",
            stubs={"explode": lambda: (_ for _ in ()).throw(RuntimeError("must not evaluate"))},
        )
        assert verdict.value is VerdictValue.INAPPLICABLE


def test_determinism_same_inputs_same_verdict(filter_emr_ast, shop_inputs):
    from emrkit.shopstubs import STUBS

    first = evaluate_emr(filter_emr_ast, shop_inputs[0], MockShopSut(), STUBS)
    second = evaluate_emr(filter_emr_ast, shop_inputs[0], MockShopSut(), STUBS)
    assert first == second


def test_result_stubs_read_no_ids_from_a_login_output():
    from emrkit.shopstubs import STUBS

    session = MockShopSut()()
    login = session.execute(Action(0, "login", {"user": "tester"}))
    search = session.execute(Action(1, "search", {"query": "chair"}))
    assert isinstance(login.payload, dict) and search.payload
    assert STUBS["isSubsetOf"](login, search) and not STUBS["isSubsetOf"](search, login)
    assert STUBS["sameResults"](login, login) and not STUBS["sameResults"](login, search)


@pytest.mark.parametrize(
    "statement, message",
    [
        ("var t = true; CREATE(Input(t), Input(1));", "CREATE index must be an integer"),
        ("var k = Input(1).foo();", "method 'foo' is not defined on ActionSequence(len=1)"),
        ("for (var x : 5) { NOT(false); }", "cannot iterate over 5"),
        ("var o = Output(3);", "Input(3) is not registered; CREATE it first"),
        ('var k = "a"; var i = Input(k);', "Input index must be an integer"),
        ('var k = "a"; var o = Output(k);', "Output index must be an integer"),
        ('var k = "a"; var o = Output(Input(1), k);', "Output position must be an integer"),
        ("var t = true; var o = Output(Input(1), t);", "Output position must be an integer"),
        ('var k = "a"; var o = Output(Input(k), 0);', "Input index must be an integer"),
        ("var k = 4; var o = Output(Input(k), 0);", "Input(4) is not registered; CREATE it first"),
        ("CREATE(Input(2), 5);", "CREATE source must be an input sequence"),
        ("for (var a : Input(1)) { var p = a.getParameter(); }", "method 'getParameter' takes 1 argument, not 0"),
        ("for (var a : Input(1).actions(7)) { NOT(false); }", "method 'actions' takes 0 arguments, not 1"),
        ("for (var a : Input(1).actions()) { var k = a.getKind(1, 2); }", "method 'getKind' takes 0 arguments, not 2"),
    ],
    ids=["create-index-bool", "unknown-method", "not-iterable", "unregistered-output", "input-index-string",
         "output-index-string", "output-position-string", "output-position-bool", "output-at-index-string",
         "output-at-unregistered",
         "create-source", "getparameter-arity", "actions-arity", "getkind-arity"],
)
def test_run_time_errors_raise_only_when_reached(statement, message):
    unreached = run_src(f"MR {{{{ if (false) {{ {statement} }} IMPLIES(true, true); }}}}")
    assert unreached.value is VerdictValue.PASS
    with pytest.raises(EvalError) as info:
        run_src(f"MR {{{{ if (true) {{ {statement} }} IMPLIES(true, true); }}}}")
    assert type(info.value) is EvalError and str(info.value) == message


def test_an_emr_is_validated_before_it_compiles():
    with pytest.raises(EvalError) as info:
        run_src("MR {{ IMPLIES(true, OR(true, NOT(true, false))); }}")
    assert str(info.value) == "EMR 'emr' has validation errors: NOT expects 1 argument (line 1)"


def test_the_runtime_methods_are_the_ones_validate_accepts():
    from emrkit.dsl.ast import METHOD_ARITY
    from emrkit.runtime.evaluate import _METHODS

    assert set(_METHODS) == set(METHOD_ARITY)
