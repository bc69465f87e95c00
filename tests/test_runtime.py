import copy
import itertools
import random

import pytest

from emrkit.dsl import parse_emr
from emrkit.dsl.parser import parse_emr as parse
from emrkit.runtime import (
    Action,
    ActionSequence,
    EvalError,
    InsertAction,
    MissingStub,
    PositionOutOfRange,
    RemoveAction,
    SetParameter,
    TypeMismatch,
    VerdictValue,
    create_followup,
    eval_bool,
    evaluate_emr,
)
from emrkit.sut import MockShopSut


def expr_of(snippet: str):
    ast = parse(f"MR {{{{ var x = {snippet}; }}}}")
    return ast.statements[0].init


# --- boolean construct semantics ------------------------------------------------


def test_implies_truth_table_matches_not_x_or_y():
    for x, y in itertools.product([False, True], repeat=2):
        got = eval_bool(expr_of("IMPLIES(a, b)"), {"a": x, "b": y})
        assert got == ((not x) or y)


def test_not_and_or_and_infix_tables():
    for x in [False, True]:
        assert eval_bool(expr_of("NOT(a)"), {"a": x}) == (not x)
    for x, y in itertools.product([False, True], repeat=2):
        env = {"a": x, "b": y}
        assert eval_bool(expr_of("OR(a, b)"), env) == (x or y)
        assert eval_bool(expr_of("AND(a, b)"), env) == (x and y)
        assert eval_bool(expr_of("a && b"), env) == (x and y)
        assert eval_bool(expr_of("a || b"), env) == (x or y)


def test_or_identity():
    for x in [False, True]:
        assert eval_bool(expr_of("OR(false, a)"), {"a": x}) == x


def test_short_circuit_skips_right_side():
    calls = []

    def boom():
        calls.append("boom")
        return True

    assert eval_bool(expr_of("IMPLIES(false, explode())"), stubs={"explode": boom}) is True
    assert eval_bool(expr_of("OR(true, explode())"), stubs={"explode": boom}) is True
    assert eval_bool(expr_of("AND(false, explode())"), stubs={"explode": boom}) is False
    assert calls == []


def test_type_mismatch_on_non_boolean_operand():
    with pytest.raises(TypeMismatch):
        eval_bool(expr_of("NOT(n)"), {"n": 3})


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
    ],
)
def test_type_mismatch_names_the_operand(snippet, context):
    with pytest.raises(TypeMismatch) as info:
        eval_bool(expr_of(snippet), {"n": 3, "t": True, "f": False})
    assert str(info.value) == f"{context} evaluated to non-boolean 3"


def test_infix_chains_short_circuit_left_to_right():
    calls = []

    def probe(value):
        calls.append(value)
        return value

    stubs = {"p": probe}
    assert eval_bool(expr_of("p(true) && p(false) && p(true)"), stubs=stubs) is False
    assert eval_bool(expr_of("p(false) || p(true) || p(false)"), stubs=stubs) is True
    assert calls == [True, False, False, True]


# --- follow-up construction ----------------------------------------------------


def seq(*kinds: str) -> ActionSequence:
    return ActionSequence(1, [Action(i, k, {"query": k}) for i, k in enumerate(kinds)])


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
            1,
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
        input_seq=ActionSequence(1, [Action(0, "login", {})]),
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


def test_output_position_out_of_range():
    with pytest.raises(PositionOutOfRange):
        run_src("MR {{ var x = Output(Input(1), 7); NOT(false); }}")


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


@pytest.mark.parametrize(
    "statement, message",
    [
        ("CREATE(Input(n), Input(1));", "CREATE target must be Input(k) with a literal index"),
        ("var k = Input(1).foo();", "method 'foo' is not defined on Input(1)"),
        ("for (var x : 5) { NOT(false); }", "cannot iterate over 5"),
    ],
    ids=["create-target", "unknown-method", "not-iterable"],
)
def test_run_time_errors_raise_only_when_reached(statement, message):
    unreached = run_src(f"MR {{{{ if (false) {{ {statement} }} IMPLIES(true, true); }}}}")
    assert unreached.value is VerdictValue.PASS
    with pytest.raises(EvalError) as info:
        run_src(f"MR {{{{ if (true) {{ {statement} }} IMPLIES(true, true); }}}}")
    assert type(info.value) is EvalError and str(info.value) == message


def test_missing_stub_raises_only_when_reached():
    assert eval_bool(expr_of("OR(true, nope())")) is True
    with pytest.raises(MissingStub) as info:
        eval_bool(expr_of("OR(false, nope())"))
    assert str(info.value) == "no binding for stub function 'nope'"
