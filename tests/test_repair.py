import random
import time
import types

import pytest

import emrkit.dsl.repair as repair_module
from emrkit.dsl import WLC_AMP, parse_emr
from emrkit.dsl.repair import repair
from emrkit.dsl.validate import validate
from frontend_corpus import amp_cases, bundled_sources


def test_the_repair_and_validate_submodules_are_not_shadowed():
    import emrkit.dsl.validate as validate_module

    assert isinstance(repair_module, types.ModuleType) and isinstance(validate_module, types.ModuleType)


def test_spec_example_splits_at_the_ampersand():
    fixed, log = repair("IMPLIES(a() & b())")
    assert fixed == "IMPLIES(a(), b())"
    assert [(e.rule, e.line, e.before, e.after) for e in log.entries] == [(WLC_AMP, 1, " &", ",")]


def test_correct_source_is_a_fixpoint(filter_emr_source):
    fixed, log = repair(filter_emr_source)
    assert fixed == filter_emr_source
    assert not log.entries


def test_double_ampersand_is_untouched():
    source = "MR {{ IMPLIES(a() && b(), c()); }}"
    fixed, log = repair(source)
    assert fixed == source and not log.entries


def test_ampersand_outside_implies_untouched():
    source = "MR {{ var x = f(a & b); }}"
    fixed, log = repair(source)
    assert fixed == source and not log.entries


def test_ambiguous_multiple_ampersands_untouched():
    source = "IMPLIES(a() & b() & c())"
    fixed, log = repair(source)
    assert fixed == source and not log.entries


def test_two_argument_implies_with_stray_ampersand_untouched():
    # Already has two arguments; turning '&' into '&&' would be a different
    # (and unsupported) rewrite, so the rule must not touch it.
    source = "IMPLIES(CREATE(Input(2),x) & userLoggedIn(), ok())"
    fixed, log = repair(source)
    assert fixed == source and not log.entries


def test_end_of_line_defect_with_trailing_comment(filter_emr_source):
    defective = filter_emr_source.replace(
        "notSameFilterApplied(searchAction, filterType), //(7)",
        "notSameFilterApplied(searchAction, filterType) & //(7)",
    )
    assert defective != filter_emr_source
    fixed, log = repair(defective)
    assert fixed == filter_emr_source
    assert [e.rule for e in log.entries] == [WLC_AMP]
    assert log.entries[0].line == 9
    assert log.entries[0].before in defective.split("\n")[8]


def test_unlexable_source_passes_through():
    source = "IMPLIES(a() & b()) @@@"
    fixed, log = repair(source)
    assert fixed == source and not log.entries


def _mutate(source: str, rng: random.Random) -> tuple[str, int]:
    """Replace the comma of IMPLIES calls with ' &' on randomly chosen calls."""
    out = []
    injected = 0
    i = 0
    while True:
        j = source.find("IMPLIES(", i)
        if j == -1:
            out.append(source[i:])
            break
        depth = 0
        k = j + len("IMPLIES(") - 1
        comma = -1
        while k < len(source):
            ch = source[k]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    break
            elif ch == "," and depth == 1 and comma == -1:
                comma = k
            k += 1
        if comma != -1 and rng.random() < 0.8:
            out.append(source[i:comma])
            out.append(" &")
            injected += 1
            i = comma + 1
        else:
            out.append(source[i : k + 1])
            i = k + 1
    return "".join(out), injected


def _corpus():
    base = "MR {{ IMPLIES(%s, %s); }}"
    antecedents = ["a()", "CREATE(Input(2), probe) && userIn()", "NOT(x)", "a() && b() && c()"]
    consequents = ["ok()", "OR(f(), g())", "true", "IMPLIES(p(), q())"]
    sources = [base % (a, c) for a in antecedents for c in consequents]
    sources.append(
        "MR {{ for (var x : items()) { IMPLIES(one(x), two(x)); IMPLIES(three(x), four(x)); } }}"
    )
    for source in sources:
        parse_emr(source)
    return sources


def test_mutation_corpus_repairs_with_one_entry_per_defect():
    rng = random.Random(7)
    corpus = _corpus()
    assert len(corpus) >= 17
    total_mutants = 0
    for source in corpus:
        for attempt in range(3):
            mutated, injected = _mutate(source, rng)
            if not injected:
                continue
            total_mutants += 1
            fixed, log = repair(mutated)
            assert len(log.entries) == injected
            assert all(e.rule == WLC_AMP for e in log.entries)
            parse_emr(fixed)
            again, log2 = repair(fixed)
            assert again == fixed and not log2.entries
    assert total_mutants >= 20


def test_repair_log_lines_match_input_lines():
    defective = "MR {{\nIMPLIES(\nfoo() &\nbar()\n);\n}}"
    fixed, log = repair(defective)
    (entry,) = log.entries
    assert entry.before in defective.split("\n")[entry.line - 1]
    parse_emr(fixed)
    assert validate(parse_emr(fixed)) != []  # stubs remain, but it parses


def test_deeply_nested_implies_repairs_in_linear_time():
    depth = 20_000
    start = time.process_time()
    unclosed, log = repair("IMPLIES(" * depth)
    assert unclosed == "IMPLIES(" * depth and not log.entries
    fixed, log = repair("IMPLIES(a &\n" * depth + ")" * depth)
    assert time.process_time() - start < 2
    assert fixed == "IMPLIES(a,\n" * depth + ")" * depth
    assert [e.line for e in log.entries] == list(range(1, depth + 1))


@pytest.mark.parametrize("source", [source for _, source in amp_cases()], ids=[name for name, _ in amp_cases()])
def test_the_fast_path_agrees_with_the_scan(source):
    fixed, log = repair(source)
    assert (fixed, log) == repair_module._repair_scanned(source)


def test_sources_without_a_lone_ampersand_are_not_scanned(monkeypatch):
    scanned = []
    scan = repair_module.scan
    monkeypatch.setattr(repair_module, "scan", lambda source: scanned.append(source) or scan(source))
    clean = [source for _, source in bundled_sources()]
    assert sum("&&" in source for source in clean) >= 10  # the fast path sees '&&', not only no '&'
    for source in clean + ["MR {{ a &&&& b; }}", ""]:
        assert repair(source) == (source, repair_module.RepairLog())
    assert scanned == []
    for source in ["&", "&&&", "// &", '"&"']:
        repair(source)
    assert scanned == ["&", "&&&", "// &", '"&"']
