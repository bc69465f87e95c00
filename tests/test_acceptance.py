"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every test also enforces its runtime budget.
"""

import copy
import itertools
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from astgen import ProgramGen
from conftest import holds
from emrkit.cli import main as cli_main
from emrkit.dsl import (
    parse_emr,
    pretty_print,
    stub_names,
)
from emrkit.dsl.repair import repair
from emrkit.dsl.validate import validate
from emrkit.grading import (
    emr_size_stats,
    load_annotations,
    load_survey,
    summarize_annotations,
    summarize_survey,
)
from emrkit.resources import fixture_path
from emrkit.runtime import (
    Action,
    ActionSequence,
    SetParameter,
    VerdictValue,
    create_followup,
    evaluate_emr,
    run_suite,
)
from emrkit.shopstubs import STUBS
from emrkit.sut import ApiCatalog, ApiEntry, MockShopSut


@contextmanager
def budget(name: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{name} took {elapsed:.2f}s, budget {seconds}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def test_search_filter_round_trip_and_stub_names(filter_emr_source):
    with budget("search_filter-round-trip", 1.0):
        ast = parse_emr(filter_emr_source, "search_filter")
        reparsed = parse_emr(pretty_print(ast), "search_filter")
        assert ast.statements == reparsed.statements
        assert stub_names(validate(ast)) == [
            "isSearchAction",
            "getFilterTypes",
            "applyFilter",
            "notSameFilterApplied",
            "fewerResults",
            "moreRelevantResults",
        ]


def test_boolean_construct_semantics():
    with budget("boolean-semantics", 1.0):
        for x, y in itertools.product([False, True], repeat=2):
            assert holds("IMPLIES(a, b)", a=x, b=y) == ((not x) or y)
            assert holds("OR(a, b)", a=x, b=y) == (x or y)
            assert holds("AND(a, b)", a=x, b=y) == (x and y)
        for x in [False, True]:
            assert holds("NOT(a)", a=x) == (not x)


def test_repair_corpus():
    with budget("repair-corpus", 5.0):
        rng = random.Random(42)
        antecedents = ["a()", "CREATE(Input(2), probe) && loggedIn()", "NOT(ready)",
                       "one() && two() && three()", "check(Input(1))"]
        consequents = ["ok()", "OR(f(), g())", "true", "IMPLIES(p(), q())"]
        corpus = [f"MR {{{{ IMPLIES({a}, {c}); }}}}" for a in antecedents for c in consequents]
        assert len(corpus) >= 20
        mutated_corpus = []
        for source in corpus:
            parse_emr(source)
            head, _, tail = source.partition("IMPLIES(")
            depth, split_at = 1, None
            for i, ch in enumerate(tail):
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                elif ch == "," and depth == 1:
                    split_at = i
                    break
            assert split_at is not None
            mutated = head + "IMPLIES(" + tail[:split_at] + " &" + tail[split_at + 1 :]
            mutated_corpus.append(mutated)

        for mutated in mutated_corpus:
            fixed, log = repair(mutated)
            assert [e.rule for e in log.entries] == ["WLC-AMP"], mutated
            parse_emr(fixed)  # repaired to parseable form
            again, log2 = repair(fixed)
            assert again == fixed and not log2.entries  # idempotent
        rng.shuffle(mutated_corpus)
        for mutated in mutated_corpus:
            once, _ = repair(mutated)
            twice, log3 = repair(once)
            assert twice == once and not log3.entries


def test_label_distribution_reproduction(suite_units):
    with budget("label-distribution", 1.0):
        annotations = load_annotations(fixture_path("suite_annotations.jsonl"), suite_units)
        multiset = {"C": 52, "CLC": 54, "AI": 1, "WS": 3, "IE": 3, "INE": 1,
                    "ITE": 9, "ES": 1, "ENO": 2, "WLC": 10, "MISS": 3}
        report = summarize_annotations(annotations, 136)
        for label, count in multiset.items():
            assert report.label_counts[label] == count
        assert report.label_count == 139
        assert report.correct_statement_count == 107
        assert abs(report.correct_rate_percent - 78.6) <= 0.05
        for label, expected in [("C", 38.2), ("CLC", 39.7), ("WLC", 7.4), ("ITE", 6.6)]:
            assert abs(report.label_percentages[label] - expected) <= 0.05


def test_survey_reproduction():
    with budget("survey-rates", 1.0):
        report = summarize_survey(load_survey(fixture_path("survey_responses.csv")))
        ratings = ["strongly agree", "agree", "neutral", "disagree", "strongly disagree"]
        expected_counts = {
            "S1": [3, 46, 12, 3, 0],
            "S2": [0, 41, 10, 12, 1],
            "S3": [0, 18, 19, 24, 3],
        }
        for statement, counts in expected_counts.items():
            assert [report.counts[statement].get(r, 0) for r in ratings] == counts
        assert report.positive_count("S1") == 49 and report.responses_for("S1") == 64
        assert report.positive_rate_percent("S1") == 77
        assert report.positive_rate_percent("S2") == 64
        assert report.positive_count("S3") == 18
        assert report.positive_rate_percent("S3") == 28


def test_emr_size_statistics(suite_units):
    with budget("size-stats", 1.0):
        stats = emr_size_stats(suite_units.values())
        assert stats.min == 10
        assert stats.mean == 13.6
        assert stats.max == 20
        assert stats.total == 136


def test_mt_verdict_soundness(filter_emr_ast, shop_inputs):
    with budget("verdict-soundness", 10.0):
        correct = run_suite([filter_emr_ast], shop_inputs, MockShopSut(), STUBS)
        assert all(entry.outcome != "Fail" for entry in correct.entries)
        assert any(entry.outcome == "Pass" for entry in correct.entries)

        faulty = run_suite([filter_emr_ast], shop_inputs, MockShopSut("ignore-filter"), STUBS)
        failures = [e for e in faulty.entries if e.outcome == "Fail"]
        assert failures
        filter_types = {"category", "price", "brand", "rating", "availability"}
        for entry in failures:
            named = {b.bindings.get("filterType", "").strip("'") for b in entry.verdict.failing_bindings}
            assert named & filter_types


def test_mock_pipeline_determinism(tmp_path):
    with budget("pipeline-determinism", 10.0):
        doc = str(fixture_path("requirements_shop.md"))
        trees = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert cli_main(["--mock", "--out", str(out), "pipeline", doc]) == 0
            trees.append(
                {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
            )
        assert trees[0] == trees[1]
        names = set(trees[0])
        assert "mrs.json" in names
        assert any(n.endswith(".smrl") for n in names)
        assert any(n.endswith(".repairs.json") for n in names)
        assert any(n.startswith("transcripts/derive-") for n in names)
        assert any(n.startswith("transcripts/generate-") for n in names)


def test_property_suites():
    with budget("property-suites", 60.0):
        # AST round trip over >= 100 generated programs.
        checked = 0
        for seed in range(110):
            first = parse_emr(pretty_print(ProgramGen(seed).program()))
            assert parse_emr(pretty_print(first)).statements == first.statements
            checked += 1
        assert checked >= 100

        # Copy isolation over >= 50 random sequences and edits.
        rng = random.Random(99)
        for _ in range(50):
            source = ActionSequence(
                [Action(i, rng.choice(["search", "login"]), {"n": rng.randint(0, 9)})
                 for i in range(rng.randint(1, 5))],
            )
            snapshot = copy.deepcopy(source)
            pos = rng.randrange(len(source.actions))
            edited = create_followup(source, [SetParameter(pos, "extra", 1)])
            assert source == snapshot
            edited.actions[pos].parameters["extra"] = 2
            assert source == snapshot
            for i, action in enumerate(edited.actions):
                if i != pos:
                    assert action == source.actions[i]

        # Vacuity: antecedent-false EMRs never Fail.
        for consequent in ["true", "false", "boom()"]:
            ast = parse_emr(f"MR {{{{ IMPLIES(false, {consequent}); }}}}")
            verdict = evaluate_emr(
                ast,
                ActionSequence([Action(0, "search", {"query": ""})]),
                MockShopSut(),
                {"boom": lambda: (_ for _ in ()).throw(RuntimeError("unreachable"))},
            )
            assert verdict.value is VerdictValue.INAPPLICABLE

        # Validation monotonicity: a larger catalog never adds stubs.
        for seed in range(30):
            ast = ProgramGen(seed).program()
            base = stub_names(validate(ast))
            if not base:
                continue
            entry = ApiEntry(base[0], [], "Object", "doc")
            after = stub_names(validate(ast, ApiCatalog([entry])))
            assert set(after) <= set(base) and len(after) == len(base) - 1
