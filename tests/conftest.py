import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from emrkit.dsl import canonical_units, parse_emr
from emrkit.resources import fixture_path, read_fixture
from frontend_corpus import load_emr_suite
from emrkit.runtime import ActionSequence, VerdictValue, evaluate_emr
from emrkit.sut import MockShopSut

INPUT_NAMES = ["search_chair", "search_table", "search_all", "login_search_desk", "login_only"]


def holds(expression: str, stubs=None, **names) -> bool:
    """Whether the boolean ``expression`` holds in an EMR run on the mock
    shop: the EMR binds each of ``names`` to its literal with ``var``, then
    checks ``expression``'s value. An EvalError from evaluating it propagates."""
    declared = "".join(f"var {name} = {str(value).lower()}; " for name, value in names.items())
    ast = parse_emr(f"MR {{{{ {declared}var value = {expression}; IMPLIES(true, value); }}}}")
    verdict = evaluate_emr(ast, ActionSequence([]), MockShopSut(), stubs)
    assert verdict.value in (VerdictValue.PASS, VerdictValue.FAIL)
    return verdict.value is VerdictValue.PASS


def open_fds() -> list[str]:
    """The file descriptors this process holds open (Linux /proc)."""
    return sorted(os.listdir("/proc/self/fd"))


@pytest.fixture(scope="session")
def filter_emr_source() -> str:
    return read_fixture("search_filter.smrl")


@pytest.fixture(scope="session")
def filter_emr_ast(filter_emr_source):
    return parse_emr(filter_emr_source, "search_filter")


@pytest.fixture(scope="session")
def emr_suite():
    return load_emr_suite()


@pytest.fixture(scope="session")
def suite_units(emr_suite):
    """The suite's canonical units by EMR id, as ``grade --emrs`` hands them to grading."""
    return {emr_id: canonical_units(ast) for emr_id, ast in emr_suite.items()}


@pytest.fixture(scope="session")
def shop_inputs() -> list[ActionSequence]:
    inputs = []
    for name in INPUT_NAMES:
        data = json.loads(fixture_path("inputs", f"{name}.json").read_text(encoding="utf-8"))
        inputs.append(ActionSequence.from_json(data))
    return inputs
