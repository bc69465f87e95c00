"""The front end gives, on a seeded corpus, exactly the results pinned in
``frontend_digests.json``: the same ASTs, positions and explanations, and the
same errors (class, line, column, message, expected set, repair hint)."""

import json
from pathlib import Path

from frontend_corpus import EDITS, GENERATED, corpus, digest, outcome

PINNED = json.loads((Path(__file__).parent / "frontend_digests.json").read_text(encoding="utf-8"))
CASES = corpus()


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
