"""``run_suite`` gives, on a seeded corpus of ``astgen`` programs and inputs
against the mock shop and each of its faults, exactly the entries pinned in
``run_digests.json``: the same outcomes, failing bindings, unbound stubs and
error texts."""

import collections
import json
from pathlib import Path

from run_corpus import MODES, PROGRAMS, case_digest, corpus, digest, outcome

PINNED = json.loads((Path(__file__).parent / "run_digests.json").read_text(encoding="utf-8"))
CASES = corpus()


def test_corpus_is_the_pinned_one():
    assert len(CASES) == len(MODES) * PROGRAMS
    assert [name for name, _, _ in CASES] == list(PINNED)
    assert [name for name, source, inputs in CASES if case_digest(source, inputs) != PINNED[name][0]] == []


def test_every_case_runs_as_pinned():
    assert [name for name, source, inputs in CASES if digest(outcome(source, inputs)) != PINNED[name][1]] == []


def test_corpus_reaches_every_outcome_and_unbound_names():
    counts = collections.Counter()
    for _, source, inputs in CASES[:: 5]:
        text = outcome(source, inputs)
        counts.update(kind for kind in ("'Pass'", "'Fail'", "'Inapplicable'", "'NotExecutable'", "'Error'",
                                        "unbound identifier") if kind in text)
    assert min(counts.values()) > 0 and len(counts) == 6
