"""A seeded corpus of EMR sources and a digest of what the front end makes of each.

The corpus is the bundled ``.smrl`` files, ``astgen`` programs rendered with
messy whitespace or with scattered comments, and seeded single-character
edits of those sources (about half of which do not parse). A case's digest covers
the whole parse: the AST dump with every position and explanation, or the
error's class, line, column, message, expected set and repair hint.

``tests/frontend_digests.json`` pins the digests; ``test_frontend_differential``
compares against it. To record it again from the code on ``PYTHONPATH``:

    PYTHONPATH=src python tests/frontend_corpus.py > tests/frontend_digests.json
"""

from __future__ import annotations

import hashlib
import json
import random

from astgen import ProgramGen, messy_render, scatter_comments
from emrkit.dsl import DslError, parse_emr, pretty_print
from emrkit.resources import fixture_path

GENERATED = 160  # astgen seeds, each rendered messily and with scattered comments
EDITS = 1000
# Characters an edit inserts or substitutes: grammar punctuation, a lone '&'
# and '/', quotes and escapes, whitespace, digits int() accepts or refuses,
# a non-ASCII letter and characters no token starts with.
EDIT_ALPHABET = [*"{}(),;:.!&|=/\"\\", " ", "\t", "\n", "\r", *"aZ_09", "é", "²", "٣", "@", "#", "$"]


def bundled_sources() -> list[tuple[str, str]]:
    paths = sorted(fixture_path().glob("*.smrl")) + sorted(fixture_path("suite").glob("*.smrl"))
    return [(path.stem, path.read_text(encoding="utf-8")) for path in paths]


def corpus() -> list[tuple[str, str]]:
    """(case id, source) pairs, in a fixed order."""
    cases = bundled_sources()
    for seed in range(GENERATED):
        canonical = pretty_print(ProgramGen(seed).program())
        cases.append((f"messy-{seed}", messy_render(canonical, seed)))
        cases.append((f"comments-{seed}", scatter_comments(canonical, seed)))
    bases = list(cases)
    rng = random.Random(8)
    for n in range(EDITS):
        _, source = rng.choice(bases)
        at = rng.randrange(len(source) + 1)
        how = rng.choice(("delete", "insert", "replace"))
        char = rng.choice(EDIT_ALPHABET)
        if how == "delete":
            edited = source[:at] + source[at + 1 :]
        elif how == "insert":
            edited = source[:at] + char + source[at:]
        else:
            edited = source[:at] + char + source[at + 1 :]
        cases.append((f"edit-{n}", edited))
    return cases


def outcome(source: str) -> str:
    """Everything the front end makes of ``source``, as text."""
    try:
        return repr(parse_emr(source, "case"))
    except DslError as exc:
        expected = sorted(getattr(exc, "expected", ()))
        hint = getattr(exc, "repair_hint", None)
        return repr((type(exc).__name__, exc.line, exc.column, str(exc), expected, hint))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def digests() -> dict[str, list[str]]:
    """Case id -> [digest of the source, digest of its outcome]."""
    return {name: [digest(source), digest(outcome(source))] for name, source in corpus()}


if __name__ == "__main__":
    rows = [f"{json.dumps(name)}: {json.dumps(pair)}" for name, pair in digests().items()]
    print("{\n" + ",\n".join(rows) + "\n}")
