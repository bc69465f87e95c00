"""A seeded corpus of EMR sources and a digest of what the front end makes of each.

The corpus is the bundled ``.smrl`` files, ``astgen`` programs rendered with
messy whitespace or with scattered comments, and seeded single-character
edits of those sources (about half of which do not parse). A case's digest covers
the whole parse: the AST dump with every position and explanation, or the
error's class, line, column, message, expected set and repair hint.

A second digest covers ``repair`` and the canonical units, over the corpus
and seeded WLC-AMP injections (a comma of a base source replaced by a lone
``&``): the repaired source and its log, and, where the repaired source
parses, every ``canonical_units`` row and each unit's Simple/Complex class.

A third digest covers ``validate``: for every corpus source that parses, the
diagnostics in order (severity, message, line, symbol), once without a
catalog and once with ``api_catalog_search_filter.json``.

``load_emr_suite`` parses the bundled ten-EMR suite, for the tests and
``tools/make_fixtures.py``.

``tests/frontend_digests.json``, ``tests/repair_units_digests.json`` and
``tests/validate_digests.json`` pin the digests; ``test_frontend_differential``
compares against them. To record them again from the code on ``PYTHONPATH``:

    PYTHONPATH=src python tests/frontend_corpus.py > tests/frontend_digests.json
    PYTHONPATH=src python tests/frontend_corpus.py repair > tests/repair_units_digests.json
    PYTHONPATH=src python tests/frontend_corpus.py validate > tests/validate_digests.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

from astgen import ProgramGen, messy_render, scatter_comments
from emrkit.dsl import DslError, canonical_units, parse_emr, pretty_print
from emrkit.dsl.ast import EmrAst
from emrkit.dsl.repair import repair
from emrkit.dsl.validate import validate
from emrkit.resources import fixture_path, read_fixture
from emrkit.sut.catalog import load_api_catalog

GENERATED = 160  # astgen seeds, each rendered messily and with scattered comments
EDITS = 1000
# Characters an edit inserts or substitutes: grammar punctuation, a lone '&'
# and '/', quotes and escapes, whitespace, digits int() accepts or refuses,
# a non-ASCII letter and characters no token starts with.
EDIT_ALPHABET = [*"{}(),;:.!&|=/\"\\", " ", "\t", "\n", "\r", *"aZ_09", "é", "²", "٣", "@", "#", "$"]
INJECTIONS = 1200
# What an injection puts in place of a comma: the WLC-AMP defect with the
# '&' where the comma was, after a space, or at the start of the next line.
AMPS = ("&", " &", "\n&", "\r\n  &")
# Nested IMPLIES calls, so that one source can need an inner and an outer fix.
NESTED = (
    "MR {{ IMPLIES(IMPLIES(a(), b()), c()); }}",
    "MR {{ IMPLIES(f(IMPLIES(a(), b())), IMPLIES(c(), d())); }}",
    "MR {{\n    IMPLIES(\n        IMPLIES(p(x), q(x)), // why\n        OR(r(), IMPLIES(s(), t()))\n    );\n}}",
)


def load_emr_suite() -> dict[str, EmrAst]:
    """The ten-EMR suite that ``emr_suite.json`` names, parsed, in file order."""
    entries = json.loads(read_fixture("emr_suite.json"))
    return {e["id"]: parse_emr(read_fixture(*e["file"].split("/")), e["id"]) for e in entries}


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


def injections() -> list[tuple[str, str]]:
    """(case id, source) pairs: bundled, generated and nested sources with
    one to three of their commas replaced by a lone '&', in a fixed order."""
    bases = [source for name, source in corpus() if not name.startswith("edit-") and "," in source]
    bases += NESTED * 10
    rng = random.Random(9)
    cases = []
    for n in range(INJECTIONS):
        source = rng.choice(bases)
        commas = [i for i, char in enumerate(source) if char == ","]
        for at in sorted(rng.sample(commas, min(len(commas), rng.randint(1, 3))), reverse=True):
            source = source[:at] + rng.choice(AMPS) + source[at + 1 :]
        cases.append((f"amp-{n}", source))
    return cases


# Sources around a lone '&' that the bundled EMRs lack: '&' in a string
# literal and in a comment, with and without a WLC-AMP defect beside it,
# '&&&', a lone '&' outside IMPLIES, a defect in a source that does not lex,
# and sources that do not parse whatever repair does.
AMP_CORNERS = {
    "string-amp": 'MR {{ var s = "a & b"; IMPLIES(p(s), q()); }}',
    "string-amp-and-defect": 'MR {{ IMPLIES(p("a & b") & q()); }}',
    "comment-amp": "MR {{\n    IMPLIES(p(), q()); // p & q\n}}",
    "comment-amp-and-defect": "MR {{\n    IMPLIES(p() & // p & q\n        q());\n}}",
    "triple-amp-in-implies": "MR {{ IMPLIES(p() &&& q()); }}",
    "triple-amp": "MR {{ var x = a &&& b; }}",
    "lone-amp-outside-implies": "MR {{ var x = f(a & b); }}",
    "unlexable-defect": "MR {{ IMPLIES(a() & b()) @@@ }}",
    "prose": "not an EMR at all",
    "bad-digit": "MR {{ var x = ²; }}",
    "pairs-only": "MR {{ a && }}",
}


def first_implies_amp(source: str) -> str:
    """``source`` with the comma splitting its first IMPLIES replaced by ' &'."""
    depth = 0
    for at in range(source.index("IMPLIES("), len(source)):
        char = source[at]
        depth += (char == "(") - (char == ")")
        if char == "," and depth == 1:
            return source[:at] + " &" + source[at + 1 :]
    raise ValueError("the first IMPLIES has no comma")


def amp_cases() -> list[tuple[str, str]]:
    """(case id, source) pairs: each bundled EMR as it is and with the WLC-AMP
    defect in its first IMPLIES, then ``AMP_CORNERS``."""
    cases = []
    for name, source in bundled_sources():
        cases += [(name, source), (f"{name}-amp", first_implies_amp(source))]
    return cases + list(AMP_CORNERS.items())


def outcome(source: str) -> str:
    """Everything the front end makes of ``source``, as text."""
    try:
        return repr(parse_emr(source, "case"))
    except DslError as exc:
        expected = sorted(getattr(exc, "expected", ()))
        hint = getattr(exc, "repair_hint", None)
        return repr((type(exc).__name__, exc.line, exc.column, str(exc), expected, hint))


def repair_outcome(source: str) -> str:
    """What ``repair`` makes of ``source`` and, where the result parses, its
    canonical units and their classes, as text."""
    fixed, log = repair(source)
    text = repr((fixed, [entry.to_json() for entry in log.entries]))
    try:
        ast = parse_emr(fixed, "case")
    except DslError:
        return text
    units = canonical_units(ast)
    rows = [(u.index, u.line, u.kind, u.text, u.explanation, u.is_complex) for u in units]
    classes = [(u.index, "Complex" if u.is_complex else "Simple") for u in units]
    return repr((text, rows, classes))


def validate_outcome(source: str, catalog) -> str | None:
    """The diagnostics of ``source`` against ``catalog``, as text; None if
    ``source`` does not parse."""
    try:
        ast = parse_emr(source, "case")
    except DslError:
        return None
    return repr([(d.severity, d.message, d.line, d.symbol) for d in validate(ast, catalog)])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def digests() -> dict[str, list[str]]:
    """Case id -> [digest of the source, digest of its outcome]."""
    return {name: [digest(source), digest(outcome(source))] for name, source in corpus()}


def repair_digests() -> dict[str, list[str]]:
    """Case id -> [digest of the source, digest of its repair outcome]."""
    return {name: [digest(source), digest(repair_outcome(source))] for name, source in corpus() + injections()}


def validate_digests() -> dict[str, list[str]]:
    """Case id -> [digest of the source, digest of its diagnostics without a
    catalog, and with the search-filter catalog], for the cases that parse."""
    catalog = load_api_catalog(fixture_path("api_catalog_search_filter.json"))
    pinned = {}
    for name, source in corpus():
        bare = validate_outcome(source, None)
        if bare is not None:
            pinned[name] = [digest(source), digest(bare), digest(validate_outcome(source, catalog))]
    return pinned


if __name__ == "__main__":
    mode = sys.argv[1:2]
    pinned = repair_digests() if mode == ["repair"] else validate_digests() if mode == ["validate"] else digests()
    rows = [f"{json.dumps(name)}: {json.dumps(pair)}" for name, pair in pinned.items()]
    print("{\n" + ",\n".join(rows) + "\n}")
