"""A seeded corpus of EMR runs and a digest of what ``run_suite`` makes of each.

A case is one program, printed canonically and parsed again (so its checks carry real line numbers): an ``astgen`` program, typed or
untyped, or a ``scoped_program``, whose few names are declared again and
again in nested loops and ``if`` bodies. It is run by ``run_suite``
on seeded input sequences against the mock shop and each of its faults. The
stubs are ``emrkit.shopstubs.STUBS`` plus ``EXTRA_STUBS``: total functions
for two of the names ``astgen`` calls that the shop does not bind, so that
more untyped programs run while the third name, ``lookupUser``, keeps
programs that call it NotExecutable, and ``flags``, which a scoped program
loops over. A case's digest covers every entry of
every run, as ``SuiteEntry.to_json`` gives it: the outcome, the failing
bindings with their lines, the unbound stubs and the error text.

``tests/run_digests.json`` pins the digests; ``test_run_differential``
compares against them. To record them again from the code on ``PYTHONPATH``:

    PYTHONPATH=src python tests/run_corpus.py > tests/run_digests.json

``python tests/run_corpus.py N`` prints the digests of N programs per mode
instead, for a larger one-off comparison of two checkouts.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

from astgen import ProgramGen
from emrkit.dsl import parse_emr, pretty_print
from emrkit.dsl.ast import (BoolLit, Call, Continue, EmrAst, Expr, ExprStmt, ForEach, If, IntLit, MethodCall, Name,
                           Not, Stmt, VarDecl)
from emrkit.runtime import ActionSequence, run_suite
from emrkit.shopstubs import STUBS
from emrkit.sut import MockShopSut

PROGRAMS = 500  # seeds per mode
MODES = ("typed", "untyped", "scoped")
INPUTS = 3  # seeded input sequences per program
FAULTS = [None, "ignore-filter", "off-by-one-pagination", "stale-results"]
EXTRA_STUBS = {
    "checkState": lambda *args: len(args) % 2 == 0,
    "countItems": lambda *args: len(args),
    "flags": lambda: [True, False],
}
SCOPED_NAMES = ("a", "b", "c")


def seeded_input(rng: random.Random) -> ActionSequence:
    """Up to four actions, of the kinds the mock shop supports and, rarely,
    ``purchase``, which it refuses with an adapter Error before any closure runs."""
    kinds, weights = ("search", "login", "logout", "purchase"), (10, 10, 10, 1)
    params = ({"query": "chair"}, {"query": ""}, {"query": "desk", "category": "office"},
              {"query": "lamp", "page": 0, "page_size": 2}, {"user": "tester"}, {})
    return ActionSequence.from_json([{"kind": rng.choices(kinds, weights)[0], "parameters": dict(rng.choice(params))}
                                     for _ in range(rng.randint(0, 4))])


def scoped_program(rng: random.Random) -> EmrAst:
    """A valid program over three names. It declares most of them first; then
    each statement declares one, loops over the two flags or the source's
    actions, guards a body or a ``continue``, or checks an implication. A
    value is a literal or a name read, maybe negated."""
    def value() -> Expr:
        kind = rng.choice(("literal", "name", "name", "not"))
        if kind == "literal":
            return BoolLit(rng.random() < 0.5)
        name = Name(rng.choice(SCOPED_NAMES))
        return Not(name) if kind == "not" else name

    def body(depth: int, in_loop: bool) -> tuple[Stmt, ...]:
        return tuple(stmt(depth, in_loop) for _ in range(rng.randint(1, 4)))

    def stmt(depth: int, in_loop: bool) -> Stmt:
        kind = rng.choice(["var", "var", "check", "check"] + ["for", "if"] * (depth > 0) + ["continue"] * in_loop)
        if kind == "var":
            return VarDecl(rng.choice(SCOPED_NAMES), value())
        if kind == "check":
            return ExprStmt(Call("IMPLIES", (value(), value())) if rng.random() < 0.8 else value())
        if kind == "for":
            items = Call("flags") if rng.random() < 0.75 else MethodCall(Call("Input", (IntLit(1),)), "actions")
            return ForEach("var", rng.choice(SCOPED_NAMES), items, body(depth - 1, True))
        if kind == "if":
            return If(value(), body(depth - 1, in_loop))
        return If(value(), (Continue(),))

    declared = tuple(VarDecl(name, BoolLit(rng.random() < 0.5)) for name in SCOPED_NAMES if rng.random() < 0.8)
    return EmrAst("scoped", declared + body(3, False))


def program(mode: str, seed: int) -> EmrAst:
    """The corpus's program of ``mode`` (one of ``MODES``) for ``seed``."""
    if mode == "scoped":
        return scoped_program(random.Random(f"scoped-{seed}"))
    return ProgramGen(seed, typed=mode == "typed").program()


def corpus(programs: int = PROGRAMS) -> list[tuple[str, str, list[ActionSequence]]]:
    """(case id, canonical source, inputs) triples, in a fixed order."""
    cases = []
    for mode in MODES:
        for seed in range(programs):
            source = pretty_print(program(mode, seed))
            rng = random.Random(seed)
            cases.append((f"{mode}-{seed}", source, [seeded_input(rng) for _ in range(INPUTS)]))
    return cases


def outcome(source: str, inputs: list[ActionSequence]) -> str:
    """Every entry of the runs of ``source`` on ``inputs`` against each mock config, as text."""
    ast = parse_emr(source, "case", explanations=False)
    stubs = {**STUBS, **EXTRA_STUBS}
    runs = []
    for fault in FAULTS:
        report = run_suite([ast], inputs, MockShopSut(fault), stubs)
        runs.append([e.to_json() for e in report.entries])
    return repr(runs)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def case_digest(source: str, inputs: list[ActionSequence]) -> str:
    """The digest of a case's source and of its inputs as JSON: each action's
    kind and parameters, in order."""
    actions = [[{"kind": a.kind, "parameters": a.parameters} for a in sequence.actions] for sequence in inputs]
    return digest(source + json.dumps(actions))


def digests(programs: int = PROGRAMS) -> dict[str, list[str]]:
    """Case id -> [digest of the source and inputs, digest of its runs]."""
    return {name: [case_digest(source, inputs), digest(outcome(source, inputs))]
            for name, source, inputs in corpus(programs)}


if __name__ == "__main__":
    pinned = digests(int(sys.argv[1]) if len(sys.argv) > 1 else PROGRAMS)
    rows = [f"{json.dumps(name)}: {json.dumps(pair)}" for name, pair in pinned.items()]
    print("{\n" + ",\n".join(rows) + "\n}")
