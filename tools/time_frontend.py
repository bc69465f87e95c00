#!/usr/bin/env python3
"""Time the EMR front end layer by layer over the bundled ``.smrl`` files.

The layers are ``tokenize``, ``parse_emr``, the printer's layout pass (the
canonical lines with their owners, before any text is read) and
``validate``. Each round times every layer once over all the bundled EMRs,
in turn, so a change in machine speed during the run moves every layer
alike. Times are the thread's CPU time, which leaves out the time the
machine gives to other processes. Prints the median over the rounds of the
mean microseconds per EMR, with the quartiles.

    PYTHONPATH=src python tools/time_frontend.py [--rounds 300] [--against OTHER/src]

``--against`` loads a second checkout's ``emrkit`` into the same process and
interleaves its rounds with this one's, so the two columns and their ratio
come from one command on one machine state.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import time
from typing import Any, Callable

LAYERS = ("tokenize", "parse_emr", "layout", "validate")


def load_layers(src: str | None) -> dict[str, tuple[Callable[[Any], Any], list[Any]]]:
    """The timed layers of the ``emrkit`` under ``src`` (or the importable
    one), each with the bundled EMRs it runs on."""
    if src is not None:
        for name in [m for m in sys.modules if m == "emrkit" or m.startswith("emrkit.")]:
            del sys.modules[name]
        sys.path.insert(0, src)
    try:
        dsl = importlib.import_module("emrkit.dsl")
        printer = importlib.import_module("emrkit.dsl.printer")
        resources = importlib.import_module("emrkit.resources")
    finally:
        if src is not None:
            sys.path.remove(src)
    # Older checkouts name the layout pass ``_rendered``.
    layout = getattr(printer, "layout", None) or printer._rendered
    fixtures = resources.fixture_path()
    paths = sorted(fixtures.glob("*.smrl")) + sorted(fixtures.joinpath("suite").glob("*.smrl"))
    sources = [p.read_text(encoding="utf-8") for p in paths]
    asts = [dsl.parse_emr(s, p.stem) for s, p in zip(sources, paths)]
    return {
        "tokenize": (dsl.tokenize, sources),
        "parse_emr": (dsl.parse_emr, sources),
        "layout": (layout, asts),
        "validate": (dsl.validate, asts),
    }


def sample(fn: Callable[[Any], Any], items: list[Any]) -> float:
    """Mean CPU microseconds of ``fn`` over ``items``."""
    start = time.thread_time_ns()
    for item in items:
        fn(item)
    return (time.thread_time_ns() - start) / len(items) / 1000


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=300)
    ap.add_argument("--against", metavar="SRC", help="another checkout's src directory to time alongside")
    args = ap.parse_args()
    versions = {"this": load_layers(None)}
    if args.against:
        versions["against"] = load_layers(args.against)
    samples = {(v, layer): [] for v in versions for layer in LAYERS}
    order = list(versions.items())
    for _ in range(args.rounds):
        order.reverse()  # neither version always runs first
        for layer in LAYERS:
            for v, layers in order:
                samples[v, layer].append(sample(*layers[layer]))
    n = len(versions["this"]["parse_emr"][1])
    print(f"{n} EMRs, {args.rounds} rounds; median us per EMR [quartiles]")
    for layer in LAYERS:
        cells = []
        for v in versions:
            q1, q2, q3 = statistics.quantiles(samples[v, layer], n=4)
            cells.append(f"{v} {q2:7.1f} [{q1:.1f}-{q3:.1f}]")
        if args.against:
            ratio = statistics.median(samples["against", layer]) / statistics.median(samples["this", layer])
            cells.append(f"against/this {ratio:.2f}x")
        print(f"{layer:<10} " + "   ".join(cells))


if __name__ == "__main__":
    main()
