#!/usr/bin/env python3
"""Time ``run_suite`` over the 13 bundled run EMRs, per mock-shop config.

The EMRs and the seeded input sequences are the benchmark's ``suite-run``
ones (``bench/workloads.py``, imported read-only): 13 EMRs and 64 inputs,
run in 4 chunks of 16 inputs per config, each chunk against a fresh
``MockShopSut`` with the shop stubs, as one ``emrkit run`` step does. One
round times the 4 chunks once per config (correct mock and its 3 faults).
Times are the thread's CPU time, which leaves out the time the machine
gives to other processes. Prints, per config, the median milliseconds of
one round's 4 chunks with the quartiles.

    PYTHONPATH=src python tools/time_runtime.py [--rounds 100] [--seed 1] [--against OTHER/src]

``--against`` loads a second checkout's ``emrkit`` into the same process and
interleaves its rounds with this one's (the order flips every round), so
both come from one machine state. It then also prints the paired ratio
against/this of each round, as the median with the quartiles: a ratio
above 1 means this checkout is faster.
"""

from __future__ import annotations

import argparse
import importlib
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import CHUNKS, SIZES, SUT_CONFIGS, emr_sources, make_inputs  # noqa: E402


def load_runner(src: str | None, seed: int) -> Callable[[str], None]:
    """A function that runs the chunks of one mock config with the
    ``emrkit`` under ``src`` (or the importable one)."""
    if src is not None:
        for name in [m for m in sys.modules if m == "emrkit" or m.startswith("emrkit.")]:
            del sys.modules[name]
        sys.path.insert(0, src)
    try:
        dsl = importlib.import_module("emrkit.dsl")
        resources = importlib.import_module("emrkit.resources")
        runtime = importlib.import_module("emrkit.runtime")
        shopstubs = importlib.import_module("emrkit.shopstubs")
        sut = importlib.import_module("emrkit.sut")
    finally:
        if src is not None:
            sys.path.remove(src)
    asts = [dsl.parse_emr(text, emr_id) for emr_id, text in emr_sources(resources).items()]
    sequences = make_inputs(random.Random(seed), SIZES["suite-run"])
    inputs = [runtime.ActionSequence.from_json(actions) for actions in sequences]
    size = len(inputs) // CHUNKS
    chunks = [inputs[i * size : (i + 1) * size] for i in range(CHUNKS)]

    def run(config: str) -> None:
        fault = config.partition(":")[2] or None
        for chunk in chunks:
            runtime.run_suite(asts, chunk, sut.MockShopSut(fault), shopstubs.STUBS)

    return run


def sample(run: Callable[[str], None], config: str) -> float:
    """CPU milliseconds of one round of ``config``."""
    start = time.thread_time_ns()
    run(config)
    return (time.thread_time_ns() - start) / 1e6


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=100)
    ap.add_argument("--seed", type=int, default=1, help="seed of the input sequences")
    ap.add_argument("--against", metavar="SRC", help="another checkout's src directory to time alongside")
    args = ap.parse_args()
    versions = {"this": load_runner(None, args.seed)}
    if args.against:
        versions["against"] = load_runner(args.against, args.seed)
    order = list(versions.items())
    for _, run in order:  # warm-up: first calls, imports and caches
        for config in SUT_CONFIGS:
            run(config)
    samples: dict[tuple[str, str], list[float]] = {(v, c): [] for v in versions for c in SUT_CONFIGS}
    for _ in range(args.rounds):
        order.reverse()  # neither version always runs first
        for config in SUT_CONFIGS:
            for v, run in order:
                samples[v, config].append(sample(run, config))
    print(f"13 EMRs x {SIZES['suite-run']} inputs in {CHUNKS} runs per config, {args.rounds} rounds, "
          f"seed {args.seed}; median ms per config [quartiles]")
    totals: dict[str, list[float]] = {v: [sum(x) for x in zip(*(samples[v, c] for c in SUT_CONFIGS))]
                                      for v in versions}
    for config, rows in [*((c, {v: samples[v, c] for v in versions}) for c in SUT_CONFIGS), ("all", totals)]:
        cells = []
        for v, values in rows.items():
            q1, q2, q3 = quartiles(values)
            cells.append(f"{v} {q2:7.1f} [{q1:.1f}-{q3:.1f}]")
        if args.against:
            ratios = [a / t for a, t in zip(rows["against"], rows["this"])]
            q1, q2, q3 = quartiles(ratios)
            cells.append(f"paired against/this {q2:.3f}x [{q1:.3f}-{q3:.3f}]")
        print(f"{config:<28} " + "   ".join(cells))


if __name__ == "__main__":
    main()
