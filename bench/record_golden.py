"""Record the golden verdict tables in bench/golden/ at the default sizes.

    python3 bench/record_golden.py            # seeds 0-63, every workload
    python3 bench/record_golden.py 0 1 2      # only these seeds

Each seed's check pass must pass the independent checks first. Every entry
keeps the digest of its verdict table; seeds below FULL_TABLES also keep
the table itself, so that a mismatch can name the first differing row.
Re-record only when a change is meant to alter verdicts.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads

FULL_TABLES = 10


def main(argv: list[str]) -> int:
    seeds = [int(a) for a in argv] or list(range(64))
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    golden_dir = run.BENCH / "golden"
    golden_dir.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        path = golden_dir / f"{workload}.json"
        golden = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        for seed in seeds:
            modules = run.fresh_import()
            plan = workloads.build(workload, seed, workloads.SIZES[workload],
                                   run.WORK / f"{workload}-s{seed}", modules["emrkit.resources"])
            first = run.check_pass(modules, plan)
            result = workloads.check(plan, first, modules, None)
            if result.errors:
                print(f"{workload} seed {seed}: {result.errors}", file=sys.stderr)
                return 1
            entry = dict(plan.facts["golden"])
            if seed >= FULL_TABLES:
                del entry["table"]
            golden[str(seed)] = entry
            print(f"{workload} seed {seed}: recorded")
        ordered = {key: golden[key] for key in sorted(golden, key=int)}
        lines = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}" for key, value in ordered.items()]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
