import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def source_line(relpath: str, text: str) -> str:
    """The ``path:line: text`` report line of the one line of ``relpath`` that is ``text``."""
    lines = [line.strip() for line in (ROOT / relpath).read_text(encoding="utf-8").splitlines()]
    return f"{relpath}:{lines.index(text) + 1}: {text}"


def test_unrun_lines_reports_a_function_line_that_the_tests_given_cannot_reach():
    done = subprocess.run([sys.executable, "tools/unrun_lines.py", "tests/test_tokens.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    report = done.stdout.splitlines()
    # run_suite's body is unreachable from the tokenizer's tests; the module
    # line that defines VERDICT_ORDER runs at import and does not count.
    assert source_line("src/emrkit/runtime/suite.py", "report = SuiteReport()") in report
    assert not [line for line in report if "VERDICT_ORDER = " in line]
    # scan, which every tokenizer test calls, ran.
    assert not [line for line in report if line.startswith("src/emrkit/dsl/tokens.py") and " def scan(" in line]
    count = sum(line.startswith("src/") for line in report)
    assert done.stderr.endswith(f"{count} unrun function-body line(s) in src/emrkit\n")
