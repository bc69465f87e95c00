#!/usr/bin/env python3
"""Report the function-body lines of ``src/emrkit`` that a pytest run never runs.

    python3 tools/unrun_lines.py [PYTEST_ARGS...]

Runs pytest in this process (tier-1, ``tests/``, when no arguments are
given) with a ``sys.settrace`` and ``threading.settrace`` tracer, installed
anew before each test, since a test or a library it uses may replace or
clear it. A line counts as run when the tracer sees a ``line`` event on it,
or a ``call`` event of a function whose ``def`` is on it.

The lines that can run are those that carry bytecode in a function, lambda,
comprehension or generator of a module under ``src/emrkit``; the lines of
module and class bodies, which run only at import, do not count. Each such
line that never ran is printed as ``path:line: text``. Code run in a
subprocess that a test starts is not seen.

Exit status: 0 when every such line ran, 1 when any did not, 2 when pytest
failed or collected nothing (the report is still printed).
"""

from __future__ import annotations

import inspect
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "emrkit"


def _function_lines(code: CodeType, out: set[int]) -> None:
    """Add the lines of every function-like code object nested in ``code``."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:
                out.update(line for _, _, line in const.co_lines() if line is not None)
            _function_lines(const, out)


def runnable_lines(path: Path) -> set[int]:
    lines: set[int] = set()
    _function_lines(compile(path.read_text(encoding="utf-8"), str(path), "exec"), lines)
    return lines


class _LineTrace:
    """The local trace function of one file's frames: it adds each line run.
    It returns itself, as an object and not as a closure that holds itself,
    so tracing leaves no reference cycle behind a call for a test to see."""

    def __init__(self, lines: set[int]):
        self.lines = lines

    def __call__(self, frame, event, arg):
        if event == "line":
            self.lines.add(frame.f_lineno)
        return self


class Tracer:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.hit: dict[str, set[int]] = {}
        self.local: dict[str, _LineTrace] = {}

    def global_trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        local = self.local.get(filename)
        if local is None:
            local = self.local[filename] = _LineTrace(self.hit.setdefault(filename, set()))
        local.lines.add(frame.f_code.co_firstlineno)
        return local

    def install(self) -> None:
        sys.settrace(self.global_trace)
        threading.settrace(self.global_trace)


class _Plugin:
    """Installs the tracer before each phase of each test, ahead of the hooks that run it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.tracer.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.tracer.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_teardown(self, item):
        self.tracer.install()


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer(str(PACKAGE) + "/")
    tracer.install()
    try:
        status = pytest.main([*(argv or [str(ROOT / "tests")]), "-q", "-p", "no:cacheprovider"],
                             plugins=[_Plugin(tracer)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        hit = tracer.hit.get(str(path), set())
        for line in sorted(runnable_lines(path) - hit):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            unrun += 1
    print(f"{unrun} unrun function-body line(s) in {PACKAGE.relative_to(ROOT)}", file=sys.stderr)
    if status != 0:
        print(f"pytest exited {int(status)}", file=sys.stderr)
        return 2
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
