"""In-memory span tracer installed around emrkit's public functions.

Spans come from the benchmark's own wrappers, not from inside the program.
Each wrapper is installed wherever the name is looked up: on every loaded
``emrkit`` module that binds the original function (``evaluate.py``
imports ``validate`` by name, so ``emrkit.runtime.evaluate.validate`` is
wrapped as well as ``emrkit.dsl.validate.validate``), on the class for
methods, and in the ``STUBS`` dict for the shop stubs. ``uninstall``
puts every original back.

A span records its name, start, end and parent. Self time is a span's
duration minus the time its child spans cover; it is computed when the
span closes and summed per (step, span name).
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# Layer -> (module, traced names). "Class.method" names a method. Recursive
# helpers called per node or per item (printer.format_expr,
# mockshop.matches_filters, tokens.string_value) are left inside their
# caller's span to keep the tracing overhead small.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cli": ("emrkit.cli", ("main",)),
    "dsl.tokens": ("emrkit.dsl.tokens", ("tokenize", "reconstruct")),
    "dsl.parser": ("emrkit.dsl.parser", ("parse_emr",)),
    "dsl.validate": ("emrkit.dsl.validate", ("validate", "stub_names", "has_errors")),
    "dsl.printer": ("emrkit.dsl.printer", ("pretty_print", "canonical_units")),
    "dsl.repair": ("emrkit.dsl.repair", ("repair",)),
    "runtime.evaluate": ("emrkit.runtime.evaluate",
                         ("evaluate_emr", "unbound_stubs", "Evaluator.register_and_execute")),
    "runtime.suite": ("emrkit.runtime.suite", ("run_suite",)),
    "shopstubs": ("emrkit.shopstubs", ()),  # every entry of STUBS
    "sut.mockshop": ("emrkit.sut.mockshop", ("MockShopSession.execute",)),
    "sut.cassette": ("emrkit.sut.cassette", ("record_replay", "Cassette.append", "Cassette.load")),
    "pipeline.conversation": ("emrkit.pipeline.conversation", ("run_turn", "TranscriptStore.write")),
    "pipeline.client": ("emrkit.pipeline.client", ("MockChatClient.complete", "MockChatClient.from_file")),
    "pipeline.derive": ("emrkit.pipeline.derive",
                        ("derive_mrs", "parse_mr_list", "dedupe_mrs", "save_mr_catalog", "load_mr_catalog")),
    "pipeline.generate": ("emrkit.pipeline.generate",
                          ("generate_emrs", "load_fewshot", "extract_emr_source")),
    "grading": ("emrkit.grading",
                ("load_annotations", "check_annotation", "summarize_annotations", "emr_size_stats")),
}

# Spans whose bytes written to files are measured (from the process's
# write counter, so the figure does not depend on the file format).
IO_SPANS = frozenset({"sut.cassette:record", "sut.cassette:record_replay",
                      "pipeline.conversation:TranscriptStore.write"})


def _write_counter() -> Callable[[], int]:
    """Bytes this process has passed to write() so far (Linux /proc)."""
    path = Path("/proc/self/io")

    def read() -> int:
        for line in path.read_bytes().splitlines():
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
        raise RuntimeError("/proc/self/io has no wchar line")

    read()
    return read


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self._child: list[float] = []
        self.step = ""
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.total_s: dict[tuple[str, str], float] = defaultdict(float)
        self.extra: dict[tuple[str, str], float] = defaultdict(float)
        self.io_bytes: dict[tuple[str, str], list[int]] = defaultdict(list)
        self._restore: list[Callable[[], None]] = []
        self._wchar = _write_counter()

    # -- spans ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name: str, nid: int, fn: Callable, args: tuple, kwargs: dict,
             observe: Callable[[Any], None] | None = None) -> Any:
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        io = name in IO_SPANS
        written = self._wchar() if io else 0
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        self._open.append(index)
        self._child.append(0.0)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            child = self._child.pop()
            duration = end - start
            self.span_end[index] = end
            if self._child:
                self._child[-1] += duration
            key = (self.step, name)
            self.calls[key] += 1
            self.self_s[key] += duration - child
            self.total_s[key] += duration
            if io:
                self.io_bytes[key].append(self._wchar() - written)
        if observe is not None:
            observe(result)
        return result

    def wrap(self, name: str, fn: Callable, observe: Callable[[Any], None] | None = None) -> Callable:
        nid = self.name_id(name)
        call = self.call

        def traced(*args, **kwargs):
            return call(name, nid, fn, args, kwargs, observe)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def add(self, key: str, value: float) -> None:
        self.extra[(self.step, key)] += value

    # -- installation -------------------------------------------------------

    def _bind_everywhere(self, original: Callable, replacement: Callable) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "emrkit" or module_name.startswith("emrkit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append(lambda m=module, a=attr, v=value: setattr(m, a, v))

    def _wrap_method(self, cls: type, method: str, name: str, observe=None) -> None:
        original = cls.__dict__[method]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.wrap(name, original.__func__, observe))
        else:
            replacement = self.wrap(name, original, observe)
        setattr(cls, method, replacement)
        self._restore.append(lambda: setattr(cls, method, original))

    def install(self) -> None:
        observers = self._observers()
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[module_name]
            for qualname in names:
                name = f"{layer}:{qualname}"
                observe = observers.get(name)
                if "." in qualname:
                    cls_name, method = qualname.split(".")
                    self._wrap_method(getattr(module, cls_name), method, name, observe)
                elif name == "sut.cassette:record_replay":
                    original = getattr(module, qualname)
                    self._bind_everywhere(original, self._traced_record_replay(original))
                else:
                    original = getattr(module, qualname)
                    self._bind_everywhere(original, self.wrap(name, original, observe))
        stubs = sys.modules["emrkit.shopstubs"].STUBS
        originals = dict(stubs)
        for stub, fn in originals.items():
            stubs[stub] = self.wrap(f"shopstubs:{stub}", fn)
        self._restore.append(lambda: stubs.update(originals))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _observers(self) -> dict[str, Callable[[Any], None]]:
        items = sys.modules["emrkit.sut.mockshop"].ITEMS
        catalog_ids = {id(item) for item in items}

        def items_copied(output: Any) -> None:
            payload = getattr(output, "payload", None)
            if isinstance(payload, list):
                self.add("items_copied", sum(1 for it in payload if isinstance(it, dict)
                                             and id(it) not in catalog_ids))

        return {
            "dsl.tokens:tokenize": lambda tokens: self.add("tokens", len(tokens)),
            "dsl.repair:repair": lambda result: self.add("fixes", len(result[1].entries)),
            "grading:load_annotations": lambda annotations: self.add("annotations", len(annotations)),
            "sut.mockshop:MockShopSession.execute": items_copied,
        }

    def _traced_record_replay(self, original: Callable) -> Callable:
        """record_replay returns a session factory; its sessions get a span
        per interaction named after the mode (record | replay)."""
        tracer = self
        traced_factory_maker = self.wrap("sut.cassette:record_replay", original)

        class TracedSession:
            def __init__(self, inner: Any, name: str):
                self.inner = inner
                self.name = name
                self.nid = tracer.name_id(name)

            def execute(self, action):
                return tracer.call(self.name, self.nid, self.inner.execute, (action,), {})

        def record_replay(mode, *args, **kwargs):
            factory = traced_factory_maker(mode, *args, **kwargs)
            name = f"sut.cassette:{mode}"
            return lambda: TracedSession(factory(), name)

        return record_replay

    # -- output -------------------------------------------------------------

    def write_spans(self, path: Path) -> int:
        """Write the spans as JSON lines: a name table, then one
        [name, parent, start_s, end_s] row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            f.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_start)):
                f.write(f"[{self.span_name[i]},{self.span_parent[i]},"
                        f"{self.span_start[i]:.9f},{self.span_end[i]:.9f}]\n")
        return len(self.span_start)

    # -- aggregation --------------------------------------------------------

    def sum_calls(self, prefix: str, steps: set[str] | None = None) -> int:
        return sum(n for (step, name), n in self.calls.items()
                   if name.startswith(prefix) and (steps is None or step in steps))

    def sum_self(self, prefix: str) -> float:
        return sum(t for (_, name), t in self.self_s.items() if name.startswith(prefix))

    def sum_total(self, prefix: str) -> float:
        return sum(t for (_, name), t in self.total_s.items() if name.startswith(prefix))

    def sum_extra(self, key: str, steps: set[str] | None = None) -> float:
        return sum(v for (step, k), v in self.extra.items()
                   if k == key and (steps is None or step in steps))

    def bytes_by_step(self, name: str) -> list[list[int]]:
        """Bytes written by each span called ``name``, one list per step, in call order."""
        return [values for (_, span), values in self.io_bytes.items() if span == name]
