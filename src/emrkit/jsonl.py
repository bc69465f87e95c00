"""Append-only JSON Lines files: one compact JSON object per line.

Every append is one ``write`` of complete lines, so an interrupted run
leaves at most a torn final line. No proper prefix of a JSON object is
itself valid JSON, which is how the reader tells a torn line from a
complete one whose file merely lacks the final newline.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable


def append(path: Path, records: Iterable[Any], truncate: bool = False) -> None:
    """Write ``records`` at the end of ``path`` (created if missing, emptied
    first with ``truncate``) in a single write."""
    data = "".join(
        json.dumps(r, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n" for r in records
    )
    with open(path, "wb" if truncate else "ab", buffering=0) as f:
        f.write(data.encode("utf-8"))


def read(path: Path) -> list[Any]:
    """The records of ``path`` in order. A final line with no newline that
    does not decode is a torn write and is dropped; any other line that does
    not decode raises ``ValueError`` naming its line number."""
    *lines, tail = Path(path).read_text(encoding="utf-8").split("\n")
    records = []
    for number, line in enumerate(lines, 1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {number} is not valid JSON: {exc.msg} at column {exc.colno}") from None
    if tail:
        try:
            records.append(json.loads(tail))
        except json.JSONDecodeError:
            pass
    return records
