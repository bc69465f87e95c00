"""How emrkit reads and writes JSON: append-only JSON Lines, whole-file
rewrites, and the check every loader makes of a field's JSON type.

A JSON Lines file is held open by an ``Appender`` while it is written. Each
write puts complete lines at its end, calling ``os.write`` again for what a
short write left over, so an interrupted run leaves at most a torn final
line. No proper prefix of a JSON object is itself valid JSON, which is how
the reader tells a torn line from a complete one lacking its newline.

A whole-file output (a report, an EMR, a catalog) is rewritten in place by
``rewrite``: opening an existing file with ``O_TRUNC`` frees its blocks and
costs far more than overwriting them and cutting the file to length. A file
that emrkit cannot rebuild, such as the user's own ``.smrl`` that ``repair
--in-place`` fixes, is written by ``replace`` instead, which an
interruption leaves holding its old bytes.

A loader passes the top level of a file it reads, each row and each field
(read with ``.get``, so a missing one is ``null``) through ``check``, so any
wrong shape is refused with the same ``<what> must be <kind>, not <value>``.
"""

from __future__ import annotations

import json
import os
import shutil
import weakref
from pathlib import Path
from typing import Any, Iterable

_REWRITE_FLAGS = os.O_WRONLY | os.O_CREAT
_encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode


def _write_all(fd: int, data: bytes) -> None:
    """``os.write`` until every byte of ``data`` is written: one call may
    write fewer bytes than asked (after a signal, or on a nearly full disk)."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _open(path: str | Path, flags: int) -> int:
    """``os.open`` of ``path``, creating its missing parent directories."""
    try:
        return os.open(path, flags, 0o666)
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        return os.open(path, flags, 0o666)


class Appender:
    """``path`` emptied, or created with its missing parent directories. ``write`` puts one
    line per record in it, unbuffered, until ``close`` (or garbage collection) ends it."""

    def __init__(self, path: str | Path):
        self.fd = _open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT | os.O_TRUNC)
        self.close = weakref.finalize(self, os.close, self.fd)  # closes once, however often it is called

    def write(self, records: Iterable[Any]) -> None:
        _write_all(self.fd, "".join(_encode(r) + "\n" for r in records).encode("utf-8"))


def rewrite(path: str | Path, data: bytes) -> None:
    """Make ``path`` hold exactly ``data``: overwrite it in place, then cut
    it to ``len(data)``. Missing parent directories are created. An
    interrupted rewrite leaves the new bytes followed by the old file's
    tail, so this is only for files read whole, never for JSON Lines."""
    fd = _open(path, _REWRITE_FLAGS)
    try:
        _write_all(fd, data)
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def replace(path: str | Path, data: bytes) -> None:
    """Make ``path`` hold exactly ``data``, or its old bytes if the write is
    interrupted: ``rewrite`` a temporary file beside the file ``path``
    names (through any symlink, which stays) with its mode, then rename it
    over that file. The temporary file never outlives the call, and an
    error names ``path``."""
    target = Path(os.path.realpath(path))
    temporary = target.with_name(f".{target.name}.tmp")
    try:
        rewrite(temporary, data)
        shutil.copymode(target, temporary)
        os.replace(temporary, target)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        temporary.unlink(missing_ok=True)


def decode(line: str, number: int) -> Any:
    """Line ``number`` of a file, decoded; a ``ValueError`` naming the line if it does not decode."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {number} is not valid JSON: {exc.msg} at column {exc.colno}") from None


def read(path: Path) -> list[Any]:
    """The records of ``path`` in order. A final line with no newline that
    does not decode is a torn write and is dropped; any other line that does
    not decode raises ``ValueError`` naming its line number."""
    *lines, tail = Path(path).read_text(encoding="utf-8").split("\n")
    records = [decode(line, number) for number, line in enumerate(lines, 1)]
    if tail:
        try:
            records.append(json.loads(tail))
        except json.JSONDecodeError:
            pass
    return records


# The Python types ``json`` decodes each kind of value to: a JSON boolean is never a number.
_KINDS: dict[str, tuple[type, ...]] = {
    "a string": (str,),
    "a string or null": (str, type(None)),
    "an integer": (int,),
    "a number": (int, float),
    "a boolean": (bool,),
    "a JSON object": (dict,),
    "a JSON list": (list,),
    "a list of strings": (list,),
}


def check(value: Any, kind: str, what: str) -> Any:
    """``value`` when it is a JSON value of ``kind`` (a key of ``_KINDS``);
    otherwise ``ValueError("<what> must be <kind>, not <value as JSON>")``."""
    if type(value) in _KINDS[kind] and (kind != "a list of strings" or all(type(x) is str for x in value)):
        return value
    raise ValueError(f"{what} must be {kind}, not {json.dumps(value)}")
