"""The writers: appends that finish a short write, and in-place rewrites
that leave exactly the new bytes, and the reader that names a bad line."""

import gc
import os
from pathlib import Path

import pytest

from conftest import open_fds
from emrkit import jsonl


@pytest.mark.parametrize("old, new", [
    (b"a much longer previous report\n" * 40, b"short\n"),
    (b"ab", "café → longer\r\n".encode("utf-8") * 40),
    (b"same bytes\n", b"same bytes\n"),
    (b"not empty\n", b""),
], ids=["longer-to-shorter", "shorter-to-longer", "identical", "to-empty"])
def test_rewrite_leaves_exactly_the_new_bytes(tmp_path, old, new):
    path = tmp_path / "out.json"
    path.write_bytes(old)
    jsonl.rewrite(path, new)
    assert path.read_bytes() == new


def test_rewrite_creates_missing_parents_only_when_the_open_fails(tmp_path, monkeypatch):
    made = []
    mkdir = Path.mkdir

    def spy(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", spy)
    path = tmp_path / "a" / "b" / "out.smrl"
    jsonl.rewrite(path, b"first\n")
    assert made[0] == path.parent and path.read_bytes() == b"first\n"
    made.clear()
    jsonl.rewrite(path, b"second\n")
    assert made == [] and path.read_bytes() == b"second\n"


def test_append_finishes_a_short_write(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    records = [{"n": n, "text": "café → " * n} for n in range(20)]
    appender = jsonl.Appender(path)
    appender.write(records[:1])
    calls = []
    write = os.write

    def short_write(fd, data):  # at most 7 bytes per call, as a write cut short by a signal
        calls.append(len(data))
        return write(fd, bytes(data[:7]))

    monkeypatch.setattr(os, "write", short_write)
    appender.write(records[1:10])
    appender.write(records[10:])
    assert len(calls) > 100
    assert jsonl.read(path) == records  # on disk before close: nothing is buffered
    appender.close()
    jsonl.Appender(path).write(records[3:5])
    monkeypatch.undo()
    assert jsonl.read(path) == records[3:5]
    assert path.read_bytes().count(b"\n") == 2


def test_read_names_a_line_that_does_not_decode(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a":1}\nnot json\n{}\n')
    with pytest.raises(ValueError, match="^line 2 is not valid JSON: "):
        jsonl.read(path)


def test_appender_writes_compact_sorted_lines_and_creates_missing_parents(tmp_path):
    path = tmp_path / "a" / "b" / "log.jsonl"
    jsonl.Appender(path).write([{"b": "é", "a": [1, None]}, {}])
    assert path.read_bytes() == '{"a":[1,null],"b":"é"}\n{}\n'.encode("utf-8")


def test_appender_closes_its_file_once_on_close_or_when_collected(tmp_path):
    before = open_fds()
    appender = jsonl.Appender(tmp_path / "closed.jsonl")
    assert len(open_fds()) == len(before) + 1
    appender.close()
    appender.close()
    assert open_fds() == before
    jsonl.Appender(tmp_path / "dropped.jsonl").write([{}])
    gc.collect()
    assert open_fds() == before


@pytest.mark.parametrize("value, kind", [
    ("", "a string"), (None, "a string or null"), ("x", "a string or null"), (-1, "an integer"),
    (0, "a number"), (2.5, "a number"), (False, "a boolean"), ({}, "a JSON object"), (["a", ""], "a list of strings"),
])
def test_check_returns_a_value_of_its_kind_without_encoding_it(monkeypatch, value, kind):
    monkeypatch.setattr(jsonl.json, "dumps", None)  # the message is built only on failure
    assert jsonl.check(value, kind, "v") is value


@pytest.mark.parametrize("value, kind, message", [
    (True, "an integer", "v must be an integer, not true"),
    (False, "a number", "v must be a number, not false"),
    (1, "a boolean", "v must be a boolean, not 1"),
    (1.0, "an integer", "v must be an integer, not 1.0"),
    ("é", "a JSON object", 'v must be a JSON object, not "\\u00e9"'),
    (["a", None], "a list of strings", 'v must be a list of strings, not ["a", null]'),
    ("ab", "a list of strings", 'v must be a list of strings, not "ab"'),
])
def test_check_refuses_another_kind_naming_the_value_as_json(value, kind, message):
    with pytest.raises(ValueError) as excinfo:
        jsonl.check(value, kind, "v")
    assert str(excinfo.value) == message
