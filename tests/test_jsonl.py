"""The whole-file writer: in-place rewrites that leave exactly the new bytes."""

from pathlib import Path

import pytest

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
