"""Document ingestion: plain text or markdown in, normalized text out."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

TEXT_SUFFIXES = {".txt", ".md", ".markdown", ".rst", ""}


class UnsupportedFormat(Exception):
    """The document is not plain text or markdown; the message is the reason."""


@dataclass
class Document:
    doc_id: str  # content hash: identical content gets an identical id
    name: str
    text: str


def ingest_document(path: str | Path) -> Document:
    path = Path(path)
    if path.suffix.lower() not in TEXT_SUFFIXES:
        raise UnsupportedFormat(f"unsupported extension '{path.suffix}' (plain text or markdown only)")
    raw = path.read_bytes()
    if b"\x00" in raw:
        raise UnsupportedFormat("binary content")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UnsupportedFormat(f"not valid UTF-8: {exc}") from exc
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    doc_id = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    return Document(doc_id, path.stem, text)


def _split_blocks(text: str, marker: str) -> list[str]:
    """Split into blocks that each start at a ``marker`` boundary."""
    lines = text.split("\n")
    blocks: list[list[str]] = [[]]
    for line in lines:
        if line.startswith(marker) and blocks[-1]:
            blocks.append([])
        blocks[-1].append(line)
    return ["\n".join(b) for b in blocks if b]


def _hard_split(text: str, budget: int) -> list[str]:
    return [text[i : i + budget] for i in range(0, len(text), budget)] or [text]


def chunk_document(text: str, budget: int) -> list[str]:
    """Split at heading, then paragraph boundaries so every chunk fits the
    per-turn budget; greedy packing keeps the chunk count low."""
    if len(text) <= budget:
        return [text]
    pieces: list[str] = []
    for section in _split_blocks(text, "#"):
        if len(section) <= budget:
            pieces.append(section)
            continue
        for paragraph in section.split("\n\n"):
            if len(paragraph) <= budget:
                pieces.append(paragraph)
            else:
                pieces.extend(_hard_split(paragraph, budget))
    chunks: list[str] = []
    current = ""
    for piece in pieces:
        glue = "\n\n" if current else ""
        if current and len(current) + len(glue) + len(piece) > budget:
            chunks.append(current)
            current = piece
        else:
            current += glue + piece
    if current:
        chunks.append(current)
    return chunks
