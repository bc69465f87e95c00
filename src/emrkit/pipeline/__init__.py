"""Staged LLM conversations that derive MRs and generate EMRs."""

from .client import LiveChatClient, LlmConfig, LlmError, MockChatClient, content_hash
from .conversation import Conversation, TranscriptStore
from .derive import (
    MetamorphicRelation,
    dedupe_mrs,
    derive_mrs,
    load_mr_catalog,
    parse_mr_list,
    save_mr_catalog,
)
from .generate import generate_emrs, load_fewshot
from .ingest import chunk_document, ingest_document

__all__ = [
    "Conversation",
    "LiveChatClient",
    "LlmConfig",
    "LlmError",
    "MetamorphicRelation",
    "MockChatClient",
    "TranscriptStore",
    "chunk_document",
    "content_hash",
    "dedupe_mrs",
    "derive_mrs",
    "generate_emrs",
    "ingest_document",
    "load_fewshot",
    "load_mr_catalog",
    "parse_mr_list",
    "save_mr_catalog",
]
