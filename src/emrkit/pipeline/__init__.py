"""Staged LLM conversations that derive MRs and generate EMRs."""

from .client import (
    ChatClient,
    LiveChatClient,
    LlmConfig,
    LlmError,
    MockChatClient,
    content_hash,
)
from .conversation import Conversation, Message, TranscriptStore, load_transcript, run_turn
from .derive import (
    DeriveResult,
    MetamorphicRelation,
    dedupe_mrs,
    derive_mrs,
    load_mr_catalog,
    parse_mr_list,
    save_mr_catalog,
)
from .generate import (
    FewShotExample,
    GenerateResult,
    GeneratedEmr,
    extract_emr_source,
    generate_emrs,
    load_fewshot,
    render_fewshot,
)
from .ingest import Document, chunk_document, ingest_document
from .templates import DeriveTemplates, GenerateTemplates, PromptPhase, fill

__all__ = [
    "ChatClient",
    "Conversation",
    "DeriveResult",
    "DeriveTemplates",
    "Document",
    "FewShotExample",
    "GenerateResult",
    "GenerateTemplates",
    "GeneratedEmr",
    "LiveChatClient",
    "LlmConfig",
    "LlmError",
    "Message",
    "MetamorphicRelation",
    "MockChatClient",
    "PromptPhase",
    "TranscriptStore",
    "chunk_document",
    "content_hash",
    "dedupe_mrs",
    "derive_mrs",
    "extract_emr_source",
    "fill",
    "generate_emrs",
    "ingest_document",
    "load_fewshot",
    "load_mr_catalog",
    "load_transcript",
    "parse_mr_list",
    "render_fewshot",
    "run_turn",
    "save_mr_catalog",
]
