import importlib
import json
from pathlib import Path

import pytest

from emrkit.dsl import parse_emr, structurally_equal, validate, has_errors
from emrkit.pipeline import (
    Conversation,
    LlmTransport,
    MissingScript,
    MockChatClient,
    ResponseFormatError,
    TranscriptStore,
    UnsupportedFormat,
    chunk_document,
    content_hash,
    derive_mrs,
    generate_emrs,
    ingest_document,
    load_fewshot,
    load_transcript,
    parse_mr_list,
)
from emrkit.pipeline.ingest import Document
from emrkit.pipeline.templates import DeriveTemplates, GenerateTemplates, TemplateError, fill
from emrkit.resources import fixture_path, read_fixture
from emrkit.sut import EMPTY_CATALOG, load_api_catalog

R1 = (
    "The system should provide advanced search options to allow users to refine their "
    "searches based on specific attributes such as price range, category, brand, customer "
    "ratings, and availability."
)
MR1 = (
    "For a given search query, applying additional filters (e.g., narrowing down by category "
    "or price range) should reduce the number of search results or refine them to match the "
    "filters more closely."
)


@pytest.fixture()
def shop_doc():
    return ingest_document(fixture_path("requirements_shop.md"))


@pytest.fixture()
def mock_client():
    return MockChatClient.from_file(fixture_path("mock_scripts.json"))


@pytest.fixture()
def fewshot():
    return load_fewshot(fixture_path("fewshot.json"))


# --- ingestion ------------------------------------------------------------


def test_markdown_headings_preserved(shop_doc):
    assert "# Online Shop: System Requirements" in shop_doc.text.split("\n")
    assert R1 in shop_doc.text


def test_identical_content_same_id(tmp_path, shop_doc):
    clone = tmp_path / "copy.md"
    clone.write_text(shop_doc.text, encoding="utf-8")
    assert ingest_document(clone).doc_id == shop_doc.doc_id


def test_line_endings_normalized(tmp_path):
    path = tmp_path / "crlf.txt"
    path.write_bytes(b"line one\r\nline two\r\n")
    assert ingest_document(path).text == "line one\nline two\n"


def test_unsupported_format(tmp_path):
    pdfish = tmp_path / "doc.pdf"
    pdfish.write_bytes(b"%PDF-1.4")
    with pytest.raises(UnsupportedFormat):
        ingest_document(pdfish)
    binary = tmp_path / "doc.txt"
    binary.write_bytes(b"a\x00b")
    with pytest.raises(UnsupportedFormat):
        ingest_document(binary)


def test_large_document_chunked_under_budget():
    sections = [f"# Section {i}\n\n" + ("lorem ipsum dolor sit amet. " * 300) for i in range(25)]
    text = "\n".join(sections)
    assert len(text) > 200_000
    budget = 12_000
    chunks = chunk_document(text, budget)
    assert len(chunks) > 1
    assert all(len(chunk) <= budget for chunk in chunks)
    # Order preserved: section markers appear in ascending order.
    joined = "\n".join(chunks)
    positions = [joined.index(f"# Section {i}") for i in range(25)]
    assert positions == sorted(positions)


def test_small_document_is_one_chunk(shop_doc):
    assert chunk_document(shop_doc.text, 12_000) == [shop_doc.text]


# --- templates -------------------------------------------------------------


def test_fill_requires_every_placeholder():
    assert fill("a {{x}} c", x="b") == "a b c"
    with pytest.raises(TemplateError):
        fill("a {{x}} {{y}}", x="b")


def test_bundled_phase_counts():
    derive = DeriveTemplates.load()
    assert [p.ordinal for p in (derive.context, derive.document, derive.sentences, derive.mrs)] == [1, 2, 3, 4]
    generate = GenerateTemplates.load()
    phases = (generate.context, generate.constructs, generate.output_template,
              generate.fewshot, generate.apis, generate.transform)
    assert [p.ordinal for p in phases] == [1, 2, 3, 4, 5, 6]


def test_template_override_directory(tmp_path):
    (tmp_path / "derive_phase1_context.txt").write_text("custom context", encoding="utf-8")
    templates = DeriveTemplates.load(tmp_path)
    assert templates.context.template == "custom context"
    assert "sentences" in templates.sentences.template  # others fall back to bundled


# --- derivation ------------------------------------------------------------


def test_derive_reproduces_the_expected_mr(shop_doc, mock_client, tmp_path):
    result = derive_mrs(shop_doc, mock_client, TranscriptStore(tmp_path))
    assert [mr.text for mr in result.mrs] == [MR1]
    (mr,) = result.mrs
    assert mr.id == f"{shop_doc.doc_id}-mr01"
    assert mr.requirement_ref == "R1"
    assert mr.source_sentences == [R1]
    assert result.warnings == []


def test_derive_phase_order_and_transcript(shop_doc, mock_client, tmp_path):
    store = TranscriptStore(tmp_path)
    result = derive_mrs(shop_doc, mock_client, store)
    conv = result.conversation
    assert conv.phases() == sorted(conv.phases())
    assert conv.messages[0].phase == 1 and conv.messages[0].role == "user"
    path = store.path_for(conv)
    assert path.exists()
    data = load_transcript(path)
    assert data["pipeline"] == "derive"
    assert len(data["messages"]) == len(conv.messages)


def test_empty_sentence_response_yields_zero_mrs(shop_doc):
    client = MockChatClient.from_scripts([
        {"pipeline": "derive", "phase": 1, "response": "ok"},
        {"pipeline": "derive", "phase": 2, "response": "summary"},
        {"pipeline": "derive", "phase": 3, "response": "   "},
    ])
    result = derive_mrs(shop_doc, client)
    assert result.mrs == []
    assert max(result.conversation.phases()) == 3


def test_unparseable_mr_list_raises_format_error(shop_doc):
    client = MockChatClient.from_scripts([
        {"pipeline": "derive", "phase": 1, "response": "ok"},
        {"pipeline": "derive", "phase": 2, "response": "summary"},
        {"pipeline": "derive", "phase": 3, "response": R1},
        {"pipeline": "derive", "phase": 4, "response": "here are some MRs, unformatted"},
    ])
    with pytest.raises(ResponseFormatError):
        derive_mrs(shop_doc, client)


def test_max_mrs_appends_cap_to_phase4_request(shop_doc):
    seen = {}

    class CapturingClient:
        def complete(self, conversation):
            message = conversation.last_user_message()
            if message.phase == 2:
                return "summary"
            if message.phase == 3:
                return R1
            if message.phase == 4:
                seen["request"] = message.content
                return f'1. MR: {MR1}\n   SOURCE: "{R1}"\n   REQ: R1'
            return "ok"

    derive_mrs(shop_doc, CapturingClient(), max_mrs=5)
    assert "at most 5 MRs" in seen["request"]


def test_dedupe_mrs_drops_textual_repeats(shop_doc):
    from emrkit.pipeline import MetamorphicRelation, dedupe_mrs

    mrs = [
        MetamorphicRelation("a", "Filters    narrow results.", "d"),
        MetamorphicRelation("b", "filters narrow results.", "d"),
        MetamorphicRelation("c", "Something else entirely.", "d"),
    ]
    kept, dropped = dedupe_mrs(mrs)
    assert [mr.id for mr in kept] == ["a", "c"]
    assert dropped == 1


def test_non_verbatim_sentence_flagged_not_kept(shop_doc):
    response = f'1. MR: {MR1}\n   SOURCE: "A sentence that is not in the document."\n   REQ: R9'
    mrs, warnings = parse_mr_list(response, shop_doc)
    assert len(mrs) == 1
    assert mrs[0].source_sentences == []
    assert len(warnings) == 1


def test_mock_determinism_two_runs_byte_identical(shop_doc, tmp_path):
    paths = []
    for run in ("a", "b"):
        store = TranscriptStore(tmp_path / run)
        client = MockChatClient.from_file(fixture_path("mock_scripts.json"))
        result = derive_mrs(shop_doc, client, store)
        paths.append(store.path_for(result.conversation).read_bytes())
    assert paths[0] == paths[1]


def test_chunked_document_conversation(monkeypatch, tmp_path):
    text = "# A\n" + "alpha " * 600 + "\n\n# B\n" + "beta " * 600
    doc = Document("doc123", "big", text)
    seen_parts = []

    class ChunkClient:
        def complete(self, conversation):
            message = conversation.last_user_message()
            if message.phase == 2:
                seen_parts.append(message.content.split("\n")[0])
                return "chunk summary"
            if message.phase == 3:
                return ""
            return "ok"

    result = derive_mrs(doc, ChunkClient(), TranscriptStore(tmp_path), turn_budget=2000)
    assert result.mrs == []
    assert len(seen_parts) >= 3  # two chunks plus the consolidation turn
    assert any("part 1 of" in part for part in seen_parts)


# --- generation -------------------------------------------------------------


def test_generate_reproduces_search_filter_with_stubs(shop_doc, mock_client, fewshot, tmp_path, filter_emr_ast):
    derive_result = derive_mrs(shop_doc, mock_client, TranscriptStore(tmp_path))
    result = generate_emrs(derive_result.mrs, EMPTY_CATALOG, fewshot, mock_client, TranscriptStore(tmp_path))
    (item,) = result.items
    assert item.status == "ok"
    assert structurally_equal(item.ast, filter_emr_ast)
    assert item.stubs == [
        "isSearchAction",
        "getFilterTypes",
        "applyFilter",
        "notSameFilterApplied",
        "fewerResults",
        "moreRelevantResults",
    ]
    assert [e["explanation"] for e in item.explanations[:2]] == ["(1)", "(2)"]


def test_generate_with_full_catalog_has_no_stubs(shop_doc, mock_client, fewshot):
    catalog = load_api_catalog(fixture_path("api_catalog_search_filter.json"))
    mrs = derive_mrs(shop_doc, mock_client).mrs
    result = generate_emrs(mrs, catalog, fewshot, mock_client)
    assert result.items[0].stubs == []


def test_generate_zero_mrs_stops_after_phase5(mock_client, fewshot):
    result = generate_emrs([], EMPTY_CATALOG, fewshot, mock_client)
    assert result.items == []
    assert max(result.conversation.phases()) == 5


def test_generate_repairs_ampersand_defect(shop_doc, fewshot, filter_emr_ast):
    client = MockChatClient.from_file(fixture_path("mock_scripts_amp_defect.json"))
    mrs = derive_mrs(shop_doc, client).mrs
    result = generate_emrs(mrs, EMPTY_CATALOG, fewshot, client)
    (item,) = result.items
    assert item.status == "repaired"
    assert [e.to_json() for e in item.repair_log.entries] == [
        {"rule": "WLC-AMP", "line": 9, "before": " &", "after": ",", "message": "replaced ' &' with ','"}
    ]
    assert structurally_equal(item.ast, filter_emr_ast)


def _count_scans(monkeypatch) -> list[str]:
    """Record each source the shared scanner lexes, wherever it is called from."""
    scanned = []
    tokens = importlib.import_module("emrkit.dsl.tokens")
    original = tokens.scan

    def counted(source):
        scanned.append(source)
        return original(source)

    for name in ("emrkit.dsl.tokens", "emrkit.dsl.parser"):  # the parser imports the bare name
        monkeypatch.setattr(importlib.import_module(name), "scan", counted)
    return scanned


def test_generate_scans_a_clean_reply_once(shop_doc, mock_client, fewshot, monkeypatch):
    scanned = _count_scans(monkeypatch)
    mrs = derive_mrs(shop_doc, mock_client).mrs
    (item,) = generate_emrs(mrs, EMPTY_CATALOG, fewshot, mock_client).items
    assert item.status == "ok"
    assert scanned == [item.source]


def test_generate_scans_a_repaired_reply_three_times(shop_doc, fewshot, monkeypatch):
    client = MockChatClient.from_file(fixture_path("mock_scripts_amp_defect.json"))
    mrs = derive_mrs(shop_doc, client).mrs
    scanned = _count_scans(monkeypatch)
    (item,) = generate_emrs(mrs, EMPTY_CATALOG, fewshot, client).items
    assert item.status == "repaired"
    reply, repaired, fixed = scanned  # parse the reply, repair it, parse the repaired source
    assert reply == repaired and " &" in reply
    assert fixed == item.source != reply


def test_generate_records_unparseable_and_continues(shop_doc, fewshot):
    mrs = derive_mrs(shop_doc, MockChatClient.from_file(fixture_path("mock_scripts.json"))).mrs
    # A digit int() refuses, and a literal too long for it, fail like any other bad reply.
    replies = ["not an EMR at all", "MR {{ var x = ²; }}", "MR {{ var x = " + "9" * 5000 + "; }}"]
    mrs = mrs + [type(mrs[0])(id=f"mr-x{n}", text=f"MR {n}", document_id=mrs[0].document_id) for n in range(3)]
    scripts = json.loads(fixture_path("mock_scripts.json").read_text())
    scripts += [{"pipeline": "generate", "phase": 6, "response": reply} for reply in replies]
    client = MockChatClient.from_scripts([s for s in scripts if s["pipeline"] == "generate"])
    result = generate_emrs(mrs, EMPTY_CATALOG, fewshot, client)
    assert [i.status for i in result.items] == ["ok", "unparseable", "unparseable", "unparseable"]
    assert [i.error.split(": ", 1)[0] for i in result.items[1:]] == ["1:1", "1:15", "1:15"]


def test_generate_requires_fewshot(shop_doc, mock_client):
    with pytest.raises(ValueError):
        generate_emrs([], EMPTY_CATALOG, [], mock_client)


def test_bundled_fewshot_examples_are_wellformed(fewshot):
    assert len(fewshot) == 3
    for example in fewshot:
        ast = parse_emr(example.emr)
        assert not has_errors(validate(ast))


# --- chat client ------------------------------------------------------------


def test_mock_client_keyed_by_pipeline_phase_hash():
    conv = Conversation("derive", "x")
    conv.append("user", "hello", 1)
    exact = MockChatClient.from_scripts(
        [{"pipeline": "derive", "phase": 1, "content_hash": content_hash("hello"), "response": "hi"}]
    )
    assert exact.complete(conv) == "hi"


def test_mock_client_missing_script_is_loud():
    conv = Conversation("derive", "x")
    conv.append("user", "unexpected", 1)
    with pytest.raises(MissingScript):
        MockChatClient.from_scripts([]).complete(conv)


def test_conversation_rejects_descending_phases():
    conv = Conversation("derive", "x")
    conv.append("user", "a", 2)
    with pytest.raises(ValueError):
        conv.append("user", "b", 1)


def test_crash_midway_loses_at_most_one_turn(shop_doc, tmp_path):
    class CrashingClient:
        def __init__(self, inner, fail_at):
            self.inner = inner
            self.calls = 0
            self.fail_at = fail_at

        def complete(self, conversation):
            self.calls += 1
            if self.calls >= self.fail_at:
                raise LlmTransport("connection lost")
            return self.inner.complete(conversation)

    store = TranscriptStore(tmp_path)
    client = CrashingClient(MockChatClient.from_file(fixture_path("mock_scripts.json")), fail_at=3)
    with pytest.raises(LlmTransport):
        derive_mrs(shop_doc, client, store)
    (path,) = list(Path(tmp_path).iterdir())
    messages = load_transcript(path)["messages"]
    # Two full turns persisted plus the in-flight user message.
    assert [m["role"] for m in messages] == ["user", "assistant", "user", "assistant", "user"]


def test_transcript_records_temperature(shop_doc, tmp_path):
    store = TranscriptStore(tmp_path)
    client = MockChatClient.from_file(fixture_path("mock_scripts.json"))
    result = derive_mrs(shop_doc, client, store, config={"model": "mock", "temperature": 0.0})
    data = load_transcript(store.path_for(result.conversation))
    assert data["config"]["temperature"] == 0.0


def test_transcript_is_appended_one_line_per_message(tmp_path):
    store = TranscriptStore(tmp_path)
    conv = Conversation("derive", "doc", config={"temperature": 0.0})
    conv.append("user", "ask", 1)
    path = store.write(conv)
    before = path.read_bytes()
    conv.append("assistant", "reply\u2028with\nbreaks", 1)
    store.write(conv)
    after = path.read_bytes()
    assert path.name == "derive-doc.jsonl"
    assert after.startswith(before) and after.count(b"\n") == 3
    data = load_transcript(path)
    assert data == {"pipeline": "derive", "ref": "doc", "config": {"temperature": 0.0},
                    "messages": [m.to_json() for m in conv.messages]}


def test_transcript_rewritten_by_a_new_conversation_of_the_same_name(tmp_path):
    store = TranscriptStore(tmp_path)
    for content in ("first", "second"):
        conv = Conversation("derive", "doc")
        conv.append("user", content, 1)
        path = store.write(conv)
    assert [m["content"] for m in load_transcript(path)["messages"]] == ["second"]


def test_transcript_reader_drops_a_torn_final_line(tmp_path):
    store = TranscriptStore(tmp_path)
    conv = Conversation("derive", "doc")
    conv.append("user", "ask", 1)
    path = store.write(conv)
    with open(path, "ab") as f:
        f.write(b'{"content":"cut sh')
    assert [m["content"] for m in load_transcript(path)["messages"]] == ["ask"]


@pytest.mark.parametrize("text", ["", '{"pipeline":"derive"}\n', '{"pipeline":"derive","ref":"r","config":{}}\n[1]\n',
                                  '{"pipeline":"derive","ref":"r","config":{}}\nnot json\n{}\n'])
def test_transcript_reader_rejects_a_bad_line(tmp_path, text):
    path = tmp_path / "t.jsonl"
    path.write_text(text)
    with pytest.raises(ValueError, match="line [12]"):
        load_transcript(path)


def test_live_client_against_local_chat_endpoint():
    import http.server
    import threading

    from emrkit.pipeline import LiveChatClient, LlmConfig

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            request = json.loads(self.rfile.read(length))
            reply = f"echo:{request['messages'][-1]['content']}:t={request['temperature']}"
            body = json.dumps({"choices": [{"message": {"role": "assistant", "content": reply}}]}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        config = LlmConfig(endpoint=f"http://127.0.0.1:{server.server_address[1]}", model="m", temperature=0.0)
        conv = Conversation("derive", "x")
        conv.append("user", "ping", 1)
        assert LiveChatClient(config).complete(conv) == "echo:ping:t=0.0"
    finally:
        server.shutdown()


def test_live_client_retries_then_raises():
    from emrkit.pipeline import LiveChatClient, LlmConfig

    config = LlmConfig(endpoint="http://127.0.0.1:1/chat", model="m")
    client = LiveChatClient(config, max_retries=2, backoff=0.01)
    conv = Conversation("derive", "x")
    conv.append("user", "ping", 1)
    with pytest.raises(LlmTransport):
        client.complete(conv)
