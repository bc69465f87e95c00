import http.server
import json
import threading

import pytest

from emrkit.runtime import Action, AdapterFailure
from emrkit.sut import (
    ITEMS,
    AdapterConfig,
    Cassette,
    CassetteExhausted,
    FingerprintMismatch,
    LiveHttpSut,
    MockShopSut,
    SchemaError,
    TransportError,
    fingerprint,
    load_api_catalog,
    record_replay,
)
from emrkit.resources import fixture_path


def search(**params):
    return Action(0, "search", params)


# Independent oracle: scan the fixture catalog directly.
def scan(query="", **filters):
    hits = [i for i in ITEMS if query.lower() in i["name"].lower()]
    if "category" in filters:
        hits = [i for i in hits if i["category"] == filters["category"]]
    if "max_price" in filters:
        hits = [i for i in hits if i["price"] <= filters["max_price"]]
    if "brand" in filters:
        hits = [i for i in hits if i["brand"] == filters["brand"]]
    if "min_rating" in filters:
        hits = [i for i in hits if i["rating"] >= filters["min_rating"]]
    if "in_stock" in filters:
        hits = [i for i in hits if i["in_stock"] == filters["in_stock"]]
    return hits


def test_chair_query_returns_five_results():
    assert len(scan("chair")) == 5  # brute-force count over the fixture catalog
    output = MockShopSut().session().execute(search(query="chair"))
    assert output.summary_size == 5
    assert [i["name"] for i in output.payload] == [i["name"] for i in scan("chair")]


def test_empty_query_returns_everything():
    output = MockShopSut().session().execute(search(query=""))
    assert output.summary_size == len(ITEMS) == 12


def test_filters_match_brute_force_scan():
    cases = [
        {"query": "chair", "category": "office"},
        {"query": "", "max_price": 200},
        {"query": "desk", "min_rating": 4.0},
        {"query": "", "brand": "WoodWorks", "in_stock": True},
    ]
    for params in cases:
        output = MockShopSut().session().execute(search(**params))
        assert output.summary_size == len(scan(**params)), params


def test_ignore_filter_fault_returns_unfiltered_results():
    output = MockShopSut("ignore-filter").session().execute(
        search(query="chair", category="office")
    )
    assert output.summary_size == 5  # same five as without the category filter


def test_fault_flag_monotonicity_exhaustive():
    # With ignore-filter, every filtered count equals the unfiltered count.
    queries = ["", "chair", "desk", "table", "lamp", "nothing-matches"]
    filters = [
        {"category": "office"},
        {"brand": "SeatCraft"},
        {"max_price": 250},
        {"min_rating": 4.0},
        {"in_stock": True},
    ]
    sut = MockShopSut("ignore-filter")
    for query in queries:
        base = sut.session().execute(search(query=query)).summary_size
        for f in filters:
            filtered = sut.session().execute(search(query=query, **f)).summary_size
            assert filtered == base


def test_off_by_one_fault_only_affects_paged_searches():
    correct = MockShopSut().session().execute(search(query="", page=0, page_size=6))
    faulty = MockShopSut("off-by-one-pagination").session().execute(search(query="", page=0, page_size=6))
    assert [i["id"] for i in correct.payload] == [1, 2, 3, 4, 5, 6]
    assert [i["id"] for i in faulty.payload] == [2, 3, 4, 5, 6, 7]
    unpaged = MockShopSut("off-by-one-pagination").session().execute(search(query=""))
    assert unpaged.summary_size == 12


def test_stale_results_fault_caches_first_search():
    session = MockShopSut("stale-results").session()
    first = session.execute(search(query="chair"))
    second = session.execute(search(query="table"))
    assert [i["id"] for i in second.payload] == [i["id"] for i in first.payload]
    fresh = MockShopSut("stale-results").session().execute(search(query="table"))
    assert fresh.summary_size == 2


def test_unknown_fault_rejected():
    with pytest.raises(ValueError):
        MockShopSut("melt-down")


def test_login_and_unknown_action():
    session = MockShopSut().session()
    output = session.execute(Action(0, "login", {"user": "ada"}))
    assert output.status == "ok" and output.payload == {"user": "ada"}
    with pytest.raises(AdapterFailure):
        session.execute(Action(1, "purchase", {}))


def test_mock_determinism():
    sut = MockShopSut()
    a = sut.session().execute(search(query="desk", category="office"))
    b = sut.session().execute(search(query="desk", category="office"))
    assert a == b


# --- API catalog ---------------------------------------------------------------


def test_load_search_filter_catalog_preserves_order():
    catalog = load_api_catalog(fixture_path("api_catalog_search_filter.json"))
    assert len(catalog) == 6
    assert catalog.names() == [
        "isSearchAction",
        "getFilterTypes",
        "applyFilter",
        "notSameFilterApplied",
        "fewerResults",
        "moreRelevantResults",
    ]
    assert "boolean isSearchAction(Action action)" in catalog.render_for_prompt()


def test_empty_catalog_file(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text("[]")
    assert len(load_api_catalog(path)) == 0


def test_duplicate_name_is_schema_error(tmp_path):
    path = tmp_path / "cat.json"
    entry = {"name": "f", "parameters": [], "returns": "int", "doc": "d"}
    path.write_text(json.dumps([entry, entry]))
    with pytest.raises(SchemaError):
        load_api_catalog(path)


def test_missing_doc_is_schema_error(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([{"name": "f", "parameters": [], "returns": "int", "doc": " "}]))
    with pytest.raises(SchemaError) as exc:
        load_api_catalog(path)
    assert "doc" in str(exc.value)


# --- record / replay -----------------------------------------------------------


def run_script(factory, script):
    outputs = []
    session = factory()
    for action in script:
        outputs.append(session.execute(action))
    return outputs


SCRIPT = [
    Action(0, "login", {"user": "ada"}),
    Action(1, "search", {"query": "chair"}),
    Action(2, "search", {"query": "chair", "category": "office"}),
]


def test_record_then_replay_round_trip(tmp_path):
    cassette = tmp_path / "shop.cassette.json"
    recorded = run_script(record_replay("record", cassette, MockShopSut()), SCRIPT)
    replayed = run_script(record_replay("replay", cassette), SCRIPT)
    assert replayed == recorded


def test_replay_with_mutated_parameter_mismatches(tmp_path):
    cassette = tmp_path / "shop.cassette.json"
    run_script(record_replay("record", cassette, MockShopSut()), SCRIPT)
    factory = record_replay("replay", cassette)
    session = factory()
    session.execute(SCRIPT[0])
    with pytest.raises(FingerprintMismatch) as exc:
        session.execute(Action(1, "search", {"query": "table"}))
    assert "chair" in str(exc.value) and "table" in str(exc.value)


def test_replay_exhaustion_is_loud(tmp_path):
    cassette = tmp_path / "shop.cassette.json"
    run_script(record_replay("record", cassette, MockShopSut()), SCRIPT[:1])
    factory = record_replay("replay", cassette)
    session = factory()
    session.execute(SCRIPT[0])
    with pytest.raises(CassetteExhausted):
        session.execute(SCRIPT[1])


def test_fingerprint_is_order_insensitive():
    a = Action(0, "search", {"query": "x", "category": "office"})
    b = Action(0, "search", {"category": "office", "query": "x"})
    assert fingerprint(a) == fingerprint(b)


def test_replay_needs_existing_cassette(tmp_path):
    with pytest.raises(OSError):
        record_replay("replay", tmp_path / "missing.json")


def test_cassette_is_json_lines_appended_per_interaction(tmp_path):
    cassette_path = tmp_path / "c.jsonl"
    session = record_replay("record", cassette_path, MockShopSut())()
    sizes = []
    for action in SCRIPT:
        before = cassette_path.read_bytes()
        session.execute(action)
        after = cassette_path.read_bytes()
        assert after.startswith(before)
        sizes.append(after.count(b"\n"))
    assert sizes == [1, 2, 3]
    lines = cassette_path.read_text().splitlines()
    assert [sorted(json.loads(line)) for line in lines] == [["fingerprint", "output"]] * 3
    entries = Cassette(cassette_path).load()
    assert [json.loads(fp)["kind"] for fp, _ in entries] == ["login", "search", "search"]


def test_recording_again_empties_the_cassette(tmp_path):
    cassette_path = tmp_path / "c.jsonl"
    run_script(record_replay("record", cassette_path, MockShopSut()), SCRIPT)
    run_script(record_replay("record", cassette_path, MockShopSut()), SCRIPT[:1])
    assert len(Cassette(cassette_path).load()) == 1


def test_replay_drops_a_torn_final_line(tmp_path):
    cassette = tmp_path / "c.jsonl"
    recorded = run_script(record_replay("record", cassette, MockShopSut()), SCRIPT[:2])
    with open(cassette, "ab") as f:
        f.write(b'{"fingerprint":"{\\"kind\\":\\"search\\"')
    assert run_script(record_replay("replay", cassette), SCRIPT[:2]) == recorded
    with pytest.raises(CassetteExhausted):
        run_script(record_replay("replay", cassette), SCRIPT)


# --- live HTTP adapter -----------------------------------------------------------


class _ShopHandler(http.server.BaseHTTPRequestHandler):
    def _respond(self, code, data):
        body = json.dumps(data).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path.startswith("/search"):
            self._respond(200, {"status": "ok", "payload": [{"id": 1}], "summary_size": 1})
        else:
            self._respond(404, {"error": "no such path"})

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        self._respond(200, {"status": "ok", "payload": payload, "summary_size": 0})

    def log_message(self, *args):
        pass


@pytest.fixture()
def live_server():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ShopHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()


def test_live_adapter_maps_actions_to_endpoints(live_server):
    config = AdapterConfig(live_server, {"search": {"path": "/search", "method": "GET"},
                                         "login": {"path": "/login", "method": "POST"}})
    session = LiveHttpSut(config).session()
    output = session.execute(search(query="chair"))
    assert output.status == "ok" and output.summary_size == 1
    login = session.execute(Action(1, "login", {"user": "ada"}))
    assert login.payload == {"user": "ada"}


def test_live_adapter_unknown_kind(live_server):
    config = AdapterConfig(live_server, {"search": {"path": "/search", "method": "GET"}})
    with pytest.raises(AdapterFailure):
        LiveHttpSut(config).session().execute(Action(0, "purchase", {}))


def test_live_adapter_transport_error():
    config = AdapterConfig("http://127.0.0.1:1", {"search": {"path": "/s", "method": "GET"}})
    with pytest.raises(TransportError):
        LiveHttpSut(config, timeout=0.3).session().execute(search(query="x"))


def test_live_recorded_then_replayed(live_server, tmp_path):
    config = AdapterConfig(live_server, {"search": {"path": "/search", "method": "GET"}})
    cassette = tmp_path / "live.json"
    script = [search(query="chair")]
    recorded = run_script(record_replay("record", cassette, LiveHttpSut(config)), script)
    replayed = run_script(record_replay("replay", cassette), script)
    assert replayed == recorded
