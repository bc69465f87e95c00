import copy
import http.server
import json
import threading
import urllib.parse

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from emrkit.dsl import parse_emr
from emrkit.runtime import Action, ActionSequence, AdapterFailure, Output, run_suite
from emrkit.sut import (
    FAULTS,
    ITEMS,
    AdapterConfig,
    Cassette,
    LiveHttpSut,
    MockShopSut,
    fingerprint,
    load_api_catalog,
    matches_filters,
    record_replay,
)
from emrkit.resources import fixture_path
from emrkit.sut.live import _to_output


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
    output = MockShopSut()().execute(search(query="chair"))
    assert output.summary_size == 5
    assert [i["name"] for i in output.payload] == [i["name"] for i in scan("chair")]


def test_empty_query_returns_everything():
    output = MockShopSut()().execute(search(query=""))
    assert output.summary_size == len(ITEMS) == 12


def test_filters_match_brute_force_scan():
    cases = [
        {"query": "chair", "category": "office"},
        {"query": "", "max_price": 200},
        {"query": "desk", "min_rating": 4.0},
        {"query": "", "brand": "WoodWorks", "in_stock": True},
    ]
    for params in cases:
        output = MockShopSut()().execute(search(**params))
        assert output.summary_size == len(scan(**params)), params


def test_ignore_filter_fault_returns_unfiltered_results():
    output = MockShopSut("ignore-filter")().execute(
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
        base = sut().execute(search(query=query)).summary_size
        for f in filters:
            filtered = sut().execute(search(query=query, **f)).summary_size
            assert filtered == base


def test_off_by_one_fault_only_affects_paged_searches():
    correct = MockShopSut()().execute(search(query="", page=0, page_size=6))
    faulty = MockShopSut("off-by-one-pagination")().execute(search(query="", page=0, page_size=6))
    assert [i["id"] for i in correct.payload] == [1, 2, 3, 4, 5, 6]
    assert [i["id"] for i in faulty.payload] == [2, 3, 4, 5, 6, 7]
    unpaged = MockShopSut("off-by-one-pagination")().execute(search(query=""))
    assert unpaged.summary_size == 12


def test_stale_results_fault_caches_first_search():
    session = MockShopSut("stale-results")()
    first = session.execute(search(query="chair"))
    second = session.execute(search(query="table"))
    assert [i["id"] for i in second.payload] == [i["id"] for i in first.payload]
    fresh = MockShopSut("stale-results")().execute(search(query="table"))
    assert fresh.summary_size == 2


def test_unknown_fault_rejected():
    with pytest.raises(ValueError):
        MockShopSut("melt-down")


def test_login_and_unknown_action():
    session = MockShopSut()()
    output = session.execute(Action(0, "login", {"user": "ada"}))
    assert output.status == "ok" and output.payload == {"user": "ada"}
    with pytest.raises(AdapterFailure):
        session.execute(Action(1, "purchase", {}))


def test_mock_determinism():
    sut = MockShopSut()
    a = sut().execute(search(query="desk", category="office"))
    b = sut().execute(search(query="desk", category="office"))
    assert a == b


class Incomparable:
    """A hashable filter value whose every comparison raises; ``like`` gives
    it that value's hash, so a memo lookup may have to compare it."""

    def __init__(self, like):
        self.like = like

    def __hash__(self):
        return hash(self.like)

    def __eq__(self, other):
        raise ValueError(f"cannot compare with {self.like!r}")

    __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __eq__

    def __repr__(self):
        return f"Incomparable({self.like!r})"


FILTER_VALUES = {
    "category": ["office", "living", "outdoor", None],
    "brand": ["SeatCraft", "ErgoLine"],
    "max_price": [250, 200.0, 49, True],
    "min_rating": [4.0, 4, 3.9],
    "in_stock": [True, False, 1, 0],
}
ODD_VALUES = [[250], {"a": 1}, Incomparable("office"), Incomparable(250), Incomparable(None), "250"]


@st.composite
def search_parameters(draw):
    params = {"query": draw(st.sampled_from(["", "chair", "Chair", "desk", "table", "nothing"]))}
    for name, values in FILTER_VALUES.items():
        if draw(st.booleans()):
            params[name] = draw(st.sampled_from(values + ODD_VALUES))
    if draw(st.booleans()):
        params["page"] = draw(st.integers(0, 2))
        params["page_size"] = draw(st.integers(1, 6))
    return params


def reference_search(params, fault):
    """A first search in a session, straight from ``ITEMS``."""
    query = str(params.get("query", "")).lower()
    hits = [item for item in ITEMS if query in item["name"].lower()]
    if fault != "ignore-filter":
        hits = [item for item in hits if matches_filters(item, params)]
    if "page" in params:
        size = params["page_size"]
        start = params["page"] * size + (fault == "off-by-one-pagination")
        hits = hits[start : start + size]
    return Output("ok", [dict(item) for item in hits], len(hits))


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the same error on every call is part of the outcome
        return type(exc), str(exc)


@given(searches=st.lists(search_parameters(), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_memoized_search_equals_a_cold_search_and_the_catalog(searches):
    for fault in (None, *FAULTS):
        warm = MockShopSut(fault)
        for params in searches * 2:
            outcome(warm().execute, search(**params))
        for params in searches:
            expected = outcome(reference_search, params, fault)
            cold = MockShopSut(fault)
            assert outcome(cold().execute, search(**params)) == expected
            assert outcome(cold().execute, search(**params)) == expected
            memoized = len(warm._matches)
            hit = outcome(warm().execute, search(**params))
            assert hit == expected
            if not isinstance(expected, Output):
                assert cold._matches == {} and len(warm._matches) == memoized  # an error is never memoized
                continue
            assert all(item is not original for item in hit.payload for original in ITEMS)
            for item in hit.payload:
                item["price"] = -1
            assert warm().execute(search(**params)) == expected


def test_a_value_that_cannot_be_hashed_or_compared_is_never_memoized():
    sut = MockShopSut()
    sut().execute(search(query="nothing", category="office"))
    # No item matches the query, so the filter value is never compared;
    # the memo lookup, which has to compare it, must not raise either.
    for odd in (Incomparable("office"), ["office"]):
        assert sut().execute(search(query="nothing", category=odd)) == Output("ok", [], 0)
    with pytest.raises(ValueError, match="cannot compare"):
        sut().execute(search(query="chair", category=Incomparable("office")))
    assert list(sut._matches) == [("nothing", ("category", "office"))]


def test_sessions_of_one_sut_share_the_memo_and_suts_do_not():
    sut, other = MockShopSut(), MockShopSut()
    sut().execute(search(query="chair", category="office"))
    sut().execute(search(query="Chair", category="office", page=0, page_size=2))
    assert list(sut._matches) == [("chair", ("category", "office"))]
    assert other._matches == {}


# --- API catalog ---------------------------------------------------------------


def test_load_search_filter_catalog_preserves_order():
    catalog = load_api_catalog(fixture_path("api_catalog_search_filter.json"))
    assert len(catalog.entries) == 6
    assert [e.name for e in catalog.entries] == [
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
    assert load_api_catalog(path).entries == []


def test_duplicate_name_is_schema_error(tmp_path):
    path = tmp_path / "cat.json"
    entry = {"name": "f", "parameters": [], "returns": "int", "doc": "d"}
    path.write_text(json.dumps([entry, entry]))
    with pytest.raises(ValueError, match="^duplicate catalog entry name 'f'$"):
        load_api_catalog(path)


def test_missing_doc_is_schema_error(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([{"name": "f", "parameters": [], "returns": "int", "doc": " "}]))
    with pytest.raises(ValueError) as exc:
        load_api_catalog(path)
    assert str(exc.value) == 'catalog entry 1 field \'doc\' must be a non-blank string, not " "'


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
    requested = Action(1, "search", {"query": "table"})
    with pytest.raises(AdapterFailure) as exc:
        session.execute(requested)
    assert str(exc.value) == (
        f"cassette fingerprint mismatch: recorded {fingerprint(SCRIPT[1])}, requested {fingerprint(requested)}"
    )


def test_replay_exhaustion_is_loud(tmp_path):
    cassette = tmp_path / "shop.cassette.json"
    run_script(record_replay("record", cassette, MockShopSut()), SCRIPT[:1])
    factory = record_replay("replay", cassette)
    session = factory()
    session.execute(SCRIPT[0])
    with pytest.raises(AdapterFailure, match="^cassette exhausted after 1 interactions$"):
        session.execute(SCRIPT[1])


def test_fingerprint_is_order_insensitive():
    a = Action(0, "search", {"query": "x", "category": "office"})
    b = Action(0, "search", {"category": "office", "query": "x"})
    assert fingerprint(a) == fingerprint(b)


@pytest.mark.parametrize("parameters", [
    {},
    {"query": "chaise longue é", "filters": {"brand": ["Ärgo", "北"], "max": None}, "page": 2},
    {"min_rating": 4.5, "tiny": 1e-07, "big": 1e300, "neg": -0.0, "nested": [[0.1, {"z": 1, "a": 2.0}]]},
    {"emoji": "\U0001f4ba", "escapes": "a\"b\\c\n\t\u0001", "flag": True},
], ids=["empty", "nested-non-ascii", "floats", "escapes"])
def test_fingerprint_is_the_sorted_compact_json_dump(parameters):
    action = Action(3, "search", parameters)
    expected = json.dumps({"kind": "search", "parameters": parameters}, sort_keys=True, separators=(",", ":"))
    assert fingerprint(action) == expected


def test_replay_needs_existing_cassette(tmp_path):
    with pytest.raises(OSError):
        record_replay("replay", tmp_path / "missing.json")


def test_record_needs_an_inner_factory_and_a_mode_must_be_known(tmp_path):
    with pytest.raises(ValueError, match="^record mode needs an inner session factory$"):
        record_replay("record", tmp_path / "c.jsonl")
    with pytest.raises(ValueError, match="^mode must be 'record' or 'replay', not 'rewind'$"):
        record_replay("rewind", tmp_path / "c.jsonl", MockShopSut())
    assert not (tmp_path / "c.jsonl").exists()


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
    with pytest.raises(AdapterFailure, match="^cassette exhausted after 2 interactions$"):
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
        if self.path.startswith("/echo?"):  # the response body is the query's ``body``
            body = urllib.parse.parse_qs(self.path.partition("?")[2])["body"][0].encode()
            self.send_response(200)
            self.end_headers()
            self.wfile.write(body)
        elif self.path.startswith("/search"):
            self._respond(200, {"status": "ok", "payload": [{"id": 1}], "summary_size": 1})
        elif self.path.startswith("/down"):
            self._respond(500, {"error": "down"})
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
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_live_adapter_maps_actions_to_endpoints(live_server):
    config = AdapterConfig(live_server, {"search": {"path": "/search", "method": "GET"},
                                         "login": {"path": "/login", "method": "POST"}})
    session = LiveHttpSut(config)()
    output = session.execute(search(query="chair"))
    assert output.status == "ok" and output.summary_size == 1
    login = session.execute(Action(1, "login", {"user": "ada"}))
    assert login.payload == {"user": "ada"}


def test_live_adapter_unknown_kind(live_server):
    config = AdapterConfig(live_server, {"search": {"path": "/search", "method": "GET"}})
    with pytest.raises(AdapterFailure):
        LiveHttpSut(config).execute(Action(0, "purchase", {}))


def test_live_adapter_transport_error():
    config = AdapterConfig("http://127.0.0.1:1", {"search": {"path": "/s", "method": "GET"}})
    with pytest.raises(AdapterFailure, match=r"^GET http://127\.0\.0\.1:1/s\?query=x failed: "):
        LiveHttpSut(config, timeout=0.3).execute(search(query="x"))


def test_live_recorded_then_replayed(live_server, tmp_path):
    config = AdapterConfig(live_server, {"search": {"path": "/search", "method": "GET"}})
    cassette = tmp_path / "live.json"
    script = [search(query="chair")]
    recorded = run_script(record_replay("record", cassette, LiveHttpSut(config)), script)
    replayed = run_script(record_replay("replay", cassette), script)
    assert replayed == recorded


# A response in the {status, payload, summary_size} envelope is decoded as an
# Output, the way a cassette's outputs are: no field is coerced.
@pytest.mark.parametrize("body, message", [
    (b'{"status": 5, "payload": [], "summary_size": 1}', "live response field 'status' must be a string, not 5"),
    (b'{"status": "ok", "payload": [], "summary_size": true}',
     "live response field 'summary_size' must be an integer, not true"),
    (b'{"status": "ok", "payload": [], "summary_size": "7"}',
     "live response field 'summary_size' must be an integer, not \"7\""),
    (b'{"status": "ok", "payload": [], "summary_size": 1e400}',
     "live response field 'summary_size' must be an integer, not Infinity"),
], ids=["status-int", "size-bool", "size-string", "size-overflow"])
def test_live_response_of_the_wrong_type_is_an_adapter_failure(body, message):
    with pytest.raises(AdapterFailure) as info:
        _to_output(200, body)
    assert str(info.value) == message


def test_live_response_without_a_summary_size_reports_the_payload_length():
    assert _to_output(200, b'{"status": "ok", "payload": [1, 2]}') == Output("ok", [1, 2], 2)
    assert _to_output(200, b'{"status": "ok", "payload": {"a": 1}}') == Output("ok", {"a": 1}, 0)
    assert _to_output(500, b'{"status": "busy", "payload": "x", "summary_size": 4}') == Output("busy", "x", 4)


def test_live_response_outside_the_envelope_is_its_own_payload(live_server):
    assert _to_output(200, b"plain text") == Output("ok", "plain text", 0)
    assert _to_output(200, b"\xffx") == Output("ok", "\ufffdx", 0)
    assert _to_output(200, b"[1, 2, 3]") == Output("ok", [1, 2, 3], 3)
    config = AdapterConfig(live_server, {"search": {"path": "/down", "method": "GET"}})
    assert LiveHttpSut(config).execute(search(query="x")) == Output("error", {"error": "down"}, 0)


@pytest.mark.parametrize("body, error", [
    ('{"status": "ok", "payload": [], "summary_size": "x"}',
     "live response field 'summary_size' must be an integer, not \"x\""),
    ('{"status": 5, "payload": [], "summary_size": true}', "live response field 'status' must be a string, not 5"),
], ids=["size-string", "status-int"])
def test_run_suite_reports_a_live_response_of_the_wrong_type_as_an_adapter_failure(live_server, body, error):
    config = AdapterConfig(live_server, {"search": {"path": "/echo", "method": "GET"}})
    source = ActionSequence([Action(0, "search", {"body": body})])
    report = run_suite([parse_emr("MR {{ IMPLIES(true, true); }}")], [source], LiveHttpSut(config))
    assert [entry.error for entry in report.entries] == [error]


# --- sessions leave the actions they execute as they were ------------------------
#
# A CREATEd input that an EMR never reads back is executed as the stub built
# it, without a copy, so no session may change an action it executes.

UNCHANGED_SCRIPT = [
    Action(0, "login", {"user": "ada", "roles": ["admin", {"scope": ["shop"]}]}),
    Action(1, "search", {"query": "Chair", "category": "office", "tags": ["a", {"b": [1]}]}),
    Action(2, "search", {"query": "", "page": 1, "page_size": 4, "in_stock": True, "brand": ["SeatCraft"]}),
    Action(3, "search", {"query": "desk", "max_price": 300, "min_rating": 4.0}),
]


def assert_executes_unchanged(session, script):
    for action in script:
        before = copy.deepcopy(action)
        session.execute(action)
        assert action == before


@pytest.mark.parametrize("fault", [None, *FAULTS])
def test_a_mock_session_leaves_each_action_unchanged(fault):
    assert_executes_unchanged(MockShopSut(fault)(), copy.deepcopy(UNCHANGED_SCRIPT))


def test_a_recording_and_a_replay_session_leave_each_action_unchanged(tmp_path):
    cassette = tmp_path / "unchanged.jsonl"
    assert_executes_unchanged(record_replay("record", cassette, MockShopSut())(), copy.deepcopy(UNCHANGED_SCRIPT))
    assert_executes_unchanged(record_replay("replay", cassette)(), copy.deepcopy(UNCHANGED_SCRIPT))


def test_a_live_session_leaves_each_action_unchanged(live_server):
    config = AdapterConfig(live_server, {"search": {"path": "/search", "method": "GET"},
                                         "login": {"path": "/login", "method": "POST"}})
    assert_executes_unchanged(LiveHttpSut(config)(), copy.deepcopy(UNCHANGED_SCRIPT))
