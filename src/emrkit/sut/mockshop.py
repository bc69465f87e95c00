"""Deterministic mock shopping SUT with seedable faults.

Supports ``search`` (substring query plus category/brand/max_price/
min_rating/in_stock filters and optional page/page_size pagination) and
``login`` over a fixed 12-item catalog. Faults:

- ``ignore-filter``: filter parameters are silently dropped (query and
  pagination still apply).
- ``off-by-one-pagination``: page windows start one item late.
- ``stale-results``: after the first search of a session, every later
  search returns the first one's results.

Each search returns a fresh list of fresh item dicts. The catalog items
are flat dicts of scalars, so a stub that mutates a result cannot reach
``ITEMS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..runtime.errors import AdapterFailure
from ..runtime.values import Action, Output

FAULTS = ("ignore-filter", "off-by-one-pagination", "stale-results")

ITEMS: tuple[dict[str, Any], ...] = (
    {"id": 1, "name": "Ergo Office Chair", "category": "office", "brand": "ErgoLine", "price": 299, "rating": 4.5, "in_stock": True},
    {"id": 2, "name": "Mesh Desk Chair", "category": "office", "brand": "SeatCraft", "price": 199, "rating": 4.0, "in_stock": True},
    {"id": 3, "name": "Lounge Chair Deluxe", "category": "living", "brand": "ComfyHome", "price": 449, "rating": 4.8, "in_stock": False},
    {"id": 4, "name": "Folding Chair", "category": "outdoor", "brand": "CampEasy", "price": 25, "rating": 3.5, "in_stock": True},
    {"id": 5, "name": "Gaming Chair Pro", "category": "office", "brand": "SeatCraft", "price": 349, "rating": 4.2, "in_stock": True},
    {"id": 6, "name": "Standing Desk", "category": "office", "brand": "ErgoLine", "price": 599, "rating": 4.6, "in_stock": True},
    {"id": 7, "name": "Bookshelf Walnut", "category": "living", "brand": "WoodWorks", "price": 189, "rating": 4.1, "in_stock": True},
    {"id": 8, "name": "LED Desk Lamp", "category": "office", "brand": "Brightly", "price": 49, "rating": 3.9, "in_stock": True},
    {"id": 9, "name": "Coffee Table Oak", "category": "living", "brand": "WoodWorks", "price": 249, "rating": 4.4, "in_stock": False},
    {"id": 10, "name": "Patio Table", "category": "outdoor", "brand": "CampEasy", "price": 159, "rating": 3.8, "in_stock": True},
    {"id": 11, "name": "Filing Cabinet", "category": "office", "brand": "SteelBox", "price": 129, "rating": 3.6, "in_stock": True},
    {"id": 12, "name": "Monitor Stand", "category": "office", "brand": "ErgoLine", "price": 39, "rating": 4.3, "in_stock": True},
)
# What a search query is matched against, lower-cased once.
_SEARCHABLE = tuple((item["name"].lower(), item) for item in ITEMS)


def matches_filters(item: dict[str, Any], params: dict[str, Any]) -> bool:
    """Whether ``item`` satisfies every filter parameter present in ``params``."""
    if "category" in params and item["category"] != params["category"]:
        return False
    if "brand" in params and item["brand"] != params["brand"]:
        return False
    if "max_price" in params and item["price"] > params["max_price"]:
        return False
    if "min_rating" in params and item["rating"] < params["min_rating"]:
        return False
    if "in_stock" in params and item["in_stock"] != params["in_stock"]:
        return False
    return True


@dataclass
class MockShopSession:
    fault: str | None = None
    _first_search: Output | None = None
    _logged_in: str | None = None

    def execute(self, action: Action) -> Output:
        if action.kind == "search":
            output = self._search(action.parameters)
        elif action.kind == "login":
            self._logged_in = str(action.parameters.get("user", "anonymous"))
            output = Output("ok", {"user": self._logged_in}, 0)
        elif action.kind == "logout":
            self._logged_in = None
            output = Output("ok", {}, 0)
        else:
            raise AdapterFailure(f"mock shop does not support action kind '{action.kind}'")
        return output

    def _search(self, params: dict[str, Any]) -> Output:
        first = self._first_search
        if self.fault == "stale-results" and first is not None:
            return Output(first.status, [dict(item) for item in first.payload], first.summary_size)

        query = str(params.get("query", "")).lower()
        results = [item for name, item in _SEARCHABLE if query in name]
        if self.fault != "ignore-filter":
            results = [item for item in results if matches_filters(item, params)]
        if "page" in params:
            page = int(params["page"])
            size = int(params.get("page_size", 10))
            start = page * size
            if self.fault == "off-by-one-pagination":
                start += 1
            results = results[start : start + size]
        payload = [dict(item) for item in results]
        output = Output("ok", payload, len(payload))
        if self._first_search is None:
            self._first_search = output
        return output


@dataclass
class MockShopSut:
    """Session factory for the mock shop; one instance per configuration."""

    fault: str | None = None

    def __post_init__(self) -> None:
        if self.fault is not None and self.fault not in FAULTS:
            raise ValueError(f"unknown fault '{self.fault}'; known faults: {', '.join(FAULTS)}")

    def session(self) -> MockShopSession:
        return MockShopSession(self.fault)

    def __call__(self) -> MockShopSession:
        return self.session()
