"""Stub bindings for running the bundled EMRs against the mock shop.

Generated EMRs invoke functions that no SUT API provides; these are the
host-side implementations an engineer would write for the shop. Pass this
module to ``emrkit run --stubs emrkit.shopstubs``.
"""

from __future__ import annotations

from typing import Any

from .runtime.values import Action, ActionSequence, InsertAction, Output, SetParameter, create_followup
from .sut.mockshop import matches_filters

# Filter type -> (search parameter, the value the filter applies).
FILTER_SETTINGS: dict[str, tuple[str, Any]] = {
    "category": ("category", "office"),
    "price": ("max_price", 250),
    "brand": ("brand", "SeatCraft"),
    "rating": ("min_rating", 4.0),
    "availability": ("in_stock", True),
}


def is_search_action(action: Action) -> bool:
    return action.kind == "search"


def get_filter_types() -> list[str]:
    return list(FILTER_SETTINGS)


def apply_filter(sequence: ActionSequence, position: int, filter_type: str) -> ActionSequence:
    param, value = FILTER_SETTINGS[filter_type]
    return create_followup(sequence, [SetParameter(position, param, value)])


def not_same_filter_applied(action: Action, filter_type: str) -> bool:
    param, _ = FILTER_SETTINGS[filter_type]
    return param not in action.parameters


def fewer_results(new: Output, original: Output) -> bool:
    return new.summary_size < original.summary_size


def more_relevant_results(new: Output, original: Output, filter_type: str) -> bool:
    """Every returned item satisfies the applied filter's predicate."""
    filters = dict([FILTER_SETTINGS[filter_type]])
    items = new.payload if isinstance(new.payload, list) else []
    return all(matches_filters(item, filters) for item in items)


def _ids(output: Output) -> list[int]:
    if not isinstance(output.payload, list):
        return []
    return [item["id"] for item in output.payload]


def is_subset_of(part: Output, whole: Output) -> bool:
    return set(_ids(part)) <= set(_ids(whole))


def with_page(sequence: ActionSequence, position: int, page: int, page_size: int) -> ActionSequence:
    return create_followup(
        sequence,
        [SetParameter(position, "page", page), SetParameter(position, "page_size", page_size)],
    )


def covers_all_results(page_a: Output, page_b: Output, full: Output) -> bool:
    return set(_ids(page_a)) | set(_ids(page_b)) == set(_ids(full))


def prepend_search(sequence: ActionSequence, query: str) -> ActionSequence:
    return create_followup(sequence, [InsertAction(0, "search", {"query": query})])


def next_position(position: int) -> int:
    return position + 1


def query_differs(action: Action, query: str) -> bool:
    return action.parameters.get("query") != query


def same_results(a: Output, b: Output) -> bool:
    return _ids(a) == _ids(b)


STUBS = {
    "isSearchAction": is_search_action,
    "getFilterTypes": get_filter_types,
    "applyFilter": apply_filter,
    "notSameFilterApplied": not_same_filter_applied,
    "fewerResults": fewer_results,
    "moreRelevantResults": more_relevant_results,
    "isSubsetOf": is_subset_of,
    "withPage": with_page,
    "coversAllResults": covers_all_results,
    "prependSearch": prepend_search,
    "nextPosition": next_position,
    "queryDiffers": query_differs,
    "sameResults": same_results,
}
