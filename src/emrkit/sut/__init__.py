"""SUT adapters: API catalogs, the mock shop, record/replay, live HTTP."""

from .cassette import Cassette, fingerprint, record_replay
from .catalog import EMPTY_CATALOG, ApiCatalog, ApiEntry, load_api_catalog
from .live import AdapterConfig, LiveHttpSut
from .mockshop import FAULTS, ITEMS, MockShopSut, matches_filters

__all__ = [
    "AdapterConfig",
    "ApiCatalog",
    "ApiEntry",
    "Cassette",
    "EMPTY_CATALOG",
    "FAULTS",
    "ITEMS",
    "LiveHttpSut",
    "MockShopSut",
    "fingerprint",
    "load_api_catalog",
    "matches_filters",
    "record_replay",
]
