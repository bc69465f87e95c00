"""SUT adapters: API catalogs, the mock shop, record/replay, live HTTP."""

from .cassette import Cassette, CassetteExhausted, FingerprintMismatch, fingerprint, record_replay
from .catalog import EMPTY_CATALOG, ApiCatalog, ApiEntry, SchemaError, load_api_catalog
from .live import AdapterConfig, LiveHttpSut, TransportError
from .mockshop import FAULTS, ITEMS, MockShopSession, MockShopSut, matches_filters

__all__ = [
    "AdapterConfig",
    "ApiCatalog",
    "ApiEntry",
    "Cassette",
    "CassetteExhausted",
    "EMPTY_CATALOG",
    "FAULTS",
    "FingerprintMismatch",
    "ITEMS",
    "LiveHttpSut",
    "MockShopSession",
    "MockShopSut",
    "SchemaError",
    "TransportError",
    "fingerprint",
    "load_api_catalog",
    "matches_filters",
    "record_replay",
]
