"""Data plane: page payloads, RAM data providers, and the provider manager.

Pages are the unit of striping (paper §II): fixed-size, immutable, labeled
by the write that created them. Data providers store pages in local memory;
the provider manager tracks the live provider set and allocates one
provider per fresh page of each WRITE (``pm.get_providers``), by its own
rule: round robin or, on an elastic cluster, consistent hash
(``strategies.STRATEGIES``).
"""

from repro.providers.page import PageKey, PagePayload, page_key_for
from repro.providers.data_provider import DataProvider
from repro.providers.manager import ProviderManager
from repro.providers.strategies import STRATEGIES, HashRing

__all__ = [
    "PageKey",
    "PagePayload",
    "page_key_for",
    "DataProvider",
    "ProviderManager",
    "STRATEGIES",
    "HashRing",
]
