"""The paper's primary contribution: the TANE levelwise search."""

from repro.core.lattice import generate_next_level, prefix_blocks
from repro.core.results import DiscoveryResult, SearchStatistics
from repro.core.tane import (
    TaneConfig,
    discover,
    discover_approximate_fds,
    discover_fds,
)
from repro.core.uccs import UccResult, discover_uccs

__all__ = [
    "generate_next_level",
    "prefix_blocks",
    "DiscoveryResult",
    "SearchStatistics",
    "TaneConfig",
    "discover",
    "discover_fds",
    "discover_approximate_fds",
    "UccResult",
    "discover_uccs",
]
