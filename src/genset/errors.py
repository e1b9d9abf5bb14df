"""Exception types shared across the package, and the defaults of the caps a user can set."""

# Tables of 2^n bits per layer; 28 -> 32 MiB per layer.
DEFAULT_DP_CAP = 28
DEFAULT_GRAPH_CAP = 1 << 16
DEFAULT_NODE_BUDGET = 10**9
DEFAULT_TIME_BUDGET = 600.0


class GensetError(Exception):
    """Base class for all package-specific errors."""


class CapExceeded(GensetError):
    """An input exceeds a configured resource cap (table size, vertex count, ...)."""


class WorkLimitExceeded(CapExceeded):
    """An enumeration or search blew through its node/work budget."""


class FamilyFormatError(GensetError):
    """A family or graph file failed strict parsing."""
