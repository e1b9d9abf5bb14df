"""Exception types shared across the package, the defaults of the caps a user can set,
and the rule that refuses an integer too long to print."""

import sys

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


def refuse_past_digit_limit(log2_at_least) -> None:
    """Refuse an integer proven to be at least 2^log2_at_least, before it is
    built, when that passes the int-to-str digit limit d: 2^floor(10 d / 3) >= 10^d
    for every limit Python allows (d >= 640), so past that many bits it has
    more than d digits."""
    digits = sys.get_int_max_str_digits()
    if digits and log2_at_least > digits * 10 // 3:
        raise CapExceeded("value too large to print")
