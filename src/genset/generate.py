"""Deciding the k-generator and k-base properties of a set family.

The table over all 2^n target masks is one big int per layer: bit x of layer
j is set iff mask x is a union of at most j pairwise disjoint members. It
grows one member g at a time. Positions x with x & g == 0 move to x | g =
x + g, one layer up, so with disj the bitmap of those positions the update is

    layers[j] |= (layers[j-1] & disj) << g        for j = k..1

The k-base table, where unions may overlap, is the same table with one more
step: layer j-1 first has the elements of g folded out of it (see add_member).

Members come in ascending order, so the layers and disj are only as wide as
the largest mask reached so far. Memory is the k+1 layers (k capped at n) and
the temporaries of one step, at most 2^n bits each.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import CapExceeded, GensetError
from .families import SetFamily, SubsetMask, check_mask

# Tables of 2^n bits per layer; 26 -> 8 MiB per layer.
DEFAULT_DP_CAP = 26


class GeneratorVerdict(NamedTuple):
    holds: bool
    counterexample: Optional[SubsetMask] = None


def _disjoint_positions(g: SubsetMask, width: int) -> int:
    """Bitmap over the 2^width positions x < 2^width with x & g == 0, built by doubling."""
    block = 1
    for b in range(width):
        if not g >> b & 1:
            block |= block << (1 << b)
    return block


def _membership_bitmap(fam: SetFamily) -> int:
    size = 1 << fam.n
    buf = bytearray(size // 8 if size >= 8 else 1)
    for g in fam.members:
        buf[g >> 3] |= 1 << (g & 7)
    return int.from_bytes(buf, "little")


def add_member(layers: list[int], g: SubsetMask, overlap: bool = False) -> None:
    """Extend a table of two or more layers in place by one nonempty member g.

    With overlap the unions may overlap (the k-base table), else they are disjoint.
    """
    # The layers are nested, so no step reads a position above the highest
    # one in layer top-1; disj needs only the bits of that position's width.
    disj = _disjoint_positions(g, (layers[-2].bit_length() - 1).bit_length())
    for j in range(len(layers) - 1, 0, -1):
        below = layers[j - 1]
        if overlap:
            # y | g = (y & ~g) + g, so fold the elements of g out of y first.
            # The fold writes y - s for every s within g, y & ~g among them.
            # Where y - s misses g it shares no bit with s, so y = (y - s) | s
            # with no borrow and y - s is exactly y & ~g; disj keeps just those.
            for b in range(g.bit_length()):
                if g >> b & 1:
                    below |= below >> (1 << b)
        layers[j] |= (below & disj) << g


def reachable_layers(
    fam: SetFamily, k: int, dp_cap: int = DEFAULT_DP_CAP, overlap: bool = False
) -> list[int]:
    """Layers 0..min(k, n) of the union DP, each a 2^n-bit bitmap.

    Bit x of layer j is set iff mask x is a union of at most j members,
    pairwise disjoint unless overlap. Empty members are skipped: they never
    extend a union. A union equal to x needs at most |x| <= n nonempty
    members, so layers above n would repeat layer n and the table decides
    the same as one of k + 1 layers.
    """
    if k < 0:
        raise GensetError("k must be >= 0")
    if fam.n > dp_cap:
        raise CapExceeded(f"n={fam.n} exceeds DP cap {dp_cap} (2^n-bit tables)")
    top = min(k, fam.n)
    if top <= 1:
        # Layer 1 is the members themselves, set in one pass over a buffer
        # instead of one full-width kernel step per member.
        return [1] + [1 | _membership_bitmap(fam)] * top
    layers = [1] * (top + 1)  # only the empty set so far
    for g in fam.members:
        if g:
            add_member(layers, g, overlap)
    return layers


def verdict_from_layers(layers: list[int], n: int) -> GeneratorVerdict:
    """The verdict read off the top layer of a reachable_layers table.

    On failure the counterexample is the numerically smallest uncovered mask.
    """
    full = (1 << (1 << n)) - 1
    covered = layers[-1]
    if covered == full:
        return GeneratorVerdict(True)
    uncovered = ~covered & full
    return GeneratorVerdict(False, (uncovered & -uncovered).bit_length() - 1)


def is_k_generator(fam: SetFamily, k: int, dp_cap: int = DEFAULT_DP_CAP) -> GeneratorVerdict:
    """Does every subset of [n] split into at most k disjoint members?"""
    return verdict_from_layers(reachable_layers(fam, k, dp_cap=dp_cap), fam.n)


def decompose(
    fam: SetFamily, layers: list[int], x: SubsetMask
) -> Optional[tuple[SubsetMask, ...]]:
    """A witness split of x into at most k disjoint nonempty members, if one exists.

    layers is the table reachable_layers(fam, k). Greedy largest-first over
    its layers; returns the tuple of parts in descending mask order (empty
    for x = 0), or None when x is not expressible.
    """
    check_mask(x, fam.n)
    k = len(layers) - 1
    if not (layers[k] >> x) & 1:
        return None
    members_desc = sorted((g for g in fam.members if g), reverse=True)
    parts = []
    cur = x
    j = k
    while cur:
        if (layers[j - 1] >> cur) & 1:
            j -= 1
            continue
        for g in members_desc:
            if g & ~cur:
                continue
            if (layers[j - 1] >> (cur ^ g)) & 1:
                parts.append(g)
                cur ^= g
                j -= 1
                break
        else:  # pragma: no cover - contradicts the DP recurrence
            raise AssertionError("DP table inconsistent with its own recurrence")
    return tuple(sorted(parts, reverse=True))


def is_k_base(fam: SetFamily, k: int, dp_cap: int = DEFAULT_DP_CAP) -> GeneratorVerdict:
    """Like is_k_generator but unions may overlap."""
    return verdict_from_layers(reachable_layers(fam, k, dp_cap=dp_cap, overlap=True), fam.n)
