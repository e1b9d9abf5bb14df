"""Deciding the k-generator and k-base properties of a set family.

The table over all 2^n target masks has one layer per j = 0..k: bit x of
layer j is set iff mask x is a union of at most j pairwise disjoint members.
Each layer is stored as 2^(n-w) chunks of 2^w bits, w = min(n, CHUNK_BITS)
(the search uses w = n, one chunk per layer): chunk y holds the masks x whose
high bits x >> w are y. The table grows one member g = g_hi << w | g_lo at a
time. Positions x with x & g == 0 move to x | g, one layer up; in chunk terms
x's chunk y misses g_hi and lands in chunk y | g_hi, and within it the low
part moves by g_lo. With disj the bitmap of the 2^w low parts that miss g_lo,
the update is

    cur[y | g_hi] |= (below[y] & disj) << g_lo     for j = k..1, y within reach & ~g_hi

where below and cur are layers j-1 and j, and reach is the union of the high
parts of the members added so far: no other chunk of below is nonzero. A
member costs 2^|reach & ~g_hi| small steps per layer instead of passes over
2^n bits. The k-base table, where unions may overlap, is the same table with
one more step: the source of chunk y | g_hi is the union of below[y | s] over
s within g_hi, with the elements of g_lo then folded out of it (see
add_member).

Memory is the k+1 layers (k capped at n) of 2^n bits each as chunks, and at
the end the one int per layer that reachable_layers returns, joined from the
chunks. The memory of freed chunks mostly stays with the process, so the peak
is about twice the table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .errors import DEFAULT_DP_CAP, CapExceeded, GensetError
from .families import SetFamily, SubsetMask, _bits, _submasks, check_mask

# Chunks of 2^13 bits (1 KiB). reachable_layers takes w >= 3, a chunk of whole
# bytes, so that the join is a to_bytes/from_bytes copy.
CHUNK_BITS = 13


class GeneratorVerdict(NamedTuple):
    holds: bool
    counterexample: Optional[SubsetMask] = None


# The search adds the same few hundred members over and over. 2^10 bitmaps
# take 1 MiB at w = CHUNK_BITS and 8 MiB at the search's largest w = 16.
@lru_cache(maxsize=1 << 10)
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


def add_member(
    table: list[int], g: SubsetMask, n: int, w: int, reach: int, overlap: bool = False
) -> None:
    """Extend a table of two or more layers in place by one nonempty member g.

    table lists the 2^(n-w) chunks of layer 0, then those of layer 1, and so
    on; reach covers the chunk index of every nonzero chunk. With overlap the
    unions may overlap (the k-base table), else they are disjoint.
    """
    chunks = 1 << n - w
    g_hi = g >> w
    g_lo = g ^ g_hi << w
    disj = _disjoint_positions(g_lo, w)
    ys = _submasks(reach & ~g_hi)
    if overlap:
        folds = _submasks(reach & g_hi)
        shifts = [1 << b for b in _bits(g_lo)]
    for cur in range(len(table) - chunks, 0, -chunks):
        lo, hi = cur - chunks, cur + g_hi
        for y in ys:
            if overlap:
                # Chunk y | g_hi gathers the chunks y | s, s within g_hi. Then
                # x | g_lo = (x & ~g_lo) + g_lo for a low part x, so fold the
                # elements of g_lo out of x first. The fold writes x - t for
                # every t within g_lo, x & ~g_lo among them. Where x - t misses
                # g_lo it shares no bit with t, so x = (x - t) | t with no
                # borrow and x - t is exactly x & ~g_lo; disj keeps just those.
                below = 0
                for s in folds:
                    below |= table[lo + y + s]
                for shift in shifts:
                    below |= below >> shift
            else:
                below = table[lo + y]
            if below:
                table[hi + y] |= (below & disj) << g_lo


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
    n = fam.n
    if n > dp_cap:
        raise CapExceeded(f"n={n} exceeds DP cap {dp_cap} (2^n-bit tables)")
    top = min(k, n)
    if top <= 1:
        # Layer 1 is the members themselves, set in one pass over a buffer
        # instead of one kernel step per member.
        return [1] + [1 | _membership_bitmap(fam)] * top
    w = min(n, max(CHUNK_BITS, 3))
    chunks = 1 << n - w
    table = [0] * (top + 1) * chunks
    table[::chunks] = [1] * (top + 1)  # only the empty set so far
    reach = 0
    for g in fam.members:
        if g:
            add_member(table, g, n, w, reach, overlap)
            reach |= g >> w
    if chunks == 1:
        return table
    size = 1 << w - 3
    layers = []
    while table:
        # Copy the top layer left out as bytes and free its chunks before
        # the int is read, so that no layer is held three times.
        data = b"".join(c.to_bytes(size, "little") for c in table[-chunks:])
        del table[-chunks:]
        layers.append(int.from_bytes(data, "little"))
        del data
    return layers[::-1]


def _smallest_missing(covered: int, n: int) -> Optional[SubsetMask]:
    """The smallest mask x < 2^n whose bit is clear in covered, or None if there is none."""
    if covered.bit_count() == 1 << n:
        return None
    # covered + 1 clears the ones below bit x and sets bit x.
    return (covered ^ (covered + 1)).bit_length() - 1


def verdict_from_layers(layers: list[int], n: int) -> GeneratorVerdict:
    """The verdict read off the top layer of a reachable_layers table.

    On failure the counterexample is the numerically smallest uncovered mask.
    """
    x = _smallest_missing(layers[-1], n)
    return GeneratorVerdict(x is None, x)


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
