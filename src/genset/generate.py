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

    cur[y | g_hi] |= (below[y] & disj) << g_lo     for j = k..2, y within reach & ~g_hi

where below and cur are layers j-1 and j, and reach is the union of the high
parts of the members added so far: no other chunk of below is nonzero. Layer
0 holds only the empty set, so layer 1 just gains bit g, set last so that
every layer reads the one below as it was before g. A member costs
2^|reach & ~g_hi| small steps per layer above 1 instead of passes over 2^n
bits. The k-base table, where unions may overlap, is the same table with one
more step: the source of chunk y | g_hi is the union of below[y | s] over s
within g_hi, with the elements of g_lo then folded out of it (see add_member).

Every k, 0 and 1 included, builds this one table in this one layout. Memory
is at most the table's k+1 layers (k capped at n) of 2^n bits, about
(min(k, n) + 1) 2^n / 8 bytes; a chunk that no union reaches stays the int 0.
reachable_layers returns a read-only view of the chunks, and the verdict and
decompose read them in place, so no 2^n-bit int is built on the check path,
not even on failure. Only indexing the view joins a layer's chunks into one int.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .errors import DEFAULT_DP_CAP, CapExceeded, GensetError
from .families import SetFamily, SubsetMask, _bits, _submasks, check_mask

# Chunks of 2^13 bits (1 KiB). reachable_layers takes w >= 3, a chunk of whole
# bytes, so that joining a layer is a to_bytes/from_bytes copy.
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


def add_member(
    table: list[int], g: SubsetMask, n: int, w: int, reach: int, overlap: bool = False
) -> None:
    """Extend a table of two or more layers in place by one nonempty member g.

    table lists the 2^(n-w) chunks of layer 0, then those of layer 1, and so
    on; reach covers the chunk index of every nonzero chunk. Layer 1 gains bit g;
    each layer above takes the chunk step, its unions disjoint unless overlap.
    """
    chunks = 1 << n - w
    g_hi = g >> w
    g_lo = g ^ g_hi << w
    if len(table) > 2 * chunks:  # only a layer above 1 reads these
        disj = _disjoint_positions(g_lo, w)
        ys = _submasks(reach & ~g_hi)
        if overlap:
            folds = _submasks(reach & g_hi)[:-1]  # s = 0, the last, is read as y
            shifts = [1 << b for b in _bits(g_lo)]
    for cur in range(len(table) - chunks, chunks, -chunks):
        lo, hi = cur - chunks, cur + g_hi
        for y in ys:
            below = table[lo + y]
            if overlap:
                # Chunk y | g_hi gathers the chunks y | s, s within g_hi. Then
                # x | g_lo = (x & ~g_lo) + g_lo for a low part x, so fold the
                # elements of g_lo out of x first. The fold writes x - t for
                # every t within g_lo, x & ~g_lo among them. Where x - t misses
                # g_lo it shares no bit with t, so x = (x - t) | t with no
                # borrow and x - t is exactly x & ~g_lo; disj keeps just those.
                for s in folds:
                    chunk = table[lo + y + s]
                    if chunk:  # a 0 from an unreached chunk would still copy below
                        below |= chunk
                for shift in shifts:
                    below |= below >> shift
            if below:
                table[hi + y] |= (below & disj) << g_lo
    table[chunks + g_hi] |= 1 << g_lo  # layer 0 holds only the empty set


class Layers:
    """A read-only view of a reachable_layers table: item j is layer j, one 2^n-bit int.

    chunks and bit read the table in place. Item j (a negative j counts from
    the top) joins layer j afresh and keeps nothing, (2^w + 7) // 8 bytes per
    chunk: whole chunks for w >= 3, and the one chunk of a table with w = n < 3.
    overlap says whether the unions may overlap, that is, a k-base table.
    """

    __slots__ = ("_table", "_count", "w", "overlap")

    def __init__(self, table: list[int], n: int, w: int):
        self._table, self._count, self.w = table, 1 << n - w, w

    def __len__(self) -> int:
        return len(self._table) // self._count

    def __getitem__(self, j: int) -> int:
        j = range(len(self))[j]
        size = (1 << self.w) + 7 >> 3
        return int.from_bytes(b"".join(c.to_bytes(size, "little") for c in self.chunks(j)), "little")

    def chunks(self, j: int) -> list[int]:
        """The chunks of layer j: chunk y holds the bits of the masks x with x >> w == y."""
        start = j * self._count
        return self._table[start:start + self._count]

    def bit(self, j: int, x: SubsetMask) -> int:
        """Bit x of layer j."""
        chunk = self._table[j * self._count + (x >> self.w)]
        return chunk >> (x & (1 << self.w) - 1) & 1


def reachable_layers(
    fam: SetFamily, k: int, dp_cap: int = DEFAULT_DP_CAP, overlap: bool = False
) -> Layers:
    """Layers 0..min(k, n) of the union DP, each a 2^n-bit bitmap, as a view of the chunks.

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
    w = min(n, max(CHUNK_BITS, 3))
    chunks = 1 << n - w
    table = [0] * (top + 1) * chunks
    table[::chunks] = [1] * (top + 1)  # only the empty set so far
    reach = 0
    for g in fam.members if top else ():
        if g:
            add_member(table, g, n, w, reach, overlap)
            reach |= g >> w
    layers = Layers(table, n, w)
    layers.overlap = overlap
    return layers


def _smallest_missing(covered: int, n: int) -> Optional[SubsetMask]:
    """The smallest mask x < 2^n whose bit is clear in covered, or None if there is none."""
    if covered.bit_count() == 1 << n:
        return None
    # covered + 1 clears the ones below bit x and sets bit x.
    return (covered ^ (covered + 1)).bit_length() - 1


def verdict_from_layers(layers: Layers) -> GeneratorVerdict:
    """The verdict read off the top layer of a reachable_layers table, chunk by chunk.

    On failure the counterexample is the numerically smallest uncovered mask.
    """
    w = layers.w
    for y, chunk in enumerate(layers.chunks(len(layers) - 1)):
        x = _smallest_missing(chunk, w)
        if x is not None:
            return GeneratorVerdict(False, y << w | x)
    return GeneratorVerdict(True)


def is_k_generator(fam: SetFamily, k: int, dp_cap: int = DEFAULT_DP_CAP) -> GeneratorVerdict:
    """Does every subset of [n] split into at most k disjoint members?"""
    return verdict_from_layers(reachable_layers(fam, k, dp_cap=dp_cap))


def decompose(
    fam: SetFamily, layers: Layers, x: SubsetMask
) -> Optional[tuple[SubsetMask, ...]]:
    """A witness split of x into at most k disjoint nonempty members, if one exists.

    layers is the table reachable_layers(fam, k), read bit by bit; a k-base
    table raises GensetError. Greedy largest-first over its layers; returns the
    parts in descending mask order (empty for x = 0), or None if x is not expressible.
    """
    if layers.overlap:
        raise GensetError("decompose needs a disjoint-union table, not a k-base one")
    check_mask(x, fam.n)
    j = len(layers) - 1
    if not layers.bit(j, x):
        return None
    members_desc = [g for g in reversed(fam.members) if g]
    parts = []
    cur = x
    while cur:
        if layers.bit(j - 1, cur):
            j -= 1
            continue
        for g in members_desc:
            if not g & ~cur and layers.bit(j - 1, cur ^ g):
                parts.append(g)
                cur ^= g
                j -= 1
                break
        else:  # pragma: no cover - contradicts the DP recurrence
            raise AssertionError("DP table inconsistent with its own recurrence")
    # Every later part was valid at each earlier step, which took the largest one: parts descend.
    return tuple(parts)


def is_k_base(fam: SetFamily, k: int, dp_cap: int = DEFAULT_DP_CAP) -> GeneratorVerdict:
    """Like is_k_generator but unions may overlap."""
    return verdict_from_layers(reachable_layers(fam, k, dp_cap=dp_cap, overlap=True))
