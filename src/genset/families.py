"""Ground-set and set-family representations, the canonical generator, and counting bounds.

A subset of the ground set [n] = {1, ..., n} is stored as an int bitmask:
element i corresponds to bit i-1, so {1, 3} is 0b101 = 5 and the empty set is 0.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import FamilyFormatError, GensetError

# A mask must fit one machine word; bit n-1 is the highest usable bit.
MAX_GROUND_SET = 62

SubsetMask = int


def check_ground_set(n: int) -> None:
    if not 1 <= n <= MAX_GROUND_SET:
        raise GensetError(f"ground-set size n={n} out of range 1..{MAX_GROUND_SET}")


def check_mask(mask: int, n: int) -> None:
    if mask < 0 or mask >> n:
        raise GensetError(f"mask {mask:#x} has bits outside the ground set [{n}]")


def mask_from_elements(elements, n: int) -> SubsetMask:
    """Build a mask from 1-based elements, validating range."""
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise GensetError(f"element {e} outside ground set [{n}]")
        mask |= 1 << (e - 1)
    return mask


def mask_elements(mask: SubsetMask) -> list[int]:
    """1-based elements of a mask, ascending."""
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return out


def format_mask(mask: SubsetMask) -> str:
    """Textual form used by the family file format: '1,3,4' or '-' for the empty set."""
    if mask == 0:
        return "-"
    return ",".join(str(e) for e in mask_elements(mask))


class SetFamily(NamedTuple):
    """A duplicate-free family of subsets of [n], sorted by numeric mask value.

    The empty set is a legal member; it is disjoint from every set and never
    changes a union.
    """

    n: int
    members: tuple[SubsetMask, ...]

    @property
    def m(self) -> int:
        return len(self.members)


def make_family(n: int, masks) -> SetFamily:
    """Sorted, deduplicated family."""
    check_ground_set(n)
    masks = list(masks)
    for mask in masks:
        check_mask(mask, n)
    return SetFamily(n, tuple(sorted(set(masks))))


def canonical_partition(n: int, k: int) -> tuple[SubsetMask, ...]:
    """The class masks of a partition of [n] into k classes of near-equal size.

    Elements 1..n are assigned in contiguous blocks, the (n mod k) larger
    classes first. The generator's size does not depend on this tie-break.
    """
    check_ground_set(n)
    if not 1 <= k <= n:
        raise GensetError(f"need 1 <= k <= n, got k={k}, n={n}")
    base, extra = divmod(n, k)
    classes = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        classes.append(((1 << size) - 1) << start)
        start += size
    return tuple(classes)


def _subsets_of(mask: SubsetMask):
    """All submasks of mask, ascending, including 0."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def canonical_generator(n: int, k: int) -> SetFamily:
    """Union over the partition classes of all their nonempty subsets."""
    members: set[int] = set()
    for cls in canonical_partition(n, k):
        members.update(_subsets_of(cls))
    members.discard(0)
    return SetFamily(n, tuple(sorted(members)))


def canonical_size(n: int, k: int) -> int:
    """|canonical_generator(n, k)| without building the family."""
    return sum((1 << cls.bit_count()) - 1 for cls in canonical_partition(n, k))


def trivial_lower_bound(n: int, k: int) -> int:
    """Smallest m with sum_{i<=k} C(m, i) >= 2^n.

    Any family generating all of P[n] with unions of at most k members must
    offer at least 2^n distinct choices of at most k members.
    """
    check_ground_set(n)
    if not 1 <= k <= n:
        raise GensetError(f"need 1 <= k <= n, got k={k}, n={n}")
    target = 1 << n

    def choices(m: int) -> int:
        return sum(comb(m, i) for i in range(k + 1))

    lo, hi = 0, 1
    while choices(hi) < target:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if choices(mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def format_family(fam: SetFamily) -> str:
    """Family file format: 'n=<int>' then one set per line."""
    lines = [f"n={fam.n}"]
    lines.extend(format_mask(m) for m in fam.members)
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> SetFamily:
    """Strict parser for the family file format.

    Comments start with '#'; blank lines are skipped; elements must be
    ascending and in range. Duplicate member lines are deduplicated.
    """
    n = None
    masks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("n="):
                raise FamilyFormatError(f"line {lineno}: expected 'n=<int>' header")
            try:
                n = int(line[2:])
            except ValueError:
                raise FamilyFormatError(f"line {lineno}: bad ground-set size {line[2:]!r}")
            check_ground_set(n)
            continue
        if line == "-":
            masks.append(0)
            continue
        try:
            elems = [int(tok) for tok in line.split(",")]
        except ValueError:
            raise FamilyFormatError(f"line {lineno}: bad set {line!r}")
        if elems != sorted(set(elems)):
            raise FamilyFormatError(f"line {lineno}: elements must be strictly ascending")
        if any(not 1 <= e <= n for e in elems):
            raise FamilyFormatError(f"line {lineno}: element out of range for n={n}")
        masks.append(mask_from_elements(elems, n))
    if n is None:
        raise FamilyFormatError("missing 'n=<int>' header")
    return make_family(n, masks)
