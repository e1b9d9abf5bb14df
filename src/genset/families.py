"""Ground-set and set-family representations, the canonical generator, and counting bounds.

Also the mask primitives (bit and submask walks), the text syntax (comments, 'key=<int>'
headers, sets) and the exact-or-sampled subset_fraction that the other layers and the CLI share.

A subset of the ground set [n] = {1, ..., n} is stored as an int bitmask:
element i corresponds to bit i-1, so {1, 3} is 0b101 = 5 and the empty set is 0.
"""

from __future__ import annotations

import bisect
import itertools
from math import comb, sqrt
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import CapExceeded, FamilyFormatError, GensetError

if TYPE_CHECKING:
    from fractions import Fraction

# A mask must fit one machine word; bit n-1 is the highest usable bit.
MAX_GROUND_SET = 62
# Most subsets an exact-mode subset walk enumerates.
EXACT_BUDGET = 2_000_000

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


def _bits(mask: int) -> list[int]:
    """The 0-based positions of the set bits of mask, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _submasks(mask: int) -> list[int]:
    """mask and every submask of it, descending, ending with 0."""
    subs = [mask]
    s = mask
    while s:
        s = (s - 1) & mask
        subs.append(s)
    return subs


def mask_elements(mask: SubsetMask) -> list[int]:
    """1-based elements of a mask, ascending."""
    return [b + 1 for b in _bits(mask)]


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


def canonical_generator(n: int, k: int) -> SetFamily:
    """Union over the partition classes of all their nonempty subsets."""
    # Contiguous classes, lowest first: their submasks, ascending class by class, are in order.
    parts = canonical_partition(n, k)
    return SetFamily(n, tuple(g for cls in parts for g in _submasks(cls)[-2::-1]))


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

    hi = 1
    while choices(hi) < target:
        hi *= 2
    return bisect.bisect_left(range(hi + 1), target, key=choices)


def comb_log2_bounds(m: int, t: int) -> tuple[int, int]:
    """Integers low <= log2 C(m, t) <= high for 0 <= t <= m, without building C(m, t).

    With s = min(t, m - t): (m/s)^s <= C(m, t) <= (e m/s)^s, and
    2^(b - 1) <= m // s <= m/s < 2^b for b the bit length of m // s. Near s = m/2,
    C(m, s) >= 2^(m H(s/m)) / (m + 1), ln(1 + x) >= x/(1 + x) and log2 e > 10/7
    give the larger low s (b - 1) + 10 s (m - s) / (7 m) - log2(m + 1).
    """
    s = min(t, m - t)
    if s == 0:
        return 0, 0
    b = (m // s).bit_length()
    entropy = s * (b - 1) + 10 * s * (m - s) // (7 * m) - (m + 1).bit_length()
    return max(s * (b - 1), entropy), s * (b + 2)  # log2 e < 2


class Estimate(NamedTuple):
    """A fraction of subsets: exact over all of them, or from a seeded sample."""

    value: Fraction | float
    exact: bool
    total: int  # subsets examined: C(len(pool), size), or the sample size
    std_error: Optional[float] = None  # of a sampled value


def subset_fraction(
    pool, size: int, count_hits, trials: Optional[int] = None, seed: Optional[int] = None
) -> Estimate:
    """count_hits(subsets) over the number of size-subsets of pool it was given.

    Exact mode (no trials) passes every C(len(pool), size) subset in itertools.combinations
    order, refusing more than EXACT_BUDGET; sampling mode passes trials draws of
    Random(seed).sample(pool, size) and reports the binomial standard error. Every process
    loads this module, so each mode imports only what it uses: fractions or random.
    """
    if trials is None:
        from fractions import Fraction
        total = comb(len(pool), size)
        if total > EXACT_BUDGET:
            raise CapExceeded(
                f"C({len(pool)},{size}) = {total} exceeds exact budget {EXACT_BUDGET}; use sampling"
            )
        return Estimate(Fraction(count_hits(itertools.combinations(pool, size)), total), True, total)
    if trials < 1:
        raise GensetError(f"trials must be >= 1, got {trials}")
    if seed is None:
        raise GensetError("sampling mode requires a seed")
    import random
    rng = random.Random(seed)
    p_hat = count_hits(rng.sample(pool, size) for _ in range(trials)) / trials
    return Estimate(p_hat, False, trials, sqrt(p_hat * (1 - p_hat) / trials))


def format_family(fam: SetFamily) -> str:
    """Family file format: 'n=<int>' then one set per line."""
    lines = [f"n={fam.n}"]
    lines.extend(format_mask(m) for m in fam.members)
    return "\n".join(lines) + "\n"


def _content_lines(text: str):
    """(line number, content) of each line left nonblank once its '#' comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _key_value(lineno: int, line: str, key: str) -> int:
    """The value of a 'key=<int>' line; any other key is an error."""
    name, _, value = line.partition("=")
    if name.strip() != key:
        raise FamilyFormatError(f"line {lineno}: expected {key}=<int>, got {line!r}")
    try:
        return int(value)
    except ValueError:
        raise FamilyFormatError(f"line {lineno}: bad value {value.strip()!r} for {key}")


def _parse_set(text: str, n: int, where: str = "") -> SubsetMask:
    """The mask of '-' (the empty set) or of ascending elements of [n] such as '1,3,4'.

    where prefixes every error message.
    """
    if text == "-":
        return 0
    try:
        elems = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise FamilyFormatError(f"{where}bad set {text!r}")
    if elems != sorted(set(elems)):
        raise FamilyFormatError(f"{where}elements must be strictly ascending")
    if not 1 <= elems[0] <= elems[-1] <= n:  # ascending, so the ends bound the rest
        raise FamilyFormatError(f"{where}element out of range for n={n}")
    mask = 0
    for e in elems:
        mask |= 1 << e - 1
    return mask


def parse_family(text: str) -> SetFamily:
    """Strict parser for the family file format.

    Comments start with '#'; blank lines are skipped; elements must be
    ascending and in range. Duplicate member lines are deduplicated. A token
    spelt str(e) for an element e of [n] is read through one dict; a line with
    any other token, or out of order, goes to _parse_set, which reads it or
    raises the line's error.
    """
    n = None
    masks = []
    for lineno, line in _content_lines(text):
        if n is None:
            n = _key_value(lineno, line, "n")
            check_ground_set(n)
            bit = {str(e): 1 << e - 1 for e in range(1, n + 1)}
            continue
        mask = prev = 0
        for tok in line.split(","):
            b = bit.get(tok, 0)
            if b <= prev:  # not an element as str(e) spells it, or not above the last
                mask = _parse_set(line, n, f"line {lineno}: ")
                break
            mask |= b
            prev = b
        masks.append(mask)
    if n is None:
        raise FamilyFormatError("missing 'n=<int>' header")
    return make_family(n, masks)
