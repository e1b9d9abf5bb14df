"""Deciding the k-generator and k-base properties of a set family.

The reachability table over all 2^n target masks is stored as one big int per
layer (bit x set iff mask x is expressible). The layer step "extend every
reachable mask by a disjoint member g" becomes a masked shift: positions x
with x & g == 0 move to x | g = x + g, so

    layer |= (layer & disjoint_positions(g)) << g

which keeps the whole DP inside a handful of wide bit operations per member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import CapExceeded, GensetError
from .families import SetFamily, SubsetMask, check_mask

# Tables of 2^n bits per layer; 26 -> 8 MiB per layer.
DEFAULT_DP_CAP = 26
# The base check builds k numpy arrays of 2^n int64 entries.
DEFAULT_BASE_CAP = 18


@dataclass(frozen=True)
class GeneratorVerdict:
    holds: bool
    counterexample: Optional[SubsetMask] = None


@dataclass(frozen=True)
class Decomposition:
    parts: tuple[SubsetMask, ...]


def _bit_clear_pattern(b: int, n: int) -> int:
    """Bitmap over all 2^n positions x with bit b of x clear, built by doubling."""
    width = 1 << (b + 1)
    block = (1 << (1 << b)) - 1
    total = 1 << n
    while width < total:
        block |= block << width
        width *= 2
    return block


def _membership_bitmap(fam: SetFamily) -> int:
    size = 1 << fam.n
    buf = bytearray(size // 8 if size >= 8 else 1)
    for g in fam.members:
        buf[g >> 3] |= 1 << (g & 7)
    return int.from_bytes(buf, "little")


def reachable_layers(fam: SetFamily, k: int, dp_cap: int = DEFAULT_DP_CAP) -> list[int]:
    """Layers 0..k of the disjoint-union DP, each a 2^n-bit bitmap.

    Bit x of layer j is set iff mask x is a union of at most j pairwise
    disjoint members. Empty members are skipped: they never extend a union.
    """
    if k < 0:
        raise GensetError("k must be >= 0")
    if fam.n > dp_cap:
        raise CapExceeded(f"n={fam.n} exceeds DP cap {dp_cap} (2^n-bit tables)")
    n = fam.n
    size = 1 << n
    full = (1 << size) - 1
    layers = [1]  # layer 0: only the empty set
    if k == 0:
        return layers
    # Layer 1 is just membership (plus the empty set); no shifts needed.
    layers.append(1 | _membership_bitmap(fam))
    patterns = [_bit_clear_pattern(b, n) for b in range(n)]
    nonempty = [g for g in fam.members if g]
    for _ in range(2, k + 1):
        prev = layers[-1]
        if prev == full:
            layers.append(prev)
            continue
        cur = prev
        for g in nonempty:
            disj = full
            gg = g
            while gg:
                b = (gg & -gg).bit_length() - 1
                disj &= patterns[b]
                gg &= gg - 1
            cur |= (prev & disj) << g
        layers.append(cur)
    return layers


def verdict_from_layers(layers: list[int], n: int) -> GeneratorVerdict:
    """The k-generator verdict read off the top layer of a reachable_layers table.

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


def decompose(fam: SetFamily, layers: list[int], x: SubsetMask) -> Optional[Decomposition]:
    """A witness split of x into at most k disjoint nonempty members, if one exists.

    layers is the table reachable_layers(fam, k). Greedy largest-first over
    its layers; parts are returned in descending mask order. Returns None
    when x is not expressible.
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
    return Decomposition(tuple(sorted(parts, reverse=True)))


def _subset_zeta(a, n: int):
    for b in range(n):
        step = 1 << b
        v = a.reshape(-1, 2 * step)
        v[:, step:] += v[:, :step]
    return a


def _subset_mobius(a, n: int):
    for b in range(n):
        step = 1 << b
        v = a.reshape(-1, 2 * step)
        v[:, step:] -= v[:, :step]
    return a


def is_k_base(fam: SetFamily, k: int, base_cap: int = DEFAULT_BASE_CAP) -> GeneratorVerdict:
    """Like is_k_generator but unions may overlap.

    Layer step is an OR-convolution with the membership indicator, computed
    through subset zeta/Moebius transforms: the pair count with union exactly
    x is mobius(zeta(covered) * zeta(members))[x].
    """
    import numpy as np

    if k < 0:
        raise GensetError("k must be >= 0")
    if fam.n > base_cap:
        raise CapExceeded(f"n={fam.n} exceeds base-check cap {base_cap}")
    n = fam.n
    size = 1 << n
    memb = np.zeros(size, dtype=np.int64)
    memb[list(fam.members)] = 1
    zm = _subset_zeta(memb.copy(), n)
    covered = np.zeros(size, dtype=bool)
    covered[0] = True
    for _ in range(k):
        if covered.all():
            break
        zc = _subset_zeta(covered.astype(np.int64), n)
        pairs = _subset_mobius(zc * zm, n)
        covered |= pairs > 0
    if covered.all():
        return GeneratorVerdict(True)
    return GeneratorVerdict(False, int(np.flatnonzero(~covered)[0]))
