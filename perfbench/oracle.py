"""Reference computations the benchmark checks genset's outputs against.

Nothing here imports genset. Each value is either a closed form from the
combinatorics behind the paper (Stirling numbers, Kneser clique counts, the
canonical partition) or a direct enumeration small enough to run on every
benchmark run. A subset of [n] is an int mask: element i is bit i-1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial


def mask(elements) -> int:
    out = 0
    for e in elements:
        out |= 1 << (e - 1)
    return out


def elements(m: int) -> list[int]:
    return [i + 1 for i in range(m.bit_length()) if m >> i & 1]


def parse_mask(text: str) -> int:
    """The CLI's set notation: '1,3,4', or '-' for the empty set."""
    return 0 if text == "-" else mask(int(tok) for tok in text.split(","))


def submasks(m: int):
    sub = m
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & m


def canonical_classes(n: int, k: int) -> list[int]:
    """Near-equal partition of [n] into k contiguous blocks, the larger blocks first."""
    base, extra = divmod(n, k)
    classes, start = [], 0
    for i in range(k):
        size = base + (i < extra)
        classes.append(((1 << size) - 1) << start)
        start += size
    return classes


def canonical_members(n: int, k: int) -> set[int]:
    return {s for cls in canonical_classes(n, k) for s in submasks(cls) if s}


def canonical_size(n: int, k: int) -> int:
    return sum((1 << c.bit_count()) - 1 for c in canonical_classes(n, k))


def counting_bound_scan(n: int, k: int) -> int:
    """Smallest m with sum_{i<=k} C(m, i) >= 2^n, by scanning m upwards."""
    m = 0
    while sum(comb(m, i) for i in range(k + 1)) < 1 << n:
        m += 1
    return m


def counting_bound_bisect(n: int, k: int) -> int:
    """The same bound by bisection, for table rows where a scan would be too long."""
    def enough(m: int) -> bool:
        return sum(comb(m, i) for i in range(k + 1)) >= 1 << n

    lo, hi = 0, (1 << n) - 1  # m = 2^n - 1 always suffices: C(m, 1) alone reaches it
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if enough(mid) else (mid + 1, hi)
    return lo


def first_uncovered(members, n: int, k: int):
    """Smallest mask that is not a union of at most k pairwise disjoint members, or None.

    Breadth-first over unions, one layer per extra member: for the n <= 8
    families of the search workload this is a few thousand set operations.
    """
    members = [g for g in set(members) if g]
    reach = {0}
    for _ in range(k):
        reach |= {a | g for a in reach for g in members if not a & g}
    missing = [x for x in range(1 << n) if x not in reach]
    return missing[0] if missing else None


def union_of_two(x: int, members: set[int]) -> bool:
    """Is x a union of at most two disjoint members (the empty union included)?"""
    return x == 0 or any(a in members and (a == x or x ^ a in members) for a in submasks(x) if a)


def no_generator_of_size(n: int, k: int, size: int) -> bool:
    """Exhaustively: no family of `size` nonempty subsets of [n] is a k-generator."""
    pool = range(1, 1 << n)
    return all(first_uncovered(fam, n, k) is not None for fam in itertools.combinations(pool, size))


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by inclusion-exclusion."""
    return sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1)) // factorial(k)


def kneser_cliques(n: int, r: int, s: int) -> int:
    """s-cliques of KG(n, r): unordered choices of s pairwise disjoint r-subsets of [n]."""
    return factorial(n) // (factorial(r) ** s * factorial(n - r * s) * factorial(s))


def small_union_probability(members, t: int, threshold: int) -> Fraction:
    """P(|union of t distinct members| <= threshold), over all C(m, t) choices."""
    hits = total = 0
    for combo in itertools.combinations(members, t):
        total += 1
        u = 0
        for g in combo:
            u |= g
        hits += u.bit_count() <= threshold
    return Fraction(hits, total)


def analytic_union_bound(n: int, k: int, m: int, t: int) -> Fraction:
    """2^n (2^{n/(k+1)} / m)^t, for (k+1) | n."""
    if n % (k + 1):
        raise ValueError("the closed form in Fraction needs (k+1) | n")
    return 2**n * Fraction(2 ** (n // (k + 1)), m) ** t


def lemma4_delta(n: int, k: int, m: int) -> Fraction:
    """delta with m = 2^{(1/(k+1) + delta) n}, for m a power of two."""
    if m & (m - 1):
        raise ValueError("the closed form in Fraction needs m a power of two")
    return Fraction(m.bit_length() - 1, n) - Fraction(1, k + 1)


def lemma4_bound(n: int, k: int, m: int, t: int) -> Fraction:
    """(k+1) 2^{n(1 - delta t)} C(m, t)^{k+1} / (k+1)!, for an integral exponent."""
    exponent = n * (1 - lemma4_delta(n, k, m) * t)
    if exponent.denominator != 1 or exponent < 0:
        raise ValueError("the closed form in Fraction needs a whole exponent")
    return Fraction((k + 1) * 2 ** int(exponent) * comb(m, t) ** (k + 1), factorial(k + 1))
