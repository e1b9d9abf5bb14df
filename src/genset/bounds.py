"""Exact and high-precision evaluation of the counting and probability bounds.

pow2 keeps a power of two an exact Fraction whenever its exponent is an
integer, and otherwise evaluates it with mpmath at a fixed 113 bits
(PRECISION_BITS), flagged as inexact. So the analytic union bound is exact
whenever n t/(k+1) is an integer. The Lemma 4 bound is an exact Fraction
whenever delta is exact and n(1 - delta t) is an integer, and otherwise one
mpmath expression that builds no exact integer. mpmath is imported only on
those inexact branches (a non-integral power of two, or the log of an m that
is not a power of two), so exact bounds never load it; only the coverage
check, which counts disjoint tuples, loads the graphs layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from .errors import DEFAULT_GRAPH_CAP, GensetError, refuse_past_digit_limit
from .families import (
    Estimate, SetFamily, canonical_size, comb_log2_bounds, subset_fraction, trivial_lower_bound,
)

PRECISION_BITS = 113

if TYPE_CHECKING:
    import mpmath
    Number = Union[Fraction, mpmath.mpf]


class BoundValue(NamedTuple):
    """A bound, exact or evaluated at PRECISION_BITS."""

    value: Number
    exact: bool


def _inexact(evaluate) -> BoundValue:
    """evaluate(mpmath), run at PRECISION_BITS and flagged as inexact."""
    import mpmath
    with mpmath.workprec(PRECISION_BITS):
        return BoundValue(evaluate(mpmath), False)


def pow2(exponent: Fraction, scale: Fraction = Fraction(1)) -> BoundValue:
    """scale * 2**exponent, exact when the exponent is an integer."""
    exponent, scale = Fraction(exponent), Fraction(scale)
    if exponent.denominator == 1:
        return BoundValue(scale * Fraction(2) ** exponent.numerator, True)
    return _inexact(
        lambda mp: mp.power(2, mp.mpf(exponent.numerator) / exponent.denominator)
        * mp.mpf(scale.numerator) / scale.denominator
    )


def _check_nkm(n: int, k: int, m: int) -> None:
    if n < 1 or k < 1 or m < 1:
        raise GensetError("n, k, m must all be >= 1")


def resolve_delta(n: int, k: int, m: int, delta: Optional[Fraction] = None) -> BoundValue:
    """How far m sits above the 2^{n/(k+1)} scale: m = 2^{(1/(k+1) + delta) n}.

    A given delta is taken as it is; otherwise it is derived from m, exactly
    when m is a power of two.
    """
    _check_nkm(n, k, m)
    if delta is not None:
        return BoundValue(Fraction(delta), True)
    if m & (m - 1) == 0:
        return BoundValue(Fraction(m.bit_length() - 1, n) - Fraction(1, k + 1), True)
    return _inexact(lambda mp: mp.log(m, 2) / n - mp.mpf(1) / (k + 1))


def _primes_log2_low(a: int, b: int) -> Fraction:
    """A lower bound on log2 of the product of the primes p with a < p <= b.

    Rosser and Schoenfeld (Illinois J. Math. 6, 1962): theta(b) > b (1 - 1/ln b)
    for b >= 41 and theta(a) < 1.01624 a, where theta(x) sums ln p over the
    primes p <= x. With ln b >= 0.693 (bitlen(b) - 1) and 1/ln 2 > 1.44; 0
    where that proves nothing.
    """
    if b < 41:
        return Fraction(0)
    gap = b - Fraction(1000 * b, 693 * (b.bit_length() - 1)) - Fraction(101624, 100000) * a
    return max(gap, Fraction(0)) * Fraction(144, 100)


def lemma4_bound(n: int, k: int, m: int, t: int, delta: BoundValue) -> BoundValue:
    """(k+1) 2^{n(1-delta t)} C(m, t)^{k+1} / (k+1)!

    Upper bound on the number of complete (k+1)-partite blow-ups with part
    size t inside the disjointness graph of a family of m sets, for the delta
    that resolve_delta gives. It is an exact Fraction when delta is exact and
    n(1 - delta t) an integer, refused before it is built if its numerator or
    denominator is too long to print. Otherwise it is evaluated in mpmath
    alone; one past the double range is returned, and the CLI refuses it.
    """
    if n < 1 or k < 1 or m < 1 or t < 1:
        raise GensetError("n, k, m, t must all be >= 1")
    if delta.value <= 0:
        raise GensetError(f"delta must be positive, got {delta.value}")
    # Exact even for an mpf delta, which is a dyadic rational.
    d = delta.value if delta.exact else Fraction(delta.value.man) * Fraction(2) ** delta.value.exp
    exponent = n * (1 - d * t)
    if delta.exact and exponent.denominator == 1:
        if t <= m:
            # The bound is 2^exponent C(m, t)^{k+1} / k!, and (k/4)^k <= k! <= k^k.
            low, high = comb_log2_bounds(m, t)
            refuse_past_digit_limit(max(
                exponent + (k + 1) * low - k * k.bit_length(),  # log2 of the numerator, at least
                -(exponent + (k + 1) * high - k * (k.bit_length() - 3)),  # of the denominator
                # A prime in (m, k] divides k! but neither C(m, t) nor a power
                # of two, so it stays in the reduced denominator.
                _primes_log2_low(max(m, 2), k),
            ))
        return pow2(exponent, Fraction((k + 1) * comb(m, t) ** (k + 1), factorial(k + 1)))
    whole, frac = divmod(exponent, 1)

    def evaluate(mp):
        # The (k+1)-th power multiplies the rounding error of C(m, t) by k + 1,
        # and mpmath adds 1 to m at twice the working precision.
        with mp.extraprec((k + 1).bit_length() + m.bit_length() + 10):
            value = (
                mp.ldexp(mp.power(2, mp.mpf(frac.numerator) / frac.denominator), whole)
                * (k + 1) * mp.binomial(m, t) ** (k + 1) / mp.factorial(k + 1)
            )
        return +value  # rounded to PRECISION_BITS

    return _inexact(evaluate)


def analytic_union_bound(n: int, k: int, m: int, t: int) -> BoundValue:
    """2^n (2^{n/(k+1)} / m)^t: analytic bound on the small-union probability."""
    if m < 1 or t < 0:
        raise GensetError("need m >= 1 and t >= 0")
    return pow2(n + Fraction(n * t, k + 1), Fraction(1, m**t))


def small_union_probability(
    fam: SetFamily,
    t: int,
    threshold: int,
    seed: Optional[int] = None,
    trials: Optional[int] = None,
) -> Estimate:
    """P(|union of a uniform t-subset of distinct members| <= threshold).

    Exact enumeration over all C(m, t) subsets by default; pass seed and
    trials for a reproducible Monte Carlo estimate with its standard error.
    """
    if not 0 <= t <= fam.m:
        raise GensetError(f"need 0 <= t <= m = {fam.m}")
    if not 0 <= threshold <= fam.n:
        raise GensetError(f"threshold must lie in 0..{fam.n}")

    def count_small(subsets) -> int:
        hits = 0
        for combo in subsets:
            union = 0
            for g in combo:
                union |= g
            if union.bit_count() <= threshold:
                hits += 1
        return hits

    return subset_fraction(fam.members, t, count_small, trials, seed)


class UnionBoundReport(NamedTuple):
    threshold: int
    probability: Estimate
    analytic: BoundValue
    in_regime: bool
    bound_holds: bool


def union_bound_check(
    fam: SetFamily,
    k: int,
    delta: Optional[Fraction] = None,
    t: int = 1,
    seed: Optional[int] = None,
    trials: Optional[int] = None,
) -> UnionBoundReport:
    """Compare the exact (or sampled) small-union probability against its analytic bound.

    In-regime means m >= 2^{(1/(k+1) + delta) n} with delta > 0; out-of-regime
    parameters are still evaluated, just flagged. A delta derived from m puts m
    exactly at that scale, so it is positive iff m^(k+1) > 2^n.
    """
    if t < 1:
        raise GensetError(f"need t >= 1, got {t}")
    n, m = fam.n, fam.m
    _check_nkm(n, k, m)
    threshold = n // (k + 1)
    prob = small_union_probability(fam, t, threshold, seed=seed, trials=trials)
    analytic = analytic_union_bound(n, k, m, t)
    b = m.bit_length()
    if delta is None:
        # 2^(b-1) <= m < 2^b: (k+1)(b-1) > n puts m^(k+1) past 2^n, and
        # otherwise m^(k+1) < 2^(n+k+1) is small to build.
        in_regime = (k + 1) * (b - 1) > n or m ** (k + 1) > 1 << n
    else:
        # m < 2^b, so an exponent of b or more is out of regime, and
        # 2^exponent is built only below 2^b.
        exponent = (Fraction(1, k + 1) + delta) * n
        in_regime = delta > 0 and exponent < b and m >= pow2(exponent).value
    # No side is rounded to a float: an mpf bound is compared as an mpf.
    if analytic.exact:
        holds = prob.value <= analytic.value
    else:
        import mpmath
        q = Fraction(prob.value)
        with mpmath.workprec(PRECISION_BITS):
            holds = mpmath.mpf(q.numerator) / q.denominator <= analytic.value
    return UnionBoundReport(threshold, prob, analytic, in_regime, holds)


class CoverageReport(NamedTuple):
    tuples: int
    two_to_n: int
    holds: bool


def coverage_inequality_check(
    fam: SetFamily, k: int, graph_cap: int = DEFAULT_GRAPH_CAP
) -> CoverageReport:
    """For a k-generator the number of disjoint <=k-tuples must reach 2^n."""
    from .graphs import count_disjoint_tuples
    tuples = count_disjoint_tuples(fam, k, graph_cap)
    two_to_n = 1 << fam.n
    return CoverageReport(tuples, two_to_n, tuples >= two_to_n)


class BoundTableRow(NamedTuple):
    n: int
    k: int
    trivial_bound: int
    weak_constant_bound: float  # (k!)^{1/k} 2^{n/k}
    strong_constant_bound: float  # k 2^{n/k}
    canonical_size: int


def bound_table(n_range, k_range) -> list[BoundTableRow]:
    """Comparison of the counting bound, both asymptotic constants, and the canonical size.

    k_range ascends from k >= 1, so each n's rows stop at its first k > n.
    """
    rows = []
    for n in n_range:
        for k in k_range:
            if k > n:
                break
            rows.append(
                BoundTableRow(
                    n,
                    k,
                    trivial_lower_bound(n, k),
                    factorial(k) ** (1 / k) * 2 ** (n / k),
                    k * 2 ** (n / k),
                    canonical_size(n, k),
                )
            )
    return rows
