"""Exact and high-precision evaluation of the counting and probability bounds.

Powers of two with non-integral exponents are evaluated with mpmath at a
configurable precision (default 113 bits) and flagged as inexact; whenever the
exponent is an integer the value stays an exact Fraction. mpmath is imported
only on those inexact branches (a non-integral power of two, or the log of an
m that is not a power of two), so exact bounds never load it.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, factorial, sqrt
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from .errors import CapExceeded, GensetError
from .families import (
    SetFamily,
    canonical_size,
    trivial_lower_bound,
)
from .graphs import count_disjoint_tuples

DEFAULT_PRECISION_BITS = 113
DEFAULT_EXACT_BUDGET = 2_000_000

if TYPE_CHECKING:
    import mpmath
    Number = Union[Fraction, mpmath.mpf]


class BoundValue(NamedTuple):
    value: Number
    exact: bool
    precision_bits: Optional[int] = None

    def __float__(self) -> float:
        return float(self.value)


def pow2(exponent: Fraction, precision_bits: int = DEFAULT_PRECISION_BITS) -> BoundValue:
    """2**exponent, exact when the exponent is an integer."""
    exponent = Fraction(exponent)
    if exponent.denominator == 1:
        e = exponent.numerator
        value = Fraction(2**e) if e >= 0 else Fraction(1, 2**-e)
        return BoundValue(value, True)
    import mpmath
    with mpmath.workprec(precision_bits):
        value = mpmath.power(2, mpmath.mpf(exponent.numerator) / exponent.denominator)
    return BoundValue(value, False, precision_bits)


class BoundParams(NamedTuple):
    """Parameters for the union-size probability bound experiments.

    delta measures how far m sits above the 2^{n/(k+1)} scale:
    m = 2^{(1/(k+1) + delta) n}. When omitted it is derived from m (exactly
    when m is a power of two).
    """

    n: int
    k: int
    m: int
    t: int
    delta: Optional[Fraction] = None

    def resolved_delta(self, precision_bits: int = DEFAULT_PRECISION_BITS) -> BoundValue:
        if self.delta is not None:
            return BoundValue(Fraction(self.delta), True)
        if self.m >= 1 and self.m & (self.m - 1) == 0:
            return BoundValue(
                Fraction(self.m.bit_length() - 1, self.n) - Fraction(1, self.k + 1), True
            )
        import mpmath
        with mpmath.workprec(precision_bits):
            val = mpmath.log(self.m, 2) / self.n - mpmath.mpf(1) / (self.k + 1)
        return BoundValue(val, False, precision_bits)

    def validate(self) -> None:
        if self.n < 1 or self.k < 1 or self.m < 1 or self.t < 1:
            raise GensetError("n, k, m, t must all be >= 1")


def lemma4_bound(p: BoundParams, precision_bits: int = DEFAULT_PRECISION_BITS) -> BoundValue:
    """(k+1) 2^{n(1-delta t)} C(m, t)^{k+1} / (k+1)!

    Upper bound on the number of complete (k+1)-partite blow-ups with part
    size t inside the disjointness graph of a family of m sets.
    """
    p.validate()
    delta = p.resolved_delta(precision_bits)
    if delta.value <= 0:
        raise GensetError(f"delta must be positive, got {delta.value}")
    rest = Fraction((p.k + 1) * comb(p.m, p.t) ** (p.k + 1), factorial(p.k + 1))
    if delta.exact:
        two_pow = pow2(p.n * (1 - Fraction(delta.value) * p.t), precision_bits)
        if two_pow.exact:
            return BoundValue(two_pow.value * rest, True)
    import mpmath
    with mpmath.workprec(precision_bits):
        factor = two_pow.value if delta.exact else mpmath.power(2, p.n * (1 - delta.value * p.t))
        return BoundValue(
            factor * mpmath.mpf(rest.numerator) / rest.denominator,
            False,
            precision_bits,
        )


def analytic_union_bound(
    n: int, k: int, m: int, t: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> BoundValue:
    """2^n (2^{n/(k+1)} / m)^t: analytic bound on the small-union probability."""
    if m < 1 or t < 0:
        raise GensetError("need m >= 1 and t >= 0")
    if n % (k + 1) == 0:
        value = Fraction(2**n) * Fraction(2 ** (n // (k + 1)), m) ** t
        return BoundValue(value, True)
    import mpmath
    with mpmath.workprec(precision_bits):
        value = mpmath.power(2, n) * mpmath.power(
            mpmath.power(2, mpmath.mpf(n) / (k + 1)) / m, t
        )
    return BoundValue(value, False, precision_bits)


class ProbabilityEstimate(NamedTuple):
    value: Union[Fraction, float]
    exact: bool
    trials: Optional[int] = None
    std_error: Optional[float] = None


def small_union_probability(
    fam: SetFamily,
    t: int,
    threshold: int,
    seed: Optional[int] = None,
    trials: Optional[int] = None,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
) -> ProbabilityEstimate:
    """P(|union of a uniform t-subset of distinct members| <= threshold).

    Exact enumeration over all C(m, t) subsets by default; pass seed and
    trials for a reproducible Monte Carlo estimate with its standard error.
    """
    if not 0 <= t <= fam.m:
        raise GensetError(f"need 0 <= t <= m = {fam.m}")
    if not 0 <= threshold <= fam.n:
        raise GensetError(f"threshold must lie in 0..{fam.n}")
    members = fam.members
    if trials is None:
        total = comb(fam.m, t)
        if total > exact_budget:
            raise CapExceeded(
                f"C({fam.m},{t}) = {total} exceeds exact budget {exact_budget}; use sampling"
            )
        hits = 0
        for combo in itertools.combinations(members, t):
            union = 0
            for g in combo:
                union |= g
            if union.bit_count() <= threshold:
                hits += 1
        return ProbabilityEstimate(Fraction(hits, total), True)
    if trials < 1:
        raise GensetError(f"trials must be >= 1, got {trials}")
    if seed is None:
        raise GensetError("sampling mode requires a seed")
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        union = 0
        for g in rng.sample(members, t):
            union |= g
        if union.bit_count() <= threshold:
            hits += 1
    p_hat = hits / trials
    return ProbabilityEstimate(
        p_hat, False, trials, sqrt(p_hat * (1 - p_hat) / trials)
    )


class UnionBoundReport(NamedTuple):
    params: BoundParams
    threshold: int
    probability: ProbabilityEstimate
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
    exact_budget: int = DEFAULT_EXACT_BUDGET,
) -> UnionBoundReport:
    """Compare the exact (or sampled) small-union probability against its analytic bound.

    In-regime means m >= 2^{(1/(k+1) + delta) n} with delta > 0; out-of-regime
    parameters are still evaluated, just flagged.
    """
    if k < 1:
        raise GensetError("need k >= 1")
    n, m = fam.n, fam.m
    params = BoundParams(n=n, k=k, m=m, t=t, delta=delta)
    params.validate()
    d = params.resolved_delta()
    threshold = n // (k + 1)
    prob = small_union_probability(
        fam, t, threshold, seed=seed, trials=trials, exact_budget=exact_budget
    )
    analytic = analytic_union_bound(n, k, m, t)
    if d.exact:
        scale = pow2((Fraction(1, k + 1) + Fraction(d.value)) * n)
        at_scale = m >= scale.value if scale.exact else m >= float(scale.value)
        in_regime = d.value > 0 and at_scale
    else:
        # delta was derived from m, so m sits exactly at the 2^{(1/(k+1)+delta)n} scale.
        in_regime = d.value > 0
    if prob.exact and analytic.exact:
        holds = prob.value <= analytic.value
    else:
        holds = float(prob.value) <= float(analytic.value)
    return UnionBoundReport(params, threshold, prob, analytic, in_regime, holds)


class CoverageReport(NamedTuple):
    tuples: int
    two_to_n: int
    holds: bool
    verified_generator: bool


def coverage_inequality_check(
    fam: SetFamily, k: int, verified_generator: bool = False
) -> CoverageReport:
    """For a k-generator the number of disjoint <=k-tuples must reach 2^n."""
    tuples = count_disjoint_tuples(fam, k)
    two_to_n = 1 << fam.n
    return CoverageReport(tuples, two_to_n, tuples >= two_to_n, verified_generator)


class BoundTableRow(NamedTuple):
    n: int
    k: int
    trivial_bound: int
    weak_constant_bound: float  # (k!)^{1/k} 2^{n/k}
    strong_constant_bound: float  # k 2^{n/k}
    canonical_size: int


def bound_table(n_range, k_range) -> list[BoundTableRow]:
    """Comparison of the counting bound, both asymptotic constants, and the canonical size."""
    rows = []
    for n in n_range:
        for k in k_range:
            if not 1 <= k <= n:
                continue
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
