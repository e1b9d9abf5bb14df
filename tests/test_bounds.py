import itertools
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb, factorial, isclose, log2

import mpmath
import pytest

from genset import (
    CapExceeded,
    GensetError,
    analytic_union_bound,
    bound_table,
    canonical_generator,
    canonical_size,
    coverage_inequality_check,
    count_disjoint_tuples,
    lemma4_bound,
    make_family,
    resolve_delta,
    small_union_probability,
    trivial_lower_bound,
    union_bound_check,
)
from genset.bounds import PRECISION_BITS, BoundValue, _primes_log2_low, pow2


def assert_at_precision(bound, reference):
    """bound is inexact and agrees with reference(mpmath), run at 200 bits, to
    about PRECISION_BITS: a double-precision value would miss by 2^-53."""
    assert not bound.exact and PRECISION_BITS == 113
    with mpmath.workprec(200):
        assert abs(bound.value / reference(mpmath) - 1) < mpmath.mpf(2) ** -100


def lemma4(n, k, m, t):
    return lemma4_bound(n, k, m, t, resolve_delta(n, k, m))


def family_of_size_32_on_9():
    # First 32 members of the canonical 2-class generator on [9]; a power-of-two
    # size makes the derived delta exact: 5/9 - 1/3 = 2/9.
    fam = canonical_generator(9, 2)
    return make_family(9, fam.members[:32])


class TestPow2:
    def test_integer_exponents_exact(self):
        assert pow2(Fraction(5)).value == 32
        assert pow2(Fraction(-3)).value == Fraction(1, 8)
        assert pow2(Fraction(5)).exact

    def test_fractional_exponent_reports_precision(self):
        val = pow2(Fraction(3, 2))
        assert_at_precision(val, lambda mp: 2 * mp.sqrt(2))
        assert isclose(float(val.value), 2**1.5, rel_tol=1e-12)

    def test_scale_multiplies_exactly(self):
        val = pow2(Fraction(5), Fraction(1, 27))
        assert val.exact and val.value == Fraction(32, 27)
        assert isclose(float(pow2(Fraction(1, 2), Fraction(3)).value), 3 * 2**0.5, rel_tol=1e-15)


class TestLemma4Bound:
    def test_reference_values(self):
        # n(1 - delta t) = 10 (1 - 1/2) = 5, so the bound is 3 * 32 * C(32,3)^3 / 6.
        value = lemma4(10, 2, 32, 3)
        assert value.exact
        assert value.value == 16 * comb(32, 3) ** 3 == 1_952_382_976_000

    def test_exponent_collapse_when_delta_t_is_one(self):
        value = lemma4(12, 2, 2**5, 12)  # delta = 5/12 - 1/3 = 1/12, so delta*t = 1
        assert value.exact
        assert value.value == Fraction(3 * comb(32, 12) ** 3, 6)  # 2^0 factor

    def test_k1_instantiation(self):
        # k=1, t=1: bound is 2 * 2^{n(1-delta)} * m^2 / 2.
        value = lemma4(8, 1, 32, 1)  # delta = 5/8 - 1/2 = 1/8
        assert value.value == Fraction(2**7 * 32**2)

    def test_consistency_with_analytic_factor(self):
        n, k, m, t = 10, 2, 32, 3
        delta = resolve_delta(n, k, m)
        factor = pow2(n * (1 - delta.value * t)).value
        expected = Fraction((k + 1) * comb(m, t) ** (k + 1), 6) * factor
        assert lemma4_bound(n, k, m, t, delta).value == expected

    def test_inexact_delta_is_evaluated_at_reported_precision(self):
        # 3 2^{10(1 - 3 delta)} C(33, 3)^3 / 3! with delta = log2(33)/10 - 1/3.
        assert_at_precision(
            lemma4(10, 2, 33, 3),
            lambda mp: 3 * mp.power(2, 10 * (1 - 3 * (mp.log(33, 2) / 10 - mp.mpf(1) / 3)))
            * comb(33, 3) ** 3 / 6,
        )

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(GensetError):
            lemma4(9, 2, 8, 2)  # delta = 0

    def test_t_zero_rejected(self):
        with pytest.raises(GensetError):
            lemma4(10, 2, 32, 0)

    @pytest.mark.parametrize("delta", [Fraction(1, 4), Fraction(2)])
    def test_past_the_digit_limit_refused_before_it_is_built(self, delta):
        # 2^(3 10^8 / 4) and 2^-10^8: a numerator, or a denominator, of some 10^7 digits.
        with pytest.raises(CapExceeded):
            lemma4_bound(10**8, 1, 2, 1, BoundValue(delta, True))

    def test_near_the_digit_limit_still_returned(self):
        # 2^14252 has 4291 digits; an inexact 2^-(10^8 + 1)/2 prints as the float 0.
        value = lemma4_bound(19000, 1, 2, 1, BoundValue(Fraction(1, 4), True))
        assert value.exact and value.value == 2**14252
        tiny = lemma4_bound(10**8 + 1, 1, 2, 1, BoundValue(Fraction(3, 2), True))
        assert not tiny.exact and float(tiny.value) == 0 < tiny.value

    def test_inexact_tiny_bound_answered_in_under_a_second(self):
        # 2^7.5 2^(10^7 + 1) / 10^7! is about 2^(-2 10^8). Building 2^(10^7 + 1)
        # and (10^7 + 1)! in full took over 20 s, only to print 0.0.
        start = time.perf_counter()
        value = lemma4_bound(10, 10**7, 2, 1, BoundValue(Fraction(1, 4), True))
        assert time.perf_counter() - start < 1
        assert not value.exact and float(value.value) == 0 < value.value

    @pytest.mark.parametrize("n,m,t,delta,ks", [
        (10, 2, 1, Fraction(1, 4), range(260, 300)),  # about 2^-1075 at k = 272
        (100, 5, 2, Fraction(3, 7), range(490, 530)),  # about 2^-1075 at k = 512
    ])
    def test_tiny_bound_at_precision_across_the_switch(self, n, m, t, delta, ks):
        # Above and below the smallest doubles the bound agrees with the exact
        # c^(k+1) (k+1) / (k+1)! times 2^(n (1 - delta t)).
        for k in ks:
            rest = Fraction((k + 1) * comb(m, t) ** (k + 1), factorial(k + 1))
            exponent = n * (1 - delta * t)
            assert_at_precision(
                lemma4_bound(n, k, m, t, BoundValue(delta, True)),
                lambda mp: mp.power(2, mp.mpf(exponent.numerator) / exponent.denominator)
                * rest.numerator / rest.denominator,
            )

    @pytest.mark.parametrize("k", [1, 272, 5000, 10**5])
    @pytest.mark.parametrize("n,m,t,delta", [
        (10, 1048583, 7, Fraction(1, 3)),  # C(m, t) is about 2^127.7
        (10, 1000003, 10, None),  # about 2^178.6, and delta derived from m
        (200, 65537, 17, Fraction(2, 7)),
        (10, 2**300 + 5, 7, Fraction(1, 3)),  # m itself needs more than 2 * 113 bits
        (10**20 + 1, 1048583, 7, Fraction(1, 3)),  # an exponent of some 2^67
    ])
    def test_inexact_bound_to_its_precision(self, n, m, t, delta, k):
        # Against 2^(n (1 - delta t)) (k+1) C(m, t)^(k+1) / (k+1)! at 300 bits,
        # from the exact delta, C(m, t) and (k+1)!: C(m, t) > 2^113, so a
        # bound that rounded C(m, t) to 113 bits first would miss by up to (k+1) 2^-113.
        d = resolve_delta(n, k, m, delta)
        bound = lemma4_bound(n, k, m, t, d)
        assert not bound.exact and comb(m, t) >> 113
        exact_delta = d.value if d.exact else Fraction(d.value.man) * Fraction(2) ** d.value.exp
        whole, frac = divmod(n * (1 - exact_delta * t), 1)
        fact = factorial(k + 1)
        shift = max(0, fact.bit_length() - 330)  # (k+1)! truncated to within 2^-329
        with mpmath.workprec(300 + k.bit_length()):
            reference = (
                mpmath.ldexp(mpmath.power(2, mpmath.mpf(frac.numerator) / frac.denominator), whole)
                * (k + 1) * mpmath.mpf(comb(m, t)) ** (k + 1) / mpmath.ldexp(fact >> shift, shift)
            )
        with mpmath.workprec(300):
            assert abs(bound.value / reference - 1) < mpmath.mpf(2) ** -110

    def test_inexact_bound_past_the_double_range_is_returned(self):
        # About 2^2614: the CLI refuses it as too large to print, the library returns it.
        value = lemma4(20, 2, 2000, 400)
        assert not value.exact and value.value > mpmath.mpf(2) ** 2600
        assert float(value.value) == float("inf")

    def test_tiny_exact_bound_sized_before_it_is_built(self):
        # 2^-10^6 C(2, 1)^(10^4 + 1) / 10^4!: a denominator of some 10^6 bits.
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="too large to print"):
            lemma4_bound(10**6, 10**4, 2, 1, BoundValue(Fraction(2), True))
        assert time.perf_counter() - start < 1

    def test_prime_product_bound_never_exceeds_the_sieve(self):
        # log2 of the product of the primes in (a, b], from a sieve, against its
        # lower bound: every b < 2000 and 3,000 random b < 2 10^5, four a each.
        # The float sums err by far less than the 6 bits the bound leaves at its closest.
        top = 200_000
        sieve = bytearray([1]) * (top + 1)
        sieve[:2] = b"\0\0"
        for p in range(2, int(top**0.5) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, top + 1, p)))
        theta2 = list(itertools.accumulate(log2(x) if sieve[x] else 0.0 for x in range(top + 1)))
        rng = random.Random(41)
        positive = 0
        for b in [*range(2, 2000), *(rng.randrange(2000, top) for _ in range(3000))]:
            for a in (2, b // 3, b // 2, 3 * b // 4):
                low = _primes_log2_low(a, b)
                assert low <= theta2[b] - theta2[a], (a, b)
                positive += low > 0
        assert positive > 19000

    def test_exact_bound_never_refused_when_printable(self):
        # At the smallest digit limit Python allows, every exact bound the sizing
        # refuses has a numerator or a denominator past that limit.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            refused = 0
            for n, k, m, t in itertools.product((1, 7, 40, 700, 2000, 2300), (1, 2, 9, 60, 400),
                                                (1, 2, 9, 100, 3000), (1, 2, 5, 50)):
                delta = BoundValue(Fraction(1, 2 * t), True)  # n (1 - delta t) = n/2
                try:
                    value = lemma4_bound(2 * n, k, m, t, delta).value
                except CapExceeded:
                    refused += 1
                    value = Fraction(2) ** n * (k + 1) * comb(m, t) ** (k + 1) / factorial(k + 1)
                    assert max(value.numerator, value.denominator) >= 10**640, (n, k, m, t)
            assert refused > 50
        finally:
            sys.set_int_max_str_digits(limit)


class TestAnalyticUnionBound:
    def test_reference_value(self):
        value = analytic_union_bound(9, 2, 32, 3)
        assert value.exact and value.value == 8  # 512 * (8/32)^3

    def test_t_zero(self):
        value = analytic_union_bound(10, 2, 7, 0)  # exact although k + 1 = 3 does not divide n
        assert value.exact and value.value == Fraction(2**10)

    def test_integral_exponent_is_exact_when_k_plus_1_does_not_divide_n(self):
        # 2^4 (2^{4/3} / 6)^3 = 2^8 / 216.
        value = analytic_union_bound(4, 2, 6, 3)
        assert value.exact and value.value == Fraction(32, 27)

    def test_exact_exactly_when_exponent_is_integral(self):
        import mpmath

        for n, k, m, t in itertools.product(range(1, 10), (1, 2, 3), (1, 3, 8, 33), range(4)):
            value = analytic_union_bound(n, k, m, t)
            assert value.exact == (n * t % (k + 1) == 0), (n, k, m, t)
            if value.exact:
                assert value.value == Fraction(2 ** (n + n * t // (k + 1)), m**t)
            with mpmath.workprec(113):  # the evaluation before every power went through pow2
                direct = mpmath.power(2, n) * mpmath.power(
                    mpmath.power(2, mpmath.mpf(n) / (k + 1)) / m, t
                )
            assert float(value.value) == float(direct), (n, k, m, t)

    def test_m_at_scale_gives_2_to_n(self):
        for t in range(4):
            assert analytic_union_bound(9, 2, 8, t).value == 2**9

    @pytest.mark.parametrize("m,t", [(0, 1), (-3, 1), (4, -1)])
    def test_m_below_1_or_negative_t_refused(self, m, t):
        with pytest.raises(GensetError, match=r"^need m >= 1 and t >= 0$"):
            analytic_union_bound(9, 2, m, t)

    def test_non_integral_exponent_high_precision(self):
        value = analytic_union_bound(10, 2, 32, 2)
        assert_at_precision(value, lambda mp: mp.power(2, mp.mpf(50) / 3) / 32**2)
        assert isclose(float(value.value), 2**10 * (2 ** (10 / 3) / 32) ** 2, rel_tol=1e-12)


class TestSmallUnionProbability:
    def test_canonical_4_2_pairs(self):
        est = small_union_probability(canonical_generator(4, 2), 2, 2)
        assert est.exact and est.value == Fraction(2, 3)

    def test_threshold_n_is_certain(self):
        fam = canonical_generator(5, 2)
        assert small_union_probability(fam, 3, 5).value == 1

    def test_singletons_never_have_empty_union(self):
        fam = canonical_generator(4, 2)
        assert small_union_probability(fam, 1, 0).value == 0

    def test_sampled_mode_reproducible_and_near_exact(self):
        fam = canonical_generator(4, 2)
        a = small_union_probability(fam, 2, 2, seed=20240817, trials=100_000)
        b = small_union_probability(fam, 2, 2, seed=20240817, trials=100_000)
        assert a.value == b.value and a.total == 100_000
        assert abs(a.value - 2 / 3) <= 3 * a.std_error

    def test_seed_required_for_sampling(self):
        with pytest.raises(GensetError):
            small_union_probability(canonical_generator(4, 2), 2, 2, trials=10)

    def test_exact_budget(self):
        fam = make_family(6, range(1, 63))  # C(62, 5) = 6,471,002 subsets
        with pytest.raises(CapExceeded):
            small_union_probability(fam, 5, 3)


class TestUnionBoundCheck:
    def test_in_regime_exact_case(self):
        report = union_bound_check(family_of_size_32_on_9(), 2, t=3)
        assert report.in_regime
        assert report.probability.exact and report.analytic.exact
        assert report.bound_holds
        assert report.threshold == 3

    def test_in_regime_exact_grid(self):
        fam9 = canonical_generator(9, 2)
        for size in (16, 32):
            for t in (2, 3, 4):
                fam = make_family(9, fam9.members[:size])
                report = union_bound_check(fam, 2, t=t)
                if report.in_regime:
                    assert report.bound_holds

    def test_out_of_regime_still_evaluated(self):
        fam = make_family(9, canonical_generator(9, 2).members[:8])  # m = 2^{n/(k+1)}
        report = union_bound_check(fam, 2, t=2)
        assert not report.in_regime
        assert report.probability is not None and report.analytic is not None

    def test_sampled_mode_deterministic(self):
        fam = family_of_size_32_on_9()
        a = union_bound_check(fam, 2, t=3, seed=7, trials=2000)
        b = union_bound_check(fam, 2, t=3, seed=7, trials=2000)
        assert a.probability.value == b.probability.value

    def test_derived_delta_in_regime_is_m_to_the_k_plus_1_above_2_to_the_n(self):
        # Around every 2^(9/(k+1)) scale, and far past it.
        for k, m in itertools.product((1, 2, 3, 8), [*range(1, 40), 511]):
            report = union_bound_check(make_family(9, range(1, m + 1)), k, t=1)
            assert report.in_regime == (m ** (k + 1) > 2**9), (k, m)

    def test_k_zero_rejected(self):
        with pytest.raises(GensetError):
            union_bound_check(canonical_generator(4, 2), 0, t=1)

    def test_given_delta_in_regime_is_m_at_least_its_power_of_two(self):
        # m >= 2^(p/q) iff m^q >= 2^p, for m = 16, 32 on [9] and k = 2.
        fam9 = canonical_generator(9, 2)
        for size, q, p in itertools.product((16, 32), range(1, 7), range(-3, 8)):
            delta = Fraction(p, q)
            report = union_bound_check(make_family(9, fam9.members[:size]), 2, delta, t=1)
            e = (Fraction(1, 3) + delta) * 9
            assert report.in_regime == (delta > 0 and size**e.denominator >= 2**e.numerator)

    def test_large_delta_decided_in_bounded_memory(self):
        # Building 2^(1.2 10^8) for in_regime took about 15 MiB.
        tracemalloc.start()
        try:
            report = union_bound_check(canonical_generator(12, 2), 2, Fraction(10**7), t=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.in_regime and peak < 1 << 20

    @pytest.mark.parametrize("trials,seed", [(None, None), (10, 1)])
    def test_bound_beyond_the_double_range(self, trials, seed):
        # 2^62 (2^31 / 40)^40 is about 2^1089, which no float holds.
        fam = make_family(62, [1 << i for i in range(40)])
        report = union_bound_check(fam, 1, t=40, seed=seed, trials=trials)
        assert report.analytic.exact and report.analytic.value > 2**1088
        assert report.probability.value == 0 and report.bound_holds

    @pytest.mark.parametrize("trials,seed", [(None, None), (300, 4)])
    def test_inexact_bound_compared_as_mpf(self, trials, seed):
        # n t / (k + 1) = 20/3 is no integer, so the bound (about 26.5) is an mpf.
        report = union_bound_check(canonical_generator(10, 2), 2, t=2, seed=seed, trials=trials)
        assert not report.analytic.exact and report.probability.exact == (trials is None)
        assert report.bound_holds


class TestCoverageInequality:
    def test_canonical_3_2(self):
        report = coverage_inequality_check(canonical_generator(3, 2), 2)
        assert report.tuples == 9 and report.two_to_n == 8 and report.holds

    def test_canonical_4_2_against_enumeration(self):
        fam = canonical_generator(4, 2)
        report = coverage_inequality_check(fam, 2)
        assert report.tuples == count_disjoint_tuples(fam, 2)
        assert report.holds

    def test_non_generator_can_fail(self):
        report = coverage_inequality_check(make_family(2, [0b01]), 2)
        assert report.tuples == 2 and not report.holds


class TestBoundTable:
    def test_reference_row(self):
        (row,) = bound_table([12], [2])
        assert row.canonical_size == 126
        assert row.strong_constant_bound == 128.0

    def test_n_equals_k_rows(self):
        rows = bound_table(range(1, 8), range(1, 8))
        for row in rows:
            if row.n == row.k:
                assert row.canonical_size == row.n

    def test_row_inequalities(self):
        for row in bound_table(range(1, 20), range(1, 6)):
            assert row.trivial_bound <= row.canonical_size
            assert row.weak_constant_bound <= row.strong_constant_bound + 1e-9
            assert trivial_lower_bound(row.n, row.k) == row.trivial_bound
            assert canonical_size(row.n, row.k) == row.canonical_size

    def test_skips_invalid_pairs(self):
        rows = bound_table([2], [1, 2, 3])
        assert [(r.n, r.k) for r in rows] == [(2, 1), (2, 2)]


class TestResolveDelta:
    def test_delta_derived_exactly_for_power_of_two(self):
        d = resolve_delta(10, 2, 32)
        assert d.exact and d.value == Fraction(1, 6)

    def test_delta_inexact_otherwise(self):
        d = resolve_delta(10, 2, 33)
        assert_at_precision(d, lambda mp: mp.log(33, 2) / 10 - mp.mpf(1) / 3)

    def test_explicit_delta_wins(self):
        d = resolve_delta(10, 2, 33, Fraction(1, 7))
        assert d.exact and d.value == Fraction(1, 7)

    def test_validation(self):
        for n, k, m in ((0, 2, 32), (10, 0, 32), (10, 2, -1)):
            with pytest.raises(GensetError):
                resolve_delta(n, k, m)

    def test_m_zero_rejected(self):
        # 0 & (0 - 1) == 0, so m = 0 would pass the power-of-two test.
        for delta in (None, Fraction(1, 4)):
            with pytest.raises(GensetError):
                resolve_delta(10, 2, 0, delta)
