import random
from math import comb

import pytest
from hypothesis import given, strategies as st

from genset import (
    FamilyFormatError,
    GensetError,
    canonical_generator,
    canonical_partition,
    canonical_size,
    format_family,
    make_family,
    parse_family,
    trivial_lower_bound,
)
from genset.families import (
    _bits, _submasks, comb_log2_bounds, format_mask, mask_elements, mask_from_elements,
)


def random_masks(seed, count=200):
    """Seeded masks of every width up to 62 bits, with 0 and the all-ones masks among them."""
    rng = random.Random(seed)
    masks = [0, 1, (1 << 12) - 1, (1 << 62) - 1]
    masks += [rng.getrandbits(rng.randint(1, 62)) for _ in range(count)]
    return masks


class TestMaskPrimitives:
    @pytest.mark.parametrize("seed", range(3))
    def test_submasks_against_a_scan(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            m = rng.getrandbits(rng.randint(0, 12))
            assert _submasks(m) == [s for s in range(m, -1, -1) if s & ~m == 0]

    @pytest.mark.parametrize("seed", range(3))
    def test_bits_against_a_shift_loop(self, seed):
        for m in random_masks(seed):
            shifted = [b for b in range(m.bit_length()) if m >> b & 1]
            assert _bits(m) == shifted
            assert mask_elements(m) == [b + 1 for b in shifted]

    @pytest.mark.parametrize("element", [0, 5])
    def test_mask_from_elements_refuses_an_element_outside_n(self, element):
        with pytest.raises(GensetError, match=rf"^element {element} outside ground set \[4\]$"):
            mask_from_elements([1, element], 4)


class TestMakeFamily:
    def test_all_nonempty_subsets_of_2(self):
        fam = make_family(2, [0b01, 0b10, 0b11])
        assert fam.m == 3

    def test_dedup_reported(self):
        fam = make_family(3, [0b001, 0b001])
        assert fam.m == 1

    def test_empty_set_is_legal_member(self):
        fam = make_family(1, [0])
        assert fam.members == (0,)

    def test_members_sorted(self):
        fam = make_family(3, [0b110, 0b001, 0b010])
        assert fam.members == (0b001, 0b010, 0b110)

    def test_rejects_bad_ground_set(self):
        with pytest.raises(GensetError):
            make_family(0, [])
        with pytest.raises(GensetError):
            make_family(63, [])

    def test_rejects_out_of_range_mask(self):
        with pytest.raises(GensetError):
            make_family(2, [0b100])


class TestCanonicalPartition:
    def test_contiguous_blocks_larger_first(self):
        assert canonical_partition(5, 2) == (0b00111, 0b11000)

    @given(st.integers(1, 20), st.data())
    def test_partition_invariants(self, n, data):
        k = data.draw(st.integers(1, n))
        classes = canonical_partition(n, k)
        union = 0
        for cls in classes:
            assert union & cls == 0
            union |= cls
        assert union == (1 << n) - 1
        sizes = sorted(cls.bit_count() for cls in classes)
        assert sizes[-1] - sizes[0] <= 1
        assert sum(1 for s in sizes if s == -(-n // k)) in (n % k, k)


class TestCanonicalGenerator:
    def test_4_2(self):
        fam = canonical_generator(4, 2)
        expected = {0b0001, 0b0010, 0b0011, 0b0100, 0b1000, 0b1100}
        assert set(fam.members) == expected
        assert fam.m == 6 == 2 * (2**2 - 1)

    def test_singleton_classes(self):
        fam = canonical_generator(3, 3)
        assert set(fam.members) == {0b001, 0b010, 0b100}

    def test_5_2_size_from_class_sizes(self):
        # classes {1,2,3} and {4,5}: (2^3 - 1) + (2^2 - 1)
        assert canonical_generator(5, 2).m == 7 + 3 == canonical_size(5, 2)

    def test_excludes_empty_set(self):
        assert 0 not in canonical_generator(6, 2).members

    def test_rejects_k_above_n(self):
        with pytest.raises(GensetError):
            canonical_generator(3, 4)

    @given(st.integers(1, 14), st.data())
    def test_members_are_exactly_nonempty_class_subsets(self, n, data):
        k = data.draw(st.integers(1, n))
        classes = canonical_partition(n, k)
        fam = canonical_generator(n, k)
        expected = {x for x in range(1, 1 << n) if any(x & ~cls == 0 for cls in classes)}
        assert set(fam.members) == expected
        assert fam.m == canonical_size(n, k)

    def test_members_ascend_as_the_union_of_class_submasks(self):
        for n in range(1, 15):
            for k in range(1, n + 1):
                members = canonical_generator(n, k).members
                union = set().union(*map(_submasks, canonical_partition(n, k))) - {0}
                assert all(a < b for a, b in zip(members, members[1:]))
                assert set(members) == union


class TestCanonicalSize:
    def test_divisible_case(self):
        assert canonical_size(6, 3) == 3 * (2**2 - 1) == 9

    def test_uneven_case(self):
        assert canonical_size(3, 2) == (2**2 - 1) + (2**1 - 1) == 4

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 62])
    def test_n_equals_k(self, n):
        assert canonical_size(n, n) == n

    def test_exact_formula_when_k_divides_n(self):
        for k in range(1, 7):
            for q in range(1, 5):
                n = k * q
                assert canonical_size(n, k) == k * (2**q - 1)


class TestCombLog2Bounds:
    def test_brackets_the_binomial(self):
        cases = [(m, t) for m in range(1, 70) for t in range(m + 1)]
        cases += [(10**6, 3), (5000, 2500), (2**300 + 5, 7), (2**300 + 5, 2**300)]
        for m, t in cases:
            low, high = comb_log2_bounds(m, t)
            assert 1 << low <= comb(m, t) <= 1 << high, (m, t)

    @pytest.mark.parametrize("m", [100, 257, 1000, 4096, 10**4 + 1])
    def test_brackets_the_binomial_across_t(self, m):
        for t in sorted({1, 2, m // 10, m // 4, m // 3, m // 2 - 1, m // 2, m // 2 + 1, m - 1}):
            low, high = comb_log2_bounds(m, t)
            assert 1 << low <= comb(m, t) <= 1 << high, (m, t)

    @pytest.mark.parametrize("m", [1000, 4096, 10**4 + 1])
    def test_entropy_low_near_the_middle(self, m):
        # (m/s)^s gives only m/2 bits at s = m/2; the entropy bound gives about 6 m / 7.
        bits = comb(m, m // 2).bit_length() - 1
        assert comb_log2_bounds(m, m // 2)[0] >= 0.8 * bits > m // 2

    def test_sized_without_building(self):
        # C(10^8, 10^7) has some 4.7 10^7 bits; its bounds come from m // t and
        # the entropy bound alone.
        assert comb_log2_bounds(10**8, 10**7) == (42_857_115, 6 * 10**7)


class TestTrivialLowerBound:
    def test_3_2(self):
        # m=3 offers 7 < 8 choices; m=4 offers 11 >= 8
        assert trivial_lower_bound(3, 2) == 4

    @pytest.mark.parametrize("n", range(1, 63))
    def test_k_equals_1(self, n):
        # The largest m the bisection meets: n = 62 searches up to 2^62.
        assert trivial_lower_bound(n, 1) == 2**n - 1

    def test_equals_a_linear_scan(self):
        for n in range(1, 21):
            for k in range(1, n + 1):
                m = 0
                while sum(comb(m, i) for i in range(k + 1)) < 2**n:
                    m += 1
                assert trivial_lower_bound(n, k) == m, (n, k)

    def test_10_2(self):
        assert trivial_lower_bound(10, 2) == 45

    def test_monotone_in_n_and_k(self):
        for k in range(1, 8):
            vals = [trivial_lower_bound(n, k) for n in range(k, 20)]
            assert vals == sorted(vals)
        for n in range(1, 20):
            vals = [trivial_lower_bound(n, k) for k in range(1, n + 1)]
            assert vals == sorted(vals, reverse=True)

    def test_never_exceeds_canonical_size(self):
        for n in range(1, 25):
            for k in range(1, n + 1):
                assert trivial_lower_bound(n, k) <= canonical_size(n, k)


def reference_parse(text):
    """A family file read line by line, each token through int(): the oracle for parse_family."""
    n, masks = None, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            n = int(line.partition("=")[2])
            continue
        where = f"line {lineno}: "
        if line == "-":
            masks.append(0)
            continue
        try:
            elems = [int(tok) for tok in line.split(",")]
        except ValueError:
            raise FamilyFormatError(f"{where}bad set {line!r}")
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise FamilyFormatError(f"{where}elements must be strictly ascending")
        if not all(1 <= e <= n for e in elems):
            raise FamilyFormatError(f"{where}element out of range for n={n}")
        masks.append(sum(1 << e - 1 for e in elems))
    return make_family(n, masks)


def outcome(parse, text):
    """The family parse reads from text, or the message of the error it raises."""
    try:
        return parse(text)
    except FamilyFormatError as exc:
        return str(exc)


class TestFamilyFileFormat:
    def test_round_trip(self):
        fam = make_family(5, [0, 0b00101, 0b11000])
        assert parse_family(format_family(fam)) == fam

    def test_parse_with_comments_and_blanks(self):
        fam = parse_family("# header\nn=3\n\n1,3  # a set\n-\n")
        assert fam.members == (0, 0b101)

    def test_missing_header(self):
        with pytest.raises(FamilyFormatError):
            parse_family("1,2\n")

    @pytest.mark.parametrize("text,message", [
        ("m=3\n", "line 1: expected n=<int>, got 'm=3'"),
        ("# c\nn=x\n", "line 2: bad value 'x' for n"),
    ], ids=["wrong-key", "bad-value"])
    def test_header_error_message(self, text, message):
        with pytest.raises(FamilyFormatError) as info:
            parse_family(text)
        assert str(info.value) == message

    def test_unsorted_elements_rejected(self):
        with pytest.raises(FamilyFormatError):
            parse_family("n=3\n3,1\n")

    def test_out_of_range_element_rejected(self):
        with pytest.raises(FamilyFormatError):
            parse_family("n=3\n1,4\n")

    @pytest.mark.parametrize("name", ["canonical", "random", "commented"])
    def test_matches_a_token_by_token_parser(self, name):
        rng = random.Random(len(name))
        texts = {
            "canonical": [format_family(canonical_generator(n, k)) for n, k in ((1, 1), (9, 2), (14, 3))],
            "random": [format_family(make_family(n, [rng.getrandbits(n) for _ in range(300)]))
                       for n in (9, 20, 62)],
            "commented": [
                "# c\n\nn=12  # ground set\n1,3  # a set\n\n-\n12\n1,12 # end\n",
                "n=3\n 1,2 \n#\n2,3#\n3\n",
            ],
        }[name]
        # Lines that no str(e) lookup reads: spaces, signs, leading zeros,
        # underscores, other digits, empty tokens, order and range errors.
        odd = ["1, 3", "01", "+2", "1_0", "\u0663", "1,,2", "2,1", "1,1", "0", "13", "-1", "x", "-,1"]
        for text in texts:
            assert parse_family(text) == reference_parse(text)
            lines = text.splitlines()
            at = next(i for i, line in enumerate(lines) if line.lstrip().startswith("n=")) + 1
            for line in odd:
                for edited in ("\n".join(lines[:at] + [line] + lines[at:]), f"{text}{line}\n"):
                    assert outcome(parse_family, edited) == outcome(reference_parse, edited), line

    def test_mask_formatting(self):
        assert format_mask(0) == "-"
        assert format_mask(mask_from_elements([1, 3, 4], 4)) == "1,3,4"
