import functools
import itertools
import operator
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from genset import (
    CapExceeded,
    GensetError,
    WorkLimitExceeded,
    canonical_generator,
    count_disjoint_tuples,
    decompose,
    generate,
    graphs,
    is_k_base,
    is_k_generator,
    make_family,
    reachable_layers,
)
from genset.families import SetFamily
from genset.generate import _smallest_missing, add_member, verdict_from_layers


def brute_reachable(fam, k):
    """Disjoint-union reachability by direct enumeration of all <=k-subfamilies."""
    reach = {0}
    for j in range(1, k + 1):
        for combo in itertools.combinations(fam.members, j):
            union, ok = 0, True
            for a in combo:
                if a & union:
                    ok = False
                    break
                union |= a
            if ok:
                reach.add(union)
    return reach


def brute_overlapping(fam, k):
    """Overlapping-union reachability by direct enumeration of all <=k-subfamilies."""
    reach = {0}
    for j in range(1, k + 1):
        for combo in itertools.combinations(fam.members, j):
            union = 0
            for a in combo:
                union |= a
            reach.add(union)
    return reach


def bitmap_to_set(bitmap):
    out = set()
    x = 0
    while bitmap:
        if bitmap & 1:
            out.add(x)
        bitmap >>= 1
        x += 1
    return out


def set_to_bitmap(masks):
    return sum(1 << x for x in masks)


def whole_table(fam, k, overlap=False):
    """The union table built one whole 2^n-bit int per layer: the oracle for the chunked build."""
    layers = [1] * (min(k, fam.n) + 1)
    for g in fam.members:
        if not g:
            continue
        disj = 1
        for b in range(fam.n):
            if not g >> b & 1:
                disj |= disj << (1 << b)
        for j in range(len(layers) - 1, 0, -1):
            below = layers[j - 1]
            if overlap:
                for b in range(g.bit_length()):
                    if g >> b & 1:
                        below |= below >> (1 << b)
            layers[j] |= (below & disj) << g
    return layers


def split(layers, n, w):
    """A table of whole layers as add_member takes it: 2^(n-w) chunks of 2^w bits per layer."""
    mask = (1 << (1 << w)) - 1
    return [layer >> (y << w) & mask for layer in layers for y in range(1 << n - w)]


def high_parts(members, w):
    reach = 0
    for m in members:
        reach |= m >> w
    return reach


def with_member(n, members, g):
    return SetFamily(n, tuple(sorted(members + [g])))


small_families = st.integers(1, 4).flatmap(
    lambda n: st.sets(st.integers(0, (1 << n) - 1), max_size=8).map(
        lambda masks: SetFamily(n, tuple(sorted(masks)))
    )
)


class TestReachableLayers:
    def test_two_disjoint_singletons(self):
        fam = make_family(2, [0b01, 0b10])
        layers = reachable_layers(fam, 2)
        assert bitmap_to_set(layers[2]) == {0b00, 0b01, 0b10, 0b11}

    def test_no_singletons_available(self):
        fam = make_family(2, [0b11])
        layers = reachable_layers(fam, 5)
        assert len(layers) == 3
        assert bitmap_to_set(layers[2]) == {0b00, 0b11}

    def test_canonical_4_2_covers_everything(self):
        fam = canonical_generator(4, 2)
        layers = reachable_layers(fam, 2)
        assert bitmap_to_set(layers[2]) == brute_reachable(fam, 2) == set(range(16))

    def test_layer_zero_is_empty_set_only(self):
        fam = canonical_generator(3, 2)
        assert list(reachable_layers(fam, 0)) == [1]

    def test_dp_cap_enforced(self):
        fam = make_family(5, [0b1])
        with pytest.raises(CapExceeded):
            reachable_layers(fam, 2, dp_cap=4)

    @settings(max_examples=200)
    @given(small_families, st.integers(0, 4))
    def test_layers_monotone_and_match_brute_force(self, fam, k):
        layers = list(reachable_layers(fam, k))
        assert len(layers) == min(k, fam.n) + 1
        for lo, hi in zip(layers, layers[1:]):
            assert lo & ~hi == 0  # layer_j subset of layer_{j+1}
        for j in range(k + 1):
            # No union of more than n disjoint nonempty members exists.
            assert bitmap_to_set(layers[min(j, fam.n)]) == brute_reachable(fam, j)

    @pytest.mark.parametrize("n", range(7, 13))
    def test_matches_brute_force_on_random_families_past_one_word(self, n):
        # From n = 7 on a table has more than 64 positions, past one machine
        # word, and disj is built over several widths as the table grows.
        rng = random.Random(n)
        for _ in range(3):
            members = rng.sample(range(1, 1 << n), rng.randint(4, 16))
            fam = SetFamily(n, tuple(sorted(members)))
            for k in range(5):
                layers = reachable_layers(fam, k)
                assert len(layers) == k + 1
                for j in range(k + 1):
                    assert bitmap_to_set(layers[j]) == brute_reachable(fam, j)

    @pytest.mark.parametrize("n", [3, 7, 10])
    def test_add_member_equals_building_with_the_member(self, n):
        rng = random.Random(100 + n)
        for _ in range(5):
            members = rng.sample(range(1, 1 << n), rng.randint(0, 6))
            g = rng.choice([x for x in range(1, 1 << n) if x not in members])
            for k in range(1, 4):
                # Whole layers (w = n) and chunks of 2^3 bits.
                for w in (n, 3):
                    table = split(reachable_layers(SetFamily(n, tuple(sorted(members))), k), n, w)
                    add_member(table, g, n, w, high_parts(members, w))
                    assert table == split(reachable_layers(with_member(n, members, g), k), n, w)

    def test_layers_above_n_repeat_layer_n(self):
        # Layers above n would repeat layer n, so none is built: k = 7 on
        # [3] gives the table of k = 3, whose top layer covers everything.
        fam = make_family(3, [0b001, 0b010, 0b100, 0b011])
        layers = reachable_layers(fam, 7)
        assert list(layers) == list(reachable_layers(fam, 3))
        assert bitmap_to_set(layers[-1]) == set(range(8))

    def test_capped_layers_stop_at_n(self):
        # A huge k costs no more than k = n, also at n = 1.
        fam = make_family(3, [0b001, 0b010, 0b100, 0b011])
        assert list(reachable_layers(fam, 10**6)) == list(reachable_layers(fam, 3))
        assert list(reachable_layers(make_family(1, [0b1]), 10**6)) == [1, 0b11]


def permuted(fam, rng):
    """fam with its elements relabelled by a random permutation of [n]."""
    perm = list(range(fam.n))
    rng.shuffle(perm)
    members = []
    for g in fam.members:
        members.append(sum(1 << perm[b] for b in range(fam.n) if g >> b & 1))
    return SetFamily(fam.n, tuple(sorted(members)))


class TestChunkedTable:
    """Tables of more than one chunk: CHUNK_BITS below n."""

    @pytest.mark.parametrize("n", range(7, 15))
    def test_every_chunk_width_matches_brute_force(self, n, monkeypatch):
        # w = 1 and 2 are read as 3, a chunk of whole bytes.
        rng = random.Random(500 + n)
        fams = [_random_family(rng, n), make_family(n, [0, *rng.sample(range(1, 1 << n), 10)])]
        for fam in fams:
            for overlap in (False, True):
                brute = brute_overlapping if overlap else brute_reachable
                want = [set_to_bitmap(brute(fam, j)) for j in range(4)]
                for w in range(1, n + 1):
                    monkeypatch.setattr(generate, "CHUNK_BITS", w)
                    assert list(reachable_layers(fam, 3, overlap=overlap)) == want, w

    @pytest.mark.parametrize("n,k", [(14, 2), (16, 2), (16, 3), (18, 3), (20, 2), (20, 4)])
    def test_matches_whole_table_on_permuted_canonical_families(self, n, k, monkeypatch):
        # Relabelled elements spread the classes over the high bits, so
        # members reach many chunks; CHUNK_BITS = 9 splits even n = 14.
        monkeypatch.setattr(generate, "CHUNK_BITS", 9)
        rng = random.Random(600 + n + k)
        for fam in (canonical_generator(n, k), permuted(canonical_generator(n, k), rng)):
            for top in (k - 1, k):
                for overlap in (False, True):
                    layers = reachable_layers(fam, top, overlap=overlap)
                    assert list(layers) == whole_table(fam, top, overlap)

    @pytest.mark.parametrize("n", [16, 20])
    def test_matches_whole_table_on_random_families(self, n):
        rng = random.Random(700 + n)
        for _ in range(2):
            fam = SetFamily(n, tuple(sorted(rng.sample(range(1, 1 << n), 60))))
            for overlap in (False, True):
                assert list(reachable_layers(fam, 3, overlap=overlap)) == whole_table(fam, 3, overlap)

    def test_counterexample_past_chunk_zero(self):
        # canonical(16,2) without {16}: every mask below 2^15 is still covered,
        # and {16} = 2^15 lies in chunk 4 of 8 at w = 13.
        members = [g for g in canonical_generator(16, 2).members if g != 1 << 15]
        fam = make_family(16, members)
        assert is_k_generator(fam, 2) == (False, 1 << 15)
        assert is_k_base(fam, 2) == (False, 1 << 15)
        layers = reachable_layers(fam, 2)
        assert decompose(fam, layers, (1 << 16) - 1 - (1 << 15)) is not None
        assert decompose(fam, layers, 1 << 15) is None

    def test_counterexample_in_the_last_chunk(self):
        # canonical(16,2) without {14,15,16}: that set is still a union of two
        # members, but {1,14,15,16} now needs three. Every smaller mask is
        # covered, and it lies in chunk 7 of 8 at w = 13.
        drop = 0b111 << 13
        fam = make_family(16, [g for g in canonical_generator(16, 2).members if g != drop])
        top = reachable_layers(fam, 2)[-1]
        missing = next(x for x in range(1 << 16) if not top >> x & 1)
        assert missing == 1 | drop and missing >> generate.CHUNK_BITS == 7
        assert _smallest_missing(top, 16) == missing
        assert is_k_generator(fam, 2) == (False, missing)

    def test_empty_member_and_k_above_n(self, monkeypatch):
        monkeypatch.setattr(generate, "CHUNK_BITS", 4)
        fam = canonical_generator(9, 3)
        with_empty = SetFamily(9, (0, *fam.members))
        assert list(reachable_layers(with_empty, 2)) == list(reachable_layers(fam, 2))
        assert list(reachable_layers(fam, 2)) == whole_table(fam, 2)
        assert list(reachable_layers(fam, 50)) == list(reachable_layers(fam, 9)) == whole_table(fam, 9)
        assert list(reachable_layers(fam, 50, overlap=True)) == whole_table(fam, 9, overlap=True)
        assert is_k_generator(with_empty, 3).holds and not is_k_generator(with_empty, 2).holds


def full_chunks_are_shared(layers):
    """Every all-ones chunk of a reachable_layers table is the one cached object of its width."""
    full = generate._full_chunk(layers.w)
    chunks = [c for j in range(len(layers)) for c in layers.chunks(j)]
    assert all(c is full for c in chunks if c == full)
    return sum(c is full for c in chunks)


class TestFullChunks:
    """A full chunk is one shared int, and add_member skips a step into it."""

    @pytest.mark.parametrize("n,w", [(9, 4), (11, 6), (12, 9), (15, 13)])
    def test_filled_layers_match_whole_table(self, n, w, monkeypatch):
        # Families whose layers fill, up to k = n: canonical, relabelled
        # canonical, and P[n] minus the empty set at k = 1..3.
        monkeypatch.setattr(generate, "CHUNK_BITS", w)
        rng = random.Random(900 + n)
        cases = [(make_family(n, range(1, 1 << n)), k) for k in (1, 2, 3)]
        for parts in (2, 3, n // 2):
            fam = canonical_generator(n, parts)
            cases += [(fam, k) for k in (parts, n)] + [(permuted(fam, rng), parts)]
        filled = 0
        for fam, k in cases:
            for overlap in (False, True):
                layers = reachable_layers(fam, k, overlap=overlap)
                assert list(layers) == whole_table(fam, k, overlap)
                assert verdict_from_layers(layers).holds
                filled += full_chunks_are_shared(layers)
        assert filled

    @pytest.mark.parametrize("w", [3, 5, 13])
    def test_every_full_chunk_is_the_shared_object(self, w, monkeypatch):
        monkeypatch.setattr(generate, "CHUNK_BITS", w)
        rng = random.Random(950 + w)
        for fam in (canonical_generator(14, 2), permuted(canonical_generator(14, 3), rng)):
            for overlap in (False, True):
                # The top layer is full: one pointer per chunk.
                assert full_chunks_are_shared(reachable_layers(fam, 14, overlap=overlap)) >= 1 << 14 - w

    def test_search_width_shares_the_full_layer(self):
        # The search adds members with w = n: one chunk per layer.
        n = 7
        table = [1] * 4
        for g in canonical_generator(n, 3).members:
            add_member(table, g, n, n, 0)
        assert table[-1] is generate._full_chunk(n)

    def test_table_of_filled_layers_stays_small(self):
        # canonical(20,2) at k = 20: layers 2..20 are full. Each of their 128
        # chunks is one shared 1 KiB int, so the distinct nonzero chunks take
        # about 124 KiB, against 2.7 MiB were each chunk its own int.
        layers = reachable_layers(canonical_generator(20, 2), 20)
        distinct = {id(c): c for j in range(len(layers)) for c in layers.chunks(j) if c}
        assert sum(map(sys.getsizeof, distinct.values())) < 256 << 10


def check_reads(fam, k, overlap):
    """Checks the view of reachable_layers against whole_table, and its verdict and
    decompose against brute force, for every target; returns the counterexample."""
    layers = reachable_layers(fam, k, overlap=overlap)
    whole = whole_table(fam, k, overlap)
    assert list(layers) == whole and len(layers) == len(whole)
    top = len(layers) - 1
    reach = (brute_overlapping if overlap else brute_reachable)(fam, top)
    missing = next((x for x in range(1 << fam.n) if x not in reach), None)
    assert verdict_from_layers(layers) == (missing is None, missing)
    for x in range(1 << fam.n):
        assert layers.bit(top, x) == whole[top] >> x & 1 == (x in reach)
        if overlap:
            continue  # decompose splits into disjoint members only
        dec = decompose(fam, layers, x)
        assert (dec is not None) == (x in reach)
        if dec is not None:
            assert len(dec) <= top and all(g in fam.members for g in dec)
            # A sum equal to the union: the parts are pairwise disjoint.
            assert sum(dec) == functools.reduce(operator.or_, dec, 0) == x
    return missing


class TestChunkReads:
    """verdict_from_layers and decompose read the chunks in place: n above CHUNK_BITS."""

    @pytest.mark.parametrize(
        "n,w", [(9, 3), (9, 6), (10, 4), (11, 5), (11, 9), (12, 3), (12, 6), (13, 7), (14, 8), (14, 9)]
    )
    def test_verdict_and_decompose_match_brute_force(self, n, w, monkeypatch):
        monkeypatch.setattr(generate, "CHUNK_BITS", w)
        singletons = make_family(n, [1 << b for b in range(n)])
        rng = random.Random(800 + n + w)
        last = (1 << n - w) - 1
        for overlap in (False, True):
            # Singletons at k miss the k + 1 lowest elements first: in chunk 0,
            # in chunk 1 (a middle one, n - w >= 2 here), and the full set in
            # the last chunk.
            for k, chunk in ((2, 0), (w, 1), (n - 1, last)):
                assert check_reads(singletons, k, overlap) >> w == chunk
            assert check_reads(permuted(canonical_generator(n, 3), rng), 2, overlap) is not None
            assert check_reads(canonical_generator(n, 2), 2, overlap) is None

    def test_view_len_index_and_equality(self, monkeypatch):
        monkeypatch.setattr(generate, "CHUNK_BITS", 4)
        fam = canonical_generator(10, 3)
        layers, whole = reachable_layers(fam, 3), whole_table(fam, 3)
        assert len(layers) == 4 and len(reachable_layers(fam, 50)) == 11
        assert layers[-1] == whole[3] and layers[-4] == whole[0]
        for j in (4, -5):
            with pytest.raises(IndexError):
                layers[j]
        assert list(layers) == whole


class TestCheckPathNeverJoins:
    """The check path reads the chunk table in place: no 2^n-bit layer int is built."""

    @pytest.mark.parametrize("read", ["is_k_generator", "is_k_base", "decompose"])
    def test_peak_stays_below_the_table_plus_one_layer(self, read):
        n, k = 20, 3  # 128 chunks per layer
        fam = canonical_generator(n, k)
        overlap = read == "is_k_base"
        run = {
            "is_k_generator": lambda: is_k_generator(fam, k).holds,
            "is_k_base": lambda: is_k_base(fam, k).holds,
            "decompose": lambda: decompose(fam, reachable_layers(fam, k), (1 << n) - 1) is not None,
        }[read]
        run()  # fills the disjoint-positions cache, which outlives the call
        tracemalloc.start()
        try:
            layers = reachable_layers(fam, k, overlap=overlap)
            table = tracemalloc.get_traced_memory()[0]  # the chunks, most of them zero here
            del layers
            tracemalloc.reset_peak()
            assert run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Joining even one layer holds its bytes and its int at once: two layers.
        assert peak < table + (1 << n) // 8

    @pytest.mark.parametrize("k", [0, 1])
    def test_singletons_at_k_below_2_build_no_whole_layer(self, k):
        # The 28 singletons reach 16 of the 2^15 chunks of layer 1 at n = 28;
        # a whole layer takes 32 MiB, and k = 0 adds no member at all.
        fam = make_family(28, [1 << b for b in range(28)])
        tracemalloc.start()
        try:
            verdict = is_k_generator(fam, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict == (False, 0b1 if k == 0 else 0b11)
        assert peak < 4 << 20


class TestSmallestMissing:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_only_bit_zero_set(self, n):
        assert _smallest_missing(1, n) == 1

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_only_the_top_bit_missing(self, n):
        size = 1 << n
        assert _smallest_missing((1 << size - 1) - 1, n) == size - 1
        assert _smallest_missing((1 << size) - 1, n) is None

    def test_against_a_scan(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 7)
            covered = rng.getrandbits(1 << n) | rng.getrandbits(1 << n)
            first = next((x for x in range(1 << n) if not covered >> x & 1), None)
            assert _smallest_missing(covered, n) == first


class TestIsKGenerator:
    def test_canonical_construction_is_generator(self):
        assert is_k_generator(canonical_generator(6, 2), 2).holds

    def test_singletons_need_n_parts(self):
        fam = make_family(4, [0b0001, 0b0010, 0b0100, 0b1000])
        verdict = is_k_generator(fam, 3)
        assert not verdict.holds
        assert verdict.counterexample == 0b1111

    def test_counterexample_is_smallest_uncovered(self):
        fam = make_family(2, [0b01, 0b11])
        verdict = is_k_generator(fam, 2)
        assert not verdict.holds
        assert verdict.counterexample == 0b10

    def test_empty_members_are_neutral(self):
        with_empty = make_family(3, [0, 0b001, 0b010, 0b100])
        without = make_family(3, [0b001, 0b010, 0b100])
        for k in range(4):
            assert is_k_generator(with_empty, k).holds == is_k_generator(without, k).holds


class TestDecompose:
    def test_witness_for_canonical(self):
        fam = canonical_generator(4, 2)
        dec = decompose(fam, reachable_layers(fam, 2), 0b1101)
        assert dec is not None
        union, seen = 0, 0
        for part in dec:
            assert part in fam.members and part != 0
            assert part & seen == 0
            seen |= part
            union |= part
        assert union == 0b1101
        assert list(dec) == sorted(dec, reverse=True)

    def test_empty_target_gives_empty_decomposition(self):
        fam = canonical_generator(4, 2)
        assert decompose(fam, reachable_layers(fam, 2), 0) == ()

    def test_absent_matches_checker_counterexample(self):
        fam = make_family(2, [0b01, 0b11])
        assert decompose(fam, reachable_layers(fam, 2), 0b10) is None

    def test_base_table_is_refused(self):
        # The base table covers {1,2,3} = {1,2} ∪ {2,3}; no disjoint split exists.
        fam = make_family(3, [0b011, 0b110])
        with pytest.raises(GensetError, match="k-base"):
            decompose(fam, reachable_layers(fam, 2, overlap=True), 0b111)

    @settings(max_examples=200)
    @given(small_families, st.integers(0, 4), st.data())
    def test_witness_iff_table_marks_target(self, fam, k, data):
        x = data.draw(st.integers(0, (1 << fam.n) - 1))
        dec = decompose(fam, reachable_layers(fam, k), x)
        reachable = x in brute_reachable(fam, k)
        assert (dec is not None) == reachable
        if dec is not None:
            assert len(dec) <= k
            assert all(a > b for a, b in zip(dec, dec[1:]))  # strictly descending
            union, seen = 0, 0
            for part in dec:
                assert part in fam.members and part != 0
                assert part & seen == 0
                seen |= part
                union |= part
            assert union == x


class TestIsKBase:
    def test_overlapping_pair_fails_on_singleton(self):
        fam = make_family(3, [0b011, 0b110])
        verdict = is_k_base(fam, 2)
        assert not verdict.holds
        assert verdict.counterexample == 0b001  # {1,2,3} is coverable, {1} is not

    def test_generator_implies_base(self):
        fam = canonical_generator(4, 2)
        assert is_k_base(fam, 2).holds

    def test_overlapping_unions_allowed(self):
        fam = make_family(3, [0b001, 0b010, 0b011, 0b110, 0b100])
        assert is_k_base(fam, 2).holds

    def test_cap_enforced(self):
        fam = make_family(5, [0b1])
        with pytest.raises(CapExceeded):
            is_k_base(fam, 2, dp_cap=4)

    @settings(max_examples=150)
    @given(small_families, st.integers(0, 3))
    def test_matches_overlapping_brute_force(self, fam, k):
        covered = {0}
        for j in range(1, k + 1):
            for combo in itertools.combinations(fam.members, j):
                union = 0
                for a in combo:
                    union |= a
                covered.add(union)
        verdict = is_k_base(fam, k)
        assert verdict.holds == (len(covered) == 1 << fam.n)
        if not verdict.holds:
            assert verdict.counterexample == min(set(range(1 << fam.n)) - covered)

    @settings(max_examples=100)
    @given(small_families, st.integers(0, 3))
    def test_generator_implies_base_property(self, fam, k):
        if is_k_generator(fam, k).holds:
            assert is_k_base(fam, k).holds


def _random_family(rng, n):
    return SetFamily(n, tuple(sorted(rng.sample(range(1, 1 << n), rng.randint(4, 16)))))


class TestOverlapTable:
    """The k-base table: the generator table's builder with the fold step."""

    @pytest.mark.parametrize("n", range(7, 13))
    def test_matches_brute_force_layer_by_layer(self, n):
        # Members of several bits over tables wider than one machine word: a
        # fold that skips any element of g leaves some y | g unmarked.
        rng = random.Random(200 + n)
        for _ in range(3):
            fam = _random_family(rng, n)
            for k in range(5):
                layers = reachable_layers(fam, k, overlap=True)
                assert len(layers) == k + 1
                for j in range(k + 1):
                    assert bitmap_to_set(layers[j]) == brute_overlapping(fam, j)

    @pytest.mark.parametrize("n", [3, 7, 10])
    def test_add_member_equals_building_with_the_member(self, n):
        rng = random.Random(300 + n)
        for _ in range(5):
            members = rng.sample(range(1, 1 << n), rng.randint(0, 6))
            g = rng.choice([x for x in range(1, 1 << n) if x not in members])
            for k in range(1, 4):
                for w in (n, 3):
                    fam = SetFamily(n, tuple(sorted(members)))
                    table = split(reachable_layers(fam, k, overlap=True), n, w)
                    add_member(table, g, n, w, high_parts(members, w), overlap=True)
                    with_g = reachable_layers(with_member(n, members, g), k, overlap=True)
                    assert table == split(with_g, n, w)

    @pytest.mark.parametrize("n", range(7, 13))
    def test_generator_layers_lie_within_base_layers(self, n):
        rng = random.Random(400 + n)
        for _ in range(3):
            fam = _random_family(rng, n)
            for k in range(5):
                disjoint = reachable_layers(fam, k)
                overlapping = reachable_layers(fam, k, overlap=True)
                for lo, hi in zip(disjoint, overlapping):
                    assert lo & ~hi == 0


class TestCountDisjointTuples:
    def test_power_set_of_2(self):
        fam = make_family(2, [0b01, 0b10, 0b11])
        assert count_disjoint_tuples(fam, 2) == 5  # empty + 3 singles + {1},{2}

    def test_canonical_3_2(self):
        assert count_disjoint_tuples(canonical_generator(3, 2), 2) == 9

    def test_k_zero_counts_only_empty_tuple(self):
        fam = canonical_generator(4, 2)
        assert count_disjoint_tuples(fam, 0) == 1

    def test_work_limit(self, monkeypatch):
        fam = canonical_generator(8, 2)
        monkeypatch.setattr(graphs, "DEFAULT_CLIQUE_WORK_LIMIT", 10)
        with pytest.raises(WorkLimitExceeded):
            count_disjoint_tuples(fam, 2)

    @settings(max_examples=150)
    @given(small_families, st.integers(0, 4))
    def test_matches_enumeration(self, fam, k):
        expected = 0
        for j in range(min(k, fam.m) + 1):
            for combo in itertools.combinations(fam.members, j):
                union, ok = 0, True
                for a in combo:
                    if a & union:
                        ok = False
                        break
                    union |= a
                expected += ok
        assert count_disjoint_tuples(fam, k) == expected

    @settings(max_examples=100)
    @given(small_families, st.integers(1, 3))
    def test_generators_satisfy_coverage_inequality(self, fam, k):
        if is_k_generator(fam, k).holds:
            assert count_disjoint_tuples(fam, k) >= 1 << fam.n

    def test_negative_k_rejected(self):
        with pytest.raises(GensetError):
            count_disjoint_tuples(canonical_generator(3, 2), -1)
