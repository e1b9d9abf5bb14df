import itertools
import random
import sys
import time
from fractions import Fraction
from math import comb, log2, perm, prod

import pytest

from genset import (
    CapExceeded,
    GensetError,
    Graph,
    WorkLimitExceeded,
    canonical_generator,
    clique_density,
    count_cliques,
    count_disjoint_tuples,
    dense_subset_fraction,
    disjointness_graph,
    erdos_max_check,
    find_blowup,
    format_graph,
    graph_from_edges,
    graphs,
    make_family,
    parse_graph,
    turan_blowup_graph,
    turan_clique_closed_form,
    turan_eta,
)
from genset.graphs import DEFAULT_CLIQUE_WORK_LIMIT, _clique_profile


def triple_loop_triangles(masks):
    """Independent oracle: disjoint triples by direct triple loop."""
    total = 0
    m = len(masks)
    for i in range(m):
        for j in range(i + 1, m):
            if masks[i] & masks[j]:
                continue
            for l in range(j + 1, m):
                if masks[i] & masks[l] == 0 and masks[j] & masks[l] == 0:
                    total += 1
    return total


def pair_loop_rows(masks):
    """Disjointness rows by testing every pair of members."""
    m = len(masks)
    rows = [0] * m
    for u, v in itertools.combinations(range(m), 2):
        if masks[u] & masks[v] == 0:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return tuple(rows)


def kneser_edge_closed_form(q):
    """Edges of the disjointness graph of the canonical 2-class generator on 2q elements."""
    return (3**q - 2 ** (q + 1) + 1) + (2**q - 1) ** 2


def random_graph(m, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(m) for v in range(u + 1, m) if rng.random() < p]
    return graph_from_edges(m, edges)


def kneser_family(n, s):
    """All s-subsets of [n]: the disjointness graph is the Kneser graph KG(n, s)."""
    return make_family(n, [sum(1 << e for e in c) for c in itertools.combinations(range(n), s)])


def complete_graph(m):
    full = (1 << m) - 1
    return Graph(tuple(full ^ (1 << v) for v in range(m)))


def induced_subgraph(g, vertices):
    """The subgraph on vertices, relabeled 0..len(vertices)-1 in the given order."""
    index = {v: i for i, v in enumerate(vertices)}
    rows = []
    for v in vertices:
        acc = 0
        for u in vertices:
            if u != v and g.rows[u] >> v & 1:
                acc |= 1 << index[u]
        rows.append(acc)
    return Graph(tuple(rows))


def clique_profile_by_sets(g, r):
    """Independent oracle: [1, K_1, ..., K_r] by growing cliques upward over Python sets."""
    nbrs = [{u for u in range(g.m) if g.rows[u] >> v & 1} for v in range(g.m)]
    profile = [1] + [0] * r

    def extend(cands, size):
        for v in cands:
            profile[size + 1] += 1
            if size + 1 < r:
                extend({u for u in cands & nbrs[v] if u > v}, size + 1)

    extend(set(range(g.m)), 0)
    return profile


class TestDisjointnessGraph:
    def test_nonempty_subsets_of_2(self):
        g = disjointness_graph(make_family(2, [0b01, 0b10, 0b11]))
        assert g.edge_count() == 1
        assert g.rows[0] >> 1 & 1

    def test_empty_set_is_adjacent_to_everything(self):
        g = disjointness_graph(make_family(3, [0, 0b101]))
        assert g.rows[0] >> 1 & 1

    @pytest.mark.parametrize("q", range(1, 9))
    def test_edge_count_closed_form(self, q):
        g = disjointness_graph(canonical_generator(2 * q, 2))
        assert g.edge_count() == kneser_edge_closed_form(q)

    def test_vertex_cap(self):
        with pytest.raises(CapExceeded):
            disjointness_graph(canonical_generator(4, 2), graph_cap=3)

    @pytest.mark.parametrize(
        "fam",
        [
            kneser_family(16, 3),
            make_family(10, range(1, 1 << 10)),
        ]
        + [
            make_family(n, random.Random(seed).sample(range(1 << n), m))
            for seed, (n, m) in enumerate([(5, 20), (8, 90), (12, 300), (20, 200), (62, 150)])
        ],
        ids=["KG(16,3)", "P[10]-empty", "rand5", "rand8", "rand12", "rand20", "rand62"],
    )
    def test_rows_match_pair_loop(self, fam):
        assert disjointness_graph(fam).rows == pair_loop_rows(fam.members)


class TestCountCliques:
    def test_turan_graph_edges(self):
        assert count_cliques(turan_blowup_graph(3, 2), 2) == 12

    def test_turan_graph_triangles(self):
        assert count_cliques(turan_blowup_graph(3, 2), 3) == 8

    def test_r_beyond_vertex_count_is_zero(self):
        g = random_graph(9, 0.5, seed=1)
        assert count_cliques(g, 10) == count_cliques(g, 10**9) == 0

    def test_single_vertex_count(self):
        g = random_graph(9, 0.5, seed=1)
        assert count_cliques(g, 1) == 9

    def test_canonical_12_3_triangles_vs_triple_loop(self):
        fam = canonical_generator(12, 3)
        g = disjointness_graph(fam)
        assert count_cliques(g, 3) == triple_loop_triangles(fam.members) == 5655

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_vs_enumeration(self, seed):
        g = random_graph(10, 0.6, seed=seed)
        for r in range(2, 6):
            expected = sum(
                1
                for combo in itertools.combinations(range(10), r)
                if all(g.rows[u] >> v & 1 for u, v in itertools.combinations(combo, 2))
            )
            assert count_cliques(g, r) == expected

    @pytest.mark.parametrize("m", range(10, 71, 10))
    def test_within_mask_matches_relabeled_subgraph(self, m):
        rng = random.Random(m)
        g = random_graph(m, rng.uniform(0.3, 0.8), seed=m)
        # The empty mask, masks with fewer than r vertices, and random ones.
        sizes = [0, 1, 2, 3, 4] + [rng.randint(5, m) for _ in range(6)]
        for size in sizes:
            verts = sorted(rng.sample(range(m), size))
            within = sum(1 << v for v in verts)
            sub = induced_subgraph(g, verts)
            for r in range(1, 6):
                assert count_cliques(g, r, within=within) == count_cliques(sub, r), (size, r)
            assert count_cliques(g, 10**9, within=within) == 0

    @pytest.mark.parametrize(
        "r,within",
        [(1, 0b1111111), (2, (1 << 6) | 3), (2, -1)],
        ids=["seventh_vertex", "bit_past_m", "negative"],
    )
    def test_within_outside_the_vertices_is_refused(self, r, within):
        # turan_blowup_graph(3, 2) has 6 vertices, so bit 6 and a negative mask name none.
        g = turan_blowup_graph(3, 2)
        with pytest.raises(GensetError):
            count_cliques(g, r, within=within)
        with pytest.raises(GensetError):
            _clique_profile(g.rows, r, DEFAULT_CLIQUE_WORK_LIMIT, within)

    def test_closed_form_grid(self):
        for s in range(1, 6):
            for T in range(1, 7):
                g = turan_blowup_graph(s, T)
                for r in range(1, s + 1):
                    assert count_cliques(g, r) == turan_clique_closed_form(s, T, r)


class TestCliqueWalk:
    @pytest.mark.parametrize("seed", range(6))
    def test_profile_vs_set_enumeration_on_multi_digit_rows(self, seed):
        rng = random.Random(seed)
        m = 40 + 7 * seed  # 40..75 vertices: rows span several int digits
        g = random_graph(m, rng.uniform(0.3, 0.6), seed=seed)
        expected = clique_profile_by_sets(g, 6)
        for r in range(7):
            assert _clique_profile(g.rows, r, DEFAULT_CLIQUE_WORK_LIMIT) == expected[: r + 1]

    @pytest.mark.parametrize(
        "g,r",
        [(random_graph(50, 0.5, seed=7), 5), (random_graph(64, 0.4, seed=8), 4),
         (complete_graph(16), 16), (turan_blowup_graph(5, 4), 5),
         (random_graph(40, 0.5, seed=9), 2), (disjointness_graph(kneser_family(12, 3)), 4)],
        ids=["random50", "random64", "complete16", "turan5x4", "random40_edges", "kneser12_3"],
    )
    def test_work_limit_is_the_step_count(self, g, r):
        # One step per clique of size 1..r-1, whatever the graph.
        expected = clique_profile_by_sets(g, r)
        steps = sum(expected[1:r])
        assert _clique_profile(g.rows, r, steps) == expected
        with pytest.raises(WorkLimitExceeded):
            _clique_profile(g.rows, r, steps - 1)

    # Graphs whose last-step rests repeat, so that the edge-count cache answers.
    REPEATING = {
        "kneser7_2": lambda: disjointness_graph(kneser_family(7, 2)),
        "kneser9_3": lambda: disjointness_graph(kneser_family(9, 3)),
        "kneser12_2": lambda: disjointness_graph(kneser_family(12, 2)),
        "P6-empty": lambda: disjointness_graph(make_family(6, range(1, 1 << 6))),
        "P7-empty": lambda: disjointness_graph(make_family(7, range(1, 1 << 7))),
        "canonical8_2": lambda: disjointness_graph(canonical_generator(8, 2)),
        "canonical9_3": lambda: disjointness_graph(canonical_generator(9, 3)),
        "turan4x3": lambda: turan_blowup_graph(4, 3),
        "turan6x4": lambda: turan_blowup_graph(6, 4),
    }
    # Cache settings: as shipped; no room (every lookup misses, nothing is
    # stored); room for one entry (then full); dropped at its first entry;
    # on trial from the second entry.
    CACHE_SETTINGS = {
        "default": {},
        "no_room": {"CLIQUE_CACHE_BYTES": 0},
        "one_entry": {"CLIQUE_CACHE_BYTES": 150_000, "CLIQUE_CACHE_ENTRY_BYTES": 100_000},
        "dropped": {"CLIQUE_CACHE_TRIAL": 1},
        "all_rests": {"CLIQUE_CACHE_TRIAL": 2},
    }

    @pytest.mark.parametrize("setting", CACHE_SETTINGS)
    @pytest.mark.parametrize("name", REPEATING)
    def test_cached_walk_vs_set_enumeration(self, monkeypatch, name, setting):
        for const, value in self.CACHE_SETTINGS[setting].items():
            monkeypatch.setattr(graphs, const, value)
        g = self.REPEATING[name]()
        expected = clique_profile_by_sets(g, 6)
        for r in range(7):
            assert _clique_profile(g.rows, r, DEFAULT_CLIQUE_WORK_LIMIT) == expected[: r + 1], r
        # Steps are charged whether or not the cache answers.
        steps = sum(expected[1:6])
        assert _clique_profile(g.rows, 6, steps) == expected
        with pytest.raises(WorkLimitExceeded):
            _clique_profile(g.rows, 6, steps - 1)

    @pytest.mark.parametrize("r", [30, 1050])
    def test_deep_clique_is_refused_not_recursed(self, r):
        g = complete_graph(1100)
        start = time.perf_counter()
        with pytest.raises(WorkLimitExceeded):
            count_cliques(g, r)
        assert time.perf_counter() - start < 5


def brute_disjoint_tuples(members, k):
    """Independent oracle: tuples of at most k pairwise disjoint members, by enumeration."""
    total = 0
    for j in range(min(k, len(members)) + 1):
        for combo in itertools.combinations(members, j):
            total += all(a & b == 0 for a, b in itertools.combinations(combo, 2))
    return total


class TestCountDisjointTuplesAsCliques:
    @pytest.mark.parametrize(
        "n,masks,k",
        [
            (3, [0, 0b001, 0b010, 0b100, 0b011], 3),  # the empty set joins every tuple
            (4, [0, 0b0011, 0b1100, 0b0101, 0b1010, 0b1111], 2),
            (3, [0, 0b001, 0b110], 7),  # k > m: every disjoint subfamily counts
            (5, [0b00001, 0b00110, 0b11000, 0b00011], 9),
        ],
    )
    def test_special_cases_vs_enumeration(self, n, masks, k):
        fam = make_family(n, masks)
        assert count_disjoint_tuples(fam, k) == brute_disjoint_tuples(fam.members, k)

    def test_k_at_most_one_at_m_65535(self):
        fam = canonical_generator(16, 1)  # m = 65535: the graph would cost 2.1e9 pair tests
        start = time.perf_counter()
        counts = [count_disjoint_tuples(fam, k) for k in (0, 1)]
        assert time.perf_counter() - start < 0.5
        assert counts == [brute_disjoint_tuples(fam.members, k) for k in (0, 1)] == [1, 65536]

    def test_power_set_of_10_at_k_4(self):
        # A disjoint s-tuple of nonempty subsets of [10] is a partition of [11]
        # into s + 1 blocks: 1 + S(11,2) + S(11,3) + S(11,4) + S(11,5).
        fam = make_family(10, range(1, 1 << 10))
        assert count_disjoint_tuples(fam, 4) == 1 + 1023 + 28501 + 145750 + 246730 == 422005

    def test_pair_tests_are_charged_first(self, monkeypatch):
        # The pairs, then the walk's one step per member: at k = 2 as at every k >= 3.
        fam = canonical_generator(8, 2)
        pairs = fam.m * (fam.m - 1) // 2
        expected = brute_disjoint_tuples(fam.members, 2)
        monkeypatch.setattr(graphs, "DEFAULT_CLIQUE_WORK_LIMIT", pairs + fam.m)
        assert count_disjoint_tuples(fam, 2) == expected
        monkeypatch.setattr(graphs, "DEFAULT_CLIQUE_WORK_LIMIT", pairs + fam.m - 1)
        with pytest.raises(WorkLimitExceeded):
            count_disjoint_tuples(fam, 2)
        monkeypatch.setattr(graphs, "DEFAULT_CLIQUE_WORK_LIMIT", pairs - 1)
        monkeypatch.setattr(graphs, "disjointness_graph", None)  # refused before any graph
        with pytest.raises(WorkLimitExceeded):
            count_disjoint_tuples(fam, 2)


class TestCliqueDensity:
    def test_complete_graph(self):
        k5 = graph_from_edges(5, itertools.combinations(range(5), 2))
        assert clique_density(k5, 3) == 1

    def test_edgeless_graph(self):
        assert clique_density(Graph((0, 0, 0)), 2) == 0

    def test_kneser_density_value(self):
        g = disjointness_graph(canonical_generator(10, 2))
        assert clique_density(g, 2) == Fraction(g.edge_count(), comb(g.m, 2))

    def test_too_few_vertices(self):
        with pytest.raises(GensetError):
            clique_density(Graph((0,)), 2)

    def test_known_count_is_not_recounted(self):
        g = turan_blowup_graph(3, 2)
        assert clique_density(g, 3, count=8) == clique_density(g, 3) == Fraction(8, 20)


class TestTuranEta:
    def test_values(self):
        assert turan_eta(2, 2) == Fraction(1, 2)
        assert turan_eta(3, 3) == Fraction(2, 9)
        for s in range(1, 8):
            assert turan_eta(1, s) == 1

    def test_r_above_s_rejected(self):
        with pytest.raises(GensetError):
            turan_eta(3, 2)

    def test_blowup_density_approaches_eta(self):
        for s in range(1, 5):
            for r in range(1, s + 1):
                exact = Fraction(turan_clique_closed_form(s, 50, r), comb(50 * s, r))
                assert abs(exact - turan_eta(r, s)) < Fraction(2, 100)

    def test_product_of_the_falling_terms(self):
        for s in range(1, 30):
            for r in range(1, s + 1):
                assert turan_eta(r, s) == prod(Fraction(s - i, s) for i in range(r))


class TestSizedBeforeBuilt:
    """A count or a density is refused from a proven size before it is built."""

    def test_never_refused_when_printable(self):
        # At the smallest digit limit Python allows, whatever the sizing refuses
        # has a numerator, denominator or count past that limit.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            refused = 0
            for r in range(2, 5001, 97):
                for s in (r, r + 1, 2 * r, 5000):
                    for T in (1, 2, 3, 1000):
                        try:
                            turan_clique_closed_form(s, T, r)
                        except CapExceeded:
                            refused += 1
                            assert comb(s, r) * T**r >= 10**640, (s, T, r)
                    try:
                        turan_eta(r, s)
                    except CapExceeded:
                        refused += 1
                        assert Fraction(perm(s, r), s**r).denominator >= 10**640, (r, s)
            assert refused > 50
        finally:
            sys.set_int_max_str_digits(limit)

    def test_eta_size_never_exceeds_the_reduced_denominator(self, monkeypatch):
        # Every s < 120 with every r, and powers of two and prime powers.
        sized = []
        monkeypatch.setattr(graphs, "refuse_past_digit_limit", sized.append)
        pairs = [(r, s) for s in range(1, 120) for r in range(1, s + 1)]
        pairs += [(r, s) for s in (256, 729, 1024, 2592, 3125, 4096) for r in range(1, s + 1, 7)]
        gcd_wins = 0
        for r, s in pairs:
            den = turan_eta(r, s).denominator
            low = sized.pop()
            assert low < 1 or log2(den) >= low, (r, s)
            gcd_wins += low > Fraction(5 * r * (r - 1), 7 * s)
        assert gcd_wins > 500  # 683 pairs where the gcd bound is the larger


class TestTuranBlowupGraph:
    def test_two_parts_of_one(self):
        g = turan_blowup_graph(2, 1)
        assert g.m == 2 and g.edge_count() == 1

    def test_3_2(self):
        g = turan_blowup_graph(3, 2)
        assert g.m == 6 and g.edge_count() == 12

    def test_edge_count_closed_form(self):
        for s in range(1, 6):
            for T in range(1, 5):
                assert turan_blowup_graph(s, T).edge_count() == comb(s, 2) * T**2


class TestFindBlowup:
    def test_turan_graph_is_its_own_blowup(self):
        classes = find_blowup(turan_blowup_graph(3, 2), 3, 2)
        assert classes is not None
        assert sorted(itertools.chain.from_iterable(classes)) == list(range(6))

    def test_five_cycle_has_no_2_2_blowup(self):
        c5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert find_blowup(c5, 2, 2) is None

    def test_a2_t1_is_an_edge(self):
        c5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert find_blowup(c5, 2, 1) is not None
        assert find_blowup(Graph((0, 0, 0)), 2, 1) is None

    def test_cross_edges_verified_independently(self):
        g = random_graph(12, 0.8, seed=7)
        classes = find_blowup(g, 3, 2)
        if classes is not None:
            for ca, cb in itertools.combinations(classes, 2):
                for u in ca:
                    for v in cb:
                        assert g.rows[u] >> v & 1

    def test_intra_class_edges_are_ignored(self):
        # K4 contains a 2+2 blow-up even though each class is internally joined.
        k4 = graph_from_edges(4, itertools.combinations(range(4), 2))
        assert find_blowup(k4, 2, 2) is not None

    def test_vertex_cap(self, monkeypatch):
        monkeypatch.setattr(graphs, "DEFAULT_BLOWUP_CAP", 5)
        with pytest.raises(CapExceeded):
            find_blowup(turan_blowup_graph(3, 2), 2, 2)

    def test_work_limit_is_the_step_count(self, monkeypatch):
        # K_{32,32} has no triangle, so a = 3, t = 2 tries 248,032 classes of 3 steps each.
        k32 = turan_blowup_graph(2, 32)
        assert find_blowup(k32, 3, 2) is None
        monkeypatch.setattr(graphs, "DEFAULT_BLOWUP_WORK_LIMIT", 744_095)
        with pytest.raises(WorkLimitExceeded):
            find_blowup(k32, 3, 2)


class TestErdosMaxCheck:
    def test_mantel_on_5(self):
        rep = erdos_max_check(5, 2, 2)
        assert rep.max_count == 6 == 5**2 // 4
        assert rep.attained_by_turan

    def test_mantel_on_6(self):
        rep = erdos_max_check(6, 2, 2)
        assert rep.max_count == 9
        assert rep.attained_by_turan

    def test_k4_free_triangles_on_4(self):
        rep = erdos_max_check(4, 3, 3)
        assert rep.max_count == rep.turan_count
        assert rep.attained_by_turan

    def test_max_graph_is_forbidden_free_and_attains_max(self):
        rep = erdos_max_check(5, 2, 2)
        assert count_cliques(rep.max_graph, 3) == 0
        assert rep.max_graph.edge_count() == rep.max_count

    @pytest.mark.parametrize("s", [4, 5])
    def test_general_branches_up_to_6(self, s):
        # s >= 4 tests K_{s+1} by a clique count, and r >= 4 counts the gained
        # cliques by one; neither has a closed-form shortcut. At l = 4 the
        # last edge of the one K_4 has exactly two common neighbors.
        for l in range(4, 7):
            for r in range(2, s + 1):
                rep = erdos_max_check(l, s, r)
                assert rep.attained_by_turan, (l, s, r)
                assert count_cliques(rep.max_graph, r) == rep.max_count
                assert count_cliques(rep.max_graph, s + 1) == 0

    def test_one_cliques_are_the_vertices(self):
        for s in range(1, 4):
            for l in range(1, 6):
                rep = erdos_max_check(l, s, 1)
                assert rep.max_count == rep.turan_count == l, (l, s)

    def test_l_cap(self):
        with pytest.raises(CapExceeded):
            erdos_max_check(8, 2, 2)


class TestDenseSubsetFraction:
    def test_complete_graph_fraction_one(self):
        k6 = graph_from_edges(6, itertools.combinations(range(6), 2))
        res = dense_subset_fraction(k6, 4, 2, Fraction(1))
        assert res.exact and res.value == 1

    def test_edgeless_graph_fraction_zero(self):
        g = Graph((0,) * 6)
        res = dense_subset_fraction(g, 4, 2, Fraction(1, 100))
        assert res.exact and res.value == 0

    def test_exact_mode_counts_match_direct_enumeration(self):
        g = random_graph(9, 0.6, seed=3)
        threshold = Fraction(1, 2)
        res = dense_subset_fraction(g, 5, 2, threshold)
        direct = 0
        for combo in itertools.combinations(range(9), 5):
            edges = sum(
                1 for u, v in itertools.combinations(combo, 2) if g.rows[u] >> v & 1
            )
            if Fraction(edges, comb(5, 2)) >= threshold:
                direct += 1
        assert res.total == comb(9, 5) and res.value == Fraction(direct, res.total)

    @pytest.mark.parametrize("seed", range(5))
    def test_double_counting_inequality(self, seed):
        # A graph with r-clique density eta + eps must have at least
        # (eps/2) C(m, l) dense l-subsets at threshold eta + eps/2.
        r = s = 2
        g = random_graph(12, 0.75, seed=seed)
        density = clique_density(g, r)
        eta = turan_eta(r, s)
        if density <= eta:
            pytest.skip("sampled graph not dense enough for the hypothesis")
        eps = density - eta
        res = dense_subset_fraction(g, 6, r, eta + eps / 2)
        assert res.value >= eps / 2

    def test_sampling_reproducible(self):
        g = random_graph(12, 0.5, seed=11)
        a = dense_subset_fraction(g, 5, 2, Fraction(1, 2), sample=500, seed=99)
        b = dense_subset_fraction(g, 5, 2, Fraction(1, 2), sample=500, seed=99)
        assert a.value == b.value and a.total == 500 and not a.exact

    def test_sampling_requires_seed(self):
        g = random_graph(8, 0.5, seed=0)
        with pytest.raises(GensetError):
            dense_subset_fraction(g, 4, 2, Fraction(1, 2), sample=10)

    def test_one_work_limit_for_all_subsets(self, monkeypatch):
        # Each K_6 walk at r = 3 takes 6 + 15 = 21 steps, under the limit;
        # the 28 subsets of K_8 together take 588.
        monkeypatch.setattr(graphs, "DEFAULT_CLIQUE_WORK_LIMIT", 500)
        with pytest.raises(WorkLimitExceeded):
            dense_subset_fraction(turan_blowup_graph(8, 1), 6, 3, Fraction(1, 2))
        monkeypatch.setattr(graphs, "DEFAULT_CLIQUE_WORK_LIMIT", 588)
        assert dense_subset_fraction(turan_blowup_graph(8, 1), 6, 3, Fraction(1, 2)).value == 1

    def test_exact_budget(self):
        g = random_graph(30, 0.5, seed=0)  # C(30, 15) = 155,117,520 subsets
        with pytest.raises(CapExceeded):
            dense_subset_fraction(g, 15, 2, Fraction(1, 2))


class TestGraphFileFormat:
    def test_round_trip(self):
        g = random_graph(7, 0.4, seed=5)
        assert parse_graph(format_graph(g)) == g

    def test_bad_header(self):
        from genset import FamilyFormatError

        with pytest.raises(FamilyFormatError):
            parse_graph("0 1\n")

    @pytest.mark.parametrize("text,message", [
        ("edges=3\n", "line 1: expected vertices=<int>, got 'edges=3'"),
        ("\nvertices = 3.5\n", "line 2: bad value '3.5' for vertices"),
    ], ids=["wrong-key", "bad-value"])
    def test_header_error_message(self, text, message):
        from genset import FamilyFormatError

        with pytest.raises(FamilyFormatError) as info:
            parse_graph(text)
        assert str(info.value) == message

    def test_bad_edge(self):
        from genset import FamilyFormatError

        with pytest.raises(FamilyFormatError):
            parse_graph("vertices=2\n0 5\n")
