import functools
import itertools
import random
import subprocess
import sys

import pytest

from genset import (
    GensetError,
    canonical_size,
    count_disjoint_tuples,
    is_k_generator,
    min_generator_size,
    trivial_lower_bound,
    verify_conjecture_range,
)
from genset import search
from genset.families import SetFamily
from genset.generate import GeneratorVerdict, _disjoint_positions, add_member


@functools.lru_cache(maxsize=None)
def oracle_minimum(n, k):
    """Exhaustive minimum over families guaranteed to contain all singletons.

    A singleton's only nonempty subset is itself, so every k-generator
    contains all n singletons; only the extra members need enumerating.
    """
    singles = [1 << i for i in range(n)]
    others = [x for x in range(1, 1 << n) if x.bit_count() > 1]
    for size in range(n, canonical_size(n, k) + 1):
        for combo in itertools.combinations(others, size - n):
            fam = SetFamily(n, tuple(sorted(singles + list(combo))))
            if is_k_generator(fam, k).holds:
                return size
    raise AssertionError("canonical generator should have been found")


def true_minimum(n, k):
    """M(n, k) for n <= 6: 0 at n = 0, by the oracle to n = 5, and at n = 6 the
    canonical size, which the deepening search certifies there."""
    k = min(k, n)
    if n == 0:
        return 0
    if k == 1:
        return (1 << n) - 1
    return oracle_minimum(n, k) if n <= 5 else canonical_size(n, k)


def generators_up_to(n, k, size):
    """Every k-generator of P[n] of at most size members, as sorted tuples.

    Every k-generator holds the n singletons, so only the other members are
    enumerated, each family once, its table grown one member at a time."""
    full = (1 << (1 << n)) - 1
    others = [x for x in range(1, 1 << n) if x & x - 1]
    out = []

    def walk(layers, fam, start):
        if layers[-1] == full:
            out.append(tuple(sorted(fam)))
        if len(fam) < size:
            for j in range(start, len(others)):
                child = layers.copy()
                add_member(child, others[j], n, n, 0)
                walk(child, fam + [others[j]], j + 1)

    layers = [1] * (k + 1)
    for i in range(n):
        add_member(layers, 1 << i, n, n, 0)
    walk(layers, [1 << i for i in range(n)], 0)
    return out


def degree(members, i):
    return sum(1 for h in members if h >> i & 1)


class TestMinGeneratorSize:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(2, 2, 2), (3, 2, 4), (4, 2, 6), (5, 2, 10), (3, 3, 3), (4, 3, 5), (4, 4, 4)],
    )
    def test_known_minimums(self, n, k, expected):
        report = min_generator_size(n, k)
        assert report.conclusive
        assert report.minimum == expected

    def test_2_2_witness_is_two_singletons(self):
        report = min_generator_size(2, 2)
        assert set(report.witness.members) == {0b01, 0b10}

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 6) for k in range(2, n + 1)])
    def test_agrees_with_exhaustive_oracle(self, n, k):
        assert min_generator_size(n, k).minimum == oracle_minimum(n, k)

    def test_report_invariants(self):
        report = min_generator_size(5, 2)
        assert trivial_lower_bound(5, 2) <= report.minimum <= canonical_size(5, 2)
        assert is_k_generator(report.witness, 2).holds
        assert report.witness.m == report.minimum
        assert report.conjecture_holds == (report.minimum >= canonical_size(5, 2))

    def test_deterministic(self):
        a = min_generator_size(5, 2)
        b = min_generator_size(5, 2)
        assert (a.minimum, a.nodes_explored, a.witness) == (b.minimum, b.nodes_explored, b.witness)

    def test_budget_exhaustion_is_inconclusive_not_an_error(self):
        report = min_generator_size(5, 2, node_budget=3)
        assert not report.conclusive
        assert report.minimum is None
        assert report.lower_bound <= report.upper_bound == canonical_size(5, 2)

    @pytest.mark.parametrize("found", [None, [1, 2, 4, 8, 15]])
    def test_rejected_witness_raises(self, monkeypatch, found):
        # found=None certifies the canonical generator; a list stands in for a
        # smaller witness returned by the deepening search.
        monkeypatch.setattr(search, "is_k_generator", lambda fam, k: GeneratorVerdict(False, 0))
        if found is not None:
            monkeypatch.setattr(search._Searcher, "find", lambda self, target: found)
        with pytest.raises(AssertionError, match="search witness is not a 2-generator"):
            min_generator_size(4, 2)

    def test_witness_recheck_survives_optimize_flag(self):
        code = (
            "from genset import search\n"
            "from genset.generate import GeneratorVerdict\n"
            "search.is_k_generator = lambda fam, k: GeneratorVerdict(False, 0)\n"
            "search.min_generator_size(4, 2)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 1
        assert "search witness is not a 2-generator" in proc.stderr

    @pytest.mark.parametrize(
        "n,k,nodes,witness",
        [
            pytest.param(6, 2, 126, [1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 32, 40, 48, 56], id="6-2"),
            pytest.param(7, 3, 672, [1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 32, 64, 96], id="7-3"),
            pytest.param(
                8, 3, 1761, [1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 32, 40, 48, 56, 64, 128, 192],
                id="8-3",
            ),
            pytest.param(
                9, 4, 20638, [1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 32, 64, 96, 128, 256, 384],
                id="9-4",
            ),
            # M(n-1, k) + 2 is the canonical size: no target is searched.
            pytest.param(7, 4, 0, [1, 2, 3, 4, 8, 12, 16, 32, 48, 64], id="7-4"),
            pytest.param(8, 5, 0, [1, 2, 3, 4, 8, 12, 16, 32, 48, 64, 128], id="8-5"),
        ],
    )
    def test_search_tree_is_pinned(self, n, k, nodes, witness):
        # The node count, the chain (k+1, k), ..., (n-1, k) included, and the
        # first witness found fix the branching order.
        report = min_generator_size(n, k)
        assert report.nodes_explored == nodes
        assert list(report.witness.members) == witness
        # The chain proved M(n-1, k), the canonical size there.
        assert report.restriction_bound == canonical_size(n - 1, k)

    @pytest.mark.parametrize(
        "n,k",
        [(n, k) for n in range(1, 6) for k in range(1, n + 1)]
        + [(n, k) for n in (6, 7) for k in range(3, n + 1)],
    )
    def test_find_is_exact_at_the_minimum(self, n, k):
        # Iterative deepening never asks for the canonical size (the canonical
        # generator is the witness there), and every known minimum is the
        # canonical size, so a prune that cuts every real generator would still
        # report the conjecture as holding. Ask at the minimum and one below.
        # At k = 1 every nonempty mask must itself be a member. Past n = 5 the
        # exhaustive oracle is too slow; m is the canonical size, the minimum
        # the deepening search certifies in each of these cases. Twin classes
        # of a non-empty signature occur there.
        # The restriction bound is the true M(n-1, k), so every element's
        # degree is capped as tightly as the prune allows.
        m = true_minimum(n, k) if n <= 5 else canonical_size(n, k)
        searcher = search._Searcher(
            n, k, node_budget=10**7, deadline=float("inf"),
            restriction_bound=true_minimum(n - 1, k),
        )
        found = searcher.find(m)
        assert found is not None and len(found) == m
        assert is_k_generator(SetFamily(n, tuple(sorted(found))), k).holds
        assert searcher.find(m - 1) is None

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 6) for k in range(2, n + 1)])
    def test_cut_drops_no_family_the_oracle_finds(self, monkeypatch, n, k):
        # Let the search run on past each generator it reaches, recording it,
        # at the minimum and one above. The leaves with the cut at the true
        # M(n-1, k) are the leaves with no cut (L = 0 caps a degree at the
        # target, which no member count exceeds), and every generator of at
        # most that many members that the exhaustive oracle finds holds a
        # leaf, up to a permutation of [n]: the cut and the twin-class rule
        # together drop no orbit of completions.
        dfs = search._Searcher._dfs
        leaves = set()

        def recording(self, *state):
            found = dfs(self, *state)
            if found is not None:
                leaves.add(tuple(sorted(found)))
            return None

        monkeypatch.setattr(search._Searcher, "_dfs", recording)

        def leaves_at(target, bound):
            leaves.clear()
            searcher = search._Searcher(n, k, 10**7, float("inf"), restriction_bound=bound)
            assert searcher.find(target) is None
            return set(leaves)

        perms = list(itertools.permutations(range(n)))

        def images(fam):
            return {
                frozenset(sum(1 << p[e] for e in range(n) if h >> e & 1) for h in fam)
                for p in perms
            }

        m = true_minimum(n, k)
        for target in (m, m + 1):
            cut = leaves_at(target, true_minimum(n - 1, k))
            assert cut and cut == leaves_at(target, 0)
            seen = set().union(*map(images, cut))
            for fam in generators_up_to(n, k, target):
                # A leaf has at least m members, so it is fam or fam less one member.
                subs = [fam] + [fam[:i] + fam[i + 1:] for i in range(len(fam))] * (len(fam) > m)
                assert any(frozenset(sub) in seen for sub in subs), fam

    @pytest.mark.parametrize("n", range(1, 5))
    def test_degree_premise_by_brute_force(self, n):
        # The members of a k-generator that avoid element i generate
        # P([n] minus i), so deg(i) <= |G| - M(n-1, k): checked on every
        # k-generator of P[n], each family of subsets of [n] once.
        for k in range(1, n + 1):
            gens = generators_up_to(n, k, (1 << n) - 1)
            assert len(gens) >= 1
            for fam in gens:
                assert max(degree(fam, i) for i in range(n)) <= len(fam) - true_minimum(n - 1, k)

    @pytest.mark.parametrize("n,k", [(4, 2), (7, 4), (8, 5), (10, 6), (12, 6)])
    def test_no_search_where_the_recursive_bound_meets_the_canonical_size(self, n, k):
        # M(n, k) >= M(n-1, k) + 2 for k < n: an element of a member of two or
        # more elements also lies in its own singleton.
        report = min_generator_size(n, k)
        assert report.nodes_explored == 0 and report.conclusive
        assert report.minimum == report.restriction_bound + 2 == canonical_size(n, k)

    @pytest.mark.parametrize("n,k,budget", [(9, 4, 25_000), (10, 4, 60_000)])
    def test_conclusive_within_a_node_budget(self, n, k, budget):
        # Before the restriction prune, (9,4) was inconclusive at 600 s and
        # (10,4) at 20 s.
        report = min_generator_size(n, k, node_budget=budget)
        assert report.conclusive
        assert report.minimum == canonical_size(n, k)

    def test_chain_bound_is_proved_when_the_chain_runs_out(self):
        # (8,3)'s chain runs out of nodes in (7,3), after target 11 found
        # nothing. M(7,3) >= 12 is still proved, so (8,3) starts at 14, above
        # its counting bound 12, and no node is spent past the budget's first.
        inner = min_generator_size(7, 3, node_budget=100)
        report = min_generator_size(8, 3, node_budget=100)
        assert not inner.conclusive and not report.conclusive
        assert report.nodes_explored == inner.nodes_explored == 101
        assert report.restriction_bound == inner.lower_bound == 12
        assert report.lower_bound == 14 > trivial_lower_bound(8, 3) == 12

    def test_9_5_is_conclusive_within_a_node_budget(self):
        # The budget is counted in nodes, not seconds, so this is deterministic.
        report = min_generator_size(9, 5, node_budget=250_000)
        assert report.conclusive
        assert report.minimum == canonical_size(9, 5) == 13

    def test_rejects_bad_params(self):
        with pytest.raises(GensetError):
            min_generator_size(2, 3)


class TestVerifyConjectureRange:
    def test_sweep_up_to_4_2(self):
        reports = verify_conjecture_range(4, 2)
        assert len(reports) == 4 + 3
        assert all(r.conclusive and r.conjecture_holds for r in reports)

    def test_shared_candidate_memo_changes_no_search_tree(self):
        # The sweep's cases share one memo of canonical candidates; each
        # separate search here starts from an empty one.
        # Given the bound the sweep passed it, a search runs no chain.
        search._canonical_candidates.cache_clear()
        swept = verify_conjecture_range(6, 4)
        for rep in swept:
            search._canonical_candidates.cache_clear()
            alone = min_generator_size(rep.n, rep.k, restriction_bound=rep.restriction_bound)
            assert (alone.nodes_explored, alone.witness) == (rep.nodes_explored, rep.witness)
        assert len(swept) == 6 + 5 + 4 + 3

    def test_each_case_takes_the_bound_proved_below_it(self):
        reports = verify_conjecture_range(6, 3)
        for before, rep in zip(reports, reports[1:]):
            if rep.k == before.k and rep.n >= rep.k + 2:
                assert rep.restriction_bound == before.lower_bound
            else:
                assert rep.restriction_bound == rep.n - 1
        # A single search proves the same bound by its own chain.
        assert min_generator_size(6, 3).restriction_bound == reports[-1].restriction_bound == 7

    def test_inconclusive_entries_propagate(self):
        reports = verify_conjecture_range(5, 2, node_budget=3)
        assert any(not r.conclusive for r in reports)
        assert len(reports) == 5 + 4


def twin_classes(n, chosen):
    """The classes of two or more elements of [n] that lie in the same chosen non-singletons."""
    by_signature = {}
    for e in range(n):
        signature = tuple(h for h in chosen if h & h - 1 and h >> e & 1)
        by_signature[signature] = by_signature.get(signature, 0) | 1 << e
    return {c for c in by_signature.values() if c & c - 1}


def disjoint_pairs(chosen):
    return sum(1 for a, b in itertools.combinations(chosen, 2) if not a & b)


class TestSearchInvariants:
    @pytest.mark.parametrize("seed", range(12))
    def test_pair_update_is_one_popcount_past_one_word(self, seed):
        # Layer 1 holds the empty set and the members, so the members missing g
        # are its bits on the positions that miss g, less the empty set. At
        # n = 8 each layer is 256 bits, past one 64-bit word.
        n, rng = 8, random.Random(seed)
        chosen = rng.sample(range(1, 1 << n), rng.randint(1, 60))
        layers, pairs = [1] * 4, 0
        for i, g in enumerate(chosen):
            more = (layers[1] & _disjoint_positions(g, n)).bit_count() - 1
            assert more == [h & g for h in chosen[:i]].count(0)
            add_member(layers, g, n, n, 0)
            pairs += more
        fam = SetFamily(n, tuple(sorted(chosen)))
        assert pairs == disjoint_pairs(chosen) == count_disjoint_tuples(fam, 2) - 1 - len(chosen)

    @pytest.mark.parametrize("n,k", [(8, 5), (8, 4), (7, 4), (7, 3)])
    def test_every_node_carries_its_pairs_and_twin_classes(self, monkeypatch, n, k):
        # Each node's D_2 and twin classes are updated per child; compare both
        # with a count and a partition made from scratch, at the minimum and
        # one below. Twin classes of a non-empty signature must show up within
        # x, or this would test only the free-element rule.
        dfs = search._Searcher._dfs
        within_x, saturated = [], []

        def checked(self, layers, chosen, skip, twins, pairs, sat):
            assert pairs == disjoint_pairs(chosen)
            assert set(twins) == twin_classes(n, chosen) and len(twins) == len(set(twins))
            # No element lies in more than cap members, and the saturated
            # ones are those in exactly cap.
            degrees = [degree(chosen, i) for i in range(n)]
            assert max(degrees, default=0) <= self.cap
            assert sat == sum(1 << i for i in range(n) if degrees[i] == self.cap)
            saturated.append(sat)
            x = search._smallest_missing(layers[-1], n) or 0
            within_x.extend(
                c & x for c in twins
                if (c & x) & (c & x) - 1 and any(h & h - 1 and h & c for h in chosen)
            )
            return dfs(self, layers, chosen, skip, twins, pairs, sat)

        monkeypatch.setattr(search._Searcher, "_dfs", checked)
        m = canonical_size(n, k)
        searcher = search._Searcher(
            n, k, node_budget=10**7, deadline=float("inf"),
            restriction_bound=canonical_size(n - 1, k),
        )
        assert searcher.find(m) is not None and searcher.find(m - 1) is None
        assert within_x and any(saturated)

    @pytest.mark.parametrize("seed", range(8))
    def test_canonical_candidates_meet_every_orbit(self, seed):
        # Moving each g & C down to the lowest bits of C & x is a permutation
        # of twins that keeps |g| and lowers the mask, so the candidates are
        # exactly the fixed points of that move, in branching order.
        rng = random.Random(seed)
        x = rng.randrange(1, 1 << 8)
        elements = [e for e in range(8) if x >> e & 1]
        rng.shuffle(elements)
        classes, start = [], 0
        while start < len(elements):
            size = rng.randint(1, 3)
            cls = sum(1 << e for e in elements[start:start + size])
            if cls & cls - 1:
                classes.append(cls)
            start += size
        got = search._canonical_candidates(x, tuple(classes))

        def lowest(g):
            for cls in classes:
                low, need = 0, (g & cls).bit_count()
                for e in range(8):
                    if need and cls >> e & 1:
                        low, need = low | 1 << e, need - 1
                g = g & ~cls | low
            return g

        subsets = [g for g in range(1, x + 1) if g & ~x == 0]
        assert got == sorted({lowest(g) for g in subsets}, key=lambda g: (-g.bit_count(), g))
