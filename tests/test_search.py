import itertools
import subprocess
import sys

import pytest

from genset import (
    GensetError,
    canonical_size,
    is_k_generator,
    min_generator_size,
    trivial_lower_bound,
    verify_conjecture_range,
)
from genset import search
from genset.families import SetFamily
from genset.generate import GeneratorVerdict


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

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (4, 3)])
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
            (6, 2, 2086, [1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 32, 40, 48, 56]),
            (7, 4, 1341, [1, 2, 3, 4, 8, 12, 16, 32, 48, 64]),
            (7, 3, 24159, [1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 32, 64, 96]),
            (8, 5, 6693, [1, 2, 3, 4, 8, 12, 16, 32, 48, 64, 128]),
        ],
    )
    def test_search_tree_is_pinned(self, n, k, nodes, witness):
        # The node count and the first witness found fix the branching order.
        report = min_generator_size(n, k)
        assert report.nodes_explored == nodes
        assert list(report.witness.members) == witness

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(1, 6) for k in range(1, n + 1)]
    )
    def test_find_is_exact_at_the_minimum(self, n, k):
        # Iterative deepening never asks for the canonical size (the canonical
        # generator is the witness there), and every known minimum is the
        # canonical size, so a prune that cuts every real generator would still
        # report the conjecture as holding. Ask at the minimum and one below.
        # At k = 1 every nonempty mask must itself be a member.
        m = (1 << n) - 1 if k == 1 else oracle_minimum(n, k)
        searcher = search._Searcher(n, k, node_budget=10**7, deadline=float("inf"))
        found = searcher.find(m)
        assert found is not None and len(found) == m
        assert is_k_generator(SetFamily(n, tuple(sorted(found))), k).holds
        assert searcher.find(m - 1) is None

    def test_rejects_bad_params(self):
        with pytest.raises(GensetError):
            min_generator_size(2, 3)


class TestVerifyConjectureRange:
    def test_sweep_up_to_4_2(self):
        reports = verify_conjecture_range(4, 2)
        assert len(reports) == 4 + 3
        assert all(r.conclusive and r.conjecture_holds for r in reports)

    def test_inconclusive_entries_propagate(self):
        reports = verify_conjecture_range(5, 2, node_budget=3)
        assert any(not r.conclusive for r in reports)
        assert len(reports) == 5 + 4
