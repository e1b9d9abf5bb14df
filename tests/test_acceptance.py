"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import comb

from genset import (
    canonical_generator,
    canonical_partition,
    canonical_size,
    count_cliques,
    count_disjoint_tuples,
    disjointness_graph,
    erdos_max_check,
    find_blowup,
    format_family,
    graph_from_edges,
    is_k_generator,
    make_family,
    min_generator_size,
    small_union_probability,
    trivial_lower_bound,
    turan_blowup_graph,
    turan_clique_closed_form,
    turan_eta,
    union_bound_check,
)
from genset.families import SetFamily
from genset.graphs import format_graph


def report(criterion, label, ok):
    print(f"ACCEPTANCE {criterion:>2} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {criterion}: {label}"


def test_criterion_01_canonical_sizes():
    ok = True
    for n in range(1, 25):
        for k in range(1, n + 1):
            by_classes = sum((1 << cls.bit_count()) - 1 for cls in canonical_partition(n, k))
            ok &= canonical_size(n, k) == by_classes
            if n % k == 0:
                ok &= canonical_size(n, k) == k * (2 ** (n // k) - 1)
            if by_classes <= 20_000:  # construction cross-check where cheap
                ok &= canonical_generator(n, k).m == by_classes
    report(1, "canonical generator sizes, 1 <= k <= n <= 24", ok)


def test_criterion_02_canonical_is_generator():
    ok = True
    for k in (1, 2, 3, 4):
        for n in range(k, 21):
            ok &= is_k_generator(canonical_generator(n, k), k).holds
    report(2, "canonical generator passes the k-generator check, n <= 20, k <= 4", ok)


def test_criterion_03_conjecture_small_cases():
    expected = {
        (2, 2): 2, (3, 2): 4, (4, 2): 6, (5, 2): 10,
        (3, 3): 3, (4, 3): 5, (4, 4): 4, (5, 3): None,
    }
    ok = True
    for (n, k), value in expected.items():
        rep = min_generator_size(n, k)
        ok &= rep.conclusive and rep.conjecture_holds
        ok &= rep.minimum == canonical_size(n, k)
        if value is not None:
            ok &= rep.minimum == value
        else:  # (5,3): value produced by the search, cross-checked against bounds
            ok &= trivial_lower_bound(n, k) <= rep.minimum <= canonical_size(n, k)
        ok &= is_k_generator(rep.witness, k).holds and rep.witness.m == rep.minimum
    report(3, "minimum generator size equals canonical size on all 8 small cases", ok)


def test_criterion_04_trivial_bound():
    ok = all(trivial_lower_bound(n, 1) == 2**n - 1 for n in range(1, 11))
    ok &= trivial_lower_bound(3, 2) == 4
    for k in range(1, 25):
        vals = [trivial_lower_bound(n, k) for n in range(k, 25)]
        ok &= vals == sorted(vals)
    for n in range(1, 25):
        vals = [trivial_lower_bound(n, k) for k in range(1, n + 1)]
        ok &= vals == sorted(vals, reverse=True)
    report(4, "counting lower bound values and monotonicity", ok)


def test_criterion_05_turan_cross_check():
    ok = True
    for s in range(1, 6):
        for T in range(1, 7):
            g = turan_blowup_graph(s, T)
            for r in range(1, s + 1):
                ok &= count_cliques(g, r) == turan_clique_closed_form(s, T, r)
    for s in range(1, 5):
        for r in range(1, s + 1):
            density = Fraction(turan_clique_closed_form(s, 50, r), comb(50 * s, r))
            ok &= abs(density - turan_eta(r, s)) < Fraction(2, 100)
    report(5, "Turán clique counts match C(s,r)T^r; T=50 densities within 0.02 of eta", ok)


# Labeled K_{s+1}-free graphs on l = 0..7 vertices, the graphs erdos_max_check
# enumerates; for s = 2 the triangle-free ones, OEIS A006785.
K_FREE_GRAPHS = {
    2: [1, 1, 2, 7, 41, 388, 5789, 133501],
    3: [1, 1, 2, 8, 63, 958, 27626, 1486597],
}


def test_criterion_06_erdos_maximization():
    ok = True
    for s, r in ((2, 2), (3, 2), (3, 3)):
        for l in range(r, 8):
            rep = erdos_max_check(l, s, r)
            ok &= rep.attained_by_turan
            ok &= rep.graphs_enumerated == K_FREE_GRAPHS[s][l]
            if (s, r) == (2, 2):
                ok &= rep.max_count == l * l // 4
    report(6, "Turán graph attains the max K_r count over K_{s+1}-free graphs, l <= 7", ok)


def test_criterion_07_kneser_density_k2():
    g = disjointness_graph(canonical_generator(20, 2))
    edges = g.edge_count()
    q = 10
    closed_form = (3**q - 2 ** (q + 1) + 1) + (2**q - 1) ** 2
    ok = edges == 1_103_531 == closed_form
    density = Fraction(edges, comb(g.m, 2))
    ok &= density == Fraction(1_103_531, 2_092_035)
    ok &= abs(float(density) - 0.5275) < 2e-4
    report(7, "disjointness graph of canonical (20,2): 1,103,531 edges, density 1103531/2092035", ok)


def test_criterion_08_kneser_density_k3():
    fam = canonical_generator(12, 3)
    g = disjointness_graph(fam)
    masks = fam.members
    oracle = 0
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if masks[i] & masks[j]:
                continue
            for l in range(j + 1, len(masks)):
                if masks[i] & masks[l] == 0 and masks[j] & masks[l] == 0:
                    oracle += 1
    counted = count_cliques(g, 3)
    ok = counted == oracle == 5655
    report(8, "K_3 count in disjointness graph of canonical (12,3) matches triple-loop oracle", ok)


def test_criterion_09_coverage_inequality():
    ok = True
    corpus = []
    for k in (1, 2, 3):
        for n in range(k, 17):
            corpus.append((canonical_generator(n, k), k))
    corpus.append((make_family(3, [0b001, 0b010, 0b100, 0b011, 0b110, 0b101, 0b111]), 2))
    corpus.append((make_family(2, [0b01, 0b10]), 2))
    for fam, k in corpus:
        assert is_k_generator(fam, k).holds
        ok &= count_disjoint_tuples(fam, k) >= 1 << fam.n
    report(9, "every verified k-generator has >= 2^n disjoint <=k-tuples", ok)


def test_criterion_10_lemma4_exact_check():
    exact = small_union_probability(canonical_generator(4, 2), 2, 2)
    ok = exact.exact and exact.value == Fraction(2, 3)
    fam9 = canonical_generator(9, 2)
    for size, t in ((32, 3), (32, 2), (16, 3)):
        fam = make_family(9, fam9.members[:size])
        rep = union_bound_check(fam, 2, t=t)
        if rep.in_regime:
            ok &= rep.probability.exact and rep.bound_holds
    sampled = small_union_probability(
        canonical_generator(4, 2), 2, 2, seed=20260823, trials=100_000
    )
    rerun = small_union_probability(
        canonical_generator(4, 2), 2, 2, seed=20260823, trials=100_000
    )
    ok &= sampled.value == rerun.value
    ok &= abs(sampled.value - 2 / 3) <= 3 * sampled.std_error
    report(10, "small-union probability 2/3 exactly; in-regime bound holds; sampling within 3 SE", ok)


def test_criterion_11_checker_oracle_equivalence():
    def brute_is_generator(fam, k):
        reach = {0}
        for j in range(1, k + 1):
            for combo in itertools.combinations(fam.members, j):
                union, disj = 0, True
                for a in combo:
                    if a & union:
                        disj = False
                        break
                    union |= a
                if disj:
                    reach.add(union)
        return len(reach) == 1 << fam.n

    ok = True
    for n in range(1, 5):
        pool = list(range(1, 1 << n))  # families over nonempty subsets
        for m in range(0, 7):
            for combo in itertools.combinations(pool, m):
                fam = SetFamily(n, combo)
                for k in (1, 2, 3):
                    ok &= is_k_generator(fam, k).holds == brute_is_generator(fam, k)
    report(11, "checker agrees with brute force on all families, n <= 4, m <= 6, k <= 3", ok)


def test_criterion_12_blowup_finder():
    found = find_blowup(turan_blowup_graph(3, 2), 3, 2)
    ok = found is not None and len(found) == 3 and all(len(c) == 2 for c in found)
    c5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    ok &= find_blowup(c5, 2, 2) is None
    report(12, "blow-up finder succeeds on K_3(2) and exhausts on C_5", ok)


def test_criterion_13_cli_determinism(tmp_path):
    fam_path = tmp_path / "fam.txt"
    fam_path.write_text(format_family(canonical_generator(4, 2)))
    graph_path = tmp_path / "t32.txt"
    graph_path.write_text(format_graph(turan_blowup_graph(3, 2)))
    invocations = [
        ("construct", "-n", "5", "-k", "2"),
        ("check", "--family", str(fam_path), "-k", "2", "--decompose", "1,3,4"),
        ("search-min", "--n-max", "4", "--k-max", "2"),
        ("graph", "--family", str(fam_path), "--count-cliques", "2", "--density", "2"),
        ("turan", "eta", "-r", "2", "-s", "2"),
        ("turan", "erdos-max", "-l", "5", "-s", "2", "-r", "2"),
        ("blowup", "--graph", str(graph_path), "-a", "3", "-t", "2"),
        ("bounds", "trivial", "-n", "3", "-k", "2"),
        ("bounds", "lemma4", "-n", "10", "-k", "2", "-m", "32", "-t", "3"),
        ("bounds", "coverage", "--family", str(fam_path), "-k", "2"),
        ("bounds", "table", "--n-max", "8", "--k-max", "3"),
        ("experiment", "union-prob", "--family", str(fam_path), "-t", "2",
         "--threshold", "2", "--sample", "10000", "--seed", "42"),
    ]
    ok = True
    for args in invocations:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "genset", "--no-meta", *args],
                capture_output=True, env=dict(os.environ),
            )
            for _ in range(2)
        ]
        ok &= runs[0].stdout == runs[1].stdout and runs[0].returncode == runs[1].returncode
    report(13, "every CLI invocation is byte-identical across reruns with --no-meta", ok)
