"""The three workloads: genset invocations and the checks on their outputs.

Every expected value comes from oracle.py or from a property the method must
have, never from a saved copy of genset's output. Node counts of the search
are reported, not checked.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import inputs
import oracle


class Mismatch(Exception):
    """An output that contradicts the reference computation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    status: int  # the exit status the CLI contract prescribes for this input
    check: Callable[[str], dict]  # stdout -> counts to report; raises Mismatch

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def record(stdout: str) -> dict:
    lines = stdout.splitlines()
    expect(len(lines) == 1, f"expected one record, got {len(lines)} lines")
    return json.loads(lines[0])


def read_family(path: str) -> tuple[int, list[int]]:
    with open(path) as fh:
        header, *rows = fh.read().split()
    return int(header[2:]), [oracle.parse_mask(row) for row in rows]


def verify_inputs(workload: str, seed: int, work_dir: str) -> None:
    """The files the set-up wrote hold exactly the intended families."""
    for name, spec in inputs.FILES[workload].items():
        n, got = read_family(f"{work_dir}/{name}")
        if isinstance(spec, tuple):
            want_n, want = spec[0], oracle.canonical_members(*spec)
        else:
            want_n, want = inputs.members(spec, seed)
        expect(n == want_n and sorted(got) == sorted(want), f"{name} is not the intended family")


# --- check-wide ------------------------------------------------------------


def holds(k: int, op: str = "is_k_generator"):
    def check(stdout: str) -> dict:
        rec = record(stdout)
        expect(rec == {"op": op, "k": k, "holds": True}, f"expected {op} to hold at k={k}: {rec}")
        return {}
    return check


def lowest_of_each_class(n: int, k_classes: int, k: int):
    """canonical(n, k_classes) at k < k_classes: the smallest counterexample takes one
    element from each class, and the smallest such mask is the classes' lowest elements."""
    want = ",".join(str(oracle.elements(c)[0]) for c in oracle.canonical_classes(n, k_classes))

    def check(stdout: str) -> dict:
        rec = record(stdout)
        expect(rec == {"op": "is_k_generator", "k": k, "holds": False, "counterexample": want},
               f"expected counterexample {want}: {rec}")
        return {}
    return check


def decomposes_into_classes(n: int, k: int):
    classes = set(oracle.canonical_classes(n, k))

    def check(stdout: str) -> dict:
        verdict, dec = map(json.loads, stdout.splitlines())
        expect(verdict == {"op": "is_k_generator", "k": k, "holds": True}, f"bad verdict {verdict}")
        expect(dec["found"] and oracle.parse_mask(dec["target"]) == (1 << n) - 1, f"bad record {dec}")
        parts = [oracle.parse_mask(p) for p in dec["parts"]]
        expect(len(parts) == len(classes) and set(parts) == classes, f"parts are not the classes: {dec}")
        return {}
    return check


def smallest_counterexample(seed: int):
    members = set(inputs.random_family(seed))

    def check(stdout: str) -> dict:
        rec = record(stdout)
        expect(rec["op"] == "is_k_generator" and rec["k"] == 2 and rec["holds"] is False, f"{rec}")
        x = oracle.parse_mask(rec["counterexample"])
        expect(not oracle.union_of_two(x, members), f"{rec['counterexample']} is a union of two members")
        expect(all(oracle.union_of_two(y, members) for y in range(x)), "a smaller mask is uncovered too")
        return {}
    return check


def check_wide(seed: int) -> list[Op]:
    full22 = ",".join(str(e) for e in range(1, 23))
    return [
        Op(("check", "--family", "canon22_2.txt", "-k", "2"), 0, holds(2)),
        Op(("check", "--family", "canon24_3.txt", "-k", "3"), 0, holds(3)),
        Op(("check", "--family", "canon24_4.txt", "-k", "4"), 0, holds(4)),
        Op(("check", "--family", "canon24_3.txt", "-k", "2"), 1, lowest_of_each_class(24, 3, 2)),
        Op(("check", "--family", "canon22_2.txt", "-k", "2", "--decompose", full22), 0,
           decomposes_into_classes(22, 2)),
        Op(("check", "--family", "random20.txt", "-k", "2"), 1, smallest_counterexample(seed)),
        # Every k-generator is a k-base.
        Op(("check", "--family", "canon18_2.txt", "-k", "2", "--base"), 0, holds(2, "is_k_base")),
    ]


# --- search-certify --------------------------------------------------------

SEARCH_CASES = ((7, 3), (8, 5), (7, 4), (6, 2), (4, 2))


def certified_minimum(n: int, k: int, floor: int = 0):
    lower, canonical = oracle.counting_bound_scan(n, k), oracle.canonical_size(n, k)

    def check(stdout: str) -> dict:
        rec = record(stdout)
        expect(rec["conclusive"] is True and (rec["n"], rec["k"]) == (n, k), f"not conclusive: {rec}")
        minimum = rec["minimum"]
        witness = {oracle.parse_mask(s) for s in rec["witness"]}
        expect(len(rec["witness"]) == len(witness) == minimum, f"witness size is not {minimum}")
        expect(0 not in witness and oracle.first_uncovered(witness, n, k) is None,
               f"witness is not a {k}-generator of P[{n}]")
        expect(lower <= minimum <= canonical, f"minimum {minimum} outside [{lower}, {canonical}]")
        expect(minimum >= floor, f"minimum {minimum} below the exhaustive floor {floor}")
        expect(rec["conjecture_holds"] == (minimum >= canonical), "conjecture flag disagrees")
        return {"search.nodes": rec["nodes"]}
    return check


def search_certify(seed: int) -> list[Op]:
    # No family of 5 subsets generates P[4] with 2 disjoint parts, so its minimum is at least 6.
    expect(oracle.no_generator_of_size(4, 2, 5), "exhaustive pass found a 2-generator of size 5")
    return [
        Op(("search-min", "-n", str(n), "-k", str(k)), 0,
           certified_minimum(n, k, floor=6 if (n, k) == (4, 2) else 0))
        for n, k in SEARCH_CASES
    ]


# --- kneser-bounds ---------------------------------------------------------


def clique_counts(m: int, counts: dict[int, int]):
    """counts: r -> number of r-cliques, with r = 2 the edge count."""
    def check_r(r: int):
        def check(stdout: str) -> dict:
            rec = record(stdout)
            expect(rec["vertices"] == m and rec["edges"] == counts[2], f"bad graph size: {rec}")
            expect(rec[f"k{r}_count"] == counts[r], f"K{r} count {rec[f'k{r}_count']} != {counts[r]}")
            density = Fraction(rec[f"k{r}_density"]["rational"])
            expect(density == Fraction(counts[r], math.comb(m, r)), f"K{r} density {density}")
            return {}
        return check
    return check_r


def coverage_count(k: int):
    # An s-tuple of disjoint nonempty subsets of [10] is a partition of [11] into s + 1 blocks.
    tuples = 1 + sum(oracle.stirling2(11, s + 1) for s in range(1, k + 1))

    def check(stdout: str) -> dict:
        rec = record(stdout)
        want = {"k": k, "tuples": tuples, "two_to_n": 1024, "holds": True, "verified_generator": True}
        expect(rec == want, f"expected {want}: {rec}")
        return {}
    return check


def union_probability(n: int, k: int, t: int):
    members = sorted(oracle.canonical_members(n, k))
    m, threshold = len(members), n // (k + 1)
    prob = oracle.small_union_probability(members, t, threshold)
    analytic = oracle.analytic_union_bound(n, k, m, t)

    def check(stdout: str) -> dict:
        rec = record(stdout)
        expect(Fraction(rec["probability"]["rational"]) == prob, f"probability != {prob}: {rec}")
        expect(rec["analytic_bound"]["exact"] and Fraction(rec["analytic_bound"]["rational"]) == analytic,
               f"analytic bound != {analytic}")
        # delta > 0 exactly when m > 2^{n/(k+1)}.
        expect(rec["in_regime"] == (m > 2 ** (n // (k + 1))), "in_regime disagrees")
        expect(rec["bound_holds"] == (prob <= analytic) and rec["threshold"] == threshold, f"{rec}")
        return {}
    return check


def lemma4(n: int, k: int, m: int, t: int):
    delta, bound = oracle.lemma4_delta(n, k, m), oracle.lemma4_bound(n, k, m, t)

    def check(stdout: str) -> dict:
        rec = record(stdout)
        expect(Fraction(rec["delta"]["rational"]) == delta, f"delta != {delta}: {rec}")
        expect(rec["bound"]["exact"] and Fraction(rec["bound"]["rational"]) == bound, f"bound != {bound}")
        return {}
    return check


def bound_table(n_max: int, k_max: int):
    def check(stdout: str) -> dict:
        header, *rows = csv.reader(io.StringIO(stdout))
        expect(header == ["n", "k", "trivial_bound", "weak_constant_bound", "strong_constant_bound",
                          "canonical_size"], f"bad header {header}")
        want = [(n, k) for n in range(1, n_max + 1) for k in range(1, min(n, k_max) + 1)]
        expect([(int(r[0]), int(r[1])) for r in rows] == want, "rows are not every 1 <= k <= n")
        for n_s, k_s, trivial, weak, strong, canonical in rows:
            n, k = int(n_s), int(k_s)
            expect(int(trivial) == oracle.counting_bound_bisect(n, k), f"counting bound at {n},{k}")
            expect(int(canonical) == oracle.canonical_size(n, k), f"canonical size at {n},{k}")
            expect(math.isclose(float(weak), math.factorial(k) ** (1 / k) * 2 ** (n / k), rel_tol=1e-5)
                   and math.isclose(float(strong), k * 2 ** (n / k), rel_tol=1e-5), f"constants at {n},{k}")
        return {}
    return check


def kneser_bounds(seed: int) -> list[Op]:
    power = clique_counts(1023, {r: oracle.stirling2(11, r + 1) for r in (2, 3, 4)})
    kneser = clique_counts(560, {r: oracle.kneser_cliques(16, 3, r) for r in (2, 3, 4)})
    ops = [
        Op(("graph", "--family", fam, "--count-cliques", str(r), "--density", str(r)), 0, counts(r))
        for fam, counts in (("power10.txt", power), ("kneser16_3.txt", kneser))
        for r in (3, 4)
    ]
    return ops + [
        Op(("bounds", "coverage", "--family", "power10.txt", "-k", "3"), 0, coverage_count(3)),
        Op(("bounds", "union-check", "--family", "canon12_2.txt", "-k", "2", "-t", "3"), 0,
           union_probability(12, 2, 3)),
        Op(("bounds", "lemma4", "-n", "12", "-k", "2", "-m", "32", "-t", "3"), 0, lemma4(12, 2, 32, 3)),
        Op(("bounds", "table", "--n-max", "30", "--k-max", "6"), 0, bound_table(30, 6)),
    ]


WORKLOADS = {
    "check-wide": check_wide,
    "search-certify": search_certify,
    "kneser-bounds": kneser_bounds,
}
