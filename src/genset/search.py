"""Exact minimum k-generator size at small n, by iterative deepening + branch and bound.

For each candidate size m (starting at the counting lower bound) the search
asks whether some family of m nonempty subsets is a k-generator. At every node
it finds the smallest mask x not yet expressible; any completion must add a
new member that is a subset of x, so branching is restricted to those
candidates, with earlier-tried candidates excluded in later branches so each
family is visited once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from typing import Optional

from .errors import GensetError
from .families import SetFamily, canonical_generator, canonical_size, trivial_lower_bound
from .generate import add_member, is_k_generator

DEFAULT_NODE_BUDGET = 10**9
DEFAULT_TIME_BUDGET = 600.0


@dataclass(frozen=True)
class SearchReport:
    n: int
    k: int
    minimum: Optional[int]
    witness: Optional[SetFamily]
    nodes_explored: int
    conjecture_holds: Optional[bool]
    conclusive: bool
    lower_bound: int
    upper_bound: int
    seconds: float


class _Budget(Exception):
    pass


class _Searcher:
    def __init__(self, n: int, k: int, node_budget: int, deadline: float):
        self.n = n
        self.k = k
        self.size = 1 << n
        self.full = (1 << self.size) - 1
        # Candidate pool: every nonempty subset, largest first, then ascending mask.
        self.pool = sorted(range(1, self.size), key=lambda g: (-bin(g).count("1"), g))
        self.node_budget = node_budget
        self.deadline = deadline
        self.nodes = 0

    def _count_prune(self, covered_count: int, c: int, slots: int) -> bool:
        # Each still-missing mask needs a disjoint tuple using >= 1 new member.
        k = self.k
        extra = sum(
            comb(slots, i) * sum(comb(c, j) for j in range(k - i + 1))
            for i in range(1, min(k, slots) + 1)
        )
        return covered_count + extra < self.size

    def find(self, target: int) -> Optional[list[int]]:
        """A k-generator of size <= target, or None if none exists."""
        return self._dfs([1] * (self.k + 1), [], 0, target)

    def _dfs(self, layers: list[int], chosen: list[int], skip: int, target: int) -> Optional[list[int]]:
        # layers: the table of chosen. skip: bit g set if g is chosen or tried in an earlier branch.
        self.nodes += 1
        if self.nodes > self.node_budget or (
            self.nodes % 4096 == 0 and time.monotonic() > self.deadline
        ):
            raise _Budget
        covered = layers[-1]
        if covered == self.full:
            return chosen
        slots = target - len(chosen)
        if slots == 0:
            return None
        if self._count_prune(covered.bit_count(), len(chosen), slots):
            return None
        x = (~covered & self.full)
        x = (x & -x).bit_length() - 1  # smallest ungenerated mask
        for g in self.pool:
            if g & ~x or skip >> g & 1:
                continue
            child = layers.copy()
            add_member(child, g)
            found = self._dfs(child, chosen + [g], skip | 1 << g, target)
            if found is not None:
                return found
            skip |= 1 << g
        return None


def min_generator_size(
    n: int,
    k: int,
    cap: Optional[int] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> SearchReport:
    """Exact minimum size of a k-generator of P[n], with exhaustion certificate.

    Iterative deepening from the counting lower bound up to the canonical
    generator's size (always a feasible witness). Budget exhaustion yields an
    inconclusive report carrying the best bounds proved so far.
    """
    if not 1 <= k <= n:
        raise GensetError(f"need 1 <= k <= n, got k={k}, n={n}")
    start = time.monotonic()
    deadline = start + time_budget
    lb = trivial_lower_bound(n, k)
    ub = canonical_size(n, k)
    searcher = _Searcher(n, k, node_budget, deadline)
    target = lb
    found = None
    try:
        while found is None and target < ub and (cap is None or target <= cap):
            found = searcher.find(target)
            if found is None:
                target += 1
    except _Budget:
        pass
    if found is None and target < ub:
        return SearchReport(
            n, k, None, None, searcher.nodes, None, False,
            target, ub, time.monotonic() - start,
        )
    witness = canonical_generator(n, k) if found is None else SetFamily(n, tuple(sorted(found)))
    # The certificate: a witness the generator DP rejects is a bug in the search.
    if not is_k_generator(witness, k).holds:
        raise AssertionError(f"search witness is not a {k}-generator of P[{n}]")
    mini = witness.m
    return SearchReport(
        n, k, mini, witness, searcher.nodes, mini >= ub, True,
        mini, mini, time.monotonic() - start,
    )


def verify_conjecture_range(
    n_max: int,
    k_max: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> list[SearchReport]:
    """min_generator_size over all k <= k_max, k <= n <= n_max; inconclusive entries pass through."""
    reports = []
    for k in range(1, k_max + 1):
        for n in range(k, n_max + 1):
            reports.append(
                min_generator_size(n, k, node_budget=node_budget, time_budget=time_budget)
            )
    return reports
