"""Exact minimum k-generator size at small n, by iterative deepening + branch and bound.

For each candidate size m (starting at the counting lower bound) the search
asks whether some family of m nonempty subsets is a k-generator. At every node
it finds the smallest mask x not yet expressible; any completion must add a
new member that is a subset of x, so branching is restricted to those
candidates, with earlier-tried candidates excluded in later branches so each
family is visited at most once. A count prune cuts a child, before its table
is built, when it cannot reach 2^n disjoint unions. A symmetry rule tries one
candidate per orbit under the permutations of twins within x: elements that
lie in exactly the same chosen non-singletons. Twins of a node are twins at
every ancestor, so swapping two of them fixes the chosen members all the way
up, and the argument that a failed sibling's orbit holds no completion
carries over class by class (see _Searcher._dfs)."""

from __future__ import annotations

import time
from functools import lru_cache
from math import comb, isnan
from typing import NamedTuple, Optional

from .errors import DEFAULT_NODE_BUDGET, DEFAULT_TIME_BUDGET, CapExceeded, GensetError
from .families import (
    SetFamily, _submasks, canonical_generator, canonical_size, trivial_lower_bound,
)
from .generate import _disjoint_positions, _smallest_missing, add_member, is_k_generator

# Checked before anything is allocated. (7,2) already takes 25 s; n = 16
# keeps the 2^n-bit tables at 8 KiB, one chunk per layer (w = n).
SEARCH_CAP = 16


class SearchReport(NamedTuple):
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
        self.n, self.k = n, k
        self.size = 1 << n
        self.node_budget = node_budget
        self.deadline = deadline
        self.nodes = 0

    def find(self, target: int) -> Optional[list[int]]:
        """A k-generator of size <= target, or None if none exists."""
        # Count prune. With c members chosen and slots = target - c to come, each
        # still-missing mask needs a disjoint tuple of i >= 1 new members and
        # j <= k - i old ones. The old j-tuples number 1, c, D_2 (the disjoint
        # pairs among the chosen) and at most C(c, j) for j >= 3. So a node is
        # cut when covered + base + per_pair[c] * D_2 < 2^n, i.e. when
        # covered + per_pair[c] * D_2 < need[c]. A complete family is never
        # cut, and at c = target (need 2^n, per_pair 0) every other one is.
        k = self.k
        self.need, self.per_pair = [], []
        for c in range(target + 1):
            slots = target - c
            base = per_pair = 0
            for i in range(1, min(k, slots) + 1):
                ways = comb(slots, i)
                base += ways * sum(comb(c, j) for j in range(k - i + 1) if j != 2)
                if k - i >= 2:
                    per_pair += ways
            self.need.append(self.size - base)
            self.per_pair.append(per_pair)
        # A child is counted and, if cut, dropped before its table is built.
        # The root, which holds only the empty set, is cut only below the
        # counting bound.
        self._count_node()
        if self.need[0] > 1:
            return None
        full = self.size - 1
        return self._dfs([1] * (k + 1), [], 0, (full,) if full & full - 1 else (), 0)

    def _count_node(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_budget or (
            self.nodes % 4096 == 0 and time.monotonic() > self.deadline
        ):
            raise _Budget

    def _dfs(
        self, layers: list[int], chosen: list[int], skip: int, twins: tuple, pairs: int
    ) -> Optional[list[int]]:
        # layers: the table of chosen. skip: bit g set if g is chosen or tried in
        # an earlier branch. twins: the twin classes of two or more elements.
        # pairs: D_2, the number of disjoint pairs among chosen.
        x = _smallest_missing(layers[-1], self.n)  # smallest ungenerated mask
        if x is None:
            return chosen
        # Symmetry. Every proper subset of x is a smaller mask, so generated; a
        # singleton generates only itself, so every singleton of x is chosen.
        # Two elements are twins when they lie in the same chosen
        # non-singletons. Swapping two twins of x thus fixes chosen, the
        # covered set and x; and twins of this node are twins at every
        # ancestor, whose chosen sets are smaller, so the swap fixes each
        # ancestor's chosen set and x too. It maps the completions of this
        # node onto themselves: were the image of one to hold a failed sibling
        # (tried here or at an ancestor, its branch returned None), take the
        # shallowest level with one and the earliest there, h0; the image is a
        # completion of h0's own branch, which found none. In an orbit of
        # completions, take one whose first member in branching order that is
        # a subset of x ranks lowest. For each class C, if its g & C were not
        # the lowest popcount(g & C) bits of C & x, a swap within C would give
        # that member a smaller mask of the same size, so a lower rank. Trying
        # only such canonical g therefore misses no orbit.
        classes = tuple(t for t in (C & x for C in twins) if t & t - 1)
        n, k = self.n, self.k
        c = len(chosen) + 1
        need, per_pair = self.need[c], self.per_pair[c]
        members, below, covered = layers[1], layers[-2], layers[-1]
        for g in _canonical_candidates(x, classes):
            if skip >> g & 1:
                continue
            self._count_node()
            # The child's top layer gains (below & disj) << g, as in add_member.
            # D_2 enters the count prune only for k >= 3; layer 1 holds the
            # empty set and the members, so more counts the chosen h missing g.
            disj = _disjoint_positions(g, n)
            more = (members & disj).bit_count() - 1 if k > 2 else 0
            if (covered | (below & disj) << g).bit_count() + per_pair * (pairs + more) >= need:
                child = layers.copy()
                add_member(child, g, n, n, 0)
                split = twins
                if g & g - 1:
                    split = tuple(t for C in twins for t in (C & g, C & ~g) if t & t - 1)
                found = self._dfs(child, chosen + [g], skip | 1 << g, split, pairs + more)
                if found is not None:
                    return found
            skip |= 1 << g
        return None


# Shared by every search in the process and unbounded: a sweep to n = k = 10
# holds about 1,350 entries. Callers only read the list.
@lru_cache(maxsize=None)
def _canonical_candidates(x: int, classes: tuple) -> list[int]:
    """The nonempty subsets g of x, largest first, then ascending mask, with
    g & C the lowest popcount(g & C) bits of C for each class C."""
    cands = []
    for g in sorted(_submasks(x)[:-1], key=lambda g: (-g.bit_count(), g)):
        for C in classes:
            gc = g & C
            if (C ^ gc) & (1 << gc.bit_length()) - 1:
                break
        else:
            cands.append(g)
    return cands


def _check_cap(n: int) -> None:
    if n > SEARCH_CAP:
        raise CapExceeded(f"n={n} exceeds the search cap {SEARCH_CAP}")


def _check_time_budget(time_budget: float) -> None:
    # No clock reading is ever past a NaN deadline, so NaN would mean no budget.
    if isnan(time_budget):
        raise GensetError("time budget must be a number, got nan")


def min_generator_size(
    n: int,
    k: int,
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
    _check_cap(n)
    _check_time_budget(time_budget)
    start = time.monotonic()
    deadline = start + time_budget
    lb = trivial_lower_bound(n, k)
    ub = canonical_size(n, k)
    searcher = _Searcher(n, k, node_budget, deadline)
    target = lb
    found = None
    try:
        while found is None and target < ub:
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
    _check_time_budget(time_budget)
    if k_max >= 1:
        _check_cap(n_max)  # before any case below the cap spends its budget
    reports = []
    for k in range(1, min(k_max, n_max) + 1):
        for n in range(k, n_max + 1):
            reports.append(
                min_generator_size(n, k, node_budget=node_budget, time_budget=time_budget)
            )
    return reports
